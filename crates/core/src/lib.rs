//! Confidential LLM inference: the paper's primary contribution as a
//! reusable library.
//!
//! `cllm-core` ties every substrate together behind one public API:
//!
//! * [`ConfidentialPipeline`] — the end-to-end confidential deployment:
//!   a model owner encrypts weights, the platform launches a (simulated)
//!   enclave, remote attestation releases the decryption key, the weights
//!   are decrypted *inside* the enclave, and real tokens are generated
//!   with the `cllm-infer` engine — while `cllm-perf` predicts what the
//!   same deployment costs on the paper's Emerald Rapids / H100 testbeds.
//! * [`experiments`] — one runner per table/figure of the paper; each
//!   regenerates the published result's shape from the simulator and
//!   renders it as a table plus machine-readable JSON.
//! * [`runner`] — executes the whole registry in paper order (backed by
//!   the `cllm-perf` simulation cache), fencing each experiment's panic
//!   and profiling its wall time and cache traffic.
//! * [`insights`] — the paper's 12 insights as executable checks.
//! * [`summary`] — Table I (the security/performance/cost matrix).
//!
//! # Quickstart
//!
//! ```
//! use cllm_core::pipeline::{DeploymentSpec, ConfidentialPipeline};
//! use cllm_tee::platform::{CpuTeeConfig, Platform};
//!
//! let spec = DeploymentSpec::tiny_demo(Platform::Cpu(CpuTeeConfig::tdx()));
//! let pipeline = ConfidentialPipeline::deploy(&spec).expect("attestation succeeds");
//! let text = pipeline.generate("confidential inference", 8);
//! assert!(!text.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod insights;
pub mod owner;
pub mod pipeline;
pub mod runner;
pub mod scenario;
pub mod summary;
pub mod table;

pub use owner::{EncryptedModel, ModelOwner};
pub use pipeline::{ConfidentialPipeline, DeploymentSpec, PipelineError};
