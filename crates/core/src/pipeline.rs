//! The end-to-end confidential inference pipeline.
//!
//! `deploy` walks the full trust chain the paper's deployments rely on:
//!
//! 1. The model owner encrypts the weights ([`crate::ModelOwner`]).
//! 2. The platform launches an enclave from a validated Gramine-like
//!    manifest and measures it.
//! 3. The owner attests the enclave with a fresh nonce and — only on
//!    success — releases the weight-decryption key.
//! 4. The weights are decrypted *inside* the enclave and inference runs
//!    with the real `cllm-infer` engine.
//!
//! The same pipeline exposes [`ConfidentialPipeline::estimate`], which
//! prices any request shape on the paper's testbed models via the
//! `cllm-perf` simulator — functional truth and performance prediction in
//! one object.

use crate::owner::{ModelOwner, OwnerError};
use cllm_hw::DType;
use cllm_infer::generate::{generate, Sampling};
use cllm_infer::model::{TinyConfig, TinyModel};
use cllm_infer::tokenizer::BpeTokenizer;
use cllm_perf::{simulate_cpu, simulate_gpu, CpuTarget};
use cllm_tee::enclave::Enclave;
use cllm_tee::manifest::{Manifest, ManifestError};
use cllm_tee::platform::Platform;
use cllm_workload::phase::RequestSpec;
use cllm_workload::{zoo, ModelConfig};

/// Everything needed to deploy a confidential inference service.
#[derive(Clone)]
pub struct DeploymentSpec {
    /// The execution platform (which TEE, if any).
    pub platform: Platform,
    /// Data type of the production deployment being modelled.
    pub dtype: DType,
    /// Architecture whose performance is being modelled.
    pub workload_model: ModelConfig,
    /// CPU target for estimates (ignored for GPU platforms).
    pub cpu_target: CpuTarget,
    /// Config of the functional tiny model run inside the enclave.
    pub tiny_config: TinyConfig,
    /// Weight-initialization seed for the tiny model.
    pub tiny_seed: u64,
    /// Hardware vendor root of trust.
    pub hw_root: Vec<u8>,
    /// Minimum acceptable TCB security version.
    pub min_svn: u16,
}

impl DeploymentSpec {
    /// A demo spec: Llama2-7B performance model, tiny functional model.
    #[must_use]
    pub fn tiny_demo(platform: Platform) -> Self {
        DeploymentSpec {
            platform,
            dtype: DType::Bf16,
            workload_model: zoo::llama2_7b(),
            cpu_target: CpuTarget::emr1_single_socket(),
            tiny_config: TinyConfig::test_small(),
            tiny_seed: 1234,
            hw_root: b"simulated-hw-root".to_vec(),
            min_svn: 5,
        }
    }
}

impl std::fmt::Debug for DeploymentSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the hardware root: it signs quotes.
        f.debug_struct("DeploymentSpec")
            .field("platform", &self.platform)
            .field("dtype", &self.dtype)
            .field("workload_model", &self.workload_model)
            .field("cpu_target", &self.cpu_target)
            .field("tiny_config", &self.tiny_config)
            .field("tiny_seed", &self.tiny_seed)
            .field("min_svn", &self.min_svn)
            .finish_non_exhaustive()
    }
}

/// Deployment failures.
#[derive(Debug)]
pub enum PipelineError {
    /// The manifest failed validation.
    Manifest(ManifestError),
    /// Attestation or sealed-weight handling failed.
    Owner(OwnerError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Manifest(e) => write!(f, "manifest: {e}"),
            PipelineError::Owner(e) => write!(f, "owner: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ManifestError> for PipelineError {
    fn from(e: ManifestError) -> Self {
        PipelineError::Manifest(e)
    }
}

impl From<OwnerError> for PipelineError {
    fn from(e: OwnerError) -> Self {
        PipelineError::Owner(e)
    }
}

/// Performance estimate for one request shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// First-token (prefill) latency, seconds.
    pub prefill_s: f64,
    /// Mean next-token latency, seconds.
    pub token_latency_s: f64,
    /// Steady-state decode throughput, tokens/second.
    pub decode_tps: f64,
    /// End-to-end throughput including prefill, tokens/second.
    pub e2e_tps: f64,
}

/// A deployed confidential inference service.
pub struct ConfidentialPipeline {
    spec: DeploymentSpec,
    enclave: Enclave,
    model: TinyModel,
    tokenizer: BpeTokenizer,
}

impl std::fmt::Debug for ConfidentialPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the decrypted weights; the spec and the enclave
        // hide the hardware root themselves.
        f.debug_struct("ConfidentialPipeline")
            .field("spec", &self.spec)
            .field("enclave", &self.enclave)
            .finish_non_exhaustive()
    }
}

impl ConfidentialPipeline {
    /// Deploy: build manifest, launch enclave, attest, release key,
    /// decrypt weights inside the enclave.
    pub fn deploy(spec: &DeploymentSpec) -> Result<Self, PipelineError> {
        // The owner prepares the model and its encrypted artifact.
        let plaintext_model = TinyModel::init(&spec.tiny_config, spec.tiny_seed);

        // Build the manifest; the encrypted model file is an encrypted
        // mount, the runtime is a trusted (hash-pinned) file.
        let manifest = Manifest::builder("cllm-infer-server")
            .enclave_size_gib(64)
            .threads(spec.cpu_target.cores_per_socket.max(1))
            .trusted_file("libcllm_infer.so", b"runtime-v1")
            .encrypted_file("model.bin", "weights-key")
            .build();
        manifest.validate()?;

        let mut owner = ModelOwner::new(
            &spec.hw_root,
            manifest.measurement(),
            spec.min_svn,
            b"owner-hsm-seed",
        );
        let encrypted = owner.encrypt_model(&plaintext_model)?;
        drop(plaintext_model); // the cloud only ever sees ciphertext

        // Launch, then establish an attested secure channel: the quote is
        // bound to the channel transcript, so the key release cannot be
        // relayed to a machine in the middle.
        let enclave = Enclave::launch(&manifest, &spec.hw_root)?;
        let (verifier, challenge) = owner.begin_session();
        let (response, mut enclave_chan) = cllm_tee::session::enclave_respond(
            &spec.hw_root,
            enclave.measurement(),
            7,
            &challenge,
            b"enclave-session-seed",
        )
        .map_err(crate::owner::OwnerError::Session)?;
        let (_owner_chan, key_record) = owner.release_key_secure(&verifier, &response)?;
        let key_bytes = enclave_chan
            .recv(&key_record)
            .map_err(crate::owner::OwnerError::Session)?;
        let key: [u8; 16] = key_bytes.as_slice().try_into().map_err(|_| {
            crate::owner::OwnerError::Session(cllm_tee::session::SessionError::BadRecord)
        })?;

        // Decrypt inside the enclave.
        let mut model = ModelOwner::decrypt_model(&key, &encrypted)?;
        if spec.dtype == DType::Int8 {
            model = model.quantized();
        }

        let tokenizer = BpeTokenizer::bytes_only();
        Ok(ConfidentialPipeline {
            spec: spec.clone(),
            enclave,
            model,
            tokenizer,
        })
    }

    /// The deployment spec.
    #[must_use]
    pub fn spec(&self) -> &DeploymentSpec {
        &self.spec
    }

    /// The enclave measurement users can pin.
    #[must_use]
    pub fn measurement_hex(&self) -> String {
        self.enclave.measurement().hex()
    }

    /// Generate `max_new` tokens of text from a prompt, inside the
    /// enclave, with the functional engine (greedy decoding).
    #[must_use]
    pub fn generate(&self, prompt: &str, max_new: usize) -> String {
        let mut ids = self.tokenizer.encode(prompt);
        ids.retain(|&t| t < self.model.config.vocab);
        if ids.is_empty() {
            ids.push(0);
        }
        let budget = self.model.config.max_seq.saturating_sub(ids.len() + 1);
        let out = generate(&self.model, &ids, max_new.min(budget), Sampling::Greedy, 0);
        self.enclave.record_exits(1); // response leaves the enclave
        self.tokenizer.decode(&out)
    }

    /// Predict the performance of this deployment for a request shape on
    /// the paper's testbeds.
    #[must_use]
    pub fn estimate(&self, req: &RequestSpec) -> Estimate {
        match &self.spec.platform {
            Platform::Cpu(tee) => {
                let r = simulate_cpu(
                    &self.spec.workload_model,
                    req,
                    self.spec.dtype,
                    &self.spec.cpu_target,
                    tee,
                );
                Estimate {
                    prefill_s: r.prefill_s,
                    token_latency_s: r.summary.mean,
                    decode_tps: r.decode_tps,
                    e2e_tps: r.e2e_tps,
                }
            }
            Platform::Gpu(cfg) => {
                let gpu = cllm_hw::presets::h100_nvl();
                let r = simulate_gpu(&self.spec.workload_model, req, self.spec.dtype, &gpu, cfg);
                Estimate {
                    prefill_s: r.prefill_s,
                    token_latency_s: r.summary.mean,
                    decode_tps: r.decode_tps,
                    e2e_tps: r.e2e_tps,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cllm_tee::platform::{CpuTeeConfig, TeeKind};

    #[test]
    fn deploy_and_generate_on_every_platform() {
        for platform in [
            Platform::Cpu(CpuTeeConfig::bare_metal()),
            Platform::Cpu(CpuTeeConfig::sgx()),
            Platform::Cpu(CpuTeeConfig::tdx()),
            Platform::preset(TeeKind::GpuCc),
        ] {
            let spec = DeploymentSpec::tiny_demo(platform);
            let p = ConfidentialPipeline::deploy(&spec).unwrap();
            let text = p.generate("hello", 6);
            assert!(!text.is_empty());
        }
    }

    #[test]
    fn spec_debug_hides_the_hardware_root() {
        let spec = DeploymentSpec::tiny_demo(Platform::preset(TeeKind::Tdx));
        let dbg = format!("{spec:?}");
        assert!(dbg.starts_with("DeploymentSpec { platform: Cpu("), "{dbg}");
        assert!(dbg.ends_with("min_svn: 5, .. }"), "{dbg}");
        assert!(!dbg.contains(&format!("{:?}", spec.hw_root)), "{dbg}");
        assert!(!dbg.contains("simulated-hw-root"), "{dbg}");
    }

    #[test]
    fn pipeline_debug_hides_the_hardware_root_and_the_weights() {
        let spec = DeploymentSpec::tiny_demo(Platform::preset(TeeKind::Sgx));
        let p = ConfidentialPipeline::deploy(&spec).unwrap();
        let dbg = format!("{p:?}");
        assert!(
            dbg.starts_with("ConfidentialPipeline { spec: DeploymentSpec {"),
            "{dbg}"
        );
        assert!(dbg.contains("enclave: Enclave {"), "{dbg}");
        assert!(!dbg.contains(&format!("{:?}", spec.hw_root)), "{dbg}");
        assert!(!dbg.contains("simulated-hw-root"), "{dbg}");
        // No weight of the decrypted model shows: not the embedding
        // table, not a single entry of it.
        assert!(!dbg.contains(&format!("{:?}", p.model.embed)), "{dbg}");
        for &w in &p.model.embed.as_slice()[..16] {
            assert!(
                !dbg.contains(&format!("{w:?}")),
                "weight {w:?} leaked: {dbg}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic_across_deployments() {
        let a = ConfidentialPipeline::deploy(&DeploymentSpec::tiny_demo(Platform::Cpu(
            CpuTeeConfig::tdx(),
        )))
        .unwrap();
        let b = ConfidentialPipeline::deploy(&DeploymentSpec::tiny_demo(Platform::Cpu(
            CpuTeeConfig::sgx(),
        )))
        .unwrap();
        // Same sealed weights -> same text, regardless of TEE.
        assert_eq!(a.generate("prompt", 12), b.generate("prompt", 12));
    }

    #[test]
    fn untrusted_hardware_cannot_deploy() {
        let mut spec = DeploymentSpec::tiny_demo(Platform::Cpu(CpuTeeConfig::tdx()));
        // Owner trusts a different root than the machine's.
        spec.min_svn = 200; // TCB check can never pass
        assert!(matches!(
            ConfidentialPipeline::deploy(&spec),
            Err(PipelineError::Owner(_))
        ));
    }

    #[test]
    fn estimates_reflect_tee_overheads() {
        let req = RequestSpec::new(6, 1024, 32).with_beam(4);
        let bare = ConfidentialPipeline::deploy(&DeploymentSpec::tiny_demo(Platform::Cpu(
            CpuTeeConfig::bare_metal(),
        )))
        .unwrap()
        .estimate(&req);
        let tdx = ConfidentialPipeline::deploy(&DeploymentSpec::tiny_demo(Platform::Cpu(
            CpuTeeConfig::tdx(),
        )))
        .unwrap()
        .estimate(&req);
        assert!(tdx.decode_tps < bare.decode_tps);
        let overhead = bare.decode_tps / tdx.decode_tps - 1.0;
        assert!(overhead < 0.15, "overhead {overhead}");
    }

    #[test]
    fn int8_spec_quantizes_model() {
        let mut spec = DeploymentSpec::tiny_demo(Platform::Cpu(CpuTeeConfig::tdx()));
        spec.dtype = DType::Int8;
        let p = ConfidentialPipeline::deploy(&spec).unwrap();
        assert!(!p.generate("quantized", 4).is_empty());
    }

    #[test]
    fn gpu_estimate_is_much_faster() {
        let req = RequestSpec::new(1, 512, 16);
        let cpu = ConfidentialPipeline::deploy(&DeploymentSpec::tiny_demo(Platform::Cpu(
            CpuTeeConfig::tdx(),
        )))
        .unwrap()
        .estimate(&req);
        let gpu = ConfidentialPipeline::deploy(&DeploymentSpec::tiny_demo(Platform::preset(
            TeeKind::GpuCc,
        )))
        .unwrap()
        .estimate(&req);
        assert!(gpu.token_latency_s < cpu.token_latency_s / 3.0);
    }
}
