//! A functional, pure-Rust transformer inference engine.
//!
//! The performance study in `cllm-perf` models Llama-class inference
//! analytically; this crate complements it with a *real, executable*
//! engine so the confidential pipeline in `cllm-core` can demonstrably
//! decrypt weights inside an enclave, run a forward pass, and produce
//! tokens — end to end, with no external ML framework.
//!
//! It implements, from scratch:
//!
//! * [`tensor`] — a minimal row-major f32 tensor.
//! * [`kernels`] — panel matmul (weights interleaved in panels of 16
//!   output rows; GEMV and batched GEMM on one register-tiled routine, plus
//!   the scalar reference kernel), all-head attention over runs of query
//!   positions on the same tiles, RMSNorm, a vectorizable `exp` behind
//!   softmax and SiLU, and rotary position embeddings from per-position
//!   angle tables.
//! * [`quant`] — group-wise int8 and packed int4 weights in blocks of 16
//!   output rows, run as exact integer dot products against activations
//!   quantized per group (16-bit codes for int8, 8-bit for int4), with
//!   one f32 step per group, mirroring the paper's integer-unit int8. On
//!   AVX-512 VNNI they run on `vpdpwssd` and `vpdpbusd` in a private
//!   module that holds the crate's only `unsafe` code, reached only once
//!   `is_x86_feature_detected!` confirmed the instructions; elsewhere a
//!   safe portable kernel computes the same bits.
//! * [`model`] — a Llama-architecture decoder (RMSNorm → QKV → RoPE →
//!   attention over a KV cache with blocked keys → gated SiLU MLP) at any
//!   size; deterministic weight initialization for reproducible tests;
//!   single-token, chunked and batched forwards that are bit-identical per
//!   token.
//! * [`tokenizer`] — byte-level tokenizer with trainable BPE merges.
//! * [`generate`] — greedy and temperature sampling loops.
//! * [`speculative`] — draft-k/verify/accept-prefix speculative decoding,
//!   token-identical to vanilla decode by construction.
//!
//! The engine runs small-scale in tests (hidden sizes of 64-128) but is
//! architecturally faithful: the same operator sequence whose FLOP/byte
//! counts `cllm-workload` prices. `bench_infer` (in `cllm-bench`) times
//! the kernels at weight-bound shapes and pins tokens/sec floors in
//! `BENCH_infer.json`, which `cllm_perf::calib::measured` compares
//! against the analytical roofline.
//!
//! # Example
//!
//! ```
//! use cllm_infer::model::{TinyConfig, TinyModel};
//! use cllm_infer::generate::{generate, Sampling};
//!
//! let config = TinyConfig::test_small();
//! let model = TinyModel::init(&config, 42);
//! let out = generate(&model, &[1, 2, 3], 8, Sampling::Greedy, 0);
//! assert_eq!(out.len(), 8);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod generate;
pub mod kernels;
pub mod model;
pub mod quant;
pub mod serialize;
pub mod speculative;
pub mod tensor;
pub mod tokenizer;
