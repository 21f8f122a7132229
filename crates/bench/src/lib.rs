//! The measured-bench contract ([`pin`]) behind `serve_bench` and
//! `bench_infer`.
//!
//! The two measured benches time real code on this machine and pin
//! their rates in `BENCH_serve.json` and `BENCH_infer.json`. The paper's
//! tables and figures are not benches: `cllm figures` regenerates them
//! and is the one writer of the results directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pin;
