//! Declarative sweep layer: operating points and grids as data.
//!
//! Every experiment in the paper evaluates a grid — model × dtype ×
//! batch/input × target × TEE — and compares each point against a
//! baseline (bare metal on CPU, native on GPU). This module factors the
//! shared pieces out of the experiments:
//!
//! * [`CpuScenario`] / [`GpuScenario`] — one fully-specified operating
//!   point. [`CpuScenario::simulate`] always goes through the memoized
//!   `cllm_perf` cache, so an insight asking for the same point a figure
//!   published is a cache hit, not a re-simulation. The point's identity
//!   is its cache key ([`CpuScenario::cache_key`]), reused verbatim from
//!   `cllm_perf::cache`.
//! * [`grid2`] / [`grid3`] — cartesian grids in row-major (paper) order;
//!   an experiment maps one table row per point and feeds the rows to
//!   [`TypedResult::extend_rows`](crate::table::TypedResult::extend_rows).

use cllm_hw::{DType, GpuModel};
use cllm_perf::{cache, overhead_pct, throughput_overhead_pct, CpuTarget, GpuSimResult, SimResult};
use cllm_tee::platform::{CpuTeeConfig, GpuTeeConfig};
use cllm_workload::phase::RequestSpec;
use cllm_workload::{zoo, ModelConfig};
use std::sync::Arc;

/// One CPU operating point: everything [`cllm_perf::simulate_cpu`] needs.
///
/// Defaults mirror the paper's main CPU testbed: Llama2-7B, bf16, one
/// EMR2 socket, TDX. Override any axis with the `with_*` builders.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuScenario {
    /// Model under test.
    pub model: ModelConfig,
    /// Request shape (batch / input / output / beam).
    pub req: RequestSpec,
    /// Numeric precision.
    pub dtype: DType,
    /// Hardware target (sockets, cores, AMX, framework).
    pub target: CpuTarget,
    /// TEE configuration (bare metal, VM, SGX, TDX, SEV-SNP…).
    pub tee: CpuTeeConfig,
}

impl CpuScenario {
    /// A point on the paper's default CPU testbed: Llama2-7B, bf16,
    /// single-socket EMR2, TDX.
    #[must_use]
    pub fn llama2_7b(req: RequestSpec) -> Self {
        CpuScenario {
            model: zoo::llama2_7b(),
            req,
            dtype: DType::Bf16,
            target: CpuTarget::emr2_single_socket(),
            tee: CpuTeeConfig::tdx(),
        }
    }

    /// Same point with a different model.
    #[must_use]
    pub fn with_model(mut self, model: ModelConfig) -> Self {
        self.model = model;
        self
    }

    /// Same point with a different request shape.
    #[must_use]
    pub fn with_req(mut self, req: RequestSpec) -> Self {
        self.req = req;
        self
    }

    /// Same point with a different dtype.
    #[must_use]
    pub fn with_dtype(mut self, dtype: DType) -> Self {
        self.dtype = dtype;
        self
    }

    /// Same point with a different hardware target.
    #[must_use]
    pub fn with_target(mut self, target: CpuTarget) -> Self {
        self.target = target;
        self
    }

    /// Same point with a different TEE configuration.
    #[must_use]
    pub fn with_tee(mut self, tee: CpuTeeConfig) -> Self {
        self.tee = tee;
        self
    }

    /// Same point on bare metal — the baseline every CPU overhead in the
    /// paper divides by.
    #[must_use]
    pub fn baseline(&self) -> Self {
        self.clone().with_tee(CpuTeeConfig::bare_metal())
    }

    /// The point's identity in the `cllm_perf` memoization cache.
    #[must_use]
    pub fn cache_key(&self) -> String {
        cache::cpu_key(&self.model, &self.req, self.dtype, &self.target, &self.tee)
    }

    /// Simulate this point through the memoized cache. Repeat calls for
    /// the same point — from figures, insights or tests — share one
    /// simulation.
    #[must_use]
    pub fn simulate(&self) -> Arc<SimResult> {
        cache::simulate_cpu_cached(&self.model, &self.req, self.dtype, &self.target, &self.tee)
    }

    /// Decode-throughput overhead of this point vs its bare-metal
    /// [`CpuScenario::baseline`], percent.
    #[must_use]
    pub fn thr_overhead(&self) -> f64 {
        throughput_overhead_pct(
            self.baseline().simulate().decode_tps,
            self.simulate().decode_tps,
        )
    }

    /// Mean next-token latency overhead of this point vs its bare-metal
    /// [`CpuScenario::baseline`], percent.
    #[must_use]
    pub fn lat_overhead(&self) -> f64 {
        overhead_pct(
            self.baseline().simulate().summary.mean,
            self.simulate().summary.mean,
        )
    }
}

/// One GPU operating point: everything [`cllm_perf::simulate_gpu`] needs.
///
/// Defaults mirror the paper's main GPU testbed: Llama2-7B, bf16, one
/// H100 NVL, confidential computing on.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuScenario {
    /// Model under test.
    pub model: ModelConfig,
    /// Request shape (batch / input / output / beam).
    pub req: RequestSpec,
    /// Numeric precision.
    pub dtype: DType,
    /// GPU under test.
    pub gpu: GpuModel,
    /// GPU TEE configuration (native or confidential).
    pub cfg: GpuTeeConfig,
}

impl GpuScenario {
    /// A point on the paper's default GPU testbed: Llama2-7B, bf16,
    /// H100 NVL, confidential mode.
    #[must_use]
    pub fn llama2_7b(req: RequestSpec) -> Self {
        GpuScenario {
            model: zoo::llama2_7b(),
            req,
            dtype: DType::Bf16,
            gpu: cllm_hw::presets::h100_nvl(),
            cfg: GpuTeeConfig::confidential(),
        }
    }

    /// Same point with a different model.
    #[must_use]
    pub fn with_model(mut self, model: ModelConfig) -> Self {
        self.model = model;
        self
    }

    /// Same point with a different request shape.
    #[must_use]
    pub fn with_req(mut self, req: RequestSpec) -> Self {
        self.req = req;
        self
    }

    /// Same point with a different dtype.
    #[must_use]
    pub fn with_dtype(mut self, dtype: DType) -> Self {
        self.dtype = dtype;
        self
    }

    /// Same point on a different GPU.
    #[must_use]
    pub fn with_gpu(mut self, gpu: GpuModel) -> Self {
        self.gpu = gpu;
        self
    }

    /// Same point with a different GPU TEE configuration.
    #[must_use]
    pub fn with_cfg(mut self, cfg: GpuTeeConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Same point in native (non-confidential) mode — the baseline every
    /// GPU overhead in the paper divides by.
    #[must_use]
    pub fn baseline(&self) -> Self {
        self.clone().with_cfg(GpuTeeConfig::native())
    }

    /// The point's identity in the `cllm_perf` memoization cache.
    #[must_use]
    pub fn cache_key(&self) -> String {
        cache::gpu_key(&self.model, &self.req, self.dtype, &self.gpu, &self.cfg)
    }

    /// Simulate this point through the memoized cache.
    #[must_use]
    pub fn simulate(&self) -> Arc<GpuSimResult> {
        cache::simulate_gpu_cached(&self.model, &self.req, self.dtype, &self.gpu, &self.cfg)
    }

    /// End-to-end-throughput overhead of this point vs its native
    /// [`GpuScenario::baseline`], percent.
    #[must_use]
    pub fn e2e_overhead(&self) -> f64 {
        throughput_overhead_pct(self.baseline().simulate().e2e_tps, self.simulate().e2e_tps)
    }

    /// Decode-throughput overhead of this point vs its native
    /// [`GpuScenario::baseline`], percent.
    #[must_use]
    pub fn decode_overhead(&self) -> f64 {
        throughput_overhead_pct(
            self.baseline().simulate().decode_tps,
            self.simulate().decode_tps,
        )
    }
}

/// Cartesian grid of two axes in row-major order: `a` is the slow
/// (outer) axis, matching the paper's dtype-major table layout.
#[must_use]
pub fn grid2<A: Copy, B: Copy>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    a.iter()
        .flat_map(|&x| b.iter().map(move |&y| (x, y)))
        .collect()
}

/// Cartesian grid of three axes in row-major order (`a` slowest).
#[must_use]
pub fn grid3<A: Copy, B: Copy, C: Copy>(a: &[A], b: &[B], c: &[C]) -> Vec<(A, B, C)> {
    a.iter()
        .flat_map(|&x| grid2(b, c).into_iter().map(move |(y, z)| (x, y, z)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    #[test]
    fn grids_are_row_major() {
        assert_eq!(
            grid2(&[1, 2], &["a", "b"]),
            vec![(1, "a"), (1, "b"), (2, "a"), (2, "b")]
        );
        let g3 = grid3(&[1, 2], &[10, 20], &[100]);
        assert_eq!(g3[0], (1, 10, 100));
        assert_eq!(g3[1], (1, 20, 100));
        assert_eq!(g3[2], (2, 10, 100));
        assert_eq!(g3.len(), 4);
    }

    #[test]
    fn cpu_scenario_is_cached_by_key() {
        let s = CpuScenario::llama2_7b(RequestSpec::new(2, 64, 8));
        let t = s.clone();
        assert_eq!(s.cache_key(), t.cache_key());
        assert_ne!(s.cache_key(), s.baseline().cache_key());
        let a = s.simulate();
        let b = t.simulate();
        assert!(StdArc::ptr_eq(&a, &b), "same key must share one entry");
    }

    #[test]
    fn cpu_overheads_compare_against_bare_metal() {
        let s = CpuScenario::llama2_7b(RequestSpec::new(1, 128, 16));
        let thr = s.thr_overhead();
        let lat = s.lat_overhead();
        assert!(thr > 0.0, "TDX must cost throughput: {thr}%");
        assert!(lat > 0.0, "TDX must cost latency: {lat}%");
        // The baseline's own overhead is identically zero.
        assert!(s.baseline().thr_overhead().abs() < 1e-9);
    }

    #[test]
    fn gpu_scenario_baseline_is_native() {
        let s = GpuScenario::llama2_7b(RequestSpec::new(4, 128, 16));
        assert_eq!(s.baseline().cfg, GpuTeeConfig::native());
        let o = s.e2e_overhead();
        assert!(o > 0.0, "confidential mode must cost throughput: {o}%");
        assert!(s.baseline().e2e_overhead().abs() < 1e-9);
    }

    #[test]
    fn builders_override_each_axis() {
        let s = CpuScenario::llama2_7b(RequestSpec::new(1, 64, 8))
            .with_dtype(DType::Int8)
            .with_target(CpuTarget::emr1_single_socket())
            .with_tee(CpuTeeConfig::vm());
        assert_eq!(s.dtype, DType::Int8);
        assert_eq!(s.target, CpuTarget::emr1_single_socket());
        assert_eq!(s.tee, CpuTeeConfig::vm());
        let g = GpuScenario::llama2_7b(RequestSpec::new(1, 64, 8))
            .with_gpu(cllm_hw::presets::h100_nvl())
            .with_cfg(GpuTeeConfig::native());
        assert_eq!(g.cfg, GpuTeeConfig::native());
    }
}
