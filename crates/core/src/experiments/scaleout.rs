//! Scale-out analysis — Section V-D4: confidential H100 instances lack
//! RDMA/GPUDirect, so all inter-GPU data detours through the CPU at
//! ~3 GB/s (vs 40 GB/s non-confidential), crippling tensor-parallel
//! throughput; CPUs with transparently-encrypted UPI scale up instead.
//!
//! We run Llama2-70B (which fits neither one GPU nor one socket) on
//! 2x H100 (native and CC) and on a dual-socket TDX host.

use super::{Column, ExperimentResult, Unit, Value};
use crate::scenario::CpuScenario;
use cllm_hw::DType;
use cllm_perf::{simulate_multi_gpu, CpuTarget};
use cllm_tee::platform::GpuTeeConfig;
use cllm_workload::phase::RequestSpec;
use cllm_workload::zoo;

/// Decode throughput of 2x H100 at one batch size.
///
/// Multi-GPU simulation has no memoized variant (the tensor-parallel
/// sweep is cheap and nothing else shares its points), so this calls
/// [`simulate_multi_gpu`] directly.
#[must_use]
pub fn dual_gpu_tps(confidential: bool, batch: u64) -> f64 {
    let cfg = if confidential {
        GpuTeeConfig::confidential()
    } else {
        GpuTeeConfig::native()
    };
    simulate_multi_gpu(
        &zoo::llama2_70b(),
        &RequestSpec::new(batch, 512, 64),
        DType::Bf16,
        &cllm_hw::presets::h100_nvl(),
        &cfg,
        2,
    )
    .decode_tps
}

/// Decode throughput of dual-socket TDX at one batch size.
#[must_use]
pub fn dual_socket_tdx_tps(batch: u64) -> f64 {
    CpuScenario::llama2_7b(RequestSpec::new(batch, 512, 64))
        .with_model(zoo::llama2_70b())
        .with_target(CpuTarget::emr2_dual_socket())
        .simulate()
        .decode_tps
}

/// Run the experiment.
#[must_use]
pub fn run() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "scaleout",
        "Llama2-70B scale-out: 2x H100 (native/CC) vs dual-socket TDX",
        vec![
            Column::int("batch"),
            Column::float("2xGPU_native_tps", Unit::TokensPerSec, 1),
            Column::float("2xGPU_cc_tps", Unit::TokensPerSec, 1),
            Column::pct("cc_scaleout_penalty"),
            Column::float("2socket_TDX_tps", Unit::TokensPerSec, 2),
        ],
    );
    r.extend_rows([1u64, 8, 32, 64].iter().map(|&batch| {
        let native = dual_gpu_tps(false, batch);
        let cc = dual_gpu_tps(true, batch);
        vec![
            Value::uint(batch),
            Value::float(native, Unit::TokensPerSec, 1),
            Value::float(cc, Unit::TokensPerSec, 1),
            Value::pct((native / cc - 1.0) * 100.0),
            Value::float(dual_socket_tdx_tps(batch), Unit::TokensPerSec, 2),
        ]
    }));
    r.note("paper: cGPU instances cap inter-GPU traffic at ~3 GB/s (no RDMA/GPUDirect), costly for tensor/pipeline parallelism");
    r.note("paper: CPU sockets scale up with transparently encrypted UPI; network protection (IPsec) would cost up to 90% on top of either platform for scale-out");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cc_scaleout_penalty_grows_with_batch() {
        // More tokens per step -> more allreduce bytes through the 3 GB/s
        // host detour.
        let p1 = dual_gpu_tps(false, 1) / dual_gpu_tps(true, 1);
        let p64 = dual_gpu_tps(false, 64) / dual_gpu_tps(true, 64);
        assert!(p64 > p1, "penalty must grow: {p1:.2}x -> {p64:.2}x");
        assert!(p64 > 1.5, "large-batch CC scale-out penalty only {p64:.2}x");
    }

    #[test]
    fn cc_scaleout_narrows_gpu_advantage() {
        // Section V-D4: "We expect this to lower the advantage of GPUs
        // over CPUs."
        let batch = 64;
        let cpu = dual_socket_tdx_tps(batch);
        let native_adv = dual_gpu_tps(false, batch) / cpu;
        let cc_adv = dual_gpu_tps(true, batch) / cpu;
        assert!(
            cc_adv < native_adv * 0.7,
            "native {native_adv:.1}x vs cc {cc_adv:.1}x"
        );
    }

    #[test]
    fn native_dual_gpu_beats_cpu() {
        assert!(dual_gpu_tps(false, 8) > 3.0 * dual_socket_tdx_tps(8));
    }
}
