//! AMD SEV-SNP cross-check (Section III: "AMD's TEE stack relies on
//! similar security mechanisms to Intel's TDX, resulting in close
//! benchmark overheads \[55\]").
//!
//! We run the same Llama2-7B shapes on a Genoa host under SEV-SNP and
//! compare against TDX on EMR1 — each relative to its own bare metal.

use super::{Column, ExperimentResult, Unit, Value};
use crate::scenario::{grid2, CpuScenario};
use cllm_hw::DType;
use cllm_perf::{CpuTarget, Framework};
use cllm_tee::platform::CpuTeeConfig;
use cllm_workload::phase::RequestSpec;

fn genoa_target() -> CpuTarget {
    let cpu = cllm_hw::presets::genoa();
    CpuTarget {
        cores_per_socket: cpu.cores_per_socket,
        cpu,
        topology: cllm_hw::NumaTopology::single_socket(),
        amx_enabled: false, // AMD has no AMX — AVX-512 path
        framework: Framework::Vllm,
    }
}

/// SEV-SNP overhead on Genoa (vs Genoa bare metal).
#[must_use]
pub fn sev_overhead(dtype: DType, batch: u64) -> f64 {
    CpuScenario::llama2_7b(RequestSpec::new(batch, 1024, 128))
        .with_dtype(dtype)
        .with_target(genoa_target())
        .with_tee(CpuTeeConfig::sev_snp())
        .thr_overhead()
}

/// TDX overhead on EMR1 (vs EMR1 bare metal), same shape.
#[must_use]
pub fn tdx_overhead(dtype: DType, batch: u64) -> f64 {
    CpuScenario::llama2_7b(RequestSpec::new(batch, 1024, 128))
        .with_dtype(dtype)
        .with_target(CpuTarget::emr1_single_socket())
        .thr_overhead()
}

/// Run the experiment.
#[must_use]
pub fn run() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "sev_snp",
        "SEV-SNP (Genoa) vs TDX (EMR1) throughput overheads, Llama2-7B",
        vec![
            Column::str("dtype"),
            Column::int("batch"),
            Column::pct("sev_snp_overhead"),
            Column::pct("tdx_overhead"),
            Column::float("gap_pts", Unit::Points, 1),
        ],
    );
    let grid = grid2(&[DType::Bf16, DType::Int8], &[1u64, 6, 32]);
    r.extend_rows(grid.iter().map(|&(dtype, batch)| {
        let sev = sev_overhead(dtype, batch);
        let tdx = tdx_overhead(dtype, batch);
        vec![
            Value::str(dtype.label()),
            Value::uint(batch),
            Value::pct(sev),
            Value::pct(tdx),
            Value::float(sev - tdx, Unit::Points, 1),
        ]
    }));
    r.note("paper: AMD's TEE stack relies on similar mechanisms to TDX, resulting in close benchmark overheads (Misono et al.)");
    r.note("SEV-SNP honours 1G hugepage reservations, trading away TDX's THP fallback cost but keeping the RMP-walk latency");
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use cllm_workload::zoo;

    #[test]
    fn sev_close_to_tdx() {
        for dtype in [DType::Bf16, DType::Int8] {
            let gap = (sev_overhead(dtype, 6) - tdx_overhead(dtype, 6)).abs();
            assert!(gap < 4.0, "{dtype:?}: SEV/TDX gap {gap} points");
        }
    }

    #[test]
    fn sev_overhead_in_vm_tee_band() {
        let o = sev_overhead(DType::Bf16, 6);
        assert!((3.0..11.0).contains(&o), "SEV-SNP overhead {o}%");
    }

    #[test]
    fn sev_is_confidential_and_costs_more_than_raw_vm() {
        let base = CpuScenario::llama2_7b(RequestSpec::new(6, 1024, 64))
            .with_model(zoo::llama2_7b())
            .with_target(genoa_target());
        let vm = base.clone().with_tee(CpuTeeConfig::vm()).simulate();
        let sev = base.with_tee(CpuTeeConfig::sev_snp()).simulate();
        assert!(sev.summary.mean > vm.summary.mean);
    }
}
