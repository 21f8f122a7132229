//! Figure 8: AMX versus no-AMX across batch sizes (EMR2, Llama2-7B,
//! 128 in / 128 out). Overheads are reported relative to a VM running
//! AMX, exactly as the paper plots them. Latency is measured on two
//! sockets, throughput on one — and the two-socket latency overheads vs
//! bare metal are published as columns so Insight 8 asserts over the
//! same cached points the figure prints.

use super::{Column, ExperimentResult, Unit, Value};
use crate::scenario::{grid2, CpuScenario};
use cllm_hw::DType;
use cllm_perf::{overhead_pct, CpuTarget};
use cllm_tee::platform::CpuTeeConfig;
use cllm_workload::phase::RequestSpec;

fn thr_scenario(dtype: DType, batch: u64, amx: bool, tee: &CpuTeeConfig) -> CpuScenario {
    CpuScenario::llama2_7b(RequestSpec::new(batch, 128, 128))
        .with_dtype(dtype)
        .with_target(CpuTarget::emr2_single_socket().with_amx(amx))
        .with_tee(tee.clone())
}

fn thr_tps(dtype: DType, batch: u64, amx: bool, tee: &CpuTeeConfig) -> f64 {
    thr_scenario(dtype, batch, amx, tee).simulate().decode_tps
}

fn lat_scenario(dtype: DType, batch: u64, amx: bool, tee: &CpuTeeConfig) -> CpuScenario {
    CpuScenario::llama2_7b(RequestSpec::new(batch, 128, 128))
        .with_dtype(dtype)
        .with_target(CpuTarget::emr2_dual_socket().with_amx(amx))
        .with_tee(tee.clone())
}

fn lat_s(dtype: DType, batch: u64, amx: bool, tee: &CpuTeeConfig) -> f64 {
    lat_scenario(dtype, batch, amx, tee).simulate().summary.mean
}

/// Two-socket TDX next-token-latency overhead vs bare metal at the same
/// AMX setting, percent (the figure's latency panel; Insight 8 compares
/// the AMX-on and AMX-off values).
#[must_use]
pub fn lat_overhead(dtype: DType, batch: u64, amx: bool) -> f64 {
    overhead_pct(
        lat_s(dtype, batch, amx, &CpuTeeConfig::bare_metal()),
        lat_s(dtype, batch, amx, &CpuTeeConfig::tdx()),
    )
}

const BATCHES: [u64; 5] = [1, 4, 16, 64, 256];

/// Run the experiment.
#[must_use]
pub fn run() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig8",
        "AMX vs no-AMX batch scaling, overheads relative to VM+AMX (EMR2)",
        vec![
            Column::str("dtype"),
            Column::int("batch"),
            Column::float("amx_speedup", Unit::Speedup, 2),
            Column::pct("tdx_amx_vs_vm_amx"),
            Column::pct("tdx_noamx_vs_vm_amx"),
            Column::pct("lat_ovh_amx_2s"),
            Column::pct("lat_ovh_noamx_2s"),
        ],
    );
    let grid = grid2(&[DType::Bf16, DType::Int8], &BATCHES);
    r.extend_rows(grid.iter().map(|&(dtype, batch)| {
        let vm_amx = thr_tps(dtype, batch, true, &CpuTeeConfig::vm());
        let tdx_amx = thr_tps(dtype, batch, true, &CpuTeeConfig::tdx());
        let tdx_noamx = thr_tps(dtype, batch, false, &CpuTeeConfig::tdx());
        let bare_amx = thr_tps(dtype, batch, true, &CpuTeeConfig::bare_metal());
        let bare_noamx = thr_tps(dtype, batch, false, &CpuTeeConfig::bare_metal());
        vec![
            Value::str(dtype.label()),
            Value::uint(batch),
            Value::float(bare_amx / bare_noamx, Unit::Speedup, 2),
            Value::pct((vm_amx / tdx_amx - 1.0) * 100.0),
            Value::pct((vm_amx / tdx_noamx - 1.0) * 100.0),
            Value::pct(lat_overhead(dtype, batch, true)),
            Value::pct(lat_overhead(dtype, batch, false)),
        ]
    }));
    r.note("paper: bf16 AMX advantage grows from 1-4% to hundreds of percent with batch size");
    r.note("paper: int8 without AMX collapses (no AVX path in IPEX): up to 96% thr / 1700% lat overheads");
    r.note(format!(
        "int8 no-AMX latency blowup at batch 1 (2 sockets): {:.0}x",
        lat_s(DType::Int8, 1, false, &CpuTeeConfig::tdx())
            / lat_s(DType::Int8, 1, true, &CpuTeeConfig::tdx())
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amx_advantage_grows_with_batch() {
        let small = thr_tps(DType::Bf16, 1, true, &CpuTeeConfig::bare_metal())
            / thr_tps(DType::Bf16, 1, false, &CpuTeeConfig::bare_metal());
        let large = thr_tps(DType::Bf16, 256, true, &CpuTeeConfig::bare_metal())
            / thr_tps(DType::Bf16, 256, false, &CpuTeeConfig::bare_metal());
        assert!(
            small < 1.1,
            "batch-1 AMX advantage should be small: {small}"
        );
        assert!(large > 1.3, "large-batch AMX advantage: {large}");
    }

    #[test]
    fn amx_reduces_tdx_latency_overhead() {
        // Section IV-C: AMX lowers TDX overheads, most visibly in the
        // two-socket latency setup.
        let ovh_amx = lat_overhead(DType::Bf16, 1, true);
        let ovh_noamx = lat_overhead(DType::Bf16, 1, false);
        assert!(
            ovh_amx < ovh_noamx,
            "AMX overhead {ovh_amx}% !< no-AMX {ovh_noamx}%"
        );
    }

    #[test]
    fn int8_without_amx_collapses() {
        // Section IV-C: int8 without AMX has a catastrophic latency
        // penalty (paper: ~1700%).
        let amx = lat_s(DType::Int8, 1, true, &CpuTeeConfig::tdx());
        let noamx = lat_s(DType::Int8, 1, false, &CpuTeeConfig::tdx());
        let blowup = noamx / amx;
        assert!(blowup > 8.0, "int8 no-AMX blowup only {blowup}x");
    }

    #[test]
    fn ten_rows_rendered() {
        assert_eq!(super::run().rows.len(), 10);
    }
}
