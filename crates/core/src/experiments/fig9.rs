//! Figure 9: batch-size scaling of TDX overheads (EMR2, Llama2-7B,
//! 128 in / 128 out; latency on two sockets, throughput on one).

use super::{Column, ExperimentResult, Unit, Value};
use crate::scenario::{grid2, CpuScenario};
use cllm_hw::DType;
use cllm_perf::CpuTarget;
use cllm_workload::phase::RequestSpec;

fn thr_scenario(dtype: DType, batch: u64) -> CpuScenario {
    CpuScenario::llama2_7b(RequestSpec::new(batch, 128, 128)).with_dtype(dtype)
}

/// Throughput overhead of TDX vs bare metal at one batch size. The
/// bare-metal point is shared with [`bare_tps`] through the simulation
/// cache instead of being simulated a second time.
#[must_use]
pub fn thr_overhead(dtype: DType, batch: u64) -> f64 {
    thr_scenario(dtype, batch).thr_overhead()
}

/// Bare-metal throughput at one batch size (for the saturation check).
#[must_use]
pub fn bare_tps(dtype: DType, batch: u64) -> f64 {
    thr_scenario(dtype, batch).baseline().simulate().decode_tps
}

fn lat_overhead(dtype: DType, batch: u64) -> f64 {
    thr_scenario(dtype, batch)
        .with_target(CpuTarget::emr2_dual_socket())
        .lat_overhead()
}

const BATCHES: [u64; 7] = [1, 4, 16, 64, 128, 256, 512];

/// Run the experiment: one row per (dtype, batch) point, dtype-major.
#[must_use]
pub fn run() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig9",
        "Batch-size scaling of TDX overheads, Llama2-7B on EMR2",
        vec![
            Column::str("dtype"),
            Column::int("batch"),
            Column::float("bare_tps", Unit::TokensPerSec, 0),
            Column::pct("thr_overhead"),
            Column::pct("lat_overhead_2s"),
        ],
    );
    let grid = grid2(&[DType::Bf16, DType::Int8], &BATCHES);
    r.extend_rows(grid.iter().map(|&(dtype, batch)| {
        vec![
            Value::str(dtype.label()),
            Value::uint(batch),
            Value::float(bare_tps(dtype, batch), Unit::TokensPerSec, 0),
            Value::pct(thr_overhead(dtype, batch)),
            Value::pct(lat_overhead(dtype, batch)),
        ]
    }));
    r.note("paper: overheads drop as batch grows (more arithmetic intensity, Insight 9)");
    r.note("paper: int8 saturates throughput near batch 64; bf16 near batch 512");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_decreases_with_batch() {
        for dtype in [DType::Bf16, DType::Int8] {
            let small = thr_overhead(dtype, 1);
            let large = thr_overhead(dtype, 256);
            assert!(
                small > large + 2.0,
                "{dtype:?}: {small}% at b1 !>> {large}% at b256"
            );
        }
    }

    #[test]
    fn small_batch_overhead_band() {
        // Paper: 7-10% (bf16) / 9-11% (int8) before saturation.
        for dtype in [DType::Bf16, DType::Int8] {
            let o = thr_overhead(dtype, 4);
            assert!((6.0..13.0).contains(&o), "{dtype:?} b4: {o}%");
        }
    }

    #[test]
    fn saturated_overhead_band() {
        for dtype in [DType::Bf16, DType::Int8] {
            let o = thr_overhead(dtype, 512);
            assert!((3.0..9.0).contains(&o), "{dtype:?} b512: {o}%");
        }
    }

    #[test]
    fn throughput_saturates() {
        // bf16 throughput gains flatten at large batch (paper: ~512).
        let t256 = bare_tps(DType::Bf16, 256);
        let t512 = bare_tps(DType::Bf16, 512);
        assert!(t512 / t256 < 1.5, "still scaling hard: {}", t512 / t256);
        // And it is far above batch-1 throughput.
        assert!(t512 > 10.0 * bare_tps(DType::Bf16, 1));
    }

    #[test]
    fn int8_saturates_before_bf16() {
        // Paper: int8 saturates near batch 64, bf16 near 512 — so int8's
        // relative gain from 64 to 512 is smaller than bf16's.
        let int8_gain = bare_tps(DType::Int8, 512) / bare_tps(DType::Int8, 64);
        let bf16_gain = bare_tps(DType::Bf16, 512) / bare_tps(DType::Bf16, 64);
        assert!(
            int8_gain < bf16_gain,
            "int8 gain {int8_gain} !< bf16 gain {bf16_gain}"
        );
    }
}
