//! B100 (Blackwell) projection — Section V-D3: "While B100s address these
//! issues [HBM and NVLink encryption], we expect that they will add a
//! non-negligible overhead to H100s' results, since we identified memory
//! encryption as a significant cost in CPUs."
//!
//! The projection applies the CPU-calibrated memory-encryption derate to
//! the B100's HBM path and compares the resulting CC overhead with the
//! H100's (which leaves HBM unencrypted).

use super::{Column, ExperimentResult, Unit, Value};
use crate::scenario::GpuScenario;
use cllm_hw::GpuModel;
use cllm_workload::phase::RequestSpec;

fn scenario(gpu: &GpuModel, batch: u64, input: u64) -> GpuScenario {
    GpuScenario::llama2_7b(RequestSpec::new(batch, input, 128)).with_gpu(gpu.clone())
}

/// CC overhead on the H100 at one shape.
#[must_use]
pub fn h100_overhead(batch: u64, input: u64) -> f64 {
    scenario(&cllm_hw::presets::h100_nvl(), batch, input).e2e_overhead()
}

/// Projected CC overhead on the B100 at one shape.
#[must_use]
pub fn b100_overhead(batch: u64, input: u64) -> f64 {
    scenario(&cllm_hw::presets::b100(), batch, input).e2e_overhead()
}

/// Run the experiment.
#[must_use]
pub fn run() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "b100",
        "Blackwell projection: CC overhead with encrypted HBM vs H100",
        vec![
            Column::int("batch"),
            Column::int("input"),
            Column::pct("h100_cc_overhead"),
            Column::pct("b100_cc_overhead"),
            Column::float("b100_speedup", Unit::Speedup, 2),
        ],
    );
    let h100 = cllm_hw::presets::h100_nvl();
    let b100 = cllm_hw::presets::b100();
    let shapes = [(1u64, 128u64), (8, 512), (32, 512), (128, 1024)];
    r.extend_rows(shapes.iter().map(|&(batch, input)| {
        let h = scenario(&h100, batch, input).simulate();
        let b = scenario(&b100, batch, input).simulate();
        vec![
            Value::uint(batch),
            Value::uint(input),
            Value::pct(h100_overhead(batch, input)),
            Value::pct(b100_overhead(batch, input)),
            Value::float(b.e2e_tps / h.e2e_tps, Unit::Speedup, 2),
        ]
    }));
    r.note("paper expectation: B100's HBM/NVLink encryption will add non-negligible overhead over H100 results");
    r.note("the projection reuses the memory-encryption derate calibrated on the CPU side");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b100_cc_costs_more_than_h100_cc_at_memory_bound_shapes() {
        // At large batch/input the workload is HBM-bound, so B100's
        // encrypted HBM shows while H100's unencrypted HBM does not.
        let h = h100_overhead(128, 1024);
        let b = b100_overhead(128, 1024);
        assert!(b > h + 1.0, "B100 {b}% !> H100 {h}%");
    }

    #[test]
    fn b100_still_faster_in_absolute_terms() {
        let h = scenario(&cllm_hw::presets::h100_nvl(), 32, 512).simulate();
        let b = scenario(&cllm_hw::presets::b100(), 32, 512).simulate();
        assert!(b.e2e_tps > h.e2e_tps);
    }

    #[test]
    fn overheads_stay_single_digit() {
        for (batch, input) in [(1u64, 128u64), (32, 512), (128, 1024)] {
            let b = b100_overhead(batch, input);
            assert!((2.0..15.0).contains(&b), "b{batch}/in{input}: {b}%");
        }
    }
}
