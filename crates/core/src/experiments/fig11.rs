//! Figure 11: GPU throughput as a function of batch and input sizes;
//! cGPU overheads shrink as both grow (Insight 10).

use super::{Column, ExperimentResult, Unit, Value};
use crate::scenario::{grid2, GpuScenario};
use cllm_perf::{throughput_overhead_pct, GpuSimResult};
use cllm_workload::phase::RequestSpec;
use std::sync::Arc;

fn scenario(batch: u64, input: u64) -> GpuScenario {
    GpuScenario::llama2_7b(RequestSpec::new(batch, input, 128))
}

fn sim(confidential: bool, batch: u64, input: u64) -> Arc<GpuSimResult> {
    let s = scenario(batch, input);
    if confidential { s } else { s.baseline() }.simulate()
}

/// cGPU generation-throughput overhead at one (batch, input) point.
#[must_use]
pub fn overhead(batch: u64, input: u64) -> f64 {
    scenario(batch, input).e2e_overhead()
}

const BATCHES: [u64; 4] = [1, 8, 32, 128];
const INPUTS: [u64; 3] = [128, 512, 1024];

/// Run the experiment.
#[must_use]
pub fn run() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig11",
        "H100 cGPU throughput and overhead vs batch and input size (Llama2-7B, vLLM)",
        vec![
            Column::int("batch"),
            Column::int("input"),
            Column::float("gpu_tps", Unit::TokensPerSec, 0),
            Column::float("cgpu_tps", Unit::TokensPerSec, 0),
            Column::pct("cc_overhead"),
        ],
    );
    let grid = grid2(&BATCHES, &INPUTS);
    r.extend_rows(grid.iter().map(|&(batch, input)| {
        let raw = sim(false, batch, input);
        let cc = sim(true, batch, input);
        vec![
            Value::uint(batch),
            Value::uint(input),
            Value::float(raw.e2e_tps, Unit::TokensPerSec, 0),
            Value::float(cc.e2e_tps, Unit::TokensPerSec, 0),
            Value::pct(throughput_overhead_pct(raw.e2e_tps, cc.e2e_tps)),
        ]
    }));
    r.note(
        "paper: cGPU overheads oscillate between 7.5% and 4.4%, shrinking as batch and input grow",
    );
    r.note("paper: GPUs show lower noise than CPU TEEs — HBM is not encrypted");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_band_matches_paper() {
        for batch in BATCHES {
            for input in INPUTS {
                let o = overhead(batch, input);
                assert!((2.0..9.5).contains(&o), "b{batch}/in{input}: {o}%");
            }
        }
    }

    #[test]
    fn overhead_shrinks_with_batch() {
        assert!(overhead(128, 512) < overhead(1, 512));
    }

    #[test]
    fn overhead_shrinks_with_input() {
        assert!(overhead(8, 1024) < overhead(8, 128) + 0.5);
    }

    #[test]
    fn gpu_throughput_scales_with_batch() {
        let t1 = sim(true, 1, 128).e2e_tps;
        let t128 = sim(true, 128, 128).e2e_tps;
        assert!(t128 > 10.0 * t1);
    }

    #[test]
    fn gpu_noise_lower_than_cpu_tee() {
        // Section V-C: cGPUs show "lower noise" than CPU TEEs.
        use crate::scenario::CpuScenario;
        let gpu = sim(true, 8, 512);
        let cpu = CpuScenario::llama2_7b(RequestSpec::new(8, 512, 128)).simulate();
        let gpu_cv = gpu.summary.std / gpu.summary.mean;
        let cpu_cv = cpu.summary.std / cpu.summary.mean;
        assert!(gpu_cv < cpu_cv, "gpu cv {gpu_cv} !< cpu cv {cpu_cv}");
    }
}
