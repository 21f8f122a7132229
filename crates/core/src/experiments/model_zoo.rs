//! Section III-C3 cross-check: TDX overheads across additional LLMs
//! (Llama3 8B, GPT-J 6B, Falcon 7B, Baichuan2 7B, Qwen 7B), expected to
//! stay in line with Llama2-7B (paper: 3.1-13.1%).

use super::{Column, ExperimentResult, Unit, Value};
use crate::scenario::CpuScenario;
use cllm_perf::CpuTarget;
use cllm_workload::phase::RequestSpec;
use cllm_workload::{zoo, ModelConfig};

/// TDX throughput overhead for one model.
#[must_use]
pub fn overhead(model: &ModelConfig) -> f64 {
    CpuScenario::llama2_7b(RequestSpec::new(6, 1024, 128).with_beam(4))
        .with_model(model.clone())
        .with_target(CpuTarget::emr1_single_socket())
        .thr_overhead()
}

/// Run the experiment.
#[must_use]
pub fn run() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "model_zoo",
        "TDX throughput overhead across dense-transformer LLMs (EMR1)",
        vec![
            Column::str("model"),
            Column::float("params_b", Unit::BillionParams, 1),
            Column::pct("tdx_overhead"),
        ],
    );
    let mut models = vec![zoo::llama2_7b()];
    models.extend(zoo::cross_check_models());
    r.extend_rows(models.iter().map(|m| {
        vec![
            Value::str(m.name.clone()),
            Value::float(m.param_count() as f64 / 1e9, Unit::BillionParams, 1),
            Value::pct(overhead(m)),
        ]
    }));
    r.note("paper: 3.1-13.1% overheads across Llama3 8B, GPT-J 6B, Falcon 7B, Baichuan2 7B, Qwen 7B — in line with Llama2-7B");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_in_paper_band() {
        for m in zoo::cross_check_models() {
            let o = overhead(&m);
            assert!((3.0..13.5).contains(&o), "{}: {o}%", m.name);
        }
    }

    #[test]
    fn consistent_with_llama2() {
        // Consistent computational patterns -> consistent overheads.
        let base = overhead(&zoo::llama2_7b());
        for m in zoo::cross_check_models() {
            let o = overhead(&m);
            assert!((o - base).abs() < 6.0, "{} deviates: {o} vs {base}", m.name);
        }
    }
}
