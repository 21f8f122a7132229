//! Mixture-of-experts extension: the paper's intro notes the Llama family
//! moving to mixtures of experts (Llama 4); this experiment asks what
//! that does to TEE overheads.
//!
//! MoE inference keeps *all* experts resident (large footprint — heavy
//! TLB pressure under TDX's 2 MiB pages) while streaming only the routed
//! experts per step (sparse traffic). The footprint/traffic ratio is what
//! TEE address translation taxes, so MoE is a worst-ish case for VM TEEs.

use super::{Column, ExperimentResult, Unit, Value};
use crate::scenario::CpuScenario;
use cllm_perf::{CpuTarget, SimResult};
use cllm_workload::phase::RequestSpec;
use cllm_workload::{zoo, ModelConfig};
use std::sync::Arc;

fn scenario(model: &ModelConfig, batch: u64) -> CpuScenario {
    // Mixtral's full expert set wants dual-socket memory headroom, like
    // the 70B dense model.
    CpuScenario::llama2_7b(RequestSpec::new(batch, 512, 64))
        .with_model(model.clone())
        .with_target(CpuTarget::emr2_dual_socket())
}

fn sim(model: &ModelConfig, batch: u64) -> Arc<SimResult> {
    scenario(model, batch).simulate()
}

/// TDX overhead for a model at a batch size.
#[must_use]
pub fn overhead(model: &ModelConfig, batch: u64) -> f64 {
    scenario(model, batch).thr_overhead()
}

/// Run the experiment.
#[must_use]
pub fn run() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "moe",
        "Mixture-of-experts under TDX: Mixtral 8x7B vs dense Llama2 (2 sockets)",
        vec![
            Column::str("model"),
            Column::int("batch"),
            Column::float("experts_touched", Unit::None, 1),
            Column::float("tdx_tps", Unit::TokensPerSec, 1),
            Column::pct("tdx_overhead"),
        ],
    );
    let models = [zoo::llama2_13b(), zoo::mixtral_8x7b()];
    let points: Vec<(ModelConfig, u64)> = models
        .iter()
        .flat_map(|m| [1u64, 8, 64].into_iter().map(move |b| (m.clone(), b)))
        .collect();
    r.extend_rows(points.iter().map(|(model, batch)| {
        let tdx = sim(model, *batch);
        vec![
            Value::str(model.name.clone()),
            Value::uint(*batch),
            Value::float(model.experts_touched(*batch), Unit::None, 1),
            Value::float(tdx.decode_tps, Unit::TokensPerSec, 1),
            Value::pct(overhead(model, *batch)),
        ]
    }));
    r.note("MoE keeps all experts resident (footprint) but streams only routed experts (traffic); the widened footprint/traffic ratio is what TDX's 2 MiB-page translation taxes");
    r.note("extension beyond the paper, motivated by its intro's note on the Llama family's move to mixtures of experts");
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use cllm_tee::platform::CpuTeeConfig;

    #[test]
    fn moe_overhead_at_least_dense() {
        // Same active-parameter class (Mixtral top-2 ≈ 13B dense): the
        // MoE's resident footprint should make TDX overhead >= dense.
        let dense = overhead(&zoo::llama2_13b(), 1);
        let moe = overhead(&zoo::mixtral_8x7b(), 1);
        assert!(moe >= dense - 0.5, "MoE {moe}% vs dense {dense}%");
    }

    #[test]
    fn batch_activates_more_experts_and_traffic() {
        let m = zoo::mixtral_8x7b();
        let t1 = sim(&m, 1);
        let t64 = sim(&m, 64);
        // Throughput still improves with batch, but sublinearly versus a
        // dense model because expert traffic grows with coverage.
        let moe_scaling = t64.decode_tps / t1.decode_tps;
        let d = zoo::llama2_13b();
        let d1 = sim(&d, 1);
        let d64 = sim(&d, 64);
        let dense_scaling = d64.decode_tps / d1.decode_tps;
        assert!(moe_scaling > 1.5, "MoE must still batch: {moe_scaling}");
        assert!(
            moe_scaling < dense_scaling,
            "MoE batching gain {moe_scaling} should trail dense {dense_scaling}"
        );
    }

    #[test]
    fn moe_batch1_faster_than_equivalent_dense_total() {
        // Sparse streaming: at batch 1, Mixtral (47B resident, ~13B
        // active) must decode much faster than a dense 70B and in the
        // same class as a dense 13B.
        let moe = scenario(&zoo::mixtral_8x7b(), 1)
            .with_tee(CpuTeeConfig::bare_metal())
            .simulate();
        let dense70 = scenario(&zoo::llama2_70b(), 1)
            .with_tee(CpuTeeConfig::bare_metal())
            .simulate();
        assert!(moe.summary.mean < dense70.summary.mean * 0.6);
    }

    #[test]
    fn overheads_in_plausible_band() {
        for batch in [1u64, 8, 64] {
            let o = overhead(&zoo::mixtral_8x7b(), batch);
            assert!((5.0..35.0).contains(&o), "batch {batch}: {o}%");
        }
    }
}
