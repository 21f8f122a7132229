//! Model-size sweep: Llama2 7B, 13B and 70B under TDX, as the paper's
//! abstract promises ("full Llama2 inference pipelines (7B, 13B, 70B)").
//! 7B/13B run on one socket; 70B needs both (its weights exceed one
//! socket's memory — the Figure 5 setting).

use super::{Column, ExperimentResult, Unit, Value};
use crate::scenario::CpuScenario;
use cllm_hw::DType;
use cllm_perf::CpuTarget;
use cllm_workload::phase::RequestSpec;
use cllm_workload::{zoo, ModelConfig};

fn target_for(model: &ModelConfig) -> CpuTarget {
    // Loading a checkpoint transiently needs ~2x the weight bytes
    // (load + convert), which is what pushes 70B out of one socket's
    // 256 GiB in the paper's deployment.
    let weights = model.weight_bytes(DType::Bf16);
    let socket_mem = cllm_hw::presets::emr1().dram_capacity_bytes;
    if weights * 2.0 > socket_mem {
        CpuTarget::emr1_dual_socket()
    } else {
        CpuTarget::emr1_single_socket()
    }
}

fn scenario(model: &ModelConfig) -> CpuScenario {
    CpuScenario::llama2_7b(RequestSpec::new(6, 1024, 64).with_beam(4))
        .with_model(model.clone())
        .with_target(target_for(model))
}

/// TDX throughput overhead for one model size.
#[must_use]
pub fn overhead(model: &ModelConfig) -> f64 {
    scenario(model).thr_overhead()
}

/// Run the experiment.
#[must_use]
pub fn run() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "model_sizes",
        "Llama2 size sweep under TDX (7B/13B one socket, 70B two sockets)",
        vec![
            Column::str("model"),
            Column::int("sockets"),
            Column::float("tdx_tps", Unit::TokensPerSec, 2),
            Column::float("tdx_latency_ms", Unit::Millis, 0),
            Column::pct("tdx_overhead"),
        ],
    );
    r.extend_rows(zoo::llama2_family().iter().map(|model| {
        let tdx = scenario(model).simulate();
        vec![
            Value::str(model.name.clone()),
            Value::int(i64::from(target_for(model).topology.sockets)),
            Value::float(tdx.decode_tps, Unit::TokensPerSec, 2),
            Value::float(tdx.summary.mean * 1e3, Unit::Millis, 0),
            Value::pct(overhead(model)),
        ]
    }));
    r.note("paper: 7B/13B stay within the single-socket 4-10% band; 70B pays the multi-socket NUMA/interconnect penalty (Figure 5) and misses the 200 ms service level");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_models_in_single_socket_band() {
        for model in [zoo::llama2_7b(), zoo::llama2_13b()] {
            let o = overhead(&model);
            assert!((4.0..11.0).contains(&o), "{}: {o}%", model.name);
        }
    }

    #[test]
    fn seventy_b_pays_multi_socket_penalty() {
        let o = overhead(&zoo::llama2_70b());
        let small = overhead(&zoo::llama2_7b());
        assert!(o > small, "70B {o}% !> 7B {small}%");
        assert!((10.0..40.0).contains(&o), "70B overhead {o}%");
    }

    #[test]
    fn throughput_orders_by_size() {
        let t7 = scenario(&zoo::llama2_7b()).simulate().decode_tps;
        let t13 = scenario(&zoo::llama2_13b()).simulate().decode_tps;
        let t70 = scenario(&zoo::llama2_70b()).simulate().decode_tps;
        assert!(t7 > t13);
        assert!(t13 > t70);
    }

    #[test]
    fn seventy_b_misses_service_level() {
        let lat = scenario(&zoo::llama2_70b()).simulate().summary.mean;
        assert!(lat > 0.2, "70B latency {lat}s should exceed 200 ms");
    }
}
