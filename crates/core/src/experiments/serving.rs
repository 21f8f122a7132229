//! Online-serving extension: the paper reports offline throughput and
//! latency; this experiment shows what its TEE overheads mean for
//! *user-perceived* service levels under load — continuous batching,
//! Poisson arrivals, TTFT/TPOT tails and SLO attainment against the
//! 200 ms/word reading-speed standard the paper cites.

use super::{Column, ExperimentResult, Unit, Value};
use crate::scenario::grid2;
use cllm_serve::faults::FaultPlan;
use cllm_serve::sim::{simulate_serving, simulate_serving_faulted, ServingConfig, ServingNode};
use cllm_serve::slo::Slo;
use cllm_serve::workload::ArrivalProcess;
use cllm_tee::platform::{CpuTeeConfig, TeeKind};

/// Arrival rates swept, requests per second, in table order.
const RATES: [f64; 3] = [0.5, 1.5, 3.0];

/// Platforms compared at each rate, in table order.
const PLATFORMS: [TeeKind; 3] = [TeeKind::BareMetal, TeeKind::Tdx, TeeKind::Sgx];

fn config(rate: f64) -> ServingConfig {
    ServingConfig {
        arrivals: ArrivalProcess::chat(rate, 42),
        duration_s: 60.0,
        ..ServingConfig::small_test()
    }
}

/// SLO attainment for one platform at one arrival rate.
#[must_use]
pub fn attainment(tee: &CpuTeeConfig, rate: f64) -> f64 {
    simulate_serving(&config(rate), tee).slo_attainment(Slo::interactive())
}

/// Span trace of the experiment's full grid: one lane per
/// (rate, platform) cell, in the table's row order;
/// [`cllm_obs::Trace::merge`] assigns lane ids by that order.
#[must_use]
pub fn trace() -> cllm_obs::Trace {
    use cllm_serve::sim::simulate_serving_traced;
    let cells = grid2(&RATES, &PLATFORMS);
    cllm_obs::Trace::merge(cells.iter().map(|&(rate, kind)| {
        simulate_serving_traced(
            &config(rate),
            &ServingNode::preset(kind),
            &FaultPlan::none(),
        )
        .1
    }))
}

/// Run the experiment.
#[must_use]
pub fn run() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "serving",
        "Online serving under TEEs: continuous batching, Llama2-7B on EMR2",
        vec![
            Column::str("platform"),
            Column::float("rate_rps", Unit::None, 1),
            Column::float("goodput_tps", Unit::TokensPerSec, 1),
            Column::float("ttft_p95_s", Unit::Seconds, 2),
            Column::float("tpot_p95_ms", Unit::Millis, 0),
            Column::pct("slo_attainment"),
        ],
    );
    let cells = grid2(&RATES, &PLATFORMS);
    r.extend_rows(cells.iter().map(|&(rate, kind)| {
        let report = simulate_serving_faulted(
            &config(rate),
            &ServingNode::preset(kind),
            &FaultPlan::none(),
        );
        vec![
            Value::str(kind.label()),
            Value::float(rate, Unit::None, 1),
            Value::float(report.goodput_tps, Unit::TokensPerSec, 1),
            Value::float(report.ttft_p95_s, Unit::Seconds, 2),
            Value::float(report.tpot_p95_s * 1e3, Unit::Millis, 0),
            Value::pct(report.slo_attainment(Slo::interactive()) * 100.0),
        ]
    }));
    r.note("SLO: 2 s to first token and the paper's 200 ms/word reading-speed bound per token");
    r.note("extension beyond the paper: iteration-level (vLLM-style) scheduling over the calibrated TEE roofline");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tee_degrades_attainment_under_load() {
        // At a saturating rate, the 5-10% TEE tax compounds through the
        // queue and costs real SLO attainment.
        let bare = attainment(&CpuTeeConfig::bare_metal(), 3.0);
        let tdx = attainment(&CpuTeeConfig::tdx(), 3.0);
        assert!(tdx <= bare + 1e-9, "TDX {tdx} !<= bare {bare}");
    }

    #[test]
    fn light_load_meets_slo_on_all_platforms() {
        for tee in [
            CpuTeeConfig::bare_metal(),
            CpuTeeConfig::tdx(),
            CpuTeeConfig::sgx(),
        ] {
            let a = attainment(&tee, 0.5);
            assert!(a > 0.8, "{:?}: attainment {a}", tee.kind);
        }
    }

    #[test]
    fn heavy_load_degrades_everyone() {
        let light = attainment(&CpuTeeConfig::tdx(), 0.5);
        let heavy = attainment(&CpuTeeConfig::tdx(), 3.0);
        assert!(heavy < light);
    }
}
