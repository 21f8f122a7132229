//! Cluster-resilience extension: does a fleet of cheap spot cGPU nodes
//! behind a failover router beat reserved CPU TEEs when correlated
//! preemption waves hit?
//!
//! Three fleets serve the *same* arrival trace under the *same* wave
//! seed through `cllm_serve::cluster`:
//!
//! * **cgpu-spot** — 4 × confidential H100 on Azure spot: cheap and
//!   fast, but bounce-buffer stalls, spot preemptions, and every wave
//!   hits 3 of the 4 nodes at once;
//! * **tdx-reserved** — 4 × TDX sockets on reserved capacity: immune to
//!   preemption (waves only touch spot nodes), but an order of
//!   magnitude slower per node;
//! * **mixed-failover** — 2 × cGPU spot + 2 × TDX reserved with
//!   failover: wave victims spill onto the surviving CPU TEEs, paying
//!   the cross-platform [`SpillPenalty`] (re-quantisation + slower
//!   prefill) but keeping the request alive.
//!
//! The table reports the three terminal states (conservation is
//! `completed + aborted + rejected == arrivals`), availability, the
//! p99 TTFT tail, delivered goodput, and the effective $/Mtok of the
//! whole fleet (summed hourly price over delivered goodput).

use super::{Column, ExperimentResult, Unit, Value};
use cllm_cost::{cost_per_mtok, SpillPenalty};
use cllm_serve::cluster::{simulate_cluster, ClusterConfig, ClusterReport, NodeSpec, WaveModel};
use cllm_serve::router::{AdmissionPolicy, BreakerConfig};
use cllm_serve::sim::ServingConfig;
use cllm_serve::workload::ArrivalProcess;
use cllm_tee::platform::TeeKind;

/// Fixed seed for node fault schedules and the wave model: every run
/// pins the same incident history, so the table is golden-stable.
const SCHEDULE_SEED: u64 = 0xC1A5;

/// Fault rates accelerated as in the `resilience` experiment, so a 60 s
/// horizon shows events that are hours apart in production.
const RATE_SCALE: f64 = 600.0;

/// Correlated preemption waves: two per simulated minute at the
/// accelerated scale, each reclaiming 3/4 of the spot pool.
const WAVES_PER_HR: f64 = 120.0;
const WAVE_FRAC: f64 = 0.75;

/// The fleet shapes compared, in table order.
pub const FLEETS: [&str; 3] = ["cgpu-spot", "tdx-reserved", "mixed-failover"];

fn config() -> ServingConfig {
    ServingConfig {
        // Heavier-tailed than `ArrivalProcess::chat`: long generations
        // keep requests resident across preemption waves, so failover
        // (retries, spills) is exercised rather than vacuous.
        arrivals: ArrivalProcess {
            rate_per_s: 2.0,
            prompt_range: (64, 512),
            output_range: (64, 384),
            seed: 42,
        },
        duration_s: 60.0,
        ..ServingConfig::small_test()
    }
}

/// The cluster configuration for one fleet shape.
///
/// # Panics
///
/// Panics on an unknown fleet id.
#[must_use]
pub fn config_for(fleet: &str) -> ClusterConfig {
    const CGPU_SPOT: (TeeKind, bool) = (TeeKind::GpuCc, true);
    const TDX_RESERVED: (TeeKind, bool) = (TeeKind::Tdx, false);
    let shape = match fleet {
        "cgpu-spot" => [CGPU_SPOT; 4],
        "tdx-reserved" => [TDX_RESERVED; 4],
        "mixed-failover" => [CGPU_SPOT, CGPU_SPOT, TDX_RESERVED, TDX_RESERVED],
        other => panic!("unknown fleet shape {other:?}"),
    };
    let nodes = shape
        .into_iter()
        .zip(0u64..)
        .map(|((kind, spot), i)| {
            NodeSpec::preset(kind, spot, RATE_SCALE, SCHEDULE_SEED.wrapping_add(i))
        })
        .collect();
    ClusterConfig {
        serving: config(),
        nodes,
        admission: AdmissionPolicy::default(),
        breaker: BreakerConfig::default(),
        wave: WaveModel {
            waves_per_hr: WAVES_PER_HR,
            frac: WAVE_FRAC,
            seed: SCHEDULE_SEED,
        },
        failover: fleet == "mixed-failover",
        spill: SpillPenalty::cross_platform(),
    }
}

/// The cluster report for one fleet shape.
#[must_use]
pub fn report_for(fleet: &str) -> ClusterReport {
    simulate_cluster(&config_for(fleet))
}

/// Span trace of all three fleets: one lane per fleet shape, in
/// [`FLEETS`] order, each covering every node, breaker transition,
/// failover re-queue and spill of that fleet's run.
#[must_use]
pub fn trace() -> cllm_obs::Trace {
    use cllm_serve::cluster::simulate_cluster_traced;
    cllm_obs::Trace::merge(
        FLEETS
            .iter()
            .map(|fleet| simulate_cluster_traced(&config_for(fleet)).1),
    )
}

/// Summed hourly price of the fleet: Azure NCC H100 rates for cGPU
/// nodes, GCP CPU rates for TDX sockets (same pricing anchors as the
/// single-node `resilience` experiment).
#[must_use]
pub fn fleet_cost_per_hr(fleet: &str) -> f64 {
    let cfg = config();
    config_for(fleet)
        .nodes
        .iter()
        .map(|spec| spec.node.price_per_hr(&cfg))
        .sum()
}

/// Effective $/Mtok delivered by the whole fleet: summed hourly price
/// over realized goodput, so wave downtime, retry waste and spill
/// penalties all surface as cost.
#[must_use]
pub fn effective_usd_per_mtok(fleet: &str, report: &ClusterReport) -> f64 {
    if report.goodput_tps <= 0.0 {
        return 0.0;
    }
    cost_per_mtok(fleet_cost_per_hr(fleet), report.goodput_tps)
}

/// Run the experiment.
#[must_use]
#[allow(clippy::cast_possible_wrap)] // counts are tiny (≤ arrivals in a 60 s trace)
pub fn run() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "cluster_resilience",
        "Multi-node TEE fleets under correlated preemption waves: failover, admission, cost",
        vec![
            Column::str("fleet"),
            Column::int("completed"),
            Column::int("rejected"),
            Column::int("aborted"),
            Column::int("retries"),
            Column::int("spills"),
            Column::pct("availability"),
            Column::float("ttft_p99_s", Unit::Seconds, 3),
            Column::float("goodput_tps", Unit::TokensPerSec, 1),
            Column::float("usd_per_mtok", Unit::UsdPerMtok, 3),
        ],
    );
    r.extend_rows(FLEETS.iter().map(|&fleet| {
        let report = report_for(fleet);
        assert_eq!(
            report.completed + report.aborted + report.rejected,
            report.arrivals,
            "cluster conservation violated on {fleet}"
        );
        vec![
            Value::str(fleet),
            Value::int(report.completed as i64),
            Value::int(report.rejected as i64),
            Value::int(report.aborted as i64),
            Value::int(report.retries as i64),
            Value::int(report.spills as i64),
            Value::pct(report.availability * 100.0),
            Value::float(report.ttft_p99_s, Unit::Seconds, 3),
            Value::float(report.goodput_tps, Unit::TokensPerSec, 1),
            Value::float(effective_usd_per_mtok(fleet, &report), Unit::UsdPerMtok, 3),
        ]
    }));
    r.note("same arrival trace and wave seed for every fleet; waves preempt ceil(0.75 x spot nodes) at once, and only spot nodes are eligible victims");
    r.note("fault rates accelerated 600x as in the resilience experiment; breaker closes and retried admissions pay fresh attested handshakes through cllm_tee::session");
    r.note("mixed-failover spills cGPU victims onto reserved TDX nodes at a requantisation + prefill penalty; $/Mtok is the summed fleet hourly price over delivered goodput");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_holds_on_every_fleet() {
        for fleet in FLEETS {
            let r = report_for(fleet);
            assert_eq!(
                r.completed + r.aborted + r.rejected,
                r.arrivals,
                "{fleet}: {} + {} + {} != {}",
                r.completed,
                r.aborted,
                r.rejected,
                r.arrivals
            );
            assert!(r.arrivals > 0, "{fleet}: empty trace");
        }
    }

    #[test]
    fn waves_cost_the_all_spot_fleet_availability() {
        let cgpu = report_for("cgpu-spot");
        assert!(
            cgpu.availability < 1.0,
            "correlated waves must cost the spot fleet downtime"
        );
    }

    #[test]
    fn mixed_fleet_survives_waves_better_than_all_spot() {
        // The acceptance criterion of the extension: under the same
        // arrival trace and wave seed, the mixed fleet with failover is
        // strictly more available than the homogeneous spot-cGPU fleet.
        let cgpu = report_for("cgpu-spot");
        let mixed = report_for("mixed-failover");
        assert!(
            mixed.availability > cgpu.availability,
            "mixed {} !> cgpu-spot {}",
            mixed.availability,
            cgpu.availability
        );
    }

    #[test]
    fn reserved_fleet_sees_no_preemptions() {
        let r = report_for("tdx-reserved");
        // No spot nodes: waves have no victims and the reserved rates
        // carry no preemption stream, so nothing ever loses KV state.
        assert_eq!(r.retries, 0, "reserved fleet must not lose state");
        assert_eq!(r.aborted, 0);
        assert_eq!(r.spills, 0);
    }

    #[test]
    fn failover_is_what_produces_spills() {
        let mixed = report_for("mixed-failover");
        assert_eq!(mixed.nodes.len(), 4, "mixed fleet is 2 cGPU + 2 TDX nodes");
        assert!(
            mixed.spills > 0,
            "mixed fleet must spill wave victims onto TDX"
        );
        let cgpu = report_for("cgpu-spot");
        assert_eq!(cgpu.spills, 0, "homogeneous fleet cannot cross platforms");
    }

    #[test]
    fn table_has_one_row_per_fleet_and_is_deterministic() {
        let a = run();
        assert_eq!(a.rows.len(), FLEETS.len());
        let b = run();
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
    }
}
