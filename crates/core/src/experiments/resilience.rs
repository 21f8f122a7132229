//! Resilience extension: SLO attainment and effective $/Mtoken when the
//! TEE mechanisms the paper measures *fail* in production — attestation
//! rejections, enclave crashes, AEX/TD-exit storms, EPC paging, cGPU
//! bounce-buffer stalls, and spot preemptions at the `cllm-cost` spot
//! rates. Each platform is served twice from the same arrival trace:
//! once fault-free and once under its platform-specific fault schedule,
//! with the event loop recovering via bounded retry, exponential backoff
//! and re-attestation tolls.

use super::{Column, ExperimentResult, Unit, Value};
use crate::scenario::grid2;
use cllm_cost::cost_per_mtok;
use cllm_serve::faults::{FaultPlan, FaultRates};
use cllm_serve::sim::{simulate_serving_faulted, ServingConfig, ServingNode};
use cllm_serve::slo::{ServingReport, Slo};
use cllm_serve::workload::ArrivalProcess;
use cllm_tee::platform::TeeKind;

/// Fixed schedule seed: every run of the experiment injects the same
/// faults, so the table (and its golden snapshot) is deterministic.
const SCHEDULE_SEED: u64 = 0xFA19;

/// Fault rates are accelerated so a 60 s horizon shows events that at
/// production rates are hours apart; noted in the table.
const RATE_SCALE: f64 = 600.0;

/// The platforms compared, in table order.
pub const PLATFORMS: [TeeKind; 5] = [
    TeeKind::BareMetal,
    TeeKind::Vm,
    TeeKind::Tdx,
    TeeKind::Sgx,
    TeeKind::GpuCc,
];

fn config() -> ServingConfig {
    ServingConfig {
        arrivals: ArrivalProcess::chat(1.0, 42),
        duration_s: 60.0,
        ..ServingConfig::small_test()
    }
}

/// The serving report for one platform, fault-free or under its
/// platform-specific accelerated fault schedule.
#[must_use]
pub fn report_for(kind: TeeKind, faults: bool) -> ServingReport {
    let cfg = config();
    let plan = if faults {
        // One shared seed: per-kind streams are already independent, so
        // platforms with the same rates see the same event times and the
        // table differences come from platform mechanisms, not luck.
        let rates = FaultRates::for_rental(kind, true).scaled(RATE_SCALE);
        FaultPlan::seeded(&rates, cfg.duration_s, SCHEDULE_SEED)
    } else {
        FaultPlan::none()
    };
    simulate_serving_faulted(&cfg, &ServingNode::preset(kind), &plan)
}

/// [`report_for`] under the fault plan, plus the span trace of the run —
/// the input to the `time_attribution` experiment and the `--trace`
/// export. Same config, plan and seed as `report_for(kind, true)`, so
/// the report halves are byte-identical.
#[must_use]
pub fn traced_report_for(kind: TeeKind) -> (ServingReport, cllm_obs::Trace) {
    let cfg = config();
    let rates = FaultRates::for_rental(kind, true).scaled(RATE_SCALE);
    let plan = FaultPlan::seeded(&rates, cfg.duration_s, SCHEDULE_SEED);
    cllm_serve::sim::simulate_serving_traced(&cfg, &ServingNode::preset(kind), &plan)
}

/// Span trace of the faulted half of the experiment: one lane per
/// platform, in [`PLATFORMS`] order (the fault-free half traces as pure
/// busy/idle and is omitted — the interesting story is recovery).
#[must_use]
pub fn trace() -> cllm_obs::Trace {
    cllm_obs::Trace::merge(PLATFORMS.iter().map(|&kind| traced_report_for(kind).1))
}

/// Effective $/Mtoken realized by a report: the platform's hourly price
/// over its *delivered* goodput, which already carries retry waste and
/// downtime.
#[must_use]
pub fn effective_usd_per_mtok(kind: TeeKind, report: &ServingReport) -> f64 {
    if report.goodput_tps <= 0.0 {
        return 0.0; // degenerate (empty) run: nothing delivered, nothing billed
    }
    let cfg = config();
    cost_per_mtok(
        ServingNode::preset(kind).price_per_hr(&cfg),
        report.goodput_tps,
    )
}

/// Run the experiment.
#[must_use]
#[allow(clippy::cast_possible_wrap)] // counts are tiny (≤ arrivals in a 60 s trace)
pub fn run() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "resilience",
        "Serving under injected TEE faults: recovery, availability and effective cost",
        vec![
            Column::str("platform"),
            Column::str("faults"),
            Column::int("completed"),
            Column::int("retries"),
            Column::int("aborted"),
            Column::pct("availability"),
            Column::pct("slo_degraded"),
            Column::float("usd_per_mtok", Unit::UsdPerMtok, 3),
        ],
    );
    let grid = grid2(&PLATFORMS, &[false, true]);
    r.extend_rows(grid.iter().map(|&(kind, faults)| {
        let report = report_for(kind, faults);
        assert_eq!(
            report.completed + report.aborted,
            report.arrivals,
            "conservation violated on {kind:?}"
        );
        vec![
            Value::str(kind.label()),
            Value::str(if faults { "on" } else { "off" }),
            Value::int(report.completed as i64),
            Value::int(report.retries as i64),
            Value::int(report.aborted as i64),
            Value::pct(report.availability * 100.0),
            Value::pct(report.degraded_slo_attainment(Slo::interactive()) * 100.0),
            Value::float(effective_usd_per_mtok(kind, &report), Unit::UsdPerMtok, 3),
        ]
    }));
    r.note("fault rates accelerated 600x so a 60 s horizon shows events hours apart in production; preemption rates from the cllm-cost spot assumptions");
    r.note("slo_degraded scores over arrivals: aborted requests count as misses; $/Mtoken uses delivered goodput, so retry waste and downtime surface as cost");
    r.note("recovery: bounded retry with exponential backoff; every re-admission and attestation failure pays a fresh attested handshake");
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use cllm_cost::availability_adjusted_cost_per_mtok;

    #[test]
    fn conservation_holds_on_every_platform() {
        for kind in PLATFORMS {
            for faults in [false, true] {
                let r = report_for(kind, faults);
                assert_eq!(
                    r.completed + r.aborted,
                    r.arrivals,
                    "{kind:?} faults={faults}"
                );
            }
        }
    }

    #[test]
    fn fault_free_rows_are_clean() {
        for kind in PLATFORMS {
            let r = report_for(kind, false);
            assert_eq!(r.retries, 0, "{kind:?}");
            assert_eq!(r.aborted, 0, "{kind:?}");
            assert!((r.availability - 1.0).abs() < 1e-12, "{kind:?}");
        }
    }

    #[test]
    fn faults_cost_availability_on_confidential_platforms() {
        // Every confidential platform has TEE-specific mechanisms that
        // fire at the accelerated rates; bare metal only risks preemption.
        for kind in [TeeKind::Tdx, TeeKind::Sgx, TeeKind::GpuCc] {
            let r = report_for(kind, true);
            assert!(r.availability < 1.0, "{kind:?}: no downtime injected");
        }
    }

    #[test]
    fn faults_never_cheapen_serving() {
        for kind in PLATFORMS {
            let clean = report_for(kind, false);
            let faulted = report_for(kind, true);
            let c0 = effective_usd_per_mtok(kind, &clean);
            let c1 = effective_usd_per_mtok(kind, &faulted);
            assert!(
                c1 >= c0 * 0.999,
                "{kind:?}: faulted ${c1}/Mtok cheaper than clean ${c0}/Mtok"
            );
        }
    }

    #[test]
    fn effective_cost_within_availability_worst_case() {
        // Derating clean goodput by realized availability is the
        // *saturated* worst case: a saturated node loses throughput
        // one-for-one with downtime. Our arrival-limited load absorbs
        // part of the downtime in idle gaps, so the realized cost must
        // land between the clean cost and that worst-case projection.
        for kind in [TeeKind::Tdx, TeeKind::Sgx] {
            let clean = report_for(kind, false);
            let faulted = report_for(kind, true);
            let worst = availability_adjusted_cost_per_mtok(
                ServingNode::preset(kind).price_per_hr(&config()),
                clean.goodput_tps,
                faulted.availability,
            );
            let actual = effective_usd_per_mtok(kind, &faulted);
            let floor = effective_usd_per_mtok(kind, &clean);
            assert!(
                actual >= floor * 0.999 && actual <= worst * 1.02,
                "{kind:?}: actual {actual} outside [{floor}, {worst}]"
            );
        }
    }

    #[test]
    fn table_has_two_rows_per_platform() {
        let r = run();
        assert_eq!(r.rows.len(), PLATFORMS.len() * 2);
    }
}
