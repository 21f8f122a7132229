//! Time-attribution extension: where each platform's makespan goes when
//! the resilience fault plan is active. The span trace from the traced
//! serving simulation is folded into per-node totals and rendered as
//! percentage shares of the makespan — prefill, decode, re-attestation,
//! idle and outage — with hard conservation invariants enforced before
//! any row is emitted: per-node `busy + idle + outage == makespan` and
//! per-request span-chain sum == end-to-end latency.
//!
//! The platforms mirror the paper's serving comparison (bare metal, TDX,
//! SGX, confidential GPU); the fault plan, seed and arrival trace are
//! exactly the `resilience` experiment's, so the two tables describe the
//! same runs from complementary angles: `resilience` reports *outcomes*
//! (SLO, cost), this table reports *where the time went*.

use super::resilience::traced_report_for;
use super::{Column, ExperimentResult, Unit, Value};
use cllm_obs::{check, node_totals, NodeTotals};
use cllm_tee::platform::TeeKind;

/// The platforms attributed, in table order: the paper's CPU TEEs
/// bracketed by bare metal and the confidential GPU.
pub const PLATFORMS: [TeeKind; 4] = [
    TeeKind::BareMetal,
    TeeKind::Tdx,
    TeeKind::Sgx,
    TeeKind::GpuCc,
];

/// Conservation tolerance: relative to the makespan, far below the
/// table's rendering precision.
const EPS: f64 = 1e-6;

/// Per-node totals for one platform under the resilience fault plan,
/// with conservation verified against the untraced report.
///
/// # Panics
///
/// Panics if the trace violates a conservation invariant — a violation
/// means the instrumentation lost or double-counted time and the table
/// would be wrong.
#[must_use]
pub fn totals_for(kind: TeeKind) -> NodeTotals {
    let (report, trace) = traced_report_for(kind);
    let conservation = check(&trace, EPS);
    assert!(
        conservation.ok(),
        "{kind:?}: trace conservation violated: {:?}",
        conservation.errors
    );
    let mut totals = node_totals(&trace);
    assert_eq!(totals.len(), 1, "{kind:?}: single-node sim expected");
    let t = totals.remove(0);
    assert!(
        (t.makespan_s - report.makespan_s).abs() <= EPS * report.makespan_s.max(1.0),
        "{kind:?}: trace makespan {} != report makespan {}",
        t.makespan_s,
        report.makespan_s
    );
    t
}

/// Span trace of the attributed runs: one lane per platform, in
/// [`PLATFORMS`] order — the same traces the table's shares are folded
/// from, exportable via `cllm time_attribution --trace`.
#[must_use]
pub fn trace() -> cllm_obs::Trace {
    cllm_obs::Trace::merge(PLATFORMS.iter().map(|&kind| traced_report_for(kind).1))
}

fn share(part_s: f64, makespan_s: f64) -> f64 {
    if makespan_s <= 0.0 {
        0.0
    } else {
        part_s / makespan_s * 100.0
    }
}

/// Run the experiment.
#[must_use]
pub fn run() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "time_attribution",
        "Where the makespan goes under injected TEE faults: span-accounted time shares",
        vec![
            Column::str("platform"),
            Column::float("makespan_s", Unit::Seconds, 2),
            Column::pct("prefill"),
            Column::pct("decode"),
            Column::pct("reattest"),
            Column::pct("idle"),
            Column::pct("outage"),
        ],
    );
    for kind in PLATFORMS {
        let t = totals_for(kind);
        let shares = [
            share(t.prefill_s, t.makespan_s),
            share(t.decode_s, t.makespan_s),
            share(t.reattest_s + t.requant_s, t.makespan_s),
            share(t.idle_s, t.makespan_s),
            share(t.outage_s, t.makespan_s),
        ];
        let total: f64 = shares.iter().sum();
        assert!(
            (total - 100.0).abs() < 1e-3,
            "{kind:?}: attribution rows sum to {total}, not 100"
        );
        r.push_row(vec![
            Value::str(kind.label()),
            Value::float(t.makespan_s, Unit::Seconds, 2),
            Value::pct(shares[0]),
            Value::pct(shares[1]),
            Value::pct(shares[2]),
            Value::pct(shares[3]),
            Value::pct(shares[4]),
        ]);
    }
    r.note("same arrival trace, fault plan and seed as the resilience experiment; shares are span-accounted and sum to 100% of the makespan by construction");
    r.note("outage dominates every platform at the 600x-accelerated fault rates; SGX trades decode share for re-attestation, and the fast cGPU spends most of its makespan waiting out preemptions rather than computing");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_100_on_every_platform() {
        let r = run();
        assert_eq!(r.rows.len(), PLATFORMS.len());
        // run() already asserts the 100% invariant per row; re-check the
        // rendered cells so the *published* numbers also add up.
        for kind in PLATFORMS {
            let label = kind.label();
            let sum: f64 = ["prefill", "decode", "reattest", "idle", "outage"]
                .iter()
                .map(|c| {
                    r.cell(label, c)
                        .and_then(|s| s.trim_end_matches('%').parse::<f64>().ok())
                        .unwrap_or(0.0)
                })
                .sum();
            assert!(
                (sum - 100.0).abs() < 0.2,
                "{label}: rendered shares sum to {sum}"
            );
        }
    }

    #[test]
    fn confidential_platforms_pay_outage_time() {
        for kind in [TeeKind::Tdx, TeeKind::Sgx, TeeKind::GpuCc] {
            let t = totals_for(kind);
            assert!(
                t.outage_s > 0.0,
                "{kind:?}: resilience fault plan injected no outage"
            );
        }
    }

    #[test]
    fn totals_are_consistent() {
        let t = totals_for(TeeKind::Tdx);
        assert!(t.makespan_s > 0.0);
        assert!(
            (t.busy_s + t.idle_s + t.outage_s - t.makespan_s).abs() < 1e-6 * t.makespan_s,
            "busy+idle+outage must tile the makespan"
        );
        assert!((t.prefill_s + t.decode_s + t.reattest_s + t.requant_s - t.busy_s).abs() < 1e-9);
    }
}
