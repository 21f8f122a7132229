//! The unified invariant registry: one definition of every correctness
//! invariant the serving simulators maintain, shared by the debug
//! asserts inside the simulators, the property tests, the CLI's
//! `conservation : ok` line, and the `cllm-chaos` search engine.
//!
//! Each check returns the full list of violations (empty means the
//! invariant held everywhere), so a chaos run can report *every* broken
//! invariant of a failing point, not just the first.
//!
//! | invariant | check |
//! |---|---|
//! | `completed + aborted == arrivals` (single node) | [`check_serving`] |
//! | `completed + aborted + rejected == arrivals` (cluster) | [`check_cluster`] |
//! | `completed + aborted + shed == arrivals` (autoscale) | [`check_autoscale`] |
//! | billing identity `total == rental + warm_pool + base` | [`check_autoscale`] |
//! | tier slices tile the totals | [`check_autoscale`] |
//! | scale-up ledger `scale_ups == warm + cold` | [`check_autoscale`] |
//! | `0 <= availability <= 1` | [`check_serving`], [`check_cluster`] |
//! | breaker accounting `closes <= trips` | [`check_cluster`] |
//! | every report field finite | all three report checks |
//! | per-request retry budget respected | [`check_retry_budget`] |
//! | KV pool `free + in_use == total` | [`check_pool`] |
//! | time attribution `busy + idle + outage == makespan` | [`check_trace`] |
//! | infer token ledger `emitted == accepted + resampled` | [`check_infer`] |
//! | no non-finite logit reaches an emission decision | [`check_infer`] |

use crate::autoscale::AutoscaleReport;
use crate::cluster::ClusterReport;
use crate::sim::RequestRecord;
use crate::slo::ServingReport;
use cllm_obs::Trace;
use cllm_workload::kv::PagePool;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Absolute tolerance for floating-point identities (billing sums,
/// attribution tiling). Generous for the horizons simulated here while
/// still catching any real accounting bug.
pub const EPS: f64 = 1e-6;

/// One broken invariant, with enough context to read the failure
/// without re-running the simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InvariantViolation {
    /// Some arrival ended in no terminal state, or in more than one:
    /// `completed + aborted + rejected + shed != arrivals` (the rejected
    /// and shed legs are zero for paths without those outcomes).
    Conservation {
        /// Which serving path produced the report.
        path: String,
        /// Requests that completed.
        completed: usize,
        /// Requests aborted after exhausting retries.
        aborted: usize,
        /// Requests the router rejected (cluster only).
        rejected: usize,
        /// Requests shed by admission control (autoscale only).
        shed: usize,
        /// Requests that arrived.
        arrivals: usize,
    },
    /// The bill does not decompose: `total != rental + warm_pool + base`.
    BillingIdentity {
        /// Reported total, dollars.
        total_usd: f64,
        /// Rental leg, dollars.
        rental_usd: f64,
        /// Warm-pool carrying leg, dollars.
        warm_pool_usd: f64,
        /// Base-fleet leg, dollars.
        base_usd: f64,
    },
    /// A KV page pool lost track of pages: `free + in_use != total`, or
    /// the per-sequence holds disagree with `in_use`.
    PoolConservation {
        /// Free pages.
        free: u64,
        /// Pages held by sequences.
        in_use: u64,
        /// Pool capacity in pages.
        total: u64,
    },
    /// An availability figure left `[0, 1]`.
    AvailabilityRange {
        /// Which node (or `"cluster"` for the fleet mean).
        scope: String,
        /// The offending value.
        value: f64,
    },
    /// A report field that must be finite is `NaN` or infinite.
    NonFinite {
        /// Field name as it appears in the report.
        field: String,
        /// The offending value.
        value: f64,
    },
    /// A surviving record retried more times than the per-request
    /// budget allows.
    RetryBudgetExceeded {
        /// Request id.
        id: u64,
        /// Retries the record actually took.
        retries: u32,
        /// The configured per-request budget.
        budget: u32,
    },
    /// A breaker closed more times than it tripped — every close needs
    /// a preceding trip, so `closes <= trips` always.
    BreakerAccounting {
        /// Fleet index of the offending node.
        node: usize,
        /// Trips recorded.
        trips: u64,
        /// Closes recorded.
        closes: u64,
    },
    /// The scale-up ledger does not balance:
    /// `scale_ups != warm_promotions + cold_starts`.
    ScaleUpLedger {
        /// Scale-up decisions executed.
        scale_ups: u64,
        /// Served from the warm pool.
        warm_promotions: u64,
        /// Paid the full cold boot.
        cold_starts: u64,
    },
    /// A per-tier slice does not tile its fleet-wide total.
    TierAccounting {
        /// Which total ("arrivals", "completed", "shed", "aborted").
        field: String,
        /// Sum over the three tier slices.
        tier_sum: usize,
        /// The fleet-wide total.
        total: usize,
    },
    /// Node time attribution failed: spans overlap, leave gaps, or
    /// `busy + idle + outage != makespan` (from [`cllm_obs::check`]).
    TimeAttribution {
        /// The attribution checker's message.
        detail: String,
    },
    /// A rule imposed on a specific run (chaos plants these to exercise
    /// the shrinker), not a structural invariant of the simulators.
    Forbidden {
        /// The planted rule that fired.
        rule: String,
        /// What was observed.
        detail: String,
    },
    /// The functional infer loop emitted a token ledger that does not
    /// balance: every emitted token must be either an accepted draft or
    /// a target resample, and no more can be accepted than drafted.
    TokenConservation {
        /// Tokens emitted.
        emitted: usize,
        /// Draft proposals accepted.
        accepted: usize,
        /// Target resamples emitted on rejection.
        resampled: usize,
        /// Draft proposals made.
        drafted: usize,
    },
    /// A logits vector used for an emission decision contained NaN/inf
    /// — generation must never sample from a poisoned distribution.
    NonFiniteLogit {
        /// Non-finite entries observed across the run.
        count: usize,
        /// Tokens emitted by the run (for scale).
        emitted: usize,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::Conservation {
                path,
                completed,
                aborted,
                rejected,
                shed,
                arrivals,
            } => write!(
                f,
                "{path} conservation: {completed} completed + {aborted} aborted \
                 + {rejected} rejected + {shed} shed != {arrivals} arrivals"
            ),
            InvariantViolation::BillingIdentity {
                total_usd,
                rental_usd,
                warm_pool_usd,
                base_usd,
            } => write!(
                f,
                "billing identity: total ${total_usd} != rental ${rental_usd} \
                 + warm pool ${warm_pool_usd} + base ${base_usd}"
            ),
            InvariantViolation::PoolConservation {
                free,
                in_use,
                total,
            } => write!(
                f,
                "KV pool conservation: {free} free + {in_use} in use != {total} total"
            ),
            InvariantViolation::AvailabilityRange { scope, value } => {
                write!(f, "availability of {scope} out of [0, 1]: {value}")
            }
            InvariantViolation::NonFinite { field, value } => {
                write!(f, "non-finite report field {field}: {value}")
            }
            InvariantViolation::RetryBudgetExceeded {
                id,
                retries,
                budget,
            } => write!(
                f,
                "request {id} retried {retries} times past a budget of {budget}"
            ),
            InvariantViolation::BreakerAccounting {
                node,
                trips,
                closes,
            } => write!(
                f,
                "node {node} breaker closed {closes} times but tripped only {trips}"
            ),
            InvariantViolation::ScaleUpLedger {
                scale_ups,
                warm_promotions,
                cold_starts,
            } => write!(
                f,
                "scale-up ledger: {scale_ups} scale-ups != {warm_promotions} \
                 warm promotions + {cold_starts} cold starts"
            ),
            InvariantViolation::TierAccounting {
                field,
                tier_sum,
                total,
            } => write!(
                f,
                "tier slices of {field} sum to {tier_sum}, total is {total}"
            ),
            InvariantViolation::TimeAttribution { detail } => {
                write!(f, "time attribution: {detail}")
            }
            InvariantViolation::Forbidden { rule, detail } => {
                write!(f, "planted rule {rule} violated: {detail}")
            }
            InvariantViolation::TokenConservation {
                emitted,
                accepted,
                resampled,
                drafted,
            } => write!(
                f,
                "token conservation: {emitted} emitted != {accepted} accepted \
                 + {resampled} resampled (drafted {drafted})"
            ),
            InvariantViolation::NonFiniteLogit { count, emitted } => {
                write!(
                    f,
                    "{count} non-finite logit entries across {emitted} emitted tokens"
                )
            }
        }
    }
}

/// A stable short label for grouping violations in chaos summaries and
/// repro files.
impl InvariantViolation {
    /// Kebab-case label naming the invariant class.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            InvariantViolation::Conservation { .. } => "conservation",
            InvariantViolation::BillingIdentity { .. } => "billing-identity",
            InvariantViolation::PoolConservation { .. } => "pool-conservation",
            InvariantViolation::AvailabilityRange { .. } => "availability-range",
            InvariantViolation::NonFinite { .. } => "non-finite",
            InvariantViolation::RetryBudgetExceeded { .. } => "retry-budget",
            InvariantViolation::BreakerAccounting { .. } => "breaker-accounting",
            InvariantViolation::ScaleUpLedger { .. } => "scale-up-ledger",
            InvariantViolation::TierAccounting { .. } => "tier-accounting",
            InvariantViolation::TimeAttribution { .. } => "time-attribution",
            InvariantViolation::Forbidden { .. } => "forbidden",
            InvariantViolation::TokenConservation { .. } => "token-conservation",
            InvariantViolation::NonFiniteLogit { .. } => "forbid-nonfinite-logits",
        }
    }
}

fn push_finite(out: &mut Vec<InvariantViolation>, field: &str, value: f64) {
    if !value.is_finite() {
        out.push(InvariantViolation::NonFinite {
            field: field.to_string(),
            value,
        });
    }
}

fn check_availability(out: &mut Vec<InvariantViolation>, scope: &str, value: f64) {
    if !value.is_finite() || !(0.0..=1.0).contains(&value) {
        out.push(InvariantViolation::AvailabilityRange {
            scope: scope.to_string(),
            value,
        });
    }
}

fn check_records(out: &mut Vec<InvariantViolation>, records: &[RequestRecord]) {
    for r in records {
        for (field, v) in [
            ("record.ttft_s", r.ttft_s),
            ("record.tpot_s", r.tpot_s),
            ("record.e2e_s", r.e2e_s),
        ] {
            push_finite(out, &format!("{field}[{}]", r.id), v);
        }
    }
}

/// Check a single-node serving report: conservation
/// (`completed + aborted == arrivals`), availability in `[0, 1]`, one
/// record per completion, and every field finite.
#[must_use]
pub fn check_serving(r: &ServingReport) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    if r.completed + r.aborted != r.arrivals {
        out.push(InvariantViolation::Conservation {
            path: "single-node".to_string(),
            completed: r.completed,
            aborted: r.aborted,
            rejected: 0,
            shed: 0,
            arrivals: r.arrivals,
        });
    }
    check_availability(&mut out, "node", r.availability);
    for (field, v) in [
        ("makespan_s", r.makespan_s),
        ("goodput_tps", r.goodput_tps),
        ("queue_wait_mean_s", r.queue_wait_mean_s),
        ("queue_wait_p99_s", r.queue_wait_p99_s),
        ("ttft_p50_s", r.ttft_p50_s),
        ("ttft_p95_s", r.ttft_p95_s),
        ("tpot_p50_s", r.tpot_p50_s),
        ("tpot_p95_s", r.tpot_p95_s),
        ("swap_out_bytes", r.swap_out_bytes),
        ("swap_in_bytes", r.swap_in_bytes),
    ] {
        push_finite(&mut out, field, v);
    }
    check_records(&mut out, &r.records);
    out
}

/// Check a cluster report: conservation
/// (`completed + aborted + rejected == arrivals`), per-node and mean
/// availability in `[0, 1]`, per-node completions tiling the total,
/// breaker accounting (`closes <= trips`), and every field finite.
#[must_use]
pub fn check_cluster(r: &ClusterReport) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    if r.completed + r.aborted + r.rejected != r.arrivals {
        out.push(InvariantViolation::Conservation {
            path: "cluster".to_string(),
            completed: r.completed,
            aborted: r.aborted,
            rejected: r.rejected,
            shed: 0,
            arrivals: r.arrivals,
        });
    }
    check_availability(&mut out, "cluster", r.availability);
    for (field, v) in [
        ("makespan_s", r.makespan_s),
        ("goodput_tps", r.goodput_tps),
        ("ttft_p50_s", r.ttft_p50_s),
        ("ttft_p99_s", r.ttft_p99_s),
        ("swap_out_bytes", r.swap_out_bytes),
        ("swap_in_bytes", r.swap_in_bytes),
    ] {
        push_finite(&mut out, field, v);
    }
    let node_sum: usize = r.nodes.iter().map(|n| n.completed).sum();
    if node_sum != r.completed {
        out.push(InvariantViolation::TierAccounting {
            field: "node completions".to_string(),
            tier_sum: node_sum,
            total: r.completed,
        });
    }
    for (i, n) in r.nodes.iter().enumerate() {
        check_availability(&mut out, &format!("node {i}"), n.availability);
        push_finite(&mut out, &format!("nodes[{i}].downtime_s"), n.downtime_s);
        if n.breaker_closes > n.breaker_trips {
            out.push(InvariantViolation::BreakerAccounting {
                node: i,
                trips: n.breaker_trips,
                closes: n.breaker_closes,
            });
        }
    }
    check_records(&mut out, &r.records);
    out
}

/// Check an autoscale report: conservation
/// (`completed + aborted + shed == arrivals`), the billing identity,
/// tier slices tiling the totals, the scale-up ledger, and every field
/// finite.
#[must_use]
pub fn check_autoscale(r: &AutoscaleReport) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    if r.completed + r.aborted + r.shed != r.arrivals {
        out.push(InvariantViolation::Conservation {
            path: "autoscale".to_string(),
            completed: r.completed,
            aborted: r.aborted,
            rejected: 0,
            shed: r.shed,
            arrivals: r.arrivals,
        });
    }
    let parts = r.rental_cost_usd + r.warm_pool_cost_usd + r.base_cost_usd;
    if !parts.is_finite() || (r.total_cost_usd - parts).abs() > EPS {
        out.push(InvariantViolation::BillingIdentity {
            total_usd: r.total_cost_usd,
            rental_usd: r.rental_cost_usd,
            warm_pool_usd: r.warm_pool_cost_usd,
            base_usd: r.base_cost_usd,
        });
    }
    if r.scale_ups != r.warm_promotions + r.cold_starts {
        out.push(InvariantViolation::ScaleUpLedger {
            scale_ups: r.scale_ups,
            warm_promotions: r.warm_promotions,
            cold_starts: r.cold_starts,
        });
    }
    for (field, total, per_tier) in [
        ("arrivals", r.arrivals, r.tiers.map(|t| t.arrivals)),
        ("completed", r.completed, r.tiers.map(|t| t.completed)),
        ("shed", r.shed, r.tiers.map(|t| t.shed)),
        ("aborted", r.aborted, r.tiers.map(|t| t.aborted)),
    ] {
        let tier_sum: usize = per_tier.iter().sum();
        if tier_sum != total {
            out.push(InvariantViolation::TierAccounting {
                field: field.to_string(),
                tier_sum,
                total,
            });
        }
    }
    for (field, v) in [
        ("makespan_s", r.makespan_s),
        ("goodput_tps", r.goodput_tps),
        ("cold_start_s", r.cold_start_s),
        ("unseal_s", r.unseal_s),
        ("ttft_p50_s", r.ttft_p50_s),
        ("ttft_p99_s", r.ttft_p99_s),
        ("ttft_p99_burst_s", r.ttft_p99_burst_s),
        ("rental_cost_usd", r.rental_cost_usd),
        ("warm_pool_cost_usd", r.warm_pool_cost_usd),
        ("base_cost_usd", r.base_cost_usd),
        ("total_cost_usd", r.total_cost_usd),
        ("usd_per_mtok", r.usd_per_mtok),
    ] {
        push_finite(&mut out, field, v);
    }
    check_records(&mut out, &r.records);
    out
}

/// Check that no surviving record exceeded the per-request retry
/// budget. The budget is a config knob, not a report field, so callers
/// (chaos, property tests) pass it in.
#[must_use]
pub fn check_retry_budget(records: &[RequestRecord], per_request: u32) -> Vec<InvariantViolation> {
    records
        .iter()
        .filter(|r| r.retries > per_request)
        .map(|r| InvariantViolation::RetryBudgetExceeded {
            id: r.id,
            retries: r.retries,
            budget: per_request,
        })
        .collect()
}

/// Check KV page-pool conservation: `free + in_use == total` and the
/// per-sequence holds agree with `in_use`.
#[must_use]
pub fn check_pool(pool: &PagePool) -> Vec<InvariantViolation> {
    if pool.conserved() {
        Vec::new()
    } else {
        vec![InvariantViolation::PoolConservation {
            free: pool.free_pages(),
            in_use: pool.pages_in_use(),
            total: pool.total_pages(),
        }]
    }
}

/// Check node time attribution over an emitted trace: spans tile each
/// node's timeline (`busy + idle + outage == makespan`) with no overlap
/// and gapless request chains. Wraps [`cllm_obs::check`].
#[must_use]
pub fn check_trace(trace: &Trace, eps: f64) -> Vec<InvariantViolation> {
    cllm_obs::check(trace, eps)
        .errors
        .into_iter()
        .map(|detail| InvariantViolation::TimeAttribution { detail })
        .collect()
}

/// Counters of one functional infer-loop run (vanilla, batched or
/// speculative decode in `cllm-infer`), checked by [`check_infer`].
/// Plain numbers so this crate needs no dependency on the engine; the
/// chaos runner builds it from the engine's `SpecStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InferLoopReport {
    /// Tokens the caller asked for.
    pub requested: usize,
    /// Tokens actually emitted.
    pub emitted: usize,
    /// Draft proposals made (0 for non-speculative decode).
    pub drafted: usize,
    /// Draft proposals accepted verbatim.
    pub accepted: usize,
    /// Tokens the target sampled itself: in speculative decode the first
    /// token, each rejection's replacement and each bonus token after a
    /// fully accepted round. For non-speculative decode every token
    /// counts as a resample, keeping the ledger total.
    pub resampled: usize,
    /// Non-finite entries observed across all emission logits.
    pub nonfinite_logits: usize,
}

/// Check the infer loop's token ledger and logit health:
/// `emitted == accepted + resampled` (every token is an accepted draft
/// or the target's own), `accepted <= drafted`,
/// `emitted <= requested`, and no non-finite logit ever reached an
/// emission decision (`forbid-nonfinite-logits`).
#[must_use]
pub fn check_infer(report: &InferLoopReport) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    if report.emitted != report.accepted + report.resampled
        || report.accepted > report.drafted
        || report.emitted > report.requested
    {
        out.push(InvariantViolation::TokenConservation {
            emitted: report.emitted,
            accepted: report.accepted,
            resampled: report.resampled,
            drafted: report.drafted,
        });
    }
    if report.nonfinite_logits > 0 {
        out.push(InvariantViolation::NonFiniteLogit {
            count: report.nonfinite_logits,
            emitted: report.emitted,
        });
    }
    out
}

/// Render a violation list for an assert or log line. Empty input
/// renders as `"ok"`.
#[must_use]
pub fn describe(violations: &[InvariantViolation]) -> String {
    if violations.is_empty() {
        return "ok".to_string();
    }
    violations
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("; ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate_serving, ServingConfig};
    use cllm_tee::platform::CpuTeeConfig;

    #[test]
    fn clean_run_has_no_violations() {
        let report = simulate_serving(&ServingConfig::small_test(), &CpuTeeConfig::tdx());
        let v = check_serving(&report);
        assert!(v.is_empty(), "{}", describe(&v));
    }

    #[test]
    fn broken_conservation_is_reported() {
        let mut report = simulate_serving(&ServingConfig::small_test(), &CpuTeeConfig::tdx());
        report.arrivals += 1;
        let v = check_serving(&report);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].label(), "conservation");
        assert!(describe(&v).contains("single-node conservation"));
    }

    #[test]
    fn non_finite_fields_are_reported_by_name() {
        let mut report = simulate_serving(&ServingConfig::small_test(), &CpuTeeConfig::tdx());
        report.goodput_tps = f64::NAN;
        report.ttft_p95_s = f64::INFINITY;
        let v = check_serving(&report);
        let labels: Vec<_> = v.iter().map(InvariantViolation::label).collect();
        assert_eq!(labels, ["non-finite", "non-finite"]);
        assert!(describe(&v).contains("goodput_tps"));
        assert!(describe(&v).contains("ttft_p95_s"));
    }

    #[test]
    fn availability_out_of_range_is_reported() {
        let mut report = simulate_serving(&ServingConfig::small_test(), &CpuTeeConfig::tdx());
        report.availability = 1.5;
        let v = check_serving(&report);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].label(), "availability-range");
    }

    #[test]
    fn retry_budget_check_flags_only_offenders() {
        let records = vec![
            crate::sim::RequestRecord {
                id: 0,
                ttft_s: 0.1,
                tpot_s: 0.01,
                e2e_s: 0.2,
                retries: 2,
            },
            crate::sim::RequestRecord {
                id: 1,
                ttft_s: 0.1,
                tpot_s: 0.01,
                e2e_s: 0.2,
                retries: 5,
            },
        ];
        let v = check_retry_budget(&records, 3);
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            InvariantViolation::RetryBudgetExceeded {
                id: 1,
                retries: 5,
                budget: 3
            }
        ));
    }

    #[test]
    fn pool_conservation_passes_on_a_fresh_pool() {
        let pool = PagePool::new(64, 16);
        assert!(check_pool(&pool).is_empty());
    }

    #[test]
    fn clean_infer_ledger_passes() {
        let report = InferLoopReport {
            requested: 16,
            emitted: 16,
            drafted: 20,
            accepted: 11,
            resampled: 5,
            nonfinite_logits: 0,
        };
        assert!(check_infer(&report).is_empty());
    }

    #[test]
    fn broken_infer_ledger_is_reported() {
        let mut report = InferLoopReport {
            requested: 16,
            emitted: 16,
            drafted: 20,
            accepted: 11,
            resampled: 5,
            nonfinite_logits: 0,
        };
        report.emitted += 1; // a token appeared from nowhere
        let v = check_infer(&report);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].label(), "token-conservation");

        report.emitted -= 1;
        report.accepted = 30; // more accepted than drafted
        let v = check_infer(&report);
        assert_eq!(v.len(), 1, "{}", describe(&v));
    }

    #[test]
    fn nonfinite_logits_are_forbidden() {
        let report = InferLoopReport {
            requested: 8,
            emitted: 8,
            drafted: 0,
            accepted: 0,
            resampled: 8,
            nonfinite_logits: 3,
        };
        let v = check_infer(&report);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].label(), "forbid-nonfinite-logits");
        assert!(describe(&v).contains("non-finite logit"));
    }

    #[test]
    fn violations_serialize_round_trip() {
        let v = InvariantViolation::BillingIdentity {
            total_usd: 10.0,
            rental_usd: 4.0,
            warm_pool_usd: 3.0,
            base_usd: 2.0,
        };
        let json = serde_json::to_string(&v).expect("serializes");
        let back: InvariantViolation = serde_json::from_str(&json).expect("parses");
        assert_eq!(v, back);
    }
}
