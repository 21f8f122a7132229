//! Drive one [`ChaosPoint`] through the real simulator and check the
//! report against the unified invariant registry.

use cllm_serve::invariants::{self, InvariantViolation};
use cllm_serve::{autoscale, cluster, sim};
use serde::{Deserialize, Serialize};

use crate::point::{ChaosPoint, PathSpec};

/// The outcome of one chaos run: a digest of the full serialized
/// report (the byte-identity witness) plus every invariant violation
/// the registry found.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// FNV-1a 64 over the report's JSON serialization, hex-encoded.
    /// Two runs of the same point must produce the same digest on any
    /// machine and thread setting.
    pub digest: String,
    /// Violations, in registry order. Empty means the point passed.
    pub violations: Vec<InvariantViolation>,
    /// Requests that arrived.
    pub arrivals: usize,
    /// Requests that completed.
    pub completed: usize,
}

/// FNV-1a 64 of `bytes`, hex-encoded.
#[must_use]
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

fn digest_of<T: Serialize>(report: &T) -> String {
    let json = serde_json::to_string(report).expect("reports serialize");
    fnv1a_hex(json.as_bytes())
}

/// Run `point` through its serving path and check every applicable
/// invariant. Deterministic: a pure function of the point.
#[must_use]
pub fn run_point(point: &ChaosPoint) -> RunOutcome {
    match &point.path {
        PathSpec::Single(p) => {
            let cfg = p.base.serving_config();
            let node = p.node.kind.serving_node();
            let plan = p.plan();
            let report = sim::simulate_serving_faulted(&cfg, &node, &plan);
            let mut violations = invariants::check_serving(&report);
            violations.extend(invariants::check_retry_budget(
                &report.records,
                plan.policy.max_retries,
            ));
            RunOutcome {
                digest: digest_of(&report),
                violations,
                arrivals: report.arrivals,
                completed: report.completed,
            }
        }
        PathSpec::Cluster(p) => {
            let cfg = p.config();
            let report = cluster::simulate_cluster(&cfg);
            let mut violations = invariants::check_cluster(&report);
            violations.extend(invariants::check_retry_budget(
                &report.records,
                cllm_serve::faults::RecoveryPolicy::default().max_retries,
            ));
            RunOutcome {
                digest: digest_of(&report),
                violations,
                arrivals: report.arrivals,
                completed: report.completed,
            }
        }
        PathSpec::Autoscale(p) => {
            let cfg = p.config();
            let report = autoscale::simulate_autoscale(&cfg);
            let mut violations = invariants::check_autoscale(&report);
            violations.extend(invariants::check_retry_budget(
                &report.records,
                cfg.retry.per_request,
            ));
            if p.forbid_aborts && report.aborted > 0 {
                violations.push(InvariantViolation::Forbidden {
                    rule: "forbid-aborts".to_string(),
                    detail: format!("{} requests aborted", report.aborted),
                });
            }
            RunOutcome {
                digest: digest_of(&report),
                violations,
                arrivals: report.arrivals,
                completed: report.completed,
            }
        }
        PathSpec::Infer(p) => {
            use cllm_infer::generate::Sampling;
            use cllm_infer::kernels::PanelMatrix;
            use cllm_infer::model::{Linear, TinyModel};

            let mut target = TinyModel::init(&p.config(), p.model_seed);
            if p.plant_nan_lm_head {
                if let Linear::F32(m) = &mut target.lm_head {
                    let mut planted = m.unpack();
                    planted.set(0, 0, f32::NAN);
                    *m = PanelMatrix::pack(&planted);
                }
            }
            let draft = target.quantized();
            let sampling = match p.temperature {
                Some(t) => Sampling::Temperature(t),
                None => Sampling::Greedy,
            };
            let (tokens, stats) = cllm_infer::speculative::speculative_generate(
                &target,
                &draft,
                &p.prompt,
                p.max_new,
                p.draft_k,
                sampling,
                p.model_seed,
            );
            let report = invariants::InferLoopReport {
                requested: p.max_new,
                emitted: tokens.len(),
                drafted: stats.drafted,
                accepted: stats.accepted,
                resampled: stats.resampled,
                nonfinite_logits: stats.nonfinite_logits,
            };
            let violations = invariants::check_infer(&report);
            RunOutcome {
                // The emitted tokens are integer-exact (argmax/CDF
                // indices), so hashing them alongside the ledger keeps
                // the byte-identity witness without pinning any
                // machine-dependent float formatting.
                digest: digest_of(&(&tokens, &report)),
                violations,
                arrivals: p.max_new,
                completed: tokens.len(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::sample_point;

    #[test]
    fn runs_are_deterministic_per_seed() {
        for seed in 0..6 {
            let p = sample_point(seed);
            let a = run_point(&p);
            let b = run_point(&p);
            assert_eq!(a, b, "seed {seed} must replay byte-identically");
        }
    }

    #[test]
    fn pinned_seed_budget_finds_no_violations() {
        // The same budget CI's chaos smoke pins: every sampled point
        // must satisfy the whole registry.
        for seed in 0..24 {
            let p = sample_point(seed);
            let out = run_point(&p);
            assert!(
                out.violations.is_empty(),
                "seed {seed} violated: {}",
                invariants::describe(&out.violations)
            );
            assert!(out.arrivals > 0, "seed {seed} sampled an empty trace");
        }
    }

    #[test]
    fn fnv_digest_is_stable() {
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"chaos"), fnv1a_hex(b"chaos"));
        assert_ne!(fnv1a_hex(b"chaos"), fnv1a_hex(b"chao s"));
    }
}
