//! Experiment runner: executes the paper's experiment registry one
//! entry after another, in registry (paper) order.
//!
//! Determinism: the simulator is seeded purely from its inputs and the
//! `cllm-perf` memoization cache stores values keyed by those inputs, so
//! every result is a pure function of its entry — a warm cache changes
//! only wall-clock time.
//!
//! # Isolation
//!
//! A panic in one experiment must not cost the other results their
//! emission: [`run_entries_profiled`] fences every entry with
//! `catch_unwind` and returns a typed [`ExperimentError`] per failure,
//! so `cllm figures` can persist the partial results and report the
//! failures instead of aborting wholesale.

use crate::experiments::{ExperimentEntry, ExperimentResult};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Why an experiment produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// The experiment panicked; the payload message is preserved so the
    /// harness can report the original failure.
    Panicked {
        /// Registry id of the failing experiment.
        id: String,
        /// The panic payload, stringified.
        message: String,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Panicked { id, message } => {
                write!(f, "experiment '{id}' panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

/// Stringify a `catch_unwind` payload: the common `&str`/`String`
/// payloads verbatim, anything else a placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Wall-clock and memoization profile for one experiment run. Collected
/// by [`run_entries_profiled`] and reported on stderr only — profiles
/// depend on the host machine, so they are kept out of the committed
/// results and every other deterministic artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct RunProfile {
    /// Registry id of the experiment.
    pub id: &'static str,
    /// Wall-clock seconds spent inside the experiment closure.
    pub wall_s: f64,
    /// `cllm_perf` cache hits observed while the experiment ran. The
    /// counters are process-global, so the delta also counts any other
    /// thread simulating at the same time (a sibling test under `cargo
    /// test`); in `cllm figures` it is exact.
    pub cache_hits: u64,
    /// `cllm_perf` cache misses observed while the experiment ran (same
    /// attribution caveat as [`RunProfile::cache_hits`]).
    pub cache_misses: u64,
}

impl RunProfile {
    /// One-line human-readable rendering for stderr reports.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{:<22} {:>8.3}s  cache {:>5} hit / {:>5} miss",
            self.id, self.wall_s, self.cache_hits, self.cache_misses
        )
    }
}

/// Run `entries` in order with each experiment fenced by
/// `catch_unwind`: one panicking entry yields an
/// [`ExperimentError::Panicked`] in its slot while every other entry
/// still returns its result. Each entry also gets a [`RunProfile`]:
/// wall-clock time and the `cllm_perf` cache hit/miss delta observed
/// around it. The profile rides alongside the results and must never
/// feed a committed result.
#[must_use]
pub fn run_entries_profiled(
    entries: &[ExperimentEntry],
) -> Vec<(
    &'static str,
    Result<ExperimentResult, ExperimentError>,
    RunProfile,
)> {
    entries
        .iter()
        .map(|&(id, run)| {
            let stats0 = cllm_perf::cache::stats();
            let t0 = std::time::Instant::now();
            let outcome =
                catch_unwind(AssertUnwindSafe(run)).map_err(|payload| ExperimentError::Panicked {
                    id: id.to_string(),
                    message: panic_message(payload.as_ref()),
                });
            let wall_s = t0.elapsed().as_secs_f64();
            let stats1 = cllm_perf::cache::stats();
            let profile = RunProfile {
                id,
                wall_s,
                cache_hits: stats1.hits.saturating_sub(stats0.hits),
                cache_misses: stats1.misses.saturating_sub(stats0.misses),
            };
            (id, outcome, profile)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> ExperimentResult {
        crate::experiments::run_by_id("fig1").expect("fig1 exists")
    }

    fn bad() -> ExperimentResult {
        panic!("injected failure for isolation test")
    }

    #[test]
    fn isolated_run_survives_a_panicking_entry() {
        let entries: Vec<ExperimentEntry> = vec![("fig1", good), ("boom", bad), ("fig1b", good)];
        let out = run_entries_profiled(&entries);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].0, "fig1");
        assert!(out[0].1.is_ok(), "healthy entry before the failure");
        assert!(out[2].1.is_ok(), "healthy entry after the failure");
        match &out[1].1 {
            Err(ExperimentError::Panicked { id, message }) => {
                assert_eq!(id, "boom");
                assert!(
                    message.contains("injected failure"),
                    "original payload surfaced, got: {message}"
                );
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn profiles_ride_beside_unchanged_results() {
        let entries: Vec<ExperimentEntry> = vec![("fig1", good), ("boom", bad)];
        let profiled = run_entries_profiled(&entries);
        assert_eq!(profiled.len(), entries.len());
        for ((id, _, profile), (entry_id, _)) in profiled.iter().zip(&entries) {
            assert_eq!(id, entry_id, "profiling must not reorder entries");
            assert_eq!(profile.id, *id);
            assert!(profile.wall_s >= 0.0);
        }
        assert_eq!(
            profiled[0].1,
            Ok(good()),
            "profiling must not change results"
        );
    }

    #[test]
    fn profile_renders_one_line() {
        let p = RunProfile {
            id: "fig1",
            wall_s: 0.25,
            cache_hits: 3,
            cache_misses: 1,
        };
        let line = p.render();
        assert!(line.contains("fig1") && line.contains("hit") && line.contains("miss"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn experiment_error_displays_the_cause() {
        let e = ExperimentError::Panicked {
            id: "x".to_string(),
            message: "why".to_string(),
        };
        assert_eq!(e.to_string(), "experiment 'x' panicked: why");
    }

    #[test]
    fn panic_payload_stringification() {
        let p = catch_unwind(|| panic!("static str")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "static str");
        let id = 7;
        let p = catch_unwind(move || panic!("formatted {id}")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "formatted 7");
        let p = catch_unwind(|| std::panic::panic_any(42u8)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "non-string panic payload");
    }
}
