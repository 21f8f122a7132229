//! Parallel experiment runner: executes the paper's experiment registry
//! across a bounded pool of scoped worker threads while preserving the
//! exact paper ordering (and therefore byte-identical output) of the
//! sequential run.
//!
//! Two levels of parallelism compose here:
//!
//! * **Across experiments** — [`run_entries_profiled`] distributes the
//!   registry entries over a worker pool.
//! * **Within an experiment** — heavy sweeps (fig9/fig10/fig11/
//!   model_sizes) evaluate their grids through [`par_map`], which keeps
//!   output order equal to input order regardless of completion order.
//!
//! Determinism: the simulator is seeded purely from its inputs and the
//! `cllm-perf` memoization cache stores values keyed by those inputs, so
//! thread scheduling cannot change any number — only wall-clock time.
//! A one-worker run inside [`with_grid_workers`]`(1, ..)` also pins grid
//! parallelism to one worker, making it a true single-thread baseline
//! for timing comparisons.
//!
//! # Isolation
//!
//! A panic in one experiment must not cost the other results their
//! emission: [`run_entries_profiled`] fences every entry with
//! `catch_unwind` and returns a typed [`ExperimentError`] per failure,
//! so harness binaries can persist the partial results and report the
//! failures instead of aborting wholesale.

use crate::experiments::{ExperimentEntry, ExperimentResult};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Grid-parallelism override: 0 = use [`default_workers`], otherwise a
/// fixed worker count. Set to 1 inside [`with_grid_workers`]`(1, ..)` so a
/// sequential baseline really is sequential.
static GRID_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Worker count used by the runner and by in-experiment grids: the
/// `CLLM_RUNNER_THREADS` environment variable if set to a positive
/// integer, else the machine's available parallelism.
#[must_use]
pub fn default_workers() -> usize {
    if let Some(n) = std::env::var("CLLM_RUNNER_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Worker count experiment grids should use *right now*: 1 while a
/// sequential baseline is running, [`default_workers`] otherwise.
#[must_use]
pub fn grid_workers() -> usize {
    match GRID_WORKERS.load(Ordering::Relaxed) {
        0 => default_workers(),
        n => n,
    }
}

/// Restores the previous grid-parallelism override on drop.
struct GridWorkersGuard(usize);

impl GridWorkersGuard {
    fn pin(workers: usize) -> Self {
        GridWorkersGuard(GRID_WORKERS.swap(workers, Ordering::Relaxed))
    }
}

impl Drop for GridWorkersGuard {
    fn drop(&mut self) {
        GRID_WORKERS.store(self.0, Ordering::Relaxed);
    }
}

/// Map `f` over `items` on a bounded pool of `workers` scoped threads,
/// returning outputs **in input order** no matter which worker finishes
/// first. Work is distributed by an atomic cursor, so an expensive item
/// never blocks cheap ones behind a static partition.
///
/// # Panics
///
/// Propagates a panic from `f` after all workers have stopped.
pub fn par_map<T, U, F>(items: &[T], workers: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|_| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let out = f(item);
                    // A sibling worker's panic may have poisoned the slot
                    // (e.g. while dropping a previous value). Recover the
                    // guard: poisoning here carries no data invariant, and
                    // panicking again would mask the original failure with
                    // a double-panic abort.
                    *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
                })
            })
            .collect();
        // Join explicitly so a worker's panic payload reaches the caller
        // verbatim instead of the scope's generic message.
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    })
    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    slots
        .into_iter()
        .map(|slot| {
            // Same poison-recovery rationale as the worker store above:
            // surface the real failure (a missing slot), never a
            // secondary "slot lock" panic.
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every slot filled by a worker")
        })
        .collect()
}

/// Run `f` with in-experiment grid parallelism pinned to `workers`; the
/// previous setting is restored when `f` returns (or unwinds).
pub fn with_grid_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    let _guard = GridWorkersGuard::pin(workers);
    f()
}

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
/// depend on the host machine and thread schedule, so they are kept out
/// of goldens and every other deterministic artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct RunProfile {
    /// Registry id of the experiment.
    pub id: &'static str,
    /// Wall-clock seconds spent inside the experiment closure.
    pub wall_s: f64,
    /// `cllm_perf` cache hits observed while the experiment ran. Exact
    /// when `workers == 1`; with a parallel pool, concurrent siblings
    /// share the global counters, so the delta attributes their traffic
    /// too.
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

/// Run `entries` across `workers` scoped threads with each experiment
/// fenced by `catch_unwind`: one panicking entry yields an
/// [`ExperimentError::Panicked`] in its slot while every other entry
/// still returns its result. Output order equals input order. Each
/// entry also gets a [`RunProfile`]: wall-clock time and the
/// `cllm_perf` cache hit/miss delta observed around it. The profile
/// rides alongside the results and must never feed a golden.
#[must_use]
pub fn run_entries_profiled(
    entries: &[ExperimentEntry],
    workers: usize,
) -> Vec<(
    &'static str,
    Result<ExperimentResult, ExperimentError>,
    RunProfile,
)> {
    par_map(entries, workers, |&(id, run)| {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, 8, |&x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(par_map(&[9u32], 4, |&x| x + 1), vec![10]);
    }

    #[test]
    fn par_map_uneven_costs_still_ordered() {
        // Early items sleep so later items finish first; order must hold.
        let items: Vec<u64> = (0..12).collect();
        let out = par_map(&items, 4, |&x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    #[should_panic(expected = "grid boom")]
    fn par_map_propagates_worker_panics() {
        let items: Vec<u32> = (0..8).collect();
        let _ = par_map(&items, 4, |&x| {
            assert!(x != 5, "grid boom");
            x
        });
    }

    #[test]
    fn sequential_pins_grid_workers() {
        let _guard = GridWorkersGuard::pin(1);
        assert_eq!(grid_workers(), 1);
        drop(_guard);
        assert!(grid_workers() >= 1);
    }

    #[test]
    fn with_grid_workers_scopes_the_override() {
        let outside = grid_workers();
        let inside = with_grid_workers(1, grid_workers);
        assert_eq!(inside, 1);
        assert_eq!(grid_workers(), outside);
    }

    #[test]
    fn with_grid_workers_restores_on_unwind() {
        let outside = grid_workers();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            with_grid_workers(1, || panic!("boom inside override"))
        }));
        assert_eq!(grid_workers(), outside);
    }

    fn good() -> ExperimentResult {
        crate::experiments::run_by_id("fig1").expect("fig1 exists")
    }

    fn bad() -> ExperimentResult {
        panic!("injected failure for isolation test")
    }

    #[test]
    fn isolated_run_survives_a_panicking_entry() {
        let entries: Vec<ExperimentEntry> = vec![("fig1", good), ("boom", bad), ("fig1b", good)];
        let out = run_entries_profiled(&entries, 2);
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
        let profiled = run_entries_profiled(&entries, 1);
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
    fn isolation_is_deterministic_across_workers() {
        let entries: Vec<ExperimentEntry> = vec![("fig1", good), ("boom", bad)];
        let outcomes = |workers| {
            run_entries_profiled(&entries, workers)
                .into_iter()
                .map(|(id, outcome, _)| (id, outcome))
                .collect::<Vec<_>>()
        };
        assert_eq!(outcomes(1), outcomes(4));
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
