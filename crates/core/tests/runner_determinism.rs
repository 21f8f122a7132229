//! The parallel runner must be a pure wall-clock optimization: for every
//! experiment in the registry, the parallel run's `ExperimentResult` rows
//! and rendered JSON are identical to the sequential run's.

use cllm_core::experiments::{all_experiments, run_by_id, ExperimentResult};
use cllm_core::runner::{run_entries_profiled, with_grid_workers};

#[test]
fn parallel_matches_sequential_for_all_experiments() {
    let entries = all_experiments();
    let results = |workers| -> Vec<ExperimentResult> {
        run_entries_profiled(&entries, workers)
            .into_iter()
            .map(|(id, outcome, _)| outcome.unwrap_or_else(|e| panic!("{id}: {e}")))
            .collect()
    };

    cllm_perf::cache::clear();
    let sequential = with_grid_workers(1, || results(1));

    cllm_perf::cache::clear();
    let parallel = results(4);

    assert_eq!(sequential.len(), entries.len());
    assert_eq!(parallel.len(), entries.len());
    for (((id, _), seq), par) in entries.iter().zip(&sequential).zip(&parallel) {
        assert_eq!(seq.id, *id, "sequential run out of paper order");
        assert_eq!(par.id, *id, "parallel run out of paper order");
        assert_eq!(seq.rows, par.rows, "{id}: rows diverge");
        assert_eq!(seq, par, "{id}: results diverge");
        let seq_json = serde_json::to_string_pretty(seq.to_json()).expect("serializes");
        let par_json = serde_json::to_string_pretty(par.to_json()).expect("serializes");
        assert_eq!(seq_json, par_json, "{id}: rendered JSON diverges");
    }
}

#[test]
fn warm_cache_changes_nothing() {
    // Running an experiment again over a warm memoization cache must
    // reproduce the cold-cache result exactly.
    cllm_perf::cache::clear();
    let cold = run_by_id("fig9").expect("fig9 exists");
    let warm = run_by_id("fig9").expect("fig9 exists");
    assert!(
        cllm_perf::cache::stats().hits > 0,
        "warm run should hit the cache"
    );
    assert_eq!(cold, warm);
}
