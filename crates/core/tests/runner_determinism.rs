//! A warm memoization cache must be a pure wall-clock optimization.
//!
//! This lives in its own integration-test binary because it clears the
//! process-global `cllm_perf` cache; sharing a binary with other tests
//! would race on it.

use cllm_core::experiments::run_by_id;

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
