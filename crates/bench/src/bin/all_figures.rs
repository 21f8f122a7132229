//! Regenerate every table and figure of the paper, printing each table
//! and writing JSON under the results directory (`CLLM_RESULTS_DIR` or
//! `results/`).
//!
//! The registry runs twice from a cold simulation cache — once
//! sequentially, once across the parallel runner's worker pool — and the
//! binary asserts the two runs render byte-identical JSON before
//! persisting, then reports the wall-clock comparison.
//!
//! Every experiment is panic-isolated: a failing experiment costs only
//! its own table. The healthy results are still printed and persisted
//! (partial emission), the failures are summarized on stderr, and the
//! process exits non-zero. Setting `CLLM_INJECT_FAILING_STUB` appends a
//! deliberately panicking stub to the registry so CI can prove that
//! property end to end.

use cllm_core::experiments::{ExperimentEntry, ExperimentResult};
use cllm_core::runner::{
    default_workers, run_entries_profiled, with_grid_workers, ExperimentError,
};
use std::time::Instant;

/// The deliberately failing registry entry behind
/// `CLLM_INJECT_FAILING_STUB`.
fn failing_stub() -> ExperimentResult {
    panic!("intentionally failing stub (CLLM_INJECT_FAILING_STUB is set)")
}

fn main() {
    let workers = default_workers();
    let mut entries: Vec<ExperimentEntry> = cllm_core::experiments::all_experiments();
    if std::env::var_os("CLLM_INJECT_FAILING_STUB").is_some_and(|v| !v.is_empty()) {
        entries.push(("__failing_stub", failing_stub));
    }

    cllm_perf::cache::clear();
    let t0 = Instant::now();
    let sequential = with_grid_workers(1, || run_entries_profiled(&entries, 1));
    let seq_wall = t0.elapsed();

    cllm_perf::cache::clear();
    let t1 = Instant::now();
    let parallel = run_entries_profiled(&entries, workers);
    let par_wall = t1.elapsed();
    let cache = cllm_perf::cache::stats();

    assert_eq!(
        sequential.len(),
        parallel.len(),
        "runner dropped experiments"
    );

    let mut failures: Vec<ExperimentError> = Vec::new();
    let mut emitted = 0usize;
    for ((id, seq, _), (_, par, _)) in sequential.iter().zip(&parallel) {
        match (seq, par) {
            (Ok(s), Ok(p)) => {
                let seq_json =
                    serde_json::to_string_pretty(s.to_json()).expect("result serializes");
                let par_json =
                    serde_json::to_string_pretty(p.to_json()).expect("result serializes");
                assert_eq!(
                    seq_json, par_json,
                    "parallel output for {id} diverges from sequential"
                );
                println!("{}", p.render());
                if let Err(e) = cllm_bench::persist(p) {
                    eprintln!("warning: could not write results JSON: {e}");
                }
                println!();
                emitted += 1;
            }
            (Err(e), Err(_)) => failures.push(e.clone()),
            // Failing in only one mode is itself a determinism bug worth
            // flagging loudly.
            (Err(e), Ok(_)) | (Ok(_), Err(e)) => {
                failures.push(e.clone());
                eprintln!("error: '{id}' failed in one run mode but not the other");
            }
        }
    }

    let speedup = seq_wall.as_secs_f64() / par_wall.as_secs_f64().max(1e-9);
    println!(
        "{emitted}/{} experiments verified byte-identical across runs",
        parallel.len()
    );
    println!(
        "sequential {:.2}s  |  parallel {:.2}s on {workers} workers  |  speedup {speedup:.2}x",
        seq_wall.as_secs_f64(),
        par_wall.as_secs_f64()
    );
    println!(
        "simulation cache: {} hits / {} misses ({} cpu + {} gpu points)",
        cache.hits, cache.misses, cache.cpu_entries, cache.gpu_entries
    );

    if !failures.is_empty() {
        eprintln!(
            "\n{} experiment(s) FAILED (partial results emitted):",
            failures.len()
        );
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
