//! The serve_scale experiment (64-node fleet, event-kernel smoke) must
//! be byte-identical for its pinned seeds no matter how many runner
//! threads the harness is configured with — the kernel's `(time, key,
//! seq)` tie-break makes event order deterministic by construction.
//!
//! This lives in its own single-test integration binary because it
//! mutates the process-global `CLLM_RUNNER_THREADS` environment
//! variable; sharing a binary with other tests would race on it.

#[test]
fn serve_scale_is_byte_identical_across_thread_counts() {
    let run_with = |threads: &str| {
        std::env::set_var("CLLM_RUNNER_THREADS", threads);
        let r = cllm_core::experiments::run_by_id("serve_scale").expect("serve_scale registered");
        let json = serde_json::to_string_pretty(r.to_json()).expect("serializes");
        (r.render(), json)
    };
    let (render_1, json_1) = run_with("1");
    let (render_4, json_4) = run_with("4");
    let (render_7, json_7) = run_with("7");
    std::env::remove_var("CLLM_RUNNER_THREADS");

    assert_eq!(
        json_1, json_4,
        "serve_scale JSON diverges between 1 and 4 runner threads"
    );
    assert_eq!(
        json_1, json_7,
        "serve_scale JSON diverges between 1 and 7 runner threads"
    );
    assert_eq!(render_1, render_4);
    assert_eq!(render_1, render_7);

    // And the isolated runner `all_figures` uses reproduces the same
    // bytes too.
    let entry = cllm_core::experiments::all_experiments()
        .into_iter()
        .find(|(id, _)| *id == "serve_scale")
        .expect("serve_scale registered");
    let (_, isolated, _) = cllm_core::runner::run_entries_profiled(&[entry], 1).remove(0);
    let isolated = isolated.expect("runs clean");
    let isolated_json = serde_json::to_string_pretty(isolated.to_json()).expect("serializes");
    assert_eq!(json_1, isolated_json);
}
