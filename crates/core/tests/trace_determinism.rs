//! The span trace of every traceable experiment must conserve time and
//! be a pure function of its pinned seeds: two runs in one process
//! export the same Chrome trace-event bytes, because `Trace::merge`
//! assigns lane ids by input order, never by any clock.
//!
//! `cllm <id> --trace` exports these traces; the `serving` path is also
//! driven by CI, the other three only here.

#[test]
fn every_trace_conserves_time_and_exports_the_same_bytes_twice() {
    for id in cllm_core::experiments::TRACEABLE {
        let export = || {
            let trace = cllm_core::experiments::trace_by_id(id)
                .unwrap_or_else(|| panic!("{id} is traceable"));
            let conservation = cllm_obs::check(&trace, 1e-6);
            assert!(
                conservation.ok(),
                "{id}: attribution violated: {:?}",
                conservation.errors
            );
            assert!(!trace.spans.is_empty(), "{id}: empty trace");
            cllm_obs::chrome_trace_json(&trace)
        };
        assert_eq!(export(), export(), "{id}: trace bytes differ between runs");
    }
}
