//! End-to-end CLI checks for `cllm chaos`: the search is a pure
//! function of its seeds (byte-identical stdout regardless of
//! `CLLM_RUNNER_THREADS`), and the repro path replays corpus files.

use std::process::Command;

fn chaos_stdout(threads: &str, extra: &[&str]) -> (String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_cllm"))
        .args(extra)
        .env("CLLM_RUNNER_THREADS", threads)
        .output()
        .expect("cllm runs");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        out.status.success(),
    )
}

/// Folded report digest of the first 48 chaos seeds. It pins the
/// simulators' behaviour beyond the goldens: any drift in a fault path,
/// retry rule or batching step that still satisfies every invariant
/// changes this digest.
const DIGEST_48: &str = "a16ac2ad6dae3797";

#[test]
fn chaos_search_is_thread_invariant_and_clean() {
    let (one, ok1) = chaos_stdout("1", &["chaos", "--seeds", "48"]);
    let (eight, ok8) = chaos_stdout("8", &["chaos", "--seeds", "48"]);
    assert!(ok1 && ok8, "pinned seed budget must find no violations");
    assert_eq!(one, eight, "chaos output must not depend on thread count");
    assert!(
        one.contains("0 violation(s)"),
        "summary line reports zero violations: {one}"
    );
    assert!(
        one.contains(&format!("| digest {DIGEST_48}")),
        "summary line carries the pinned digest {DIGEST_48}: {one}"
    );
}

#[test]
fn chaos_repro_flag_replays_the_corpus() {
    let path = format!(
        "{}/tests/chaos_corpus/planted-forbid-aborts.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let (out, ok) = chaos_stdout("1", &["chaos", "--repro", &path]);
    assert!(ok, "corpus repro must replay cleanly: {out}");
    assert!(
        out.contains("repro        : ok"),
        "replay reports success: {out}"
    );
    assert!(
        out.contains("forbidden"),
        "the reproduced violation is printed: {out}"
    );
}
