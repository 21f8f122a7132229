//! End-to-end CLI checks for `cllm chaos`: the search over a pinned
//! seed budget finds no violation and folds to a pinned digest, and the
//! repro path replays corpus files.

use std::process::Command;

fn chaos_stdout(args: &[&str]) -> (String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_cllm"))
        .args(args)
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
const DIGEST_48: &str = "1dc0f4dcd3da29be";

#[test]
fn chaos_search_is_clean_and_matches_its_pinned_digest() {
    let (one, ok) = chaos_stdout(&["chaos", "--seeds", "48"]);
    assert!(ok, "pinned seed budget must find no violations");
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
    let (out, ok) = chaos_stdout(&["chaos", "--repro", &path]);
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

#[test]
fn chaos_repro_of_an_invalid_point_exits_2_naming_the_problem() {
    use cllm_chaos::point::PathSpec;
    use cllm_chaos::Repro;
    let corpus = format!(
        "{}/tests/chaos_corpus/clean-pin-cluster.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let mut repro = Repro::from_json(&std::fs::read_to_string(corpus).expect("corpus reads"))
        .expect("corpus parses");
    match &mut repro.point.path {
        PathSpec::Cluster(p) => p.nodes.clear(),
        other => panic!("cluster pin holds {other:?}"),
    }
    let path = format!("{}/empty-cluster-repro.json", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, repro.to_json()).expect("edited repro writes");
    let out = Command::new(env!("CARGO_BIN_EXE_cllm"))
        .args(["chaos", "--repro", &path])
        .output()
        .expect("cllm runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(&path) && stderr.contains("invalid repro: cluster point has no nodes"),
        "stderr names the file and the problem: {stderr}"
    );
}
