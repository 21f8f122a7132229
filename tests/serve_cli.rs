//! End-to-end checks that `cllm serve` is total over its numeric flags:
//! unparsable, NaN, infinite or negative values, oversized fleets and
//! oversized loads exit 2 with a message naming the problem instead of
//! panicking, hanging, or aborting on allocation; a zero rate is a
//! degenerate config every serve path answers with an empty report.

use std::process::{Command, Output};

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cllm"))
        .arg("serve")
        .args(args)
        .output()
        .expect("cllm runs")
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = serve(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "serve {args:?} must exit 2; stderr: {stderr}"
    );
    assert!(
        stderr.contains(needle),
        "serve {args:?}: stderr {stderr:?} must mention {needle:?}"
    );
}

#[test]
fn non_finite_negative_and_unparsable_numbers_are_usage_errors() {
    assert_usage_error(&["--rate", "nan"], "--rate");
    assert_usage_error(&["--duration", "nan"], "--duration");
    assert_usage_error(&["--duration", "inf"], "--duration");
    assert_usage_error(&["--rate", "inf"], "--rate");
    assert_usage_error(&["--rate", "abc"], "--rate");
    assert_usage_error(&["--rate", "-1"], "--rate");
    assert_usage_error(&["--nodes", "2xtdx", "--wave-frac", "nan"], "--wave-frac");
    assert_usage_error(&["--autoscale", "--burst-mult", "inf"], "--burst-mult");
}

#[test]
fn oversized_fleets_and_loads_hit_their_caps() {
    assert_usage_error(&["--nodes", "99999999999xtdx"], "more than 1024 nodes");
    assert_usage_error(&["--nodes", "600xtdx,600xsgx"], "more than 1024 nodes");
    assert_usage_error(
        &["--rate", "1e9", "--duration", "60"],
        "--rate x --duration",
    );
    assert_usage_error(
        &["--faults", "1e300", "--duration", "1"],
        "--faults x --duration",
    );
}

#[test]
fn zero_rate_prints_an_empty_report_on_every_path() {
    for args in [
        &["--rate", "0"][..],
        &["--rate", "0", "--nodes", "2xtdx"],
        &["--rate", "0", "--autoscale"],
    ] {
        let out = serve(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "serve {args:?} must succeed: {stdout}"
        );
        assert!(
            stdout.contains("conservation : ok (0 "),
            "serve {args:?} reports an empty, conserved run: {stdout}"
        );
    }
}
