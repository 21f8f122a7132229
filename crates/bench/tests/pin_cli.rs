//! The measured-bench contract at the process boundary: both pinned
//! benches accept exactly one mode, and a bad pin file fails with a
//! message naming it before anything is measured or overwritten. Every
//! case here exits before a measurement starts, so it stays fast in
//! debug builds.

use std::path::PathBuf;
use std::process::{Command, Output};

const BENCHES: [(&str, &str); 2] = [
    (env!("CARGO_BIN_EXE_serve_bench"), "BENCH_serve.json"),
    (env!("CARGO_BIN_EXE_bench_infer"), "BENCH_infer.json"),
];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("bench runs")
}

/// A path in the temp directory that no concurrent test uses.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cllm-pin-cli-{}-{name}", std::process::id()))
}

#[test]
fn anything_but_one_mode_is_a_usage_error() {
    for (bin, pin) in BENCHES {
        for args in [
            &["--smoke", "--check", pin][..],
            &["--bogus"],
            &["--check"],
            &["--out"],
            &["--smoke", "--smoke"],
        ] {
            let out = run(bin, args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
            assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
        }
    }
}

#[test]
fn a_missing_pin_fails_check_naming_the_path() {
    let missing = scratch("missing.json");
    for (bin, _) in BENCHES {
        let out = run(bin, &["--check", missing.to_str().expect("utf-8 path")]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bin}: {stderr}");
        assert!(
            stderr.contains(&*missing.to_string_lossy()),
            "{bin}: {stderr}"
        );
    }
}

#[test]
fn an_unparsable_pin_is_neither_measured_nor_overwritten() {
    for (bin, _) in BENCHES {
        let path = scratch("bad.json");
        std::fs::write(&path, "{bad").expect("temp dir writable");
        for mode in ["--out", "--check"] {
            let out = run(bin, &[mode, path.to_str().expect("utf-8 path")]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{bin} {mode}: {stderr}");
            assert!(
                stderr.contains("not a JSON object"),
                "{bin} {mode}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{bin} {mode} measured something");
        }
        let left = std::fs::read(&path).expect("pin still there");
        std::fs::remove_file(&path).expect("temp file removable");
        assert_eq!(left, b"{bad", "{bin} rewrote the pin");
    }
}
