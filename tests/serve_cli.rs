//! End-to-end checks that `cllm serve` is total over its numeric flags:
//! unparsable, NaN, infinite or negative values, oversized fleets and
//! oversized loads exit 2 with a message naming the problem instead of
//! panicking, hanging, or aborting on allocation; a zero rate is a
//! degenerate config every serve path answers with an empty report.
//! Every platform name runs on every serve path, and unknown platform
//! or `--dtype` names exit 2 naming the value. `cllm plan` prints
//! Figure 12's cost sweep priced at the requested shape, on the
//! platforms whose memory holds the shape's KV cache.

use confidential_llms_in_tees::core::experiments::fig12;
use confidential_llms_in_tees::cost::cheapest_point;
use confidential_llms_in_tees::workload::phase::RequestSpec;
use std::process::{Command, Output};

/// Every CLI platform name, `sev` being an alias of `sev-snp`.
const NAMES: [&str; 8] = ["bare", "vm", "tdx", "sgx", "sev-snp", "sev", "gpu", "cgpu"];

/// The CPU names, which the single-node path serves.
const CPU_NAMES: [&str; 6] = ["bare", "vm", "tdx", "sgx", "sev-snp", "sev"];

fn cllm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cllm"))
        .args(args)
        .output()
        .expect("cllm runs")
}

fn serve(args: &[&str]) -> Output {
    cllm(&[&["serve"], args].concat())
}

fn assert_conserved(args: &[&str]) {
    let out = serve(args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("conservation : ok"),
        "serve {args:?} must run and conserve: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
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
        &["--autoscale", "--max-rented", "1025"],
        "--max-rented 1025 is above the cap of 1024 nodes",
    );
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

#[test]
fn every_platform_name_serves_on_every_path() {
    for name in CPU_NAMES {
        assert_conserved(&["--platform", name, "--faults", "600", "--duration", "10"]);
    }
    let fleet = NAMES
        .iter()
        .flat_map(|name| [format!("1x{name}"), format!("1x{name}-spot")])
        .collect::<Vec<_>>()
        .join(",");
    assert_conserved(&[
        "--nodes",
        &fleet,
        "--faults",
        "600",
        "--waves",
        "120",
        "--duration",
        "10",
    ]);
    for name in NAMES {
        assert_conserved(&[
            "--autoscale",
            "--platform",
            name,
            "--waves",
            "--duration",
            "10",
        ]);
    }
}

#[test]
fn unknown_platform_names_are_usage_errors() {
    assert_usage_error(&["--platform", "h100"], "unknown platform \"h100\"");
    assert_usage_error(
        &["--autoscale", "--platform", "TDX"],
        "unknown platform \"TDX\"",
    );
    assert_usage_error(
        &["--nodes", "2xtdx,1xsgx-spot,1xtpu"],
        "unknown platform \"tpu\"",
    );
    assert_usage_error(
        &["--nodes", "1xcgpu-spotty"],
        "unknown platform \"cgpu-spotty\"",
    );
    assert_usage_error(&["--platform", "cgpu"], "serve simulates CPU platforms");
}

#[test]
fn estimate_accepts_exactly_the_three_dtypes() {
    for (dtype, label) in [("bf16", "bf16"), ("int8", "int8"), ("f32", "f32")] {
        let out = cllm(&["estimate", "--platform", "bare", "--dtype", dtype]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "--dtype {dtype}: {stdout}");
        assert!(stdout.starts_with(&format!("bare | {label} |")), "{stdout}");
    }
    for bad in ["int4", "bogus", "BF16", ""] {
        let out = cllm(&["estimate", "--dtype", bad]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--dtype {bad:?}: {stderr}");
        assert!(
            stderr.contains("--dtype") && stderr.contains(&format!("{bad:?}")),
            "--dtype {bad:?}: stderr {stderr:?} must name the flag and the value"
        );
        assert!(
            out.stdout.is_empty(),
            "nothing is estimated for --dtype {bad:?}"
        );
    }
}

#[test]
fn plan_prints_figure_12s_sweep_at_the_requested_shape() {
    for (args, batch, input) in [
        (&[][..], 16, 512),
        (&["--batch", "1", "--input", "128"], 1, 128),
        (&["--batch", "128", "--input", "128"], 128, 128),
    ] {
        let out = cllm(&[&["plan"], args].concat());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "plan {args:?}: {stdout}");
        let req = RequestSpec::new(batch, input, 128);
        let sweep = fig12::tdx_cost_sweep(&req);
        let best = cheapest_point(&sweep).expect("the core sweep is nonempty");
        let cpu = format!(
            "TDX best    : ${:.3}/Mtok at {} cores\n",
            best.usd_per_mtok, best.x
        );
        let gpu = format!(
            "cGPU        : ${:.3}/Mtok\n",
            fig12::cgpu_usd_per_mtok(&req)
        );
        assert!(
            stdout.contains(&cpu) && stdout.contains(&gpu),
            "plan {args:?} must print {cpu:?} and {gpu:?}: {stdout}"
        );
    }
    let out = cllm(&["plan", "--batch", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "plan --batch 0: {stderr}");
    assert!(stderr.contains("--batch"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing is planned for --batch 0");
}

#[test]
fn plan_prices_only_the_platforms_that_hold_the_kv_cache() {
    // Batch 300 at 512 + 128 tokens is about 94 GiB of Llama2-7B KV
    // cache: more than the H100 has beside the weights, less than a
    // socket's 128 GiB.
    let out = cllm(&["plan", "--batch", "300"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "plan --batch 300: {stdout}");
    for line in [
        "TDX best    : $",
        "cGPU        : does not fit (93.8 GiB of KV cache, ",
        "recommend   : TDX (the cGPU cannot hold",
    ] {
        assert!(
            stdout.contains(line),
            "plan --batch 300 must print {line:?}: {stdout}"
        );
    }
    // A million sequences, or a million-token prompt, fit neither.
    for args in [["--batch", "1000000"], ["--input", "1000000"]] {
        let out = cllm(&[&["plan"], &args[..]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "plan {args:?}: {stderr}");
        assert!(
            stderr.contains("--batch") && stderr.contains("--input"),
            "plan {args:?} must name both flags: {stderr}"
        );
        assert!(out.stdout.is_empty(), "nothing is planned for {args:?}");
    }
}
