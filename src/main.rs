//! `cllm` — command-line interface to the confidential-LLM toolkit.
//!
//! ```text
//! cllm figures [id]                      regenerate paper tables/figures;
//!                                        with no id, all of them, each
//!                                        written to results/<id>.json
//! cllm insights                          check the paper's 12 insights
//! cllm deploy [--platform P]             attest + generate a demo completion
//! cllm estimate [--platform P] [...]     predict perf for a request shape
//! cllm plan [--batch N] [--input N]      CPU-vs-cGPU cost recommendation
//! cllm serve [--rate R] [--platform P]   online serving SLO report
//!            [--kv-policy conservative|recompute|swap] [--kv-block-tokens N]
//!            [--kv-pool-gib G]              ... paged KV cache with the chosen
//!                                           preemption policy, page size and
//!                                           page-pool arena
//!            [--faults S] [--fault-seed N]  ... under an injected fault schedule
//!            [--nodes SPEC] [--failover on|off] [--waves W] [--wave-frac F]
//!                                           ... on a multi-node cluster
//!            [--autoscale] [--warm-pool N] [--brownout] [--burst-mult M]
//!            [--max-rented N] [--traffic-seed S]
//!                                           ... flash-crowd traffic with an
//!                                           attestation-aware autoscaler
//! cllm chaos [--seeds N] [--seed-base S] [--out DIR]
//!                                        deterministic chaos search over the
//!                                        joint config/fault/traffic space;
//!                                        violations shrink to minimal repros
//! cllm chaos --repro FILE                replay a shrunken repro byte-identically
//! cllm <experiment> [--trace out.json]   run one experiment; export its span
//!                                        timeline as Chrome trace-event JSON
//! ```

use cllm_core::experiments::{
    all_experiments, fig12, run_by_id, trace_by_id, ExperimentEntry, ExperimentResult, TRACEABLE,
};
use cllm_core::pipeline::{ConfidentialPipeline, DeploymentSpec};
use cllm_core::runner::{run_entries_profiled, ExperimentError};
use cllm_core::scenario::{CpuScenario, GpuScenario};
use cllm_cost::SpillPenalty;
use cllm_cost::{cheapest_point, cost_advantage_pct, SOCKET_MEMORY_GIB};
use cllm_hw::DType;
use cllm_perf::gpu_kv_budget_bytes;
use cllm_serve::autoscale::{simulate_autoscale, AutoscaleConfig, ControllerConfig, RentalSpec};
use cllm_serve::cluster::{simulate_cluster, ClusterConfig, NodeSpec, WaveModel};
use cllm_serve::faults::{FaultPlan, FaultRates};
use cllm_serve::invariants;
use cllm_serve::router::{
    AdmissionPolicy, BreakerConfig, BrownoutConfig, RetryBudget, TieredAdmission,
};
use cllm_serve::scheduler::{KvConfig, KvPolicy};
use cllm_serve::sim::{simulate_serving_faulted, ServingConfig, ServingNode};
use cllm_serve::slo::Slo;
use cllm_serve::workload::ArrivalProcess;
use cllm_serve::{MAX_EXPECTED_ARRIVALS, MAX_FLEET_NODES, MAX_HOURLY_RATE_X_DURATION};
use cllm_tee::platform::{Platform, TeeKind};
use cllm_workload::kv::kv_bytes_total;
use cllm_workload::phase::RequestSpec;
use cllm_workload::trace::{Tier, TrafficModel};
use std::collections::HashMap;
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        print_usage();
        return ExitCode::from(2);
    };
    let flags = parse_flags(&args[1..]);
    let outcome = match command {
        "figures" => Ok(cmd_figures(
            args.get(1).filter(|a| !a.starts_with("--")),
            &flags,
        )),
        "insights" => Ok(cmd_insights()),
        "deploy" => cmd_deploy(&flags),
        "estimate" => cmd_estimate(&flags),
        "plan" => cmd_plan(&flags),
        "serve" => cmd_serve(&flags),
        "chaos" => cmd_chaos(&flags),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(ExitCode::SUCCESS)
        }
        other => {
            // Experiment ids double as commands: `cllm serving --trace t.json`.
            if all_experiments().iter().any(|(id, _)| *id == other) {
                Ok(cmd_experiment(other, &flags))
            } else {
                eprintln!("unknown command: {other}\n");
                print_usage();
                Ok(ExitCode::from(2))
            }
        }
    };
    // A command's `Err` is a usage error: bad flags, specs or paths.
    outcome.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}

/// Run one experiment by id, optionally exporting its span trace as
/// Chrome trace-event JSON (`--trace out.json`) with the conservation
/// invariants checked and reported.
fn cmd_experiment(id: &str, flags: &HashMap<String, String>) -> ExitCode {
    let Some(result) = run_by_id(id) else {
        eprintln!(
            "unknown experiment {id:?}; available: {}",
            all_experiments()
                .iter()
                .map(|(i, _)| *i)
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::from(2);
    };
    println!("{}", result.render());
    let Some(path) = flags.get("trace") else {
        return ExitCode::SUCCESS;
    };
    if path.is_empty() {
        eprintln!("--trace needs an output path");
        return ExitCode::from(2);
    }
    let Some(trace) = trace_by_id(id) else {
        eprintln!(
            "experiment {id:?} has no span trace (offline sweep); traceable: {}",
            TRACEABLE.join(", ")
        );
        return ExitCode::from(2);
    };
    let conservation = cllm_obs::check(&trace, 1e-6);
    let json = cllm_obs::chrome_trace_json(&trace);
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("failed to write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "trace       : {} spans, {} events across {} lanes -> {path}",
        trace.spans.len(),
        trace.events.len(),
        trace.lane_count()
    );
    if conservation.ok() {
        println!(
            "attribution : ok ({} nodes and {} request chains conserve time)",
            conservation.nodes, conservation.requests
        );
        ExitCode::SUCCESS
    } else {
        for e in &conservation.errors {
            eprintln!("attribution violation: {e}");
        }
        println!(
            "attribution : VIOLATED ({} invariant errors)",
            conservation.errors.len()
        );
        ExitCode::FAILURE
    }
}

fn print_usage() {
    eprintln!(
        "cllm — confidential LLM inference toolkit\n\n\
         usage:\n  cllm figures [id]                 regenerate paper tables/figures; with no id,\n\
         \x20                                   all of them, each written to results/<id>.json\n\
         \x20                                   (CLLM_RESULTS_DIR overrides the directory)\n  \
         cllm insights                     check the paper's 12 insights\n  \
         cllm deploy [--platform P]        attest an enclave and run a demo completion\n  \
         cllm estimate [--platform P] [--dtype bf16|int8] [--batch N] [--input N] [--output N]\n  \
         cllm plan [--batch N] [--input N] cost recommendation: TDX vs confidential H100\n  \
         cllm serve [--rate R] [--platform P] [--duration S]  online SLO report\n  \
         cllm serve --kv-policy conservative|recompute|swap [--kv-block-tokens N]\n\
         \x20          [--kv-pool-gib G]       paged KV cache: admit on prompt pages,\n\
         \x20                                   grow page-by-page, preempt on pressure\n\
         \x20                                   (recompute drops pages, swap prices the\n\
         \x20                                   platform's paging path; default page 16)\n  \
         cllm serve --faults S [--fault-seed N]  ... with a seeded fault schedule\n\
         \x20                                   (S scales the platform's fault rates)\n  \
         cllm serve --nodes SPEC [--failover on|off] [--waves W] [--wave-frac F]\n\
         \x20                                   multi-node cluster with admission control,\n\
         \x20                                   circuit breakers and correlated preemption\n\
         \x20                                   waves; SPEC like 2xcgpu-spot,2xtdx\n  \
         cllm serve --autoscale [--warm-pool N] [--brownout] [--burst-mult M]\n\
         \x20          [--max-rented N] [--traffic-seed S] [--waves [S]]\n\
         \x20                                   flash-crowd traffic (diurnal + bursts,\n\
         \x20                                   free/standard/premium tiers) against a\n\
         \x20                                   reactive autoscaler whose cold starts pay\n\
         \x20                                   the real attested handshake + weight\n\
         \x20                                   unseal; tiered shedding, retry budgets\n\
         \x20                                   and optional brownout degradation\n  \
         cllm chaos [--seeds N] [--seed-base S] [--out DIR]\n\
         \x20                                   deterministic chaos search: sample N\n\
         \x20                                   seeded points of the fleet x fault x\n\
         \x20                                   traffic x KV x controller space, check\n\
         \x20                                   the invariant registry, and shrink any\n\
         \x20                                   violation to a minimal JSON repro\n  \
         cllm chaos --repro FILE           replay a repro byte-identically\n  \
         cllm <experiment> [--trace out.json]   run one experiment; --trace exports the\n\
         \x20                                   span timeline as Chrome trace-event JSON\n\
         \x20                                   (load in chrome://tracing or Perfetto)\n\
         \x20                                   and checks time-conservation invariants\n\n\
         platforms: bare, vm, tdx, sgx, sev-snp, gpu, cgpu\n\
         traceable experiments: serving, resilience, cluster_resilience, time_attribution"
    );
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            // A following "--flag" is the next flag, not this one's
            // value — presence flags (`--autoscale --warm-pool 2`) must
            // not swallow their successor.
            let value = match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    i += 2;
                    v.clone()
                }
                _ => {
                    i += 1;
                    String::new()
                }
            };
            flags.insert(key.to_owned(), value);
        } else {
            i += 1;
        }
    }
    flags
}

/// `--platform NAME` (default `tdx`), named as in `TeeKind::from_name`.
fn kind_from(flags: &HashMap<String, String>) -> Result<TeeKind, String> {
    let name = flags.get("platform").map_or("tdx", String::as_str);
    TeeKind::from_name(name).ok_or_else(|| format!("unknown platform {name:?}"))
}

/// The one parser for every numeric flag: `default` when `--key` is
/// absent; otherwise its value must parse as `T` and, read as a number,
/// be finite and non-negative. Anything else (a typo, `nan`, `inf`, a
/// negative count, a missing value) is a usage error naming the flag.
fn num_flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    let Some(v) = flags.get(key) else {
        return Ok(default);
    };
    match (v.parse::<T>(), v.parse::<f64>()) {
        (Ok(x), Ok(f)) if f.is_finite() && f >= 0.0 => Ok(x),
        _ => Err(format!(
            "--{key} needs a finite, non-negative number, got {v:?}"
        )),
    }
}

/// Reject `what` when it exceeds `cap`, one of `cllm_serve`'s work caps.
fn capped(what: &str, value: f64, cap: f64) -> Result<(), String> {
    if value > cap {
        return Err(format!("{what} is {value:e}, above the cap of {cap:e}"));
    }
    Ok(())
}

/// KV-cache flags shared by the single-node and cluster serve paths:
/// `--kv-policy conservative|recompute|swap` and `--kv-block-tokens N`.
fn kv_from(flags: &HashMap<String, String>) -> Result<KvConfig, String> {
    let mut kv = KvConfig::default();
    if let Some(name) = flags.get("kv-policy") {
        kv.policy = KvPolicy::from_flag(name).ok_or_else(|| {
            format!("unknown --kv-policy {name:?}; expected conservative|recompute|swap")
        })?;
    }
    kv.block_tokens = num_flag(flags, "kv-block-tokens", kv.block_tokens)?.max(1);
    Ok(kv)
}

fn cmd_figures(id: Option<&String>, flags: &HashMap<String, String>) -> ExitCode {
    match id {
        Some(id) => cmd_experiment(id, flags),
        None => {
            let dir = results_dir(std::env::var_os("CLLM_RESULTS_DIR"));
            exit_for(&sweep(&all_experiments(), &dir))
        }
    }
}

/// Directory `cllm figures` writes results JSON to: `override_dir` (the
/// `CLLM_RESULTS_DIR` environment variable) when set and non-empty, else
/// `results/` at the repository root.
fn results_dir(override_dir: Option<OsString>) -> PathBuf {
    match override_dir {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => Path::new(env!("CARGO_MANIFEST_DIR")).join("results"),
    }
}

/// Run `entries` in order, printing each table and writing each healthy
/// result to `<dir>/<id>.json`. Profiles (wall time and cache hits) go
/// to stderr only: they are host-dependent and must never land in a
/// committed result. A panicking entry costs only its own table; the
/// failures come back in registry order.
fn sweep(entries: &[ExperimentEntry], dir: &Path) -> Vec<ExperimentError> {
    let mut failures = Vec::new();
    for (_, outcome, profile) in run_entries_profiled(entries) {
        match outcome {
            Ok(result) => {
                println!("{}", result.render());
                if let Err(e) = persist(&result, dir) {
                    eprintln!("warning: could not write results JSON: {e}");
                }
            }
            Err(e) => failures.push(e),
        }
        eprintln!("profile: {}", profile.render());
    }
    failures
}

/// Write one result's JSON to `<dir>/<id>.json`.
fn persist(result: &ExperimentResult, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let json = serde_json::to_string_pretty(result.to_json())?;
    std::fs::write(dir.join(format!("{}.json", result.id)), json)
}

/// Exit 1 naming every failed experiment, 0 when there is none.
fn exit_for(failures: &[ExperimentError]) -> ExitCode {
    if failures.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "\n{} experiment(s) FAILED (healthy results still written):",
        failures.len()
    );
    for f in failures {
        eprintln!("  - {f}");
    }
    ExitCode::FAILURE
}

fn cmd_insights() -> ExitCode {
    let summary = cllm_core::summary::build();
    println!("{}", summary.render());
    let ok = summary.confirmed();
    println!("{ok}/12 insights confirmed");
    if ok == 12 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_deploy(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let spec = DeploymentSpec::tiny_demo(Platform::preset(kind_from(flags)?));
    match ConfidentialPipeline::deploy(&spec) {
        Ok(pipeline) => {
            println!("platform    : {}", pipeline.spec().platform.label());
            println!("measurement : {}", pipeline.measurement_hex());
            let prompt = flags
                .get("prompt")
                .map_or("confidential inference", String::as_str);
            let out = pipeline.generate(prompt, 24);
            println!("generated   : {} bytes from prompt {prompt:?}", out.len());
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("deployment failed: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_estimate(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let platform = Platform::preset(kind_from(flags)?);
    let dtype = match flags.get("dtype") {
        None => DType::Bf16,
        Some(name) => DType::from_name(name)
            .ok_or_else(|| format!("unknown --dtype {name:?}; expected bf16|int8|f32"))?,
    };
    let req = RequestSpec::new(
        num_flag(flags, "batch", 1)?,
        num_flag(flags, "input", 1024)?,
        num_flag(flags, "output", 128)?,
    );
    let mut spec = DeploymentSpec::tiny_demo(platform);
    spec.dtype = dtype;
    let pipeline = match ConfidentialPipeline::deploy(&spec) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("deployment failed: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let est = pipeline.estimate(&req);
    println!(
        "{} | {} | batch {} | {} in / {} out",
        pipeline.spec().platform.label(),
        dtype.label(),
        req.batch,
        req.input_tokens,
        req.output_tokens
    );
    println!("first token : {:.3} s", est.prefill_s);
    println!("per token   : {:.1} ms", est.token_latency_s * 1e3);
    println!("decode rate : {:.1} tok/s", est.decode_tps);
    println!("e2e rate    : {:.1} tok/s", est.e2e_tps);
    Ok(ExitCode::SUCCESS)
}

fn cmd_plan(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let batch = num_flag(flags, "batch", 16)?;
    let input = num_flag(flags, "input", 512)?;
    if batch == 0 {
        return Err("--batch needs at least one sequence, got 0".into());
    }
    // Figure 12's sweep and cGPU line, priced at this shape on each
    // platform whose rented memory holds the shape's KV cache: the
    // socket's memory less the weights, or the H100's HBM left after them.
    let req = RequestSpec::new(batch, input, 128);
    let (cpu, gpu) = (CpuScenario::llama2_7b(req), GpuScenario::llama2_7b(req));
    let seq_len = input.saturating_add(req.output_tokens);
    let kv = kv_bytes_total(&cpu.model, req.decode_batch(), seq_len, cpu.dtype);
    let cpu_room = SOCKET_MEMORY_GIB * cllm_hw::GIB - cpu.model.weight_bytes(cpu.dtype);
    let gpu_room = gpu_kv_budget_bytes(&gpu.model, gpu.dtype, &gpu.gpu);
    let tdx = (kv <= cpu_room).then(|| {
        let sweep = fig12::tdx_cost_sweep(&req);
        // infallible: the sweep has one point per entry of fig12's
        // nonempty `CORES`.
        *cheapest_point(&sweep).expect("the core sweep is nonempty")
    });
    let cgpu = (kv <= gpu_room).then(|| fig12::cgpu_usd_per_mtok(&req));
    let recommend = match (&tdx, cgpu) {
        (None, None) => {
            return Err(format!(
                "--batch {batch} --input {input} needs {:.1} GiB of KV cache: more than a TDX \
                 socket ({:.1} GiB) or the cGPU ({:.1} GiB) holds beside the weights",
                kv / cllm_hw::GIB,
                cpu_room / cllm_hw::GIB,
                gpu_room / cllm_hw::GIB
            ))
        }
        (Some(best), Some(gpu_usd)) => {
            let adv = cost_advantage_pct(best.usd_per_mtok, gpu_usd);
            if adv > 5.0 {
                format!("TDX ({adv:.0}% cheaper; stricter security model)")
            } else if adv < -5.0 {
                format!(
                    "cGPU ({:.0}% cheaper; check HBM-encryption threat model)",
                    -adv
                )
            } else {
                "cost parity — decide by security policy (CPU TEE stricter)".into()
            }
        }
        (Some(_), None) => "TDX (the cGPU cannot hold this shape's KV cache)".into(),
        (None, Some(_)) => "cGPU (a TDX socket cannot hold this shape's KV cache)".into(),
    };
    let no_fit = |room: f64| {
        format!(
            "does not fit ({:.1} GiB of KV cache, {:.1} GiB free beside the weights)",
            kv / cllm_hw::GIB,
            room / cllm_hw::GIB
        )
    };

    println!(
        "shape       : batch {batch}, {input} in / 128 out ({})",
        cpu.model.name
    );
    match tdx {
        Some(best) => println!(
            "TDX best    : ${:.3}/Mtok at {} cores",
            best.usd_per_mtok, best.x
        ),
        None => println!("TDX         : {}", no_fit(cpu_room)),
    }
    match cgpu {
        Some(gpu_usd) => println!("cGPU        : ${gpu_usd:.3}/Mtok"),
        None => println!("cGPU        : {}", no_fit(gpu_room)),
    }
    println!("recommend   : {recommend}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let rate: f64 = num_flag(flags, "rate", 2.0)?;
    let duration: f64 = num_flag(flags, "duration", 60.0)?;
    let kv = kv_from(flags)?;
    if flags.contains_key("autoscale") {
        return cmd_serve_autoscale(flags, rate, duration);
    }
    capped(
        "--rate x --duration",
        rate * duration,
        MAX_EXPECTED_ARRIVALS,
    )?;
    let fault_scale: f64 = num_flag(flags, "faults", 0.0)?;
    capped(
        "--faults x --duration",
        fault_scale * duration,
        MAX_HOURLY_RATE_X_DURATION,
    )?;
    let fault_seed = num_flag(flags, "fault-seed", 42)?;
    if let Some(spec) = flags.get("nodes") {
        return cmd_serve_cluster(flags, spec, rate, duration, kv, fault_scale, fault_seed);
    }
    let kind = kind_from(flags)?;
    if kind.is_gpu() {
        return Err("serve simulates CPU platforms; use --platform bare|vm|tdx|sgx|sev-snp".into());
    }
    let plan = if fault_scale > 0.0 {
        let rates = FaultRates::for_rental(kind, true).scaled(fault_scale);
        FaultPlan::seeded(&rates, duration, fault_seed)
    } else {
        FaultPlan::none()
    };
    let mut cfg = ServingConfig {
        arrivals: ArrivalProcess::chat(rate, 42),
        duration_s: duration,
        kv,
        ..ServingConfig::small_test()
    };
    if flags.contains_key("kv-pool-gib") {
        cfg.limits.kv_budget_bytes = num_flag(flags, "kv-pool-gib", 0.0)? * cllm_hw::GIB;
    }
    let report = simulate_serving_faulted(&cfg, &ServingNode::preset(kind), &plan);
    println!(
        "platform {} | rate {rate}/s | {} requests over {duration}s",
        kind.label(),
        report.arrivals
    );
    println!(
        "kv policy   : {} ({} tokens/page)",
        kv.policy.label(),
        kv.block_tokens
    );
    if kv.policy.is_paged() {
        println!(
            "kv pressure : {} preemptions, {:.2} GiB swapped out, {:.2} GiB swapped in",
            report.preemptions,
            report.swap_out_bytes / cllm_hw::GIB,
            report.swap_in_bytes / cllm_hw::GIB
        );
    }
    if fault_scale > 0.0 {
        println!(
            "faults      : {} injected (rate scale {fault_scale}, seed {fault_seed})",
            plan.events.len()
        );
        println!(
            "resilience  : {} retries, {} aborted, availability {:.1}%",
            report.retries,
            report.aborted,
            report.availability * 100.0
        );
        println!(
            "degraded SLO: {:.1}% attainment over all arrivals",
            report.degraded_slo_attainment(Slo::interactive()) * 100.0
        );
    }
    println!("goodput     : {:.1} tok/s", report.goodput_tps);
    println!(
        "TTFT        : p50 {:.2} s, p95 {:.2} s",
        report.ttft_p50_s, report.ttft_p95_s
    );
    println!(
        "TPOT        : p50 {:.0} ms, p95 {:.0} ms",
        report.tpot_p50_s * 1e3,
        report.tpot_p95_s * 1e3
    );
    println!(
        "SLO (2s TTFT, 200ms/token): {:.1}% attainment",
        report.slo_attainment(Slo::interactive()) * 100.0
    );
    let violations = invariants::check_serving(&report);
    if violations.is_empty() {
        println!(
            "conservation : ok ({} arrivals accounted for)",
            report.arrivals
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "conservation : VIOLATED ({})",
            invariants::describe(&violations)
        );
        Ok(ExitCode::FAILURE)
    }
}

/// `cllm chaos` — deterministic simulation testing.
///
/// Search mode (`--seeds N [--seed-base S] [--out DIR]`): sample N
/// points of the joint fleet x fault x traffic x KV x controller space,
/// run each through the real simulators, and check the unified
/// invariant registry. Any violation is delta-debug-shrunken to a
/// minimal repro and written as JSON (to DIR, or printed). The final
/// summary line folds every report digest, so two invocations with the
/// same seeds must print byte-identical output on any machine.
///
/// Replay mode (`--repro FILE`): parse a repro file and demand the
/// recorded digest and violations byte-for-byte.
fn cmd_chaos(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    use cllm_chaos::run::fnv1a_hex;
    use cllm_chaos::{run_point, sample_point, shrink, Repro};

    if let Some(path) = flags.get("repro") {
        if path.is_empty() {
            return Err("--repro needs a file path".into());
        }
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("failed to read {path}: {e}"))?;
        let repro = Repro::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
        return Ok(match repro.replay() {
            Ok(outcome) => {
                println!(
                    "repro        : ok (digest {}, {} recorded violation(s) reproduced exactly)",
                    outcome.digest,
                    outcome.violations.len()
                );
                for v in &outcome.violations {
                    println!("  {}: {v:?}", v.label());
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                println!("repro        : DRIFT ({e})");
                ExitCode::FAILURE
            }
        });
    }

    let seeds: u64 = num_flag(flags, "seeds", 24)?;
    let base: u64 = num_flag(flags, "seed-base", 0)?;
    let out_dir = flags.get("out").filter(|p| !p.is_empty());
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("failed to create {dir}: {e}"))?;
    }

    let mut found = 0usize;
    let mut arrivals = 0usize;
    let mut fold = String::new();
    for seed in base..base.saturating_add(seeds) {
        let point = sample_point(seed);
        let outcome = run_point(&point);
        fold.push_str(&outcome.digest);
        arrivals += outcome.arrivals;
        if outcome.violations.is_empty() {
            continue;
        }
        found += 1;
        println!(
            "seed {seed:>6} : VIOLATED ({})",
            invariants::describe(&outcome.violations)
        );
        let (shrunk, shrunk_outcome) = shrink(&point);
        let repro = Repro::capture(shrunk, &shrunk_outcome);
        println!(
            "             shrunken repro: {} fault event(s), digest {}",
            repro_event_count(&repro),
            shrunk_outcome.digest
        );
        if let Some(dir) = out_dir {
            let path = format!("{dir}/repro-seed-{seed}.json");
            if let Err(e) = std::fs::write(&path, repro.to_json()) {
                eprintln!("failed to write {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
            println!("             -> {path}");
        } else {
            println!("{}", repro.to_json());
        }
    }
    println!(
        "chaos        : {} seed(s) from base {}, {} arrival(s) simulated, {} violation(s) | digest {}",
        seeds,
        base,
        arrivals,
        found,
        fnv1a_hex(fold.as_bytes())
    );
    Ok(if found == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Total planted fault events across a repro's node lists.
fn repro_event_count(repro: &cllm_chaos::Repro) -> usize {
    use cllm_chaos::point::PathSpec;
    match &repro.point.path {
        PathSpec::Single(p) => p.node.events.len(),
        PathSpec::Cluster(p) => p.nodes.iter().map(|n| n.events.len()).sum(),
        PathSpec::Autoscale(p) => p.base_fleet.iter().map(|n| n.events.len()).sum(),
        PathSpec::Infer(_) => 0,
    }
}

/// Parse a fleet spec like `2xcgpu-spot,2xtdx` into node specs: each
/// comma-separated group is `<count>x<platform>[-spot]`, with platforms
/// named as in `--platform`, and the groups together describe at most
/// [`MAX_FLEET_NODES`] nodes.
fn parse_fleet(spec: &str, fault_scale: f64, fault_seed: u64) -> Result<Vec<NodeSpec>, String> {
    let mut nodes = Vec::new();
    for group in spec.split(',') {
        let (count, rest) = group
            .split_once('x')
            .ok_or_else(|| format!("bad node group {group:?}; expected <count>x<platform>"))?;
        let count: usize = count
            .parse()
            .map_err(|_| format!("bad node count in {group:?}"))?;
        if count > MAX_FLEET_NODES - nodes.len() {
            return Err(format!(
                "fleet spec {spec:?} describes more than {MAX_FLEET_NODES} nodes"
            ));
        }
        let (name, spot) = rest
            .strip_suffix("-spot")
            .map_or((rest, false), |base| (base, true));
        let kind = TeeKind::from_name(name)
            .ok_or_else(|| format!("unknown platform {name:?} in {group:?}"))?;
        for _ in 0..count {
            let seed = fault_seed.wrapping_add(nodes.len() as u64);
            nodes.push(NodeSpec::preset(kind, spot, fault_scale, seed));
        }
    }
    if nodes.is_empty() {
        return Err(format!("empty fleet spec {spec:?}"));
    }
    Ok(nodes)
}

/// `cllm serve --autoscale`: flash-crowd traffic against a one-node
/// base fleet with a reactive autoscaler renting attested TEE capacity.
fn cmd_serve_autoscale(
    flags: &HashMap<String, String>,
    rate: f64,
    duration: f64,
) -> Result<ExitCode, String> {
    let kind = kind_from(flags)?;
    let node = ServingNode::preset(kind);
    let burst_mult: f64 = num_flag(flags, "burst-mult", 10.0)?;
    let peak_arrivals = rate * burst_mult.max(1.0) * duration;
    capped(
        "--rate x --burst-mult x --duration",
        peak_arrivals,
        MAX_EXPECTED_ARRIVALS,
    )?;
    let traffic_seed = num_flag(flags, "traffic-seed", 9)?;
    let mut traffic = TrafficModel::flash_crowd(rate, burst_mult, traffic_seed);
    // Production burst cadence is ~30/hr; a demo-length run needs a
    // denser schedule so a burst actually lands inside the horizon.
    traffic.bursts.bursts_per_hr = 240.0;
    traffic.bursts.window_s = 15.0;
    // `--waves [S]` puts the whole fleet (base + rentals) under
    // spot-class fault pressure scaled by S (default 60, the usual
    // short-horizon compression factor).
    let wave_scale = match flags.get("waves") {
        Some(v) if v.is_empty() => 60.0,
        _ => num_flag(flags, "waves", 0.0)?,
    };
    capped(
        "--waves x --duration",
        wave_scale * duration,
        MAX_HOURLY_RATE_X_DURATION,
    )?;
    let rates = if wave_scale > 0.0 {
        FaultRates::for_rental(kind, true).scaled(wave_scale)
    } else {
        FaultRates::none()
    };
    let warm_pool = num_flag(flags, "warm-pool", 0)?;
    let max_rented: usize = num_flag(flags, "max-rented", 6)?;
    if max_rented > MAX_FLEET_NODES {
        return Err(format!(
            "--max-rented {max_rented} is above the cap of {MAX_FLEET_NODES} nodes"
        ));
    }
    let cfg = AutoscaleConfig {
        serving: ServingConfig {
            duration_s: duration,
            ..ServingConfig::small_test()
        },
        traffic,
        base_fleet: vec![NodeSpec::new(node.clone(), false, rates, 1)],
        base_price_per_hr: 3.0,
        rental: RentalSpec {
            node,
            rates,
            price_per_hr: 4.0,
            attest_s: 0.5,
            seed: 77,
        },
        warm_pool,
        controller: ControllerConfig {
            control_interval_s: 2.0,
            max_rented,
            ..ControllerConfig::default()
        },
        tiers: TieredAdmission::default(),
        retry: RetryBudget::default(),
        // Demo-scale thresholds: the production default (enter at 256
        // queued) never trips in a 60 s run against a 7-node fleet.
        brownout: flags.contains_key("brownout").then_some(BrownoutConfig {
            enter_depth: 48,
            exit_depth: 16,
            output_cap_tokens: 32,
        }),
        breaker: BreakerConfig::default(),
        spill: SpillPenalty::cross_platform(),
    };
    let r = simulate_autoscale(&cfg);
    println!(
        "autoscale on {} | rate {rate}/s x{burst_mult} bursts | {} requests over {duration}s",
        kind.label(),
        r.arrivals
    );
    println!(
        "fleet        : 1 base + {} rentals ({} warm promotions, {} cold starts, {} scale-downs)",
        r.scale_ups, r.warm_promotions, r.cold_starts, r.scale_downs
    );
    println!(
        "cold starts  : {} attested handshakes + weight unseals ({:.2} s paid, {:.2} s unsealing)",
        r.cold_starts, r.cold_start_s, r.unseal_s
    );
    for tier in Tier::ALL {
        let t = &r.tiers[tier.index()];
        println!(
            "tier {:<8}: {} arrived, {} completed, {} shed, {} aborted, SLO {:.1}%",
            tier.label(),
            t.arrivals,
            t.completed,
            t.shed,
            t.aborted,
            t.slo_attainment() * 100.0
        );
    }
    if cfg.brownout.is_some() {
        println!(
            "brownout     : {} activations, {} output tokens trimmed",
            r.brownout_activations, r.tokens_trimmed
        );
    }
    println!(
        "retries      : {} delivered, {} storm drops, {} aborted",
        r.retries, r.storm_drops, r.aborted
    );
    println!("goodput      : {:.1} tok/s delivered", r.goodput_tps);
    println!(
        "TTFT         : p50 {:.2} s, p99 {:.2} s, burst p99 {:.2} s",
        r.ttft_p50_s, r.ttft_p99_s, r.ttft_p99_burst_s
    );
    println!(
        "cost         : ${:.4} total (${:.4} rental, ${:.4} warm pool, ${:.4} base) -> ${:.2}/Mtok delivered",
        r.total_cost_usd, r.rental_cost_usd, r.warm_pool_cost_usd, r.base_cost_usd, r.usd_per_mtok
    );
    let violations = invariants::check_autoscale(&r);
    if violations.is_empty() {
        println!(
            "conservation : ok ({} completed + {} shed + {} aborted == {} arrivals)",
            r.completed, r.shed, r.aborted, r.arrivals
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "conservation : VIOLATED ({})",
            invariants::describe(&violations)
        );
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_serve_cluster(
    flags: &HashMap<String, String>,
    spec: &str,
    rate: f64,
    duration: f64,
    kv: KvConfig,
    fault_scale: f64,
    fault_seed: u64,
) -> Result<ExitCode, String> {
    let nodes = parse_fleet(spec, fault_scale, fault_seed)?;
    let failover = match flags.get("failover").map(String::as_str) {
        None | Some("on") => true,
        Some("off") => false,
        Some(other) => return Err(format!("bad --failover {other:?}; expected on|off")),
    };
    let waves_per_hr: f64 = num_flag(flags, "waves", 0.0)?;
    capped(
        "--waves x --duration",
        waves_per_hr * duration,
        MAX_HOURLY_RATE_X_DURATION,
    )?;
    let wave_frac = num_flag(flags, "wave-frac", 0.75)?;
    let n_nodes = nodes.len();
    let cfg = ClusterConfig {
        serving: ServingConfig {
            arrivals: ArrivalProcess::chat(rate, 42),
            duration_s: duration,
            kv,
            ..ServingConfig::small_test()
        },
        nodes,
        admission: AdmissionPolicy::default(),
        breaker: BreakerConfig::default(),
        wave: WaveModel {
            waves_per_hr,
            frac: wave_frac,
            seed: fault_seed,
        },
        failover,
        spill: SpillPenalty::cross_platform(),
    };
    let report = simulate_cluster(&cfg);
    println!(
        "fleet {spec} | {n_nodes} nodes | rate {rate}/s | {} requests over {duration}s",
        report.arrivals
    );
    println!(
        "failover     : {} | waves {waves_per_hr}/hr hitting {:.0}% of spot nodes (seed {fault_seed})",
        if failover { "on" } else { "off" },
        wave_frac * 100.0
    );
    println!(
        "terminal     : {} completed, {} rejected, {} aborted",
        report.completed, report.rejected, report.aborted
    );
    println!(
        "failover work: {} retries, {} cross-platform spills",
        report.retries, report.spills
    );
    if kv.policy.is_paged() {
        println!(
            "kv pressure  : {} preemptions ({}), {:.2} GiB swapped out, {:.2} GiB swapped in",
            report.preemptions,
            kv.policy.label(),
            report.swap_out_bytes / cllm_hw::GIB,
            report.swap_in_bytes / cllm_hw::GIB
        );
    }
    println!("availability : {:.1}%", report.availability * 100.0);
    println!("goodput      : {:.1} tok/s", report.goodput_tps);
    println!(
        "TTFT         : p50 {:.2} s, p99 {:.2} s",
        report.ttft_p50_s, report.ttft_p99_s
    );
    for (i, n) in report.nodes.iter().enumerate() {
        println!(
            "node {i}       : {} completed | availability {:.1}% | breaker {} trips / {} closes | queue peak {}",
            n.completed,
            n.availability * 100.0,
            n.breaker_trips,
            n.breaker_closes,
            n.queue_depth_peak
        );
    }
    let violations = invariants::check_cluster(&report);
    if violations.is_empty() {
        println!(
            "conservation : ok ({} arrivals accounted for)",
            report.arrivals
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "conservation : VIOLATED ({})",
            invariants::describe(&violations)
        );
        Ok(ExitCode::FAILURE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_defaults_to_the_repository_and_honors_the_override() {
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
        assert_eq!(results_dir(None), repo);
        assert_eq!(results_dir(Some(OsString::new())), repo);
        let alt = Path::new("/elsewhere/results");
        assert_eq!(results_dir(Some(alt.into())), alt);
    }

    fn failing_stub() -> ExperimentResult {
        panic!("intentionally failing stub")
    }

    #[test]
    fn sweep_writes_every_healthy_result_and_names_the_failure() {
        let dir = std::env::temp_dir().join(format!("cllm-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let healthy: Vec<ExperimentEntry> = all_experiments()
            .into_iter()
            .filter(|(id, _)| ["fig1", "table1"].contains(id))
            .collect();
        let entries = [healthy[0], ("__failing_stub", failing_stub), healthy[1]];

        let failures = sweep(&entries, &dir);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].to_string().contains("__failing_stub"));
        assert_eq!(exit_for(&failures), ExitCode::FAILURE);
        assert_eq!(exit_for(&[]), ExitCode::SUCCESS);

        let mut written: Vec<String> = std::fs::read_dir(&dir)
            .expect("results dir created")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        written.sort();
        assert_eq!(written, ["fig1.json", "table1.json"]);
        for (id, run) in healthy {
            let on_disk = std::fs::read_to_string(dir.join(format!("{id}.json"))).expect(id);
            let fresh = serde_json::to_string_pretty(run().to_json()).expect("serializes");
            assert_eq!(on_disk, fresh, "{id}");
        }
        std::fs::remove_dir_all(&dir).expect("temp dir removed");
    }
}
