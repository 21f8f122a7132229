//! `cllm` — command-line interface to the confidential-LLM toolkit.
//!
//! ```text
//! cllm figures [id]                      regenerate paper tables/figures
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

use cllm_core::experiments::{all_experiments, run_by_id, trace_by_id, TRACEABLE};
use cllm_core::pipeline::{ConfidentialPipeline, DeploymentSpec};
use cllm_cost::{cost_advantage_pct, cost_per_mtok, CpuPricing, GpuPricing};
use cllm_cost::{SpillPenalty, SpotParams};
use cllm_hw::DType;
use cllm_perf::{simulate_gpu, CpuTarget};
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
use cllm_tee::platform::{CpuTeeConfig, GpuTeeConfig, Platform};
use cllm_workload::phase::RequestSpec;
use cllm_workload::trace::{Tier, TrafficModel};
use cllm_workload::zoo;
use std::collections::HashMap;
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
            args.get(1).filter(|a| !a.starts_with("--")).cloned(),
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
    let result = run_by_id(id).expect("caller verified the id is registered");
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
         usage:\n  cllm figures [id]                 regenerate paper tables/figures\n  \
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

fn platform_from(flags: &HashMap<String, String>) -> Result<Platform, String> {
    let name = flags.get("platform").map_or("tdx", String::as_str);
    Ok(match name {
        "bare" => Platform::Cpu(CpuTeeConfig::bare_metal()),
        "vm" => Platform::Cpu(CpuTeeConfig::vm()),
        "tdx" => Platform::Cpu(CpuTeeConfig::tdx()),
        "sgx" => Platform::Cpu(CpuTeeConfig::sgx()),
        "sev-snp" | "sev" => Platform::Cpu(CpuTeeConfig::sev_snp()),
        "gpu" => Platform::Gpu(GpuTeeConfig::native()),
        "cgpu" => Platform::Gpu(GpuTeeConfig::confidential()),
        other => return Err(format!("unknown platform {other:?}")),
    })
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

/// Most arrivals a `cllm serve` run may expect (`--rate` × `--duration`,
/// at the burst peak under `--autoscale`): the simulators generate the
/// whole trace up front and keep per-request state for all of it.
const MAX_EXPECTED_ARRIVALS: f64 = 1.0e6;

/// Cap on `--faults` × `--duration` and on `--waves` × `--duration`.
/// Both flags scale an hourly event rate (platform fault rates are a few
/// events per node-hour at scale 1; `--waves` counts waves per hour), and
/// every fault schedule is generated up front: this allows the
/// equivalent of 1,000 per hour for an hour.
const MAX_HOURLY_RATE_X_DURATION: f64 = 3.6e6;

/// Most nodes a `--nodes` fleet spec may describe, summed over groups.
const MAX_FLEET_NODES: usize = 1024;

/// Reject `what` when it exceeds `cap` (see the caps above).
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

fn cmd_figures(id: Option<String>) -> ExitCode {
    match id {
        Some(id) => match run_by_id(&id) {
            Some(result) => {
                println!("{}", result.render());
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "unknown experiment {id:?}; available: {}",
                    all_experiments()
                        .iter()
                        .map(|(i, _)| *i)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                ExitCode::from(2)
            }
        },
        None => {
            // Full sweep: fan out over the parallel runner; tables still
            // print in paper order. Profiles (wall time + cache hits) go
            // to stderr only — they are host-dependent and must never
            // land in a golden.
            let workers = cllm_core::runner::default_workers();
            let entries = all_experiments();
            let mut failed = false;
            for (_, outcome, profile) in cllm_core::runner::run_entries_profiled(&entries, workers)
            {
                match outcome {
                    Ok(result) => println!("{}", result.render()),
                    Err(e) => {
                        failed = true;
                        eprintln!("{e}");
                    }
                }
                eprintln!("profile: {}", profile.render());
            }
            if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
    }
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
    let spec = DeploymentSpec::tiny_demo(platform_from(flags)?);
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
    let platform = platform_from(flags)?;
    let dtype = match flags.get("dtype").map(String::as_str) {
        Some("int8") => DType::Int8,
        Some("f32") => DType::F32,
        _ => DType::Bf16,
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
    let model = zoo::llama2_7b();
    let req = RequestSpec::new(batch, input, 128);

    let pricing = CpuPricing::gcp_spot_us_east1();
    let mut best: Option<(u32, f64)> = None;
    for cores in [4u32, 8, 16, 32, 48, 60] {
        let target = CpuTarget::emr2_single_socket().with_cores(cores);
        let sim = cllm_perf::simulate_cpu(&model, &req, DType::Bf16, &target, &CpuTeeConfig::tdx());
        let price = pricing.instance_cost_per_hr(cores * 2, 128.0);
        let usd = cost_per_mtok(price, sim.e2e_tps);
        if best.is_none_or(|(_, b)| usd < b) {
            best = Some((cores, usd));
        }
    }
    let (cpu_cores, cpu_usd) = best.expect("nonempty sweep");
    let gpu = cllm_hw::presets::h100_nvl();
    let sim = simulate_gpu(
        &model,
        &req,
        DType::Bf16,
        &gpu,
        &GpuTeeConfig::confidential(),
    );
    let gpu_usd = cost_per_mtok(GpuPricing::azure_ncc_h100().per_hr, sim.e2e_tps);
    let adv = cost_advantage_pct(cpu_usd, gpu_usd);

    println!(
        "shape       : batch {batch}, {input} in / 128 out ({})",
        model.name
    );
    println!("TDX best    : ${cpu_usd:.3}/Mtok at {cpu_cores} cores");
    println!("cGPU        : ${gpu_usd:.3}/Mtok");
    if adv > 5.0 {
        println!("recommend   : TDX ({adv:.0}% cheaper; stricter security model)");
    } else if adv < -5.0 {
        println!(
            "recommend   : cGPU ({:.0}% cheaper; check HBM-encryption threat model)",
            -adv
        );
    } else {
        println!("recommend   : cost parity — decide by security policy (CPU TEE stricter)");
    }
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
    let tee = match platform_from(flags)? {
        Platform::Cpu(tee) => tee,
        Platform::Gpu(_) => {
            return Err(
                "serve simulates CPU platforms; use --platform bare|vm|tdx|sgx|sev-snp".into(),
            )
        }
    };
    let plan = if fault_scale > 0.0 {
        let rates = FaultRates::for_platform(tee.kind, &SpotParams::gcp_spot()).scaled(fault_scale);
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
    let node = ServingNode::Cpu { tee: tee.clone() };
    let report = simulate_serving_faulted(&cfg, &node, &plan);
    println!(
        "platform {} | rate {rate}/s | {} requests over {duration}s",
        tee.kind.label(),
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
/// same seeds must print byte-identical output on any machine or
/// `CLLM_RUNNER_THREADS` setting.
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
    use cllm_tee::platform::TeeKind;
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
        let (node, kind) = match name {
            "bare" => (
                ServingNode::Cpu {
                    tee: CpuTeeConfig::bare_metal(),
                },
                TeeKind::BareMetal,
            ),
            "vm" => (
                ServingNode::Cpu {
                    tee: CpuTeeConfig::vm(),
                },
                TeeKind::Vm,
            ),
            "tdx" => (
                ServingNode::Cpu {
                    tee: CpuTeeConfig::tdx(),
                },
                TeeKind::Tdx,
            ),
            "sgx" => (
                ServingNode::Cpu {
                    tee: CpuTeeConfig::sgx(),
                },
                TeeKind::Sgx,
            ),
            "sev-snp" | "sev" => (
                ServingNode::Cpu {
                    tee: CpuTeeConfig::sev_snp(),
                },
                TeeKind::SevSnp,
            ),
            "gpu" => (
                ServingNode::Gpu {
                    gpu: cllm_hw::presets::h100_nvl(),
                    tee: GpuTeeConfig::native(),
                },
                TeeKind::GpuNative,
            ),
            "cgpu" => (
                ServingNode::Gpu {
                    gpu: cllm_hw::presets::h100_nvl(),
                    tee: GpuTeeConfig::confidential(),
                },
                TeeKind::GpuCc,
            ),
            other => return Err(format!("unknown platform {other:?} in {group:?}")),
        };
        let spot_params = match (spot, matches!(node, ServingNode::Gpu { .. })) {
            (true, true) => SpotParams::azure_spot_gpu(),
            (true, false) => SpotParams::gcp_spot(),
            (false, _) => SpotParams::reserved(),
        };
        for _ in 0..count {
            let rates = if fault_scale > 0.0 {
                FaultRates::for_platform(kind, &spot_params).scaled(fault_scale)
            } else {
                FaultRates::none()
            };
            let seed = fault_seed.wrapping_add(nodes.len() as u64);
            nodes.push(NodeSpec::new(node.clone(), spot, rates, seed));
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
    let (node, kind) = match platform_from(flags)? {
        Platform::Cpu(tee) => {
            let kind = tee.kind;
            (ServingNode::Cpu { tee }, kind)
        }
        Platform::Gpu(tee) => {
            let kind = tee.kind;
            (
                ServingNode::Gpu {
                    gpu: cllm_hw::presets::h100_nvl(),
                    tee,
                },
                kind,
            )
        }
    };
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
        FaultRates::for_platform(kind, &SpotParams::gcp_spot()).scaled(wave_scale)
    } else {
        FaultRates::none()
    };
    let warm_pool = num_flag(flags, "warm-pool", 0)?;
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
            max_rented: num_flag(flags, "max-rented", 6)?,
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
