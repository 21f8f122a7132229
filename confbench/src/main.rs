//! End-to-end and per-layer benchmark of the confidential request path
//! and the fleet simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path confbench/Cargo.toml -- \
//!     --workload chat --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads, each a closed loop with one client on one thread:
//!
//! * `chat` — conversations on f32 weights, one attested session each;
//!   prompt and answer lengths follow the chat distributions of the
//!   serving simulator (`cllm_workload::trace::LognormalLen`).
//! * `rag` — questions from the Figure 14 BEIR-like dataset answered over
//!   the pipeline's default top-5 BM25 documents: a long prefill.
//! * `batch_int4` — four chat requests per session decoded together on
//!   int4 weights.
//! * `spec_int8` — chat traffic decoded speculatively: an int8 copy of
//!   the model drafts four tokens (the `spec_decode` experiment's k), the
//!   f32 model verifies them.
//! * `fleet` — the 64-node serving simulator; none of the above layers.
//!
//! Every serving is a new operation: its content comes from `--seed` and
//! its index, so no two requests repeat and no cache could turn a repeat
//! into a hit. Lengths are stratified: a workload splits its length
//! distribution into `strata()` equal-probability strata, serving `i`
//! takes stratum `slot_order(i)`, and a round serves each stratum once,
//! so every seed sees the same length mix and only content differs.
//! (Batches and fleet simulations all have the same mix; for them a
//! stratum is just a group of operations.)
//!
//! A run first sets up from cold repeatedly, for 1.5 seconds and at least
//! three times — deploy the enclave service (or nothing, for `fleet`) and
//! serve one operation of the middle stratum — and reports the median as
//! `setup_s`. After a second of untimed serving it serves rounds until
//! `--seconds` have passed. Before each set-up and about once a second
//! while serving, the thread moves to the fastest CPU it may use (see
//! `affinity`). About one serving in eight (and the first) is checked
//! against a reference after the window.
//!
//! A stratum's latency is its fastest serving in the window: other
//! tenants of a shared machine only ever add time, and they slow whole
//! stretches of seconds, which the fastest of a stratum's several
//! servings skips. The price is that a cost paid by only some requests
//! of a stratum does not show. With `--trace 0` the JSON line holds the
//! end-to-end metrics: the median and 90th percentile over the strata of
//! that latency, the strata's output tokens per second of their summed
//! latency, and `setup_s`. With `--trace 1` it holds the per-layer
//! metrics from wall-clock spans around each layer call, over every
//! serving in the window; the spans are also written to
//! `target/confbench/trace-<workload>-<seed>.json`. The harness runs
//! everything on the calling thread.

mod affinity;
mod fleet;
mod inputs;
mod request;
mod trace;

use inputs::{slot_order, Rng};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Cold starts repeat for at least `SETUP_S` seconds and `MIN_SETUPS`
/// times; `setup_s` is their median.
const SETUP_S: f64 = 1.5;
const MIN_SETUPS: usize = 3;
/// Untimed serving between set-up and the timed window.
const WARMUP_S: f64 = 1.0;
/// The thread moves to the fastest CPU about this often while serving.
const PLACE_EVERY_S: f64 = 1.0;
/// About one timed serving in `CHECK_EVERY` is checked after the window.
const CHECK_EVERY: u64 = 8;
/// Operation indices of set-up and warm-up servings, apart from the
/// timed window's `0..`, so the window's inputs do not depend on how
/// many set-ups fitted in their time.
const SETUP_K: u64 = 1 << 40;
const WARMUP_K: u64 = 1 << 41;

/// One serving the harness asks a workload for.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Operation index; with `--seed` it fixes the operation's content.
    pub k: u64,
    /// Stratum of the length distribution, below [`Workload::strata`].
    pub slot: u64,
    /// Keep the inputs and outputs for [`Workload::verify`].
    pub check: bool,
}

/// What the harness needs from a workload.
pub trait Workload {
    /// Strata of the request length distribution, or groups of
    /// operations for workloads whose every operation has the same mix;
    /// a power of two, small enough that each is served two or more
    /// times in a 15-second window.
    fn strata(&self) -> u64;
    /// Cold start: (re)build everything an operation needs.
    fn deploy(&mut self) -> Result<(), String>;
    /// Serve one operation; returns its output tokens (simulated ones,
    /// for the fleet) and its wall time in seconds. An error is a failed
    /// operation.
    fn op(&mut self, op: Op, tracer: &mut Tracer) -> Result<(f64, f64), String>;
    /// Check the kept operations against a reference; returns how many
    /// were wrong.
    fn verify(&mut self) -> u64;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace must be 0 or 1, got {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn workload(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    use request::{RequestBench, Traffic};
    Ok(match name {
        "chat" => Box::new(RequestBench::new(Traffic::Chat, seed)?),
        "rag" => Box::new(RequestBench::new(Traffic::Rag, seed)?),
        "batch_int4" => Box::new(RequestBench::new(Traffic::BatchInt4, seed)?),
        "spec_int8" => Box::new(RequestBench::new(Traffic::SpecInt8, seed)?),
        "fleet" => Box::new(fleet::FleetBench::new(seed)),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Quantile of a non-empty ascending slice, interpolated linearly between
/// neighbouring values, so that it moves smoothly when two strata trade
/// places.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let pos = q * (sorted.len() - 1) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    #[allow(clippy::cast_precision_loss)]
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Per-layer metrics of a traced window: each layer's share of operation
/// wall time, work rates over each layer's own time, and work per
/// operation.
fn per_layer(t: &Tracer) -> Vec<(&'static str, f64, &'static str)> {
    let total = t.ops_s();
    let pct = |s: f64| if total > 0.0 { 100.0 * s / total } else { 0.0 };
    let rate = |n: f64, s: f64| if s > 0.0 { n / s } else { 0.0 };
    let per_op = |name: &str| t.counter(name) / t.ops();
    let crypto_s = t.layer_s("client") + t.layer_s("frame_open") + t.layer_s("frame_seal");
    vec![
        ("session_pct", pct(t.layer_s("session")), "%"),
        ("client_pct", pct(t.layer_s("client")), "%"),
        ("frame_open_pct", pct(t.layer_s("frame_open")), "%"),
        ("retrieve_pct", pct(t.layer_s("retrieve")), "%"),
        ("tokenize_pct", pct(t.layer_s("tokenize")), "%"),
        ("prefill_pct", pct(t.layer_s("prefill")), "%"),
        ("decode_pct", pct(t.layer_s("decode")), "%"),
        ("speculate_pct", pct(t.layer_s("speculate")), "%"),
        ("frame_seal_pct", pct(t.layer_s("frame_seal")), "%"),
        ("sim_config_pct", pct(t.layer_s("sim_config")), "%"),
        ("simulate_pct", pct(t.layer_s("simulate")), "%"),
        ("other_pct", pct(total - t.layers_s()), "%"),
        (
            "handshakes_per_s",
            rate(t.counter("sessions"), t.layer_s("session")),
            "1/s",
        ),
        ("frames_per_s", rate(t.counter("frames"), crypto_s), "1/s"),
        (
            "retrievals_per_s",
            rate(t.counter("retrievals"), t.layer_s("retrieve")),
            "1/s",
        ),
        (
            "prefill_tokens_per_s",
            rate(t.counter("prompt_tokens"), t.layer_s("prefill")),
            "1/s",
        ),
        (
            "decode_tokens_per_s",
            rate(t.counter("decode_tokens"), t.layer_s("decode")),
            "1/s",
        ),
        (
            "spec_tokens_per_s",
            rate(t.counter("spec_tokens"), t.layer_s("speculate")),
            "1/s",
        ),
        (
            "spec_accepted_pct",
            100.0 * rate(t.counter("spec_accepted"), t.counter("spec_drafted")),
            "%",
        ),
        (
            "sim_events_per_s",
            rate(t.counter("sim_events"), t.layer_s("simulate")),
            "1/s",
        ),
        ("prompt_tokens_per_op", per_op("prompt_tokens"), "count"),
        ("output_tokens_per_op", per_op("output_tokens"), "count"),
        ("sim_events_per_op", per_op("sim_events"), "count"),
        (
            "sim_decode_steps_per_op",
            per_op("sim_decode_steps"),
            "count",
        ),
        ("sim_retries_per_op", per_op("sim_retries"), "count"),
    ]
}

fn run(args: &Args) -> Result<String, String> {
    let prepare = Instant::now();
    let mut w = workload(&args.workload, args.seed)?;
    let n = w.strata();
    eprintln!("prepared in {:.2} s", prepare.elapsed().as_secs_f64());
    let placer = affinity::Placer::new();

    let mut setup_s = Vec::new();
    let setups = Instant::now();
    let mut j = 0;
    while setup_s.len() < MIN_SETUPS || setups.elapsed().as_secs_f64() < SETUP_S {
        placer.place();
        let start = Instant::now();
        w.deploy()?;
        let op = Op {
            k: SETUP_K + j,
            slot: n / 2,
            check: false,
        };
        w.op(op, &mut Tracer::off())
            .map_err(|e| format!("set-up: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        j += 1;
    }
    eprintln!(
        "set up {} times in {:.2} s",
        setup_s.len(),
        setups.elapsed().as_secs_f64()
    );

    placer.place();
    let warmup = Instant::now();
    let mut j = 0;
    while warmup.elapsed().as_secs_f64() < WARMUP_S {
        let op = Op {
            k: WARMUP_K + j,
            slot: slot_order(j, n),
            check: false,
        };
        w.op(op, &mut Tracer::off())
            .map_err(|e| format!("warm-up: {e}"))?;
        j += 1;
    }

    let mut tracer = Tracer::new(args.trace);
    // Fastest serving of each stratum: (seconds, output tokens).
    let mut best: Vec<Option<(f64, f64)>> = vec![None; usize::try_from(n).expect("strata")];
    let mut servings = vec![0u32; best.len()];
    let mut failed = 0u64;
    let mut i = 0;
    let window = Instant::now();
    let mut placed = Instant::now();
    while window.elapsed().as_secs_f64() < args.seconds {
        if placed.elapsed().as_secs_f64() >= PLACE_EVERY_S {
            placer.place();
            placed = Instant::now();
        }
        let op = Op {
            k: i,
            slot: slot_order(i, n),
            check: i == 0 || Rng::stream(args.seed, 8, i).next_u64() % CHECK_EVERY == 0,
        };
        let slot = usize::try_from(op.slot).expect("stratum");
        match w.op(op, &mut tracer) {
            Ok((tokens, s)) => {
                servings[slot] += 1;
                if best[slot].is_none_or(|(fastest, _)| s < fastest) {
                    best[slot] = Some((s, tokens));
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("operation {i} failed: {e}");
            }
        }
        i += 1;
    }
    let attempted = i;
    drop(placer);
    eprintln!(
        "{attempted} operations over {n} strata in {:.1} s, at least {} per stratum",
        window.elapsed().as_secs_f64(),
        servings.iter().min().copied().unwrap_or(0)
    );
    let check = Instant::now();
    let wrong = w.verify();
    eprintln!("checked in {:.2} s", check.elapsed().as_secs_f64());
    if wrong > 0 {
        eprintln!("{wrong} checked operations returned wrong output");
    }
    failed += wrong;
    let best: Vec<(f64, f64)> = best.into_iter().flatten().collect();
    if best.is_empty() {
        return Err("no operation succeeded".into());
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let path = format!(
            "target/confbench/trace-{}-{}.json",
            args.workload, args.seed
        );
        std::fs::create_dir_all("target/confbench")
            .and_then(|()| std::fs::write(&path, tracer.chrome_json()))
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("spans written to {path}");
        per_layer(&tracer)
    } else {
        let lat = sorted(best.iter().map(|b| b.0).collect());
        let (tokens, secs) = best.iter().fold((0.0, 0.0), |(n, s), b| (n + b.1, s + b.0));
        vec![
            ("latency_p50_ms", 1e3 * quantile(&lat, 0.5), "ms"),
            ("latency_p90_ms", 1e3 * quantile(&lat, 0.9), "ms"),
            ("tokens_per_s", tokens / secs, "1/s"),
            ("setup_s", quantile(&sorted(setup_s), 0.5), "s"),
        ]
    };

    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("confbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("confbench: {e}");
            ExitCode::FAILURE
        }
    }
}
