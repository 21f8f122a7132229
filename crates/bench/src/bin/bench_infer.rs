//! Wall-clock tokens/sec bench for the real `cllm-infer` engine.
//!
//! Times prefill (one chunked forward over a prompt) and decode (the
//! sequential token loop) across the engine's kernel variants — scalar
//! reference (`naive`), tiled f32, group-wise int8, packed int4 — plus
//! speculative decoding with an int8-quantized draft, and pins them in
//! `BENCH_infer.json`. The **full** shape (~20M params) holds 80 MB of
//! f32 weights, far more than the private caches, so every decode token
//! streams them from the shared cache or memory: on a host with a
//! 105 MiB L3 they stay L3-resident, on a smaller L3 they stream from
//! DRAM. The **smoke** shape (~3M params) is fast enough for CI.
//!
//! Two rates time the crypto that every confidential request and
//! deployment pays: `unseal_mb_per_s`, the enclave's weight unseal
//! (`ModelOwner::decrypt_model`, AES-GCM open and parse) on a sealed copy
//! of the measured model, and `handshakes_per_s`, attested session
//! handshakes (`Verifier::start`, `enclave_respond`, `Verifier::finish`).
//!
//! Besides the floors, a pinned document must restate each decode
//! speedup ratio from its rates, keep every ratio inside its
//! measured-vs-modeled band in `cllm_perf::calib::measured`, and meet
//! the hard acceptance bars (tiled >= 2x naive, int8 >= 1.5x tiled).
//! Modes, floors and the `--check` gate are `cllm_bench::pin`'s.
//!
//! Only the measured benches ever record wall time; the golden tables
//! stay machine-independent.

use cllm_bench::pin::{self, field_f64, float, int, set, Bench, Scale};
use cllm_core::owner::ModelOwner;
use cllm_infer::kernels::argmax;
use cllm_infer::model::{TinyConfig, TinyModel};
use cllm_infer::speculative::speculative_generate;
use cllm_perf::calib::measured::{CalibrationReport, MeasuredRatios};
use cllm_tee::attestation::{generate_quote, Measurement};
use cllm_tee::session::{enclave_respond, Verifier};
use serde_json::Value;
use std::process::ExitCode;
use std::time::Instant;

const BENCH: Bench = Bench {
    file: "BENCH_infer.json",
    schema: &[
        ("schema_version", true),
        ("model", false),
        ("hidden", true),
        ("layers", true),
        ("vocab", true),
        ("params", true),
        ("prefill_tokens", true),
        ("decode_tokens", true),
        ("draft_k", true),
        ("naive_prefill_tps", true),
        ("naive_decode_tps", true),
        ("tiled_prefill_tps", true),
        ("tiled_decode_tps", true),
        ("int8_prefill_tps", true),
        ("int8_decode_tps", true),
        ("int4_prefill_tps", true),
        ("int4_decode_tps", true),
        ("spec_decode_tps", true),
        ("spec_acceptance", true),
        ("unseal_mb_per_s", true),
        ("handshakes_per_s", true),
        ("ratio_tiled_over_naive_decode", true),
        ("ratio_int8_over_tiled_decode", true),
        ("ratio_int4_over_int8_decode", true),
        ("ratio_spec_over_tiled_decode", true),
        ("calibration_ok", true),
        ("floor_naive_decode_tps", true),
        ("floor_tiled_prefill_tps", true),
        ("floor_tiled_decode_tps", true),
        ("floor_int8_decode_tps", true),
        ("floor_int4_decode_tps", true),
        ("floor_spec_decode_tps", true),
        ("floor_unseal_mb_per_s", true),
        ("floor_handshakes_per_s", true),
    ],
    measure,
    rules,
};

/// Each pinned decode ratio, with the (numerator, denominator) rates it
/// restates.
const RATIOS: [(&str, &str, &str); 4] = [
    (
        "ratio_tiled_over_naive_decode",
        "tiled_decode_tps",
        "naive_decode_tps",
    ),
    (
        "ratio_int8_over_tiled_decode",
        "int8_decode_tps",
        "tiled_decode_tps",
    ),
    (
        "ratio_int4_over_int8_decode",
        "int4_decode_tps",
        "int8_decode_tps",
    ),
    (
        "ratio_spec_over_tiled_decode",
        "spec_decode_tps",
        "tiled_decode_tps",
    ),
];

fn main() -> ExitCode {
    pin::main(&BENCH)
}

/// The model shape measured at `scale`.
fn config(scale: Scale) -> TinyConfig {
    let (hidden, layers, intermediate, vocab) = match scale {
        Scale::Full => (512, 6, 1408, 2048),
        Scale::Smoke => (256, 4, 704, 512),
    };
    TinyConfig {
        hidden,
        layers,
        heads: 8,
        kv_heads: 4,
        intermediate,
        vocab,
        max_seq: 256,
        rope_theta: 10_000.0,
        eps: 1e-5,
    }
}

/// Prompt length timed as prefill (one chunked forward).
const PREFILL_TOKENS: usize = 32;
/// Tokens generated in each timed decode loop.
const DECODE_TOKENS: usize = 48;
/// Speculative draft window. With an int8 draft of the same shape the
/// draft step costs a sizable fraction of a target step, so throughput
/// peaks at a short window: at acceptance `a ~ 0.87`, expected tokens
/// per round `E = (1 - a^(k+1)) / (1 - a)` grows slower in `k` than the
/// `k` draft steps cost, and `k = 2` maximizes `E / round-cost`.
const DRAFT_K: usize = 2;

fn prompt(vocab: usize) -> Vec<usize> {
    (0..PREFILL_TOKENS).map(|i| (i * 37 + 11) % vocab).collect()
}

/// Tokens/sec of one chunked prefill over `PREFILL_TOKENS` tokens.
fn prefill_tps(model: &TinyModel) -> f64 {
    let p = prompt(model.config.vocab);
    let mut cache = model.new_cache();
    let t0 = Instant::now();
    let rows = model.forward_chunk(&p, &mut cache);
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(rows.row(p.len() - 1)[0]);
    #[allow(clippy::cast_precision_loss)]
    {
        p.len() as f64 / wall
    }
}

/// Tokens/sec of a greedy decode loop (prefill excluded from the
/// timed region).
fn decode_tps(model: &TinyModel) -> f64 {
    let p = prompt(model.config.vocab);
    let mut cache = model.new_cache();
    let rows = model.forward_chunk(&p, &mut cache);
    let mut logits = rows.row(p.len() - 1).to_vec();
    let t0 = Instant::now();
    for _ in 0..DECODE_TOKENS {
        let tok = argmax(&logits);
        logits = model.forward(tok, &mut cache);
    }
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(logits[0]);
    #[allow(clippy::cast_precision_loss)]
    {
        DECODE_TOKENS as f64 / wall
    }
}

/// Tokens/sec and acceptance rate of speculative decode with an
/// int8-quantized draft. Int8 keeps acceptance high on the seeded
/// random weights; int4's extra rounding flips too many argmax draws
/// to pay off as a draft here.
///
/// `speculative_generate` prefills both models internally, while
/// `decode_tps` excludes prefill from its timed region; to compare
/// like-for-like, the two prompt prefills are timed separately on
/// scratch caches and subtracted from the speculative wall.
fn spec_tps(target: &TinyModel, draft: &TinyModel) -> (f64, f64) {
    let p = prompt(target.config.vocab);
    let t0 = Instant::now();
    for m in [target, draft] {
        let mut cache = m.new_cache();
        let rows = m.forward_chunk(&p, &mut cache);
        std::hint::black_box(rows.row(p.len() - 1)[0]);
    }
    let prefill_wall = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let (out, stats) = speculative_generate(
        target,
        draft,
        &p,
        DECODE_TOKENS,
        DRAFT_K,
        cllm_infer::generate::Sampling::Greedy,
        0,
    );
    let wall = (t0.elapsed().as_secs_f64() - prefill_wall).max(1e-9);
    std::hint::black_box(out.last().copied());
    #[allow(clippy::cast_precision_loss)]
    {
        (DECODE_TOKENS as f64 / wall, stats.acceptance_rate())
    }
}

/// The platform secret, golden measurement and TCB level of the
/// enclave the crypto rates attest.
const HW_ROOT: &[u8] = b"bench-hw-root";
const GOLDEN: Measurement = Measurement([0xB0; 32]);
const SVN: u16 = 7;
/// Handshakes timed for `handshakes_per_s`.
const HANDSHAKES: u64 = 2000;

/// MB/s of the enclave's weight unseal, `ModelOwner::decrypt_model`
/// (AES-GCM open of the serialized weights, then parse), on a copy of
/// `model` sealed by its owner and opened with the key the owner
/// releases to the attested enclave.
fn unseal_mb_per_s(model: &TinyModel) -> f64 {
    let mut owner = ModelOwner::new(HW_ROOT, GOLDEN, SVN, b"bench-owner");
    let sealed = owner
        .encrypt_model(model)
        .expect("the bench model serializes");
    let nonce = owner.challenge();
    let quote = generate_quote(HW_ROOT, GOLDEN, SVN, &nonce);
    let key = owner
        .release_key(&quote, &nonce)
        .expect("the bench enclave meets the owner's policy");
    let t0 = Instant::now();
    let opened = ModelOwner::decrypt_model(&key, &sealed).expect("the sealed copy opens");
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(&opened);
    #[allow(clippy::cast_precision_loss)]
    {
        sealed.len() as f64 / 1e6 / wall
    }
}

/// Attested handshakes per second: each a fresh challenge, an enclave
/// response quoting the transcript, and its verification and key
/// derivation.
fn handshakes_per_s() -> f64 {
    let t0 = Instant::now();
    for i in 0..HANDSHAKES {
        let (verifier, challenge) = Verifier::start(GOLDEN, HW_ROOT, &(2 * i).to_le_bytes());
        let (response, _enclave) =
            enclave_respond(HW_ROOT, GOLDEN, SVN, &challenge, &(2 * i + 1).to_le_bytes())
                .expect("the verifier's key share is valid");
        let channel = verifier
            .finish(&response)
            .expect("the bench enclave attests");
        std::hint::black_box(channel);
    }
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    #[allow(clippy::cast_precision_loss)]
    {
        HANDSHAKES as f64 / wall
    }
}

/// The decode ratios a document states, as the calibration bands read
/// them.
fn stated(doc: &Value) -> MeasuredRatios {
    let [tiled_over_naive, int8_over_tiled, int4_over_int8, spec_over_tiled] =
        RATIOS.map(|(key, _, _)| field_f64(doc, key));
    MeasuredRatios {
        tiled_over_naive,
        int8_over_tiled,
        int4_over_int8,
        spec_over_tiled,
    }
}

/// Time every variant at `scale` and render the BENCH_infer.json
/// document. The same seeded weights back every variant, so the ratios
/// isolate the kernels.
fn measure(scale: Scale) -> Value {
    let label = scale.label();
    let tiled = TinyModel::init(&config(scale), 42);
    let (unseal, handshakes) = (unseal_mb_per_s(&tiled), handshakes_per_s());
    println!("{label} crypto: unseal {unseal:.1} MB/s, {handshakes:.0} handshakes/s");
    let naive = tiled.naive();
    let int8 = tiled.quantized();
    let int4 = tiled.quantized4();
    let mut rates = Vec::new();
    for (name, model) in [
        ("naive", &naive),
        ("tiled", &tiled),
        ("int8", &int8),
        ("int4", &int4),
    ] {
        let (prefill, decode) = (prefill_tps(model), decode_tps(model));
        println!("{label} {name}: prefill {prefill:.0} tok/s, decode {decode:.0} tok/s");
        rates.push((format!("{name}_prefill_tps"), prefill));
        rates.push((format!("{name}_decode_tps"), decode));
    }
    let (spec, acceptance) = spec_tps(&tiled, &int8);
    println!(
        "{label} spec: {spec:.0} tok/s at {:.0}% acceptance",
        acceptance * 100.0
    );
    rates.push(("spec_decode_tps".into(), spec));
    rates.push(("spec_acceptance".into(), acceptance));
    rates.push(("unseal_mb_per_s".into(), unseal));
    rates.push(("handshakes_per_s".into(), handshakes));
    let doc = document(scale, tiled.param_count(), rates);
    print!("{}", CalibrationReport::new(&stated(&doc)).render());
    doc
}

/// Render measured `rates` as the BENCH_infer.json document: the shape,
/// the rates, the decode ratios they imply and whether those sit inside
/// their calibration bands, and the floors at zero.
fn document(scale: Scale, params: usize, rates: Vec<(String, f64)>) -> Value {
    let config = config(scale);
    let mut doc = Value::Object(vec![
        ("schema_version".into(), int(1)),
        ("model".into(), Value::String(scale.label().into())),
        ("hidden".into(), int(config.hidden as u64)),
        ("layers".into(), int(config.layers as u64)),
        ("vocab".into(), int(config.vocab as u64)),
        ("params".into(), int(params as u64)),
        ("prefill_tokens".into(), int(PREFILL_TOKENS as u64)),
        ("decode_tokens".into(), int(DECODE_TOKENS as u64)),
        ("draft_k".into(), int(DRAFT_K as u64)),
    ]);
    for (key, rate) in rates {
        set(&mut doc, &key, float(rate));
    }
    for (key, num, den) in RATIOS {
        let ratio = field_f64(&doc, num) / field_f64(&doc, den);
        set(&mut doc, key, float(ratio));
    }
    let calibrated = CalibrationReport::new(&stated(&doc)).all_within();
    set(&mut doc, "calibration_ok", int(u64::from(calibrated)));
    for (_, floor) in BENCH.floors() {
        set(&mut doc, floor, float(0.0));
    }
    doc
}

/// Ratios consistent with the rates they restate, calibration bands and
/// the hard acceptance bars met, acceptance a probability.
fn rules(doc: &Value) -> Result<(), String> {
    for (key, num, den) in RATIOS {
        let stated = field_f64(doc, key);
        let derived = field_f64(doc, num) / field_f64(doc, den);
        if !(stated.is_finite() && ((stated - derived) / derived).abs() < 1e-6) {
            return Err(format!("{key} does not match {num}/{den}"));
        }
    }
    let report = CalibrationReport::new(&stated(doc));
    if !report.all_within() {
        return Err(format!(
            "measured ratios outside calibration bands:\n{}",
            report.render()
        ));
    }
    if field_f64(doc, "calibration_ok") != 1.0 {
        return Err("calibration_ok must be 1".into());
    }
    // Hard acceptance bars on weight-bound decode.
    if field_f64(doc, "ratio_tiled_over_naive_decode") < 2.0 {
        return Err("tiled decode must be >= 2x naive".into());
    }
    if field_f64(doc, "ratio_int8_over_tiled_decode") < 1.5 {
        return Err("int8 decode must be >= 1.5x tiled".into());
    }
    if !(0.0..=1.0).contains(&field_f64(doc, "spec_acceptance")) {
        return Err("spec_acceptance must be in [0, 1]".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        let rates = [
            ("naive_prefill_tps", 40.0),
            ("naive_decode_tps", 30.0),
            ("tiled_prefill_tps", 400.0),
            ("tiled_decode_tps", 120.0),
            ("int8_prefill_tps", 500.0),
            ("int8_decode_tps", 240.0),
            ("int4_prefill_tps", 520.0),
            ("int4_decode_tps", 300.0),
            ("spec_decode_tps", 100.0),
            ("spec_acceptance", 0.85),
            ("unseal_mb_per_s", 90.0),
            ("handshakes_per_s", 30_000.0),
        ];
        let rates = rates.map(|(key, rate)| (key.to_string(), rate)).to_vec();
        let mut doc = document(Scale::Full, 20_000_000, rates);
        for (rate_key, floor_key) in BENCH.floors() {
            let quarter = field_f64(&doc, rate_key) / 4.0;
            set(&mut doc, floor_key, float(quarter));
        }
        doc
    }

    #[test]
    fn sample_document_is_valid() {
        BENCH.validate(&sample()).expect("sample must validate");
    }

    #[test]
    fn decode_tiled_prefill_and_crypto_rates_are_gated() {
        let gated: Vec<_> = BENCH.floors().map(|(rate, _)| rate).collect();
        assert_eq!(
            gated,
            [
                "naive_decode_tps",
                "tiled_prefill_tps",
                "tiled_decode_tps",
                "int8_decode_tps",
                "int4_decode_tps",
                "spec_decode_tps",
                "unseal_mb_per_s",
                "handshakes_per_s",
            ]
        );
    }

    #[test]
    fn inconsistent_ratio_is_rejected() {
        let mut doc = sample();
        set(&mut doc, "ratio_int8_over_tiled_decode", float(1.9));
        let err = BENCH.validate(&doc).unwrap_err();
        assert!(err.contains("ratio_int8_over_tiled_decode"), "{err}");
    }

    #[test]
    fn scalar_fallback_regression_is_rejected() {
        // Tiled decode collapsing to naive speed must fail both the
        // consistency-recomputed band and the hard 2x bar.
        let mut doc = sample();
        let naive = field_f64(&doc, "naive_decode_tps");
        set(&mut doc, "tiled_decode_tps", float(naive));
        set(&mut doc, "ratio_tiled_over_naive_decode", float(1.0));
        // Keep downstream ratios consistent so only the tiled band trips.
        let int8 = field_f64(&doc, "int8_decode_tps");
        set(
            &mut doc,
            "ratio_int8_over_tiled_decode",
            float(int8 / naive),
        );
        let spec = field_f64(&doc, "spec_decode_tps");
        set(
            &mut doc,
            "ratio_spec_over_tiled_decode",
            float(spec / naive),
        );
        assert!(BENCH.validate(&doc).is_err());
    }

    #[test]
    fn bad_acceptance_is_rejected() {
        let mut doc = sample();
        set(&mut doc, "spec_acceptance", float(1.5));
        let err = BENCH.validate(&doc).unwrap_err();
        assert!(err.contains("spec_acceptance"), "{err}");
    }

    #[test]
    fn smoke_measurement_fills_the_schema() {
        // One real smoke measurement: every rate positive and a sane
        // acceptance rate. Debug builds invert some kernel ratios, so
        // the calibration rules are left to CI's release `--check`.
        let doc = measure(Scale::Smoke);
        assert!(field_f64(&doc, "params") > 1_000_000.0);
        for (key, _) in BENCH.schema {
            assert!(doc.get(key).is_some(), "smoke document lacks {key}");
            if (key.ends_with("_tps") || key.ends_with("_per_s")) && !key.starts_with("floor_") {
                assert!(field_f64(&doc, key) > 0.0, "{key} must be positive");
            }
        }
        assert!((0.0..=1.0).contains(&field_f64(&doc, "spec_acceptance")));
    }
}
