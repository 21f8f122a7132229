//! Speculative-decoding equivalence suite: speculative output must be
//! **token-identical** to vanilla autoregressive decode — for any draft
//! model, any window `k`, greedy and temperature sampling alike.
//!
//! The contract rests on one discipline (see `cllm_infer::generate`):
//! both decoders consume exactly one RNG draw per *emitted* token
//! through the shared `next_token`, so the draft can only change *how
//! fast* tokens appear, never *which* tokens appear. These tests sweep
//! draft quality from faithful (the target's own int8/int4 quantization)
//! to hostile (an unrelated random model) and pin the equivalence
//! (including rounds that cross key blocks of the one shared KV cache),
//! the acceptance-quality ordering, the round shape (a target drafting
//! for itself emits k + 1 tokens a round), the token-conservation
//! arithmetic the serve-layer invariants consume, and the refusal of
//! drafts that cannot share the target's cache.

use cllm_infer::generate::{generate, Sampling};
use cllm_infer::kernels::PANEL;
use cllm_infer::model::{TinyConfig, TinyModel};
use cllm_infer::speculative::speculative_generate;

fn target() -> TinyModel {
    TinyModel::init(&TinyConfig::test_small(), 2024)
}

/// Drafts spanning the quality spectrum, best to worst: the target's
/// own quantizations agree with it almost always, a differently-seeded
/// model almost never.
fn drafts(m: &TinyModel) -> Vec<(&'static str, TinyModel)> {
    vec![
        ("int8", m.quantized()),
        ("int4", m.quantized4()),
        ("naive-kernels", m.naive()),
        ("hostile", TinyModel::init(&TinyConfig::test_small(), 777)),
    ]
}

#[test]
fn greedy_is_token_identical_for_every_draft_and_every_k() {
    let m = target();
    let prompt = [3usize, 1, 4, 1, 5];
    let vanilla = generate(&m, &prompt, 16, Sampling::Greedy, 0);
    for (name, draft) in drafts(&m) {
        for k in 1..=6 {
            let (spec, stats) =
                speculative_generate(&m, &draft, &prompt, 16, k, Sampling::Greedy, 0);
            assert_eq!(spec, vanilla, "draft {name}, k={k}: tokens diverged");
            assert_eq!(stats.emitted(), 16, "draft {name}, k={k}");
            assert_eq!(stats.nonfinite_logits, 0, "draft {name}, k={k}");
        }
    }
}

#[test]
fn temperature_sampling_matches_draw_for_draw() {
    // Under temperature sampling the emitted sequence is a function of
    // the seed alone; acceptance/rejection must consume RNG draws in
    // exactly the vanilla order or the tail of the sequence shears off.
    let m = target();
    let prompt = [9usize, 2, 6];
    for temp in [0.7f32, 1.0, 1.3] {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let vanilla = generate(&m, &prompt, 12, Sampling::Temperature(temp), seed);
            for (name, draft) in drafts(&m) {
                let (spec, _) = speculative_generate(
                    &m,
                    &draft,
                    &prompt,
                    12,
                    3,
                    Sampling::Temperature(temp),
                    seed,
                );
                assert_eq!(spec, vanilla, "draft {name}, temp {temp}, seed {seed}");
            }
        }
    }
}

#[test]
fn draft_quality_orders_acceptance_and_round_count() {
    // Equivalence holds regardless of draft quality; *throughput* is
    // where quality shows. The target's own int8 quantization should be
    // accepted far more often than an unrelated model, which in turn
    // means fewer verification rounds for the same emitted tokens.
    let m = target();
    let prompt = [5usize, 5, 5];
    let (_, good) = speculative_generate(&m, &m.quantized(), &prompt, 24, 4, Sampling::Greedy, 0);
    let hostile = TinyModel::init(&TinyConfig::test_small(), 777);
    let (_, bad) = speculative_generate(&m, &hostile, &prompt, 24, 4, Sampling::Greedy, 0);
    assert!(
        good.acceptance_rate() > bad.acceptance_rate(),
        "int8 draft acceptance {:.2} should beat hostile {:.2}",
        good.acceptance_rate(),
        bad.acceptance_rate()
    );
    assert!(
        good.rounds <= bad.rounds,
        "better drafts cannot need more rounds: {} vs {}",
        good.rounds,
        bad.rounds
    );
}

#[test]
fn token_conservation_holds_for_every_draft_and_k() {
    // Every emitted token is exactly one of {accepted draft, the
    // target's own sample} — the arithmetic the serve-layer
    // token-conservation invariant audits. The target samples the first
    // token before any round, and every round ends on exactly one more
    // (a rejection's replacement or the bonus), so a round emits between
    // 1 and k + 1 tokens: a draft that is always accepted needs
    // (max_new - 1) / (k + 1) rounds rounded up, one that never is
    // needs max_new - 1.
    let m = target();
    for (name, draft) in drafts(&m) {
        for k in [1usize, 2, 5] {
            for max_new in [1usize, 7, 19] {
                let (out, stats) =
                    speculative_generate(&m, &draft, &[8, 0], max_new, k, Sampling::Greedy, 3);
                let ctx = format!("draft {name}, k={k}, max_new={max_new}");
                assert_eq!(out.len(), max_new, "{ctx}");
                assert_eq!(stats.emitted(), out.len(), "{ctx}");
                assert!(stats.accepted <= stats.drafted, "{ctx}");
                assert!(stats.drafted <= k * stats.rounds, "{ctx}");
                assert_eq!(stats.resampled, stats.rounds + 1, "{ctx}");
                assert!(stats.rounds >= (max_new - 1).div_ceil(k + 1), "{ctx}");
                assert!(stats.rounds < max_new, "{ctx}");
            }
        }
    }
}

#[test]
fn drafts_crossing_key_blocks_stay_equivalent() {
    // Draft keys and values land in the target's cache and are truncated
    // before each verify, often inside a partly filled key block of
    // PANEL positions; prompts ending on either side of a block edge and
    // outputs spanning several blocks must still decode exactly as
    // vanilla does.
    // A window of 4 makes rounds of up to 5 positions, so accepted runs
    // step across every offset of a block.
    let m = target();
    let hostile = TinyModel::init(&TinyConfig::test_small(), 777);
    let drafts = [
        ("int8", m.quantized()),
        ("int4", m.quantized4()),
        ("hostile", hostile),
    ];
    let max_new = 2 * PANEL + 2;
    for prompt_len in [PANEL - 1, PANEL + 1, 2 * PANEL + 3] {
        let prompt: Vec<usize> = (0..prompt_len).map(|i| (i * 37 + 5) % 256).collect();
        for sampling in [Sampling::Greedy, Sampling::Temperature(1.1)] {
            let vanilla = generate(&m, &prompt, max_new, sampling, 11);
            for (name, draft) in &drafts {
                let (spec, stats) =
                    speculative_generate(&m, draft, &prompt, max_new, 4, sampling, 11);
                let ctx = format!("draft {name}, prompt {prompt_len}, {sampling:?}");
                assert_eq!(spec, vanilla, "{ctx}");
                assert_eq!(stats.emitted(), max_new, "{ctx}");
            }
        }
    }
}

#[test]
fn target_as_its_own_draft_emits_k_plus_one_tokens_every_round() {
    // The target drafting for itself proposes exactly its own greedy
    // tokens, so every proposal is accepted and every round adds the
    // bonus token: k + 1 tokens per round after the first token.
    let m = target();
    for k in 1..=5 {
        let rounds = 4;
        let max_new = 1 + rounds * (k + 1);
        let vanilla = generate(&m, &[2, 7, 1, 8], max_new, Sampling::Greedy, 0);
        let (spec, stats) =
            speculative_generate(&m, &m, &[2, 7, 1, 8], max_new, k, Sampling::Greedy, 0);
        assert_eq!(spec, vanilla, "k={k}");
        assert_eq!(stats.rounds, rounds, "k={k}");
        assert_eq!(
            (stats.drafted, stats.accepted),
            (rounds * k, rounds * k),
            "k={k}"
        );
        assert_eq!(stats.resampled, rounds + 1, "k={k}");
    }
}

#[test]
fn empty_and_single_token_prompts_stay_equivalent() {
    let m = target();
    let draft = m.quantized();
    for prompt in [&[][..], &[0usize][..], &[255usize][..]] {
        let vanilla = generate(&m, prompt, 8, Sampling::Greedy, 0);
        let (spec, _) = speculative_generate(&m, &draft, prompt, 8, 2, Sampling::Greedy, 0);
        assert_eq!(spec, vanilla, "prompt {prompt:?}");
    }
}

#[test]
#[should_panic(expected = "share a vocabulary")]
fn mismatched_vocabularies_are_rejected() {
    let m = target();
    let mut cfg = TinyConfig::test_small();
    cfg.vocab = 128;
    let alien = TinyModel::init(&cfg, 1);
    let _ = speculative_generate(&m, &alien, &[1], 4, 2, Sampling::Greedy, 0);
}

#[test]
fn drafts_with_another_cache_shape_are_rejected() {
    // The draft writes into the target's cache, so a draft differing in
    // any part of its geometry must be refused by name.
    let m = target();
    let mut shapes = [(); 3].map(|()| TinyConfig::test_small());
    shapes[0].layers = 1;
    shapes[1].kv_heads = 4;
    shapes[2].heads = 8;
    for (what, cfg) in ["layers", "KV heads", "head dim"].into_iter().zip(&shapes) {
        let alien = TinyModel::init(cfg, 1);
        let panic = std::panic::catch_unwind(|| {
            speculative_generate(&m, &alien, &[1], 4, 2, Sampling::Greedy, 0)
        })
        .expect_err(what);
        let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(
            message.contains("share one KV cache"),
            "{what}: {message:?}"
        );
    }
}
