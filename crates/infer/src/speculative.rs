//! Seeded deterministic speculative decoding (draft-k / verify /
//! accept-prefix) on one KV cache, token-identical to vanilla decode by
//! construction.
//!
//! The target prefills the prompt once and samples the first token,
//! which is then *pending*: emitted, but not yet in the cache. Each
//! round a draft model proposes up to `k` tokens greedily, running
//! `forward(pending)` and then `forward(d_i)` for every proposal but the
//! last, on the target's own cache. The cache is truncated back, and the
//! target verifies `[pending, d_1..d_k]` in **one chunked forward**
//! ([`crate::model::TinyModel::forward_chunk`]), streaming its weights
//! once per round instead of once per token — the weight-traffic
//! amortization that makes speculative decoding pay on memory-bound
//! decode. Row `i` of the verify is the target's next-token logits after
//! `d_i` (row 0 after `pending`): the target samples its own token
//! there, and a token equal to `d_{i+1}` accepts that proposal. The
//! first mismatch emits the target's token instead and truncates the
//! cache to the accepted prefix; when all `k` are accepted the last row
//! yields a bonus token. Either way the round ends on a token the target
//! chose, the next round's pending token, so a round emits between 1
//! and `k + 1` tokens — the round `cllm_core`'s `spec_decode` experiment
//! prices.
//!
//! **One cache.** The draft reads the keys and values the target wrote
//! for every verified position and appends its own only past them. Those
//! are truncated before each verify, and the verify's stores into the
//! [`crate::model::KvCache`] rewrite every position it covers (lanes of
//! a partly filled key block past the cache length are never read), so
//! between rounds every cached position holds keys and values the
//! target wrote itself, exactly as in vanilla decode. The draft must
//! therefore share the target's cache geometry (layers, KV heads, head
//! dimension) as well as its vocabulary; its weights, weight format and
//! query heads are free.
//!
//! **Draw-aligned determinism.** Vanilla [`crate::generate::generate`]
//! consumes exactly one RNG draw per emitted token (temperature) or none
//! (greedy). This implementation preserves that discipline exactly: the
//! `j`-th emitted token is always produced by
//! `generate::next_token(logits after the j-token prefix, draw j)`,
//! whether the token accepted a draft (the target's choice happened to
//! equal the proposal) or is the target's own (the first token, a
//! rejection's replacement or a bonus). Those logits are bit-identical
//! to vanilla decode's, since the target computed them over its own keys
//! and values. By induction the output is **token-identical to vanilla
//! decode for any draft model and any k** — the draft only decides how
//! many target forwards were batched together, never what gets emitted.
//! The equivalence suite (`tests/spec_equivalence.rs`) pins this for
//! greedy and temperature sampling across draft models of varying
//! quality.

use crate::generate::{next_token, Sampling};
use crate::kernels::argmax;
use crate::model::TinyModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counters from one speculative run; the raw material for the
/// `token-conservation` and `forbid-nonfinite-logits` invariants in
/// `cllm_serve::invariants` (see `InferLoopReport`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Draft-k/verify rounds executed.
    pub rounds: usize,
    /// Tokens the draft model proposed.
    pub drafted: usize,
    /// Proposals the target accepted (emitted verbatim).
    pub accepted: usize,
    /// Tokens the target sampled itself: the first token, each
    /// rejection's replacement and each bonus token. Every round ends on
    /// exactly one, so a run emitting any token has `rounds + 1`.
    pub resampled: usize,
    /// Non-finite values observed across all logit vectors used for
    /// emission decisions (must be 0 on a healthy model).
    pub nonfinite_logits: usize,
}

impl SpecStats {
    /// Tokens emitted: every emission is either an accepted draft or a
    /// token the target sampled itself (the first, a rejection's
    /// replacement or a bonus), so `accepted + resampled` must equal the
    /// output length — the token-conservation invariant.
    #[must_use]
    pub fn emitted(&self) -> usize {
        self.accepted + self.resampled
    }

    /// Fraction of drafted tokens accepted (0 if nothing was drafted).
    #[must_use]
    pub fn acceptance_rate(&self) -> f64 {
        if self.drafted == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.accepted as f64 / self.drafted as f64
            }
        }
    }
}

/// The target's token after `logits` (one RNG draw under temperature),
/// counting any non-finite logit into `stats`.
fn sample(logits: &[f32], sampling: Sampling, rng: &mut StdRng, stats: &mut SpecStats) -> usize {
    stats.nonfinite_logits += logits.iter().filter(|v| !v.is_finite()).count();
    next_token(logits, sampling, rng)
}

/// Generate `max_new` tokens with speculative decoding on the target's
/// KV cache: `draft` proposes up to `k` tokens per round (greedy),
/// `target` verifies them in one chunked forward, and the accepted
/// prefix plus the target's own next token is kept. Returns the emitted
/// tokens and the round/acceptance counters.
///
/// Output is token-identical to
/// `generate(target, prompt, max_new, sampling, seed)` for any draft
/// and any `k >= 1`.
///
/// # Panics
///
/// Panics if `k == 0`, the draft and target vocabularies differ, the
/// draft's KV cache geometry (layers, KV heads, head dimension) differs
/// from the target's, a prompt token is out of vocabulary, or
/// `prompt.len() + max_new - 1` positions overflow either model's
/// `max_seq` (the last emitted token is never fed back).
#[must_use]
pub fn speculative_generate(
    target: &TinyModel,
    draft: &TinyModel,
    prompt: &[usize],
    max_new: usize,
    k: usize,
    sampling: Sampling,
    seed: u64,
) -> (Vec<usize>, SpecStats) {
    assert!(k >= 1, "draft window k must be at least 1");
    let (tc, dc) = (&target.config, &draft.config);
    assert_eq!(
        tc.vocab, dc.vocab,
        "draft and target must share a vocabulary"
    );
    assert!(
        (tc.layers, tc.kv_heads, tc.head_dim()) == (dc.layers, dc.kv_heads, dc.head_dim()),
        "draft and target must share one KV cache: layers, KV heads and head dim"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = SpecStats::default();
    let mut out = Vec::with_capacity(max_new);
    if max_new == 0 {
        return (out, stats);
    }
    let mut cache = target.new_cache();

    // Prefill once and sample the first token. With an empty prompt,
    // vanilla decode samples it from all-zero logits; mirror that.
    let first = if prompt.is_empty() {
        vec![0.0f32; tc.vocab]
    } else {
        let rows = target.forward_chunk(prompt, &mut cache);
        rows.row(prompt.len() - 1).to_vec()
    };
    let mut pending = sample(&first, sampling, &mut rng, &mut stats);
    out.push(pending);
    stats.resampled += 1;

    while out.len() < max_new {
        // A round emits up to one token past its drafts, so the tokens
        // still owed need at most one draft fewer.
        let kr = k.min(max_new - out.len() - 1);
        let base = cache.len;
        let mut chunk = Vec::with_capacity(kr + 1);
        chunk.push(pending);
        for i in 0..kr {
            let proposal = argmax(&draft.forward(chunk[i], &mut cache));
            chunk.push(proposal);
        }
        cache.truncate(base);
        stats.drafted += kr;

        // The target verifies the pending token and every proposal in one
        // chunked forward; row `i` decides `chunk[i + 1]`, and the last
        // row, past every proposal, always yields the target's own token.
        let rows = target.forward_chunk(&chunk, &mut cache);
        for i in 0..=kr {
            let t = sample(rows.row(i), sampling, &mut rng, &mut stats);
            out.push(t);
            if chunk.get(i + 1) == Some(&t) {
                stats.accepted += 1;
            } else {
                // A rejection's replacement or the bonus: keep the
                // pending token and the `i` accepted proposals.
                stats.resampled += 1;
                cache.truncate(base + i + 1);
                pending = t;
                break;
            }
        }
        stats.rounds += 1;
    }

    debug_assert_eq!(stats.emitted(), out.len());
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;
    use crate::model::TinyConfig;

    fn target() -> TinyModel {
        TinyModel::init(&TinyConfig::test_small(), 99)
    }

    #[test]
    fn greedy_matches_vanilla_with_quantized_draft() {
        let m = target();
        let draft = m.quantized();
        let vanilla = generate(&m, &[1, 2, 3], 12, Sampling::Greedy, 0);
        let (spec, stats) =
            speculative_generate(&m, &draft, &[1, 2, 3], 12, 4, Sampling::Greedy, 0);
        assert_eq!(spec, vanilla);
        assert_eq!(stats.emitted(), 12);
        assert!(stats.accepted > 0, "int8 draft should agree sometimes");
        assert_eq!(stats.nonfinite_logits, 0);
    }

    #[test]
    fn hostile_draft_still_matches_vanilla() {
        // A draft trained on nothing (different seed) proposes garbage;
        // output must still be exactly vanilla.
        let m = target();
        let hostile = TinyModel::init(&TinyConfig::test_small(), 12345);
        let vanilla = generate(&m, &[7], 10, Sampling::Greedy, 0);
        let (spec, stats) = speculative_generate(&m, &hostile, &[7], 10, 3, Sampling::Greedy, 0);
        assert_eq!(spec, vanilla);
        assert_eq!(stats.emitted(), 10);
    }

    #[test]
    fn temperature_matches_vanilla_draw_for_draw() {
        let m = target();
        let draft = m.quantized();
        for seed in [0u64, 1, 7] {
            let vanilla = generate(&m, &[4, 5], 14, Sampling::Temperature(1.2), seed);
            let (spec, _) =
                speculative_generate(&m, &draft, &[4, 5], 14, 3, Sampling::Temperature(1.2), seed);
            assert_eq!(spec, vanilla, "seed {seed} diverged");
        }
    }

    #[test]
    fn empty_prompt_matches_vanilla() {
        let m = target();
        let draft = m.quantized();
        let vanilla = generate(&m, &[], 6, Sampling::Greedy, 0);
        let (spec, _) = speculative_generate(&m, &draft, &[], 6, 2, Sampling::Greedy, 0);
        assert_eq!(spec, vanilla);
    }

    #[test]
    fn conservation_holds_across_k() {
        let m = target();
        let draft = m.quantized();
        for k in 1..=5 {
            let (out, stats) =
                speculative_generate(&m, &draft, &[9, 8], 11, k, Sampling::Greedy, 0);
            assert_eq!(out.len(), 11);
            assert_eq!(stats.emitted(), out.len(), "k={k}");
            assert!(stats.accepted <= stats.drafted, "k={k}");
            assert!(stats.rounds >= 1);
        }
    }

    #[test]
    fn a_non_finite_activation_of_a_quantized_target_is_counted() {
        // A NaN or infinity in the prompt token's embedding reaches every
        // quantized matmul as an activation; its group's scale carries
        // it into every logit, which the counter must see.
        for bad in [f32::NAN, f32::INFINITY] {
            let mut m = target();
            m.embed.set(3, 5, bad);
            for q in [m.quantized(), m.quantized4()] {
                let (out, stats) = speculative_generate(&q, &q, &[3], 4, 2, Sampling::Greedy, 0);
                assert_eq!(out.len(), 4);
                assert!(stats.nonfinite_logits > 0, "{bad} went unseen");
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_rejected() {
        let m = target();
        let d = m.quantized();
        let _ = speculative_generate(&m, &d, &[1], 4, 0, Sampling::Greedy, 0);
    }
}
