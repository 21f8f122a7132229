//! Advanced sampling: top-k, nucleus (top-p), repetition penalty, and
//! batched generation — the production decoding controls of serving
//! frameworks like vLLM/IPEX that the basic `generate` loop omits.

use crate::kernels::{argmax, softmax};
use crate::model::{KvCache, TinyModel};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Full decoding parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingParams {
    /// Softmax temperature (<= 0 or 1.0 means neutral; 0 disables
    /// sampling entirely, i.e. greedy).
    pub temperature: f32,
    /// Keep only the `k` most likely tokens (0 = disabled).
    pub top_k: usize,
    /// Keep the smallest set of tokens with cumulative probability `p`
    /// (1.0 = disabled).
    pub top_p: f32,
    /// Divide the logits of already-generated tokens by this factor
    /// (1.0 = disabled); discourages loops.
    pub repetition_penalty: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SamplingParams {
    fn default() -> Self {
        SamplingParams {
            temperature: 1.0,
            top_k: 0,
            top_p: 1.0,
            repetition_penalty: 1.0,
            seed: 0,
        }
    }
}

impl SamplingParams {
    /// Greedy decoding.
    #[must_use]
    pub fn greedy() -> Self {
        SamplingParams {
            temperature: 0.0,
            ..Self::default()
        }
    }
}

/// Select the next token from raw logits under the given parameters,
/// given the tokens generated so far (for the repetition penalty).
///
/// Tokens are ranked by [`f32::total_cmp`], so a NaN logit (or one a
/// NaN or infinite temperature makes) ranks without panicking: a
/// positive NaN above every number, a negative one below. The token
/// drawn from such logits is still in the vocabulary but meaningless;
/// callers that must not emit one check the logits first, as the
/// `forbid-nonfinite-logits` invariant does for speculative decoding.
///
/// # Panics
///
/// Panics on empty logits.
#[must_use]
pub fn sample_next(
    logits: &[f32],
    history: &[usize],
    params: &SamplingParams,
    rng: &mut StdRng,
) -> usize {
    assert!(!logits.is_empty(), "empty logits");
    let mut work: Vec<f32> = logits.to_vec();

    // Repetition penalty (CTRL-style): shrink positive logits, grow
    // negative ones for seen tokens.
    if params.repetition_penalty != 1.0 {
        for &t in history {
            if let Some(v) = work.get_mut(t) {
                *v = if *v > 0.0 {
                    *v / params.repetition_penalty
                } else {
                    *v * params.repetition_penalty
                };
            }
        }
    }

    if params.temperature <= 0.0 {
        return argmax(&work);
    }
    for v in work.iter_mut() {
        *v /= params.temperature;
    }

    // Rank tokens by logit.
    let mut order: Vec<usize> = (0..work.len()).collect();
    order.sort_by(|&a, &b| work[b].total_cmp(&work[a]));

    // Top-k cut.
    let k = if params.top_k == 0 {
        work.len()
    } else {
        params.top_k.min(work.len())
    };
    let mut kept = &order[..k];

    // Top-p (nucleus) cut over the kept set.
    let mut probs: Vec<f32> = kept.iter().map(|&i| work[i]).collect();
    softmax(&mut probs);
    if params.top_p < 1.0 {
        let mut cum = 0.0;
        let mut cut = probs.len();
        for (i, p) in probs.iter().enumerate() {
            cum += p;
            if cum >= params.top_p {
                cut = i + 1;
                break;
            }
        }
        kept = &kept[..cut];
        probs.truncate(cut);
        let total: f32 = probs.iter().sum();
        for p in probs.iter_mut() {
            *p /= total;
        }
    }

    // Inverse-CDF draw.
    let u: f64 = rng.random();
    let mut acc = 0.0f64;
    for (i, &p) in probs.iter().enumerate() {
        acc += f64::from(p);
        if u < acc {
            return kept[i];
        }
    }
    kept[kept.len() - 1]
}

/// Generate with full sampling controls; returns only new tokens.
#[must_use]
pub fn generate_with(
    model: &TinyModel,
    prompt: &[usize],
    max_new: usize,
    params: &SamplingParams,
) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut cache = model.new_cache();
    let mut logits = vec![0.0; model.config.vocab];
    for &t in prompt {
        logits = model.forward(t, &mut cache);
    }
    let mut out = Vec::with_capacity(max_new);
    for _ in 0..max_new {
        let next = sample_next(&logits, &out, params, &mut rng);
        out.push(next);
        if cache.len >= model.config.max_seq {
            break;
        }
        logits = model.forward(next, &mut cache);
    }
    out
}

/// Generate continuations for several prompts (each with its own KV
/// cache), like a static-batched serving step. Returns one output
/// sequence per prompt.
///
/// Prompts prefill through `forward_chunk` and the lockstep decode
/// advances all live sequences with one `forward_batch` per step, so
/// model weights stream from memory once per step instead of once per
/// sequence — the amortization `cllm-perf` prices for batched decode.
/// Results are bit-identical to per-sequence decoding (the batched
/// kernels share the per-row reduction order), and the RNG draw order
/// matches the previous per-sequence loop exactly.
#[must_use]
pub fn generate_batch(
    model: &TinyModel,
    prompts: &[Vec<usize>],
    max_new: usize,
    params: &SamplingParams,
) -> Vec<Vec<usize>> {
    let mut caches: Vec<KvCache> = Vec::with_capacity(prompts.len());
    let mut logits: Vec<Vec<f32>> = Vec::with_capacity(prompts.len());
    let mut outs: Vec<Vec<usize>> = Vec::with_capacity(prompts.len());
    for prompt in prompts {
        let mut cache = model.new_cache();
        let l = if prompt.is_empty() {
            vec![0.0; model.config.vocab]
        } else {
            let rows = model.forward_chunk(prompt, &mut cache);
            rows.row(prompt.len() - 1).to_vec()
        };
        caches.push(cache);
        logits.push(l);
        outs.push(Vec::with_capacity(max_new));
    }
    let mut rng = StdRng::seed_from_u64(params.seed);
    for _ in 0..max_new {
        // Sample every live sequence first — sequence order fixes the RNG
        // draw order — then advance them all in one batched forward.
        let mut live: Vec<usize> = Vec::with_capacity(prompts.len());
        let mut step: Vec<usize> = Vec::with_capacity(prompts.len());
        for i in 0..prompts.len() {
            if caches[i].len >= model.config.max_seq {
                continue;
            }
            let next = sample_next(&logits[i], &outs[i], params, &mut rng);
            outs[i].push(next);
            live.push(i);
            step.push(next);
        }
        if live.is_empty() {
            break;
        }
        // The live sequences are exactly those whose caches have room.
        let mut gathered: Vec<&mut KvCache> = caches
            .iter_mut()
            .filter(|c| c.len < model.config.max_seq)
            .collect();
        let rows = model.forward_batch(&step, &mut gathered);
        for (slot, &i) in live.iter().enumerate() {
            logits[i] = rows.row(slot).to_vec();
        }
    }
    outs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TinyConfig;

    fn model() -> TinyModel {
        TinyModel::init(&TinyConfig::test_small(), 77)
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn greedy_matches_argmax() {
        let logits = vec![0.1, 2.0, -1.0, 0.5];
        let t = sample_next(&logits, &[], &SamplingParams::greedy(), &mut rng());
        assert_eq!(t, 1);
    }

    #[test]
    fn top_k_restricts_support() {
        let logits = vec![5.0, 4.0, -10.0, -10.0];
        let params = SamplingParams {
            top_k: 2,
            temperature: 2.0,
            ..SamplingParams::default()
        };
        let mut r = rng();
        for _ in 0..100 {
            let t = sample_next(&logits, &[], &params, &mut r);
            assert!(t < 2, "token {t} outside top-2");
        }
    }

    #[test]
    fn top_p_restricts_support() {
        // One dominant token (p > 0.9): nucleus with p=0.5 keeps only it.
        let logits = vec![10.0, 0.0, 0.0, 0.0];
        let params = SamplingParams {
            top_p: 0.5,
            ..SamplingParams::default()
        };
        let mut r = rng();
        for _ in 0..50 {
            assert_eq!(sample_next(&logits, &[], &params, &mut r), 0);
        }
    }

    #[test]
    fn repetition_penalty_discourages_loops() {
        let logits = vec![3.0, 2.9, 0.0];
        // Token 0 was just emitted; a strong penalty should flip the
        // greedy choice to token 1.
        let params = SamplingParams {
            temperature: 0.0,
            repetition_penalty: 2.0,
            ..SamplingParams::default()
        };
        let t = sample_next(&logits, &[0], &params, &mut rng());
        assert_eq!(t, 1);
    }

    #[test]
    fn generate_with_deterministic_per_seed() {
        let m = model();
        let p = SamplingParams {
            temperature: 1.2,
            top_k: 40,
            top_p: 0.95,
            repetition_penalty: 1.1,
            seed: 9,
        };
        assert_eq!(
            generate_with(&m, &[1, 2], 12, &p),
            generate_with(&m, &[1, 2], 12, &p)
        );
    }

    #[test]
    fn batch_matches_shapes() {
        let m = model();
        let prompts = vec![vec![1usize, 2], vec![3, 4, 5], vec![6]];
        let outs = generate_batch(&m, &prompts, 6, &SamplingParams::greedy());
        assert_eq!(outs.len(), 3);
        assert!(outs.iter().all(|o| o.len() == 6));
    }

    #[test]
    fn batch_greedy_matches_individual_greedy() {
        // With greedy decoding, batching must not change results.
        let m = model();
        let prompts = vec![vec![1usize, 2], vec![9, 8]];
        let batched = generate_batch(&m, &prompts, 5, &SamplingParams::greedy());
        for (prompt, expect) in prompts.iter().zip(&batched) {
            let solo = generate_with(&m, prompt, 5, &SamplingParams::greedy());
            assert_eq!(&solo, expect);
        }
    }

    #[test]
    fn batch_drops_full_sequences_and_keeps_the_rest_exact() {
        // The long prompt fills its cache after three tokens; the others
        // must decode on exactly as they do alone.
        let m = model();
        let long: Vec<usize> = (0..m.config.max_seq - 3).map(|i| i % 200).collect();
        let prompts = vec![vec![1usize, 2], long, vec![9]];
        let greedy = SamplingParams::greedy();
        let batched = generate_batch(&m, &prompts, 8, &greedy);
        assert_eq!(batched.iter().map(Vec::len).collect::<Vec<_>>(), [8, 3, 8]);
        for (prompt, out) in prompts.iter().zip(&batched) {
            let alone = generate_batch(&m, std::slice::from_ref(prompt), 8, &greedy);
            assert_eq!(&alone[0], out);
        }
    }

    #[test]
    fn nan_logits_rank_without_panicking() {
        // A NaN logit, or a NaN temperature that makes every logit NaN,
        // still yields an in-vocabulary token, the same one every time.
        let logits = [0.5, f32::NAN, -1.0, 2.0];
        let nan_temperature = SamplingParams {
            temperature: f32::NAN,
            ..SamplingParams::default()
        };
        for params in [
            SamplingParams::default(),
            SamplingParams {
                top_k: 2,
                top_p: 0.9,
                ..SamplingParams::default()
            },
            nan_temperature,
        ] {
            let t = sample_next(&logits, &[], &params, &mut rng());
            assert!(t < logits.len(), "{params:?}");
            assert_eq!(sample_next(&logits, &[], &params, &mut rng()), t);
        }
    }

    #[test]
    #[should_panic(expected = "empty logits")]
    fn empty_logits_are_rejected() {
        let _ = sample_next(&[], &[], &SamplingParams::default(), &mut rng());
    }

    #[test]
    fn max_seq_respected() {
        let m = model();
        let long_prompt: Vec<usize> = (0..120).map(|i| i % 200).collect();
        let out = generate_with(&m, &long_prompt, 50, &SamplingParams::greedy());
        assert!(long_prompt.len() + out.len() <= m.config.max_seq + 1);
    }
}
