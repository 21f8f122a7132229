//! `forward_chunk` against a plain scalar decoder written here from the
//! definitions.
//!
//! The other suites check that the engine's forwards agree with one
//! another, so an attention kernel wrong the same way on every path
//! would pass them. This one decodes with none of the engine's kernels:
//! the row-major weights of `TinyModel::naive`, one score loop per head
//! and key, an `f32::exp` softmax and a value sum per position. Configs
//! cover GQA groups of 1, 2 and 4 and head dims that are not multiples
//! of 16; prompt lengths 1, 15, 16, 17, 64 and 69 run single key blocks,
//! whole 4-block key tiles and their remainders.

use cllm_infer::model::{Linear, TinyConfig, TinyModel};
use cllm_infer::tensor::Matrix;
use proptest::prelude::*;

const LENGTHS: [usize; 6] = [1, 15, 16, 17, 64, 69];

fn weights(linear: &Linear) -> &Matrix {
    match linear {
        Linear::NaiveF32(m) => m,
        other => panic!("naive() keeps full-precision layers row-major, got {other:?}"),
    }
}

fn matvec(w: &Matrix, x: &[f32]) -> Vec<f32> {
    (0..w.rows)
        .map(|r| w.row(r).iter().zip(x).map(|(a, b)| a * b).sum())
        .collect()
}

fn rmsnorm(x: &[f32], gain: &[f32], eps: f32) -> Vec<f32> {
    #[allow(clippy::cast_precision_loss)]
    let ms = x.iter().map(|v| v * v).sum::<f32>() / x.len() as f32;
    let inv = 1.0 / (ms + eps).sqrt();
    x.iter().zip(gain).map(|(v, g)| v * inv * g).collect()
}

/// Rotate every `head_dim`-wide head of `x` to position `pos`.
fn rope(x: &mut [f32], head_dim: usize, pos: usize, theta: f32) {
    for head in x.chunks_mut(head_dim) {
        for i in (0..head_dim).step_by(2) {
            #[allow(clippy::cast_precision_loss)]
            let angle = pos as f32 / theta.powf(i as f32 / head_dim as f32);
            let (a, b) = (head[i], head[i + 1]);
            head[i] = a * angle.cos() - b * angle.sin();
            head[i + 1] = a * angle.sin() + b * angle.cos();
        }
    }
}

/// Next-token logits after each prefix of `tokens`.
fn reference_logits(model: &TinyModel, tokens: &[usize]) -> Vec<Vec<f32>> {
    let cfg = &model.config;
    let hd = cfg.head_dim();
    let group = cfg.heads / cfg.kv_heads;
    #[allow(clippy::cast_precision_loss)]
    let sqrt_d = (hd as f32).sqrt();
    let mut xs: Vec<Vec<f32>> = tokens
        .iter()
        .map(|&t| model.embed.row(t).to_vec())
        .collect();
    for block in &model.blocks {
        let mut qs = Vec::new();
        let mut ks = Vec::new();
        let mut vs = Vec::new();
        for (pos, x) in xs.iter().enumerate() {
            let normed = rmsnorm(x, &block.input_norm, cfg.eps);
            let mut q = matvec(weights(&block.wq), &normed);
            let mut k = matvec(weights(&block.wk), &normed);
            rope(&mut q, hd, pos, cfg.rope_theta);
            rope(&mut k, hd, pos, cfg.rope_theta);
            qs.push(q);
            ks.push(k);
            vs.push(matvec(weights(&block.wv), &normed));
        }
        for (pos, x) in xs.iter_mut().enumerate() {
            let mut attn = vec![0.0f32; cfg.hidden];
            for head in 0..cfg.heads {
                let q = &qs[pos][head * hd..][..hd];
                let kv = (head / group) * hd;
                let scores: Vec<f32> = (0..=pos)
                    .map(|t| {
                        let k = &ks[t][kv..][..hd];
                        q.iter().zip(k).map(|(a, b)| a * b).sum::<f32>() / sqrt_d
                    })
                    .collect();
                let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let weights: Vec<f32> = scores.iter().map(|s| (s - max).exp()).collect();
                let sum: f32 = weights.iter().sum();
                for (t, w) in weights.iter().enumerate() {
                    for j in 0..hd {
                        attn[head * hd + j] += w / sum * vs[t][kv + j];
                    }
                }
            }
            for (xi, p) in x.iter_mut().zip(matvec(weights(&block.wo), &attn)) {
                *xi += p;
            }
            let normed = rmsnorm(x, &block.post_norm, cfg.eps);
            let up = matvec(weights(&block.w_up), &normed);
            let hidden: Vec<f32> = matvec(weights(&block.w_gate), &normed)
                .iter()
                .zip(&up)
                .map(|(g, u)| g / (1.0 + (-g).exp()) * u)
                .collect();
            for (xi, d) in x.iter_mut().zip(matvec(weights(&block.w_down), &hidden)) {
                *xi += d;
            }
        }
    }
    xs.iter()
        .map(|x| {
            matvec(
                weights(&model.lm_head),
                &rmsnorm(x, &model.final_norm, cfg.eps),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn chunked_forward_matches_a_scalar_reference_decoder(
        kv_pick in 1usize..=2,
        head_dim in prop_oneof![Just(6usize), Just(20), Just(32), Just(40), Just(72)],
        intermediate in 8usize..80,
        vocab in 20usize..80,
        seed in any::<u64>(),
    ) {
        for group in [1, 2, 4] {
            // Two KV heads where that keeps the model small.
            let kv_heads = if group * head_dim * kv_pick <= 160 { kv_pick } else { 1 };
            let heads = group * kv_heads;
            let config = TinyConfig {
                hidden: heads * head_dim,
                layers: 2,
                heads,
                kv_heads,
                intermediate,
                vocab,
                max_seq: 80,
                rope_theta: 10000.0,
                eps: 1e-5,
            };
            let model = TinyModel::init(&config, seed);
            #[allow(clippy::cast_possible_truncation)]
            let tokens: Vec<usize> = (0..LENGTHS[5])
                .map(|i| (seed.wrapping_mul(i as u64 * 2 + 1) >> 21) as usize % vocab)
                .collect();
            let want = reference_logits(&model.naive(), &tokens);
            for len in LENGTHS {
                let mut cache = model.new_cache();
                let got = model.forward_chunk(&tokens[..len], &mut cache);
                for (i, want) in want[..len].iter().enumerate() {
                    // Relative to the row's largest logit: the two decoders
                    // round differently, and a logit near zero has no
                    // relative precision of its own.
                    let scale = want.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                    for (j, (g, w)) in got.row(i).iter().zip(want).enumerate() {
                        prop_assert!(
                            (g - w).abs() <= 1e-4 * scale,
                            "{:?}: prompt {} row {} logit {}: engine {} vs reference {}",
                            config, len, i, j, g, w
                        );
                    }
                }
            }
        }
    }
}
