//! Decoder shapes that fill neither a weight panel nor a K block.
//!
//! The panel kernels pad the last panel of every weight matrix to
//! [`PANEL`] rows and the KV cache stores keys in blocks of [`PANEL`]
//! positions. This suite draws model configs whose hidden size, kv
//! width, intermediate size and vocabulary are all *not* multiples of
//! [`PANEL`], and pins, for f32, int8 and int4 weights:
//!
//! * `forward`, `forward_chunk` and `forward_batch` agree bit for bit,
//!   over sequences longer than one attention tile of 4 K blocks;
//! * `KvCache::truncate` rolls back exactly at `PANEL - 1`, `PANEL`,
//!   `PANEL + 1` and `4 * PANEL + 1` cached tokens: the cache serializes
//!   as if built to that length, and decoding continues with identical
//!   logits.

use cllm_infer::kernels::PANEL;
use cllm_infer::model::{KvCache, TinyConfig, TinyModel};
use proptest::prelude::*;

const LEN: usize = 4 * PANEL + 4;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ragged_shapes_decode_identically_on_every_path(heads in 1usize..=4,
                                                      kv_pick in 0usize..4,
                                                      half_head in 1usize..=12,
                                                      intermediate in 1usize..80,
                                                      vocab in 17usize..100,
                                                      layers in 1usize..=2,
                                                      split in 1usize..LEN,
                                                      seed in any::<u64>()) {
        let divisors: Vec<usize> = (1..=heads).filter(|d| heads % d == 0).collect();
        let kv_heads = divisors[kv_pick % divisors.len()];
        let config = TinyConfig {
            hidden: heads * 2 * half_head,
            layers,
            heads,
            kv_heads,
            intermediate,
            vocab,
            max_seq: LEN + 1,
            rope_theta: 10000.0,
            eps: 1e-5,
        };
        prop_assume!([config.hidden, config.kv_dim(), intermediate, vocab]
            .iter()
            .all(|d| d % PANEL != 0));
        #[allow(clippy::cast_possible_truncation)]
        let tokens: Vec<usize> = (0..LEN)
            .map(|i| (seed.wrapping_mul(i as u64 + 1) >> 17) as usize % vocab)
            .collect();
        let f32_model = TinyModel::init(&config, seed);
        for m in [f32_model.quantized(), f32_model.quantized4(), f32_model] {
            // Reference: one token at a time.
            let mut full = m.new_cache();
            let single: Vec<Vec<u32>> = tokens.iter().map(|&t| bits(&m.forward(t, &mut full))).collect();

            // Two chunks, split anywhere.
            let mut chunked = m.new_cache();
            let head = m.forward_chunk(&tokens[..split], &mut chunked);
            let tail = m.forward_chunk(&tokens[split..], &mut chunked);
            for (i, want) in single.iter().enumerate() {
                let row = if i < split { head.row(i) } else { tail.row(i - split) };
                prop_assert_eq!(&bits(row), want, "{:?}: chunk row {}", config, i);
            }
            prop_assert_eq!(chunked.to_bytes(), full.to_bytes());

            // Sequences around a K block boundary and past a full tile of
            // 4 K blocks, one step together.
            let lens = [PANEL - 1, PANEL, PANEL + 1, 4 * PANEL + 1];
            let mut caches: Vec<KvCache> = lens
                .iter()
                .map(|&n| {
                    let mut c = m.new_cache();
                    let _ = m.forward_chunk(&tokens[..n], &mut c);
                    c
                })
                .collect();
            let prefixes = caches.clone();
            let step: Vec<usize> = lens.iter().map(|&n| tokens[n]).collect();
            let batched = m.forward_batch(&step, &mut caches);
            for (b, &n) in lens.iter().enumerate() {
                prop_assert_eq!(&bits(batched.row(b)), &single[n], "{:?}: batch row {}", config, b);
            }

            // Roll back to each length and continue.
            for (&n, reference) in lens.iter().zip(&prefixes) {
                let mut rolled = full.clone();
                rolled.truncate(n);
                prop_assert_eq!(rolled.to_bytes(), reference.to_bytes(), "{:?}: truncate({})", config, n);
                prop_assert_eq!(rolled.bytes(), reference.bytes());
                prop_assert_eq!(&bits(&m.forward(tokens[n], &mut rolled)), &single[n]);
            }
        }
    }
}
