//! Property-based equivalence suite for the `cllm-infer` kernels.
//!
//! The fast paths (`gemv_tiled`, `gemm`, the fused quantized dots) are
//! only allowed to exist because they are provably interchangeable with
//! the slow reference paths. This suite pins those contracts over
//! randomized shapes — including the awkward ones: row counts that do
//! not fill a [`PANEL`] (or a tile of panels), single elements, and
//! ragged quantization groups.
//!
//! * tiled ≡ naive GEMV within `1e-5` relative error (fused instead of
//!   separately rounded products, same value up to f32 rounding);
//! * `gemm` ≡ per-row `gemv_tiled` **bit-identical** (every output is
//!   the same FMA chain however the batch is tiled, so batching must not
//!   change a single ULP);
//! * quantization round-trips inside its analytical error bound
//!   (`max|group|/254` for int8, `max|group|/14` for int4) and the
//!   fused dot matches the dequantize-then-multiply reference;
//! * `rmsnorm` / `softmax` / `rope` satisfy their defining invariants;
//! * the vectorizable `exp` stays within 2 ulp of libm's `f32::exp`
//!   wherever that is a normal float, on a sweep of over 10^6 inputs
//!   across every binade, and keeps its special values (0 at −∞, +∞ on
//!   overflow, NaN for NaN);
//! * the RoPE angle tables a forward computes once per position rotate
//!   **bit-identically** to the per-token definition (each pair's own
//!   `powf` and `sin_cos`).

use cllm_infer::kernels::{
    argmax, exp, gemm, gemv, gemv_tiled, rmsnorm, rope, rope_angles, rope_rotate, softmax,
    PanelMatrix, PANEL,
};
use cllm_infer::quant::{Quant4Matrix, QuantMatrix, GROUP};
use cllm_infer::tensor::Matrix;
use proptest::prelude::*;

/// Deterministic pseudo-random values in roughly `[-4, 4]` from an LCG,
/// so a `(dims, seed)` pair fully describes a failing case.
fn lcg_values(n: usize, seed: u32) -> Vec<f32> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            #[allow(clippy::cast_precision_loss)]
            let unit = f64::from(state >> 8) / f64::from(1u32 << 24);
            #[allow(clippy::cast_possible_truncation)]
            {
                (unit * 8.0 - 4.0) as f32
            }
        })
        .collect()
}

fn lcg_matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
    Matrix::from_vec(rows, cols, lcg_values(rows * cols, seed))
}

/// Column counts that stress the quantized kernels: tiny, one element
/// short of / exactly / one past one and two quantization groups (odd
/// counts end mid-byte for int4), and generic sizes.
fn cols_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..5,
        (GROUP - 2)..(GROUP + 3),
        (2 * GROUP - 2)..(2 * GROUP + 3),
        1usize..200,
    ]
}

/// Row counts within one [`PANEL`] (and one past it), plus counts
/// spanning several panels: full and ragged tiles of four panels.
fn rows_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..=PANEL + 1, 1usize..=5 * PANEL + 1]
}

proptest! {
    #[test]
    fn tiled_gemv_matches_naive_within_1e5(rows in rows_strategy(),
                                           cols in cols_strategy(),
                                           seed in any::<u32>()) {
        let w = lcg_matrix(rows, cols, seed);
        let x = lcg_values(cols, seed.wrapping_add(1));
        let mut fast = vec![0.0f32; rows];
        let mut slow = vec![0.0f32; rows];
        gemv_tiled(&x, &PanelMatrix::pack(&w), &mut fast);
        gemv(&x, &w, &mut slow);
        for (r, (f, s)) in fast.iter().zip(&slow).enumerate() {
            // Rounding error of either summation order is bounded by the
            // magnitude of the terms, not of the (possibly cancelling)
            // result — so that's the right scale for "1e-5 relative".
            let scale: f32 = x
                .iter()
                .zip(w.row(r))
                .map(|(a, b)| (a * b).abs())
                .sum::<f32>()
                .max(1.0);
            prop_assert!(
                (f - s).abs() / scale <= 1e-5,
                "row {r}: tiled {f} vs naive {s} ({rows}x{cols}, seed {seed})"
            );
        }
    }

    #[test]
    fn gemm_is_bit_identical_to_tiled_gemv_per_row(batch in 1usize..6,
                                                   rows in rows_strategy(),
                                                   cols in cols_strategy(),
                                                   seed in any::<u32>()) {
        let w = PanelMatrix::pack(&lcg_matrix(rows, cols, seed));
        let xs = lcg_matrix(batch, cols, seed.wrapping_add(7));
        let mut batched = Matrix::zeros(batch, rows);
        gemm(&xs, &w, &mut batched);
        for b in 0..batch {
            let mut single = vec![0.0f32; rows];
            gemv_tiled(xs.row(b), &w, &mut single);
            for (r, (got, want)) in batched.row(b).iter().zip(&single).enumerate() {
                prop_assert_eq!(
                    got.to_bits(), want.to_bits(),
                    "batch {} row {}: gemm {} != gemv_tiled {} ({}x{}, seed {})",
                    b, r, got, want, rows, cols, seed
                );
            }
        }
    }

    #[test]
    fn int8_roundtrip_stays_inside_the_group_error_bound(rows in rows_strategy(),
                                                         cols in cols_strategy(),
                                                         seed in any::<u32>()) {
        let m = lcg_matrix(rows, cols, seed);
        let q = QuantMatrix::quantize(&m);
        let back = q.dequantize();
        for r in 0..rows {
            let row = m.row(r);
            for g in 0..cols.div_ceil(GROUP) {
                let start = g * GROUP;
                let end = (start + GROUP).min(cols);
                let max = row[start..end].iter().fold(0.0f32, |a, v| a.max(v.abs()));
                // Round-to-nearest against scale max/127 errs by at most
                // half a step; a hair of f32 slack on the divide/multiply.
                let bound = max / 254.0 + 1e-6;
                for c in start..end {
                    let err = (back.get(r, c) - m.get(r, c)).abs();
                    prop_assert!(
                        err <= bound,
                        "int8 ({r},{c}): err {err} > bound {bound} ({rows}x{cols}, seed {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn int4_roundtrip_stays_inside_the_group_error_bound(rows in rows_strategy(),
                                                         cols in cols_strategy(),
                                                         seed in any::<u32>()) {
        let m = lcg_matrix(rows, cols, seed);
        let q = Quant4Matrix::quantize(&m);
        let back = q.dequantize();
        for r in 0..rows {
            let row = m.row(r);
            for g in 0..cols.div_ceil(GROUP) {
                let start = g * GROUP;
                let end = (start + GROUP).min(cols);
                let max = row[start..end].iter().fold(0.0f32, |a, v| a.max(v.abs()));
                let bound = max / 14.0 + 1e-6;
                for c in start..end {
                    let err = (back.get(r, c) - m.get(r, c)).abs();
                    prop_assert!(
                        err <= bound,
                        "int4 ({r},{c}): err {err} > bound {bound} ({rows}x{cols}, seed {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_quant_dot_matches_dequantized_reference(rows in rows_strategy(),
                                                     cols in cols_strategy(),
                                                     seed in any::<u32>()) {
        let m = lcg_matrix(rows, cols, seed);
        let x = lcg_values(cols, seed.wrapping_add(3));
        let q8 = QuantMatrix::quantize(&m);
        let q4 = Quant4Matrix::quantize(&m);
        for (label, q_out, reference) in [
            ("int8", {
                let mut out = vec![0.0f32; rows];
                q8.gemv(&x, &mut out);
                out
            }, q8.dequantize()),
            ("int4", {
                let mut out = vec![0.0f32; rows];
                q4.gemv(&x, &mut out);
                out
            }, q4.dequantize()),
        ] {
            // The fused kernel folds the scale per product; the reference
            // materializes f32 weights then dots. Same value up to f32
            // accumulation-order rounding.
            let mut want = vec![0.0f32; rows];
            gemv_tiled(&x, &PanelMatrix::pack(&reference), &mut want);
            for (r, (got, w)) in q_out.iter().zip(&want).enumerate() {
                let denom = w.abs().max(1.0);
                prop_assert!(
                    (got - w).abs() / denom <= 1e-4,
                    "{label} row {r}: fused {got} vs reference {w} ({rows}x{cols}, seed {seed})"
                );
            }
        }
    }

    #[test]
    fn quant_storage_is_exact_and_beats_f32(rows in rows_strategy(),
                                            cols in cols_strategy(),
                                            seed in any::<u32>()) {
        let m = lcg_matrix(rows, cols, seed);
        let groups = cols.div_ceil(GROUP).max(1);
        let q8 = QuantMatrix::quantize(&m);
        let q4 = Quant4Matrix::quantize(&m);
        prop_assert_eq!(q8.storage_bytes(), rows * cols + rows * groups * 4);
        prop_assert_eq!(q4.storage_bytes(), rows * cols.div_ceil(2) + rows * groups * 4);
        // For real weight shapes (>= one full group per row) the scale
        // overhead is small and the compression must materialize.
        if cols >= GROUP {
            let f32_bytes = rows * cols * 4;
            prop_assert!(q8.storage_bytes() * 3 < f32_bytes);
            prop_assert!(q4.storage_bytes() * 2 < q8.storage_bytes() * 3);
        }
    }

    #[test]
    fn softmax_is_a_distribution_and_preserves_order(n in 1usize..80,
                                                     seed in any::<u32>()) {
        let logits = lcg_values(n, seed);
        let mut probs = logits.clone();
        softmax(&mut probs);
        let sum: f32 = probs.iter().sum();
        prop_assert!((sum - 1.0).abs() <= 1e-4, "sum {sum}");
        for (i, p) in probs.iter().enumerate() {
            prop_assert!((0.0..=1.0).contains(p), "p[{i}] = {p}");
        }
        // exp is strictly monotone, so every pairwise order survives.
        for i in 0..n {
            for j in (i + 1)..n {
                prop_assert_eq!(
                    logits[i] > logits[j],
                    probs[i] > probs[j],
                    "order flip at ({}, {})", i, j
                );
            }
        }
        prop_assert_eq!(argmax(&logits), argmax(&probs));
    }

    #[test]
    fn rmsnorm_matches_its_f64_definition(n in 1usize..80, seed in any::<u32>()) {
        let x = lcg_values(n, seed);
        let gain = lcg_values(n, seed.wrapping_add(9));
        let eps = 1e-5f32;
        let mut got = x.clone();
        rmsnorm(&mut got, &gain, eps);
        #[allow(clippy::cast_precision_loss)]
        let ms: f64 = x.iter().map(|v| f64::from(*v) * f64::from(*v)).sum::<f64>() / n as f64;
        let inv = 1.0 / (ms + f64::from(eps)).sqrt();
        for i in 0..n {
            #[allow(clippy::cast_possible_truncation)]
            let want = (f64::from(x[i]) * inv * f64::from(gain[i])) as f32;
            prop_assert!(
                (got[i] - want).abs() <= want.abs().max(1.0) * 1e-5,
                "rmsnorm[{i}]: {} vs {want}", got[i]
            );
        }
    }

    #[test]
    fn rope_preserves_norm_and_is_identity_at_pos_zero(half in 1usize..16,
                                                       pos in 0usize..512,
                                                       seed in any::<u32>()) {
        let d = half * 2;
        let original = lcg_values(d, seed);

        let mut at_zero = original.clone();
        rope(&mut at_zero, 0, 10000.0);
        // angle = 0 for every pair: cos 1, sin 0, bit-exact identity.
        prop_assert_eq!(&at_zero, &original);

        let mut rotated = original.clone();
        rope(&mut rotated, pos, 10000.0);
        // A rotation preserves each pair's (and hence the head's) norm.
        for i in 0..half {
            let before = f64::from(original[2 * i]).hypot(f64::from(original[2 * i + 1]));
            let after = f64::from(rotated[2 * i]).hypot(f64::from(rotated[2 * i + 1]));
            prop_assert!(
                (before - after).abs() <= before.max(1.0) * 1e-5,
                "pair {i}: |before| {before} vs |after| {after} (pos {pos})"
            );
        }
    }

    #[test]
    fn rope_tables_rotate_bit_identically_to_the_per_token_definition(
        half in 1usize..40,
        pos in 0usize..4096,
        seed in any::<u32>(),
    ) {
        let d = 2 * half;
        let head = lcg_values(d, seed);
        let mut want = head.clone();
        for i in (0..d).step_by(2) {
            #[allow(clippy::cast_precision_loss)]
            let freq = 1.0 / 10000f32.powf(i as f32 / d as f32);
            #[allow(clippy::cast_precision_loss)]
            let (sin, cos) = (pos as f32 * freq).sin_cos();
            let (a, b) = (want[i], want[i + 1]);
            want[i] = a * cos - b * sin;
            want[i + 1] = a * sin + b * cos;
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        // This position's slice of a table over several positions.
        let table = rope_angles([pos + 1, pos, 0], d, 10000.0);
        let mut from_table = head.clone();
        rope_rotate(&mut from_table, &table[half..2 * half]);
        prop_assert_eq!(bits(&from_table), bits(&want));

        let mut single = head;
        rope(&mut single, pos, 10000.0);
        prop_assert_eq!(bits(&single), bits(&want));
    }
}

/// `exp` against libm on every 509th f32 bit pattern (both signs, every
/// binade): where `f32::exp` returns a normal float the two differ by at
/// most 2 ulp.
#[test]
fn exp_is_within_two_ulp_of_libm() {
    let mut checked = 0u32;
    for bits in (0..=u32::MAX).step_by(509) {
        let x = f32::from_bits(bits);
        let want = x.exp();
        if !want.is_normal() {
            continue;
        }
        let got = exp(x);
        let ulps = (i64::from(got.to_bits()) - i64::from(want.to_bits())).abs();
        assert!(ulps <= 2, "exp({x:e}) = {got:e}, libm {want:e}: {ulps} ulp");
        checked += 1;
    }
    assert!(checked > 1_000_000, "only {checked} inputs swept");
}

#[test]
fn exp_keeps_its_special_values() {
    assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0);
    assert_eq!(exp(-1e4).to_bits(), 0);
    assert_eq!(exp(f32::INFINITY), f32::INFINITY);
    for x in [88.73, 89.0, 100.0, 1e30] {
        assert_eq!(exp(x), f32::INFINITY, "exp({x}) must overflow like libm");
    }
    assert!(exp(f32::NAN).is_nan());
    assert!(exp(-f32::NAN).is_nan());
    assert_eq!(exp(0.0), 1.0);
    assert_eq!(exp(-0.0), 1.0);
}

/// Deterministic edge cases the strategies above could only hit by
/// luck: exact panel/tile/group boundaries and degenerate one-element
/// shapes.
#[test]
fn exact_boundary_shapes_agree_across_all_gemv_paths() {
    for (rows, cols) in [
        (1, 1),
        (PANEL, GROUP),
        (PANEL + 1, GROUP + 1),
        (PANEL - 1, GROUP - 1),
        (4 * PANEL, 2 * GROUP),
        (4 * PANEL + 1, GROUP + GROUP / 2),
    ] {
        let w = lcg_matrix(rows, cols, 42);
        let x = lcg_values(cols, 43);
        let mut fast = vec![0.0f32; rows];
        let mut slow = vec![0.0f32; rows];
        gemv_tiled(&x, &PanelMatrix::pack(&w), &mut fast);
        gemv(&x, &w, &mut slow);
        for (f, s) in fast.iter().zip(&slow) {
            assert!(
                (f - s).abs() / s.abs().max(1.0) <= 1e-5,
                "{rows}x{cols}: {f} vs {s}"
            );
        }
    }
}

#[test]
fn all_zero_group_quantizes_and_reconstructs_exactly() {
    // The zero group takes the scale-1.0 fallback; every code is 0 and
    // the round-trip is exact, not merely inside the bound.
    let m = Matrix::zeros(2, GROUP + 3);
    let q8 = QuantMatrix::quantize(&m);
    let q4 = Quant4Matrix::quantize(&m);
    assert_eq!(q8.dequantize().as_slice(), m.as_slice());
    assert_eq!(q4.dequantize().as_slice(), m.as_slice());
}
