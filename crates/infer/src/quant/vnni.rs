//! The quantized panels on AVX-512 VNNI integer dot products: the path
//! [`Quantized`] matrices take wherever the CPU has them.
//!
//! The crate's only `unsafe` lives here. Every routine that uses the
//! instructions is compiled with `#[target_feature(enable = ...)]` and is
//! reached only through a [`Vnni`] token, which [`Vnni::detect`] builds
//! only after `is_x86_feature_detected!` confirmed AVX-512 F, BW and
//! VNNI on the running CPU. `Quantized::quantize` detects once and keeps
//! the token; the rest of the crate calls its safe [`Vnni::matmul`].
//!
//! A tile of `R` input rows × `P` panels runs group by group. Per block
//! of each panel, one 64-byte load unpacks to two operands of 16 lanes ×
//! 4 bytes (int4: the low and the high nibbles; int8: the low and the
//! high bytes of each 16-bit word, sign-extended), and each input row
//! adds both to its int32 sums with one dot-product instruction each,
//! against a broadcast word of its activation codes: `vpdpbusd` (unsigned
//! nibbles × signed 8-bit codes) or `vpdpwssd` (16 × 16-bit). At the end
//! of a group every sum takes its bias correction and one f32 step, as
//! the portable kernel's does. Decode and pairs of rows run 4 panels at
//! a time, 3 or more rows 2, so a tile's sums, f32 accumulators and
//! unpacked operands fit the 32 vector registers; a single row keeps its
//! two operands' sums apart, so 8 independent chains hide the
//! dot-product latency.

#![allow(unsafe_code)]

use super::{Acts, Block, Format, Quantized};
use crate::kernels::{Lanes, PANEL};
use std::arch::x86_64::{
    __m512, __m512i, _mm512_add_epi32, _mm512_and_si512, _mm512_cvtepi32_ps, _mm512_dpbusd_epi32,
    _mm512_dpwssd_epi32, _mm512_fmadd_ps, _mm512_load_si512, _mm512_loadu_ps,
    _mm512_mask_storeu_ps, _mm512_mul_ps, _mm512_set1_epi32, _mm512_set1_epi8, _mm512_set1_ps,
    _mm512_setzero_ps, _mm512_setzero_si512, _mm512_slli_epi16, _mm512_srai_epi16,
    _mm512_srli_epi16, _mm512_sub_epi32,
};

/// Proof that the running CPU has AVX-512 F, BW and VNNI: only
/// [`Vnni::detect`] builds one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Vnni(());

impl Vnni {
    /// The token, or `None` if the CPU lacks any of the features.
    pub(super) fn detect() -> Option<Self> {
        let detected = is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512vnni");
        detected.then_some(Vnni(()))
    }

    /// `out[b] = x[b] · w^T` for every input row of `x`.
    pub(super) fn matmul<F: Format>(self, w: &Quantized<F>, x: &Acts, out: &mut [f32]) {
        assert_eq!(out.len(), x.rows * w.rows, "matmul output dim");
        assert_eq!(x.groups, super::groups_of(w.cols), "matmul input dim");
        // SAFETY: a `Vnni` is only built by `detect`, after it detected
        // every feature `matmul` is compiled for.
        unsafe { matmul(w, x, out) }
    }
}

/// Every tile: bands of panels in the outer loop, 4, 2 or 1 wide, and
/// within a band the input rows 4 at a time, then the remainder as one
/// tile.
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
fn matmul<F: Format>(w: &Quantized<F>, x: &Acts, out: &mut [f32]) {
    let panels = w.rows.div_ceil(PANEL);
    let widest = if x.rows <= 2 { 4 } else { 2 };
    let mut first = 0;
    while first < panels {
        let band = if panels - first >= widest {
            widest
        } else if panels - first >= 2 {
            2
        } else {
            1
        };
        let mut row = 0;
        while row < x.rows {
            let rows = (x.rows - row).min(4);
            match (rows, band) {
                (1, 1) => tile::<F, 1, 1>(w, x, first, row, out),
                (1, 2) => tile::<F, 1, 2>(w, x, first, row, out),
                (1, 4) => tile::<F, 1, 4>(w, x, first, row, out),
                (2, 1) => tile::<F, 2, 1>(w, x, first, row, out),
                (2, 2) => tile::<F, 2, 2>(w, x, first, row, out),
                (2, 4) => tile::<F, 2, 4>(w, x, first, row, out),
                (3, 1) => tile::<F, 3, 1>(w, x, first, row, out),
                (3, 2) => tile::<F, 3, 2>(w, x, first, row, out),
                (4, 1) => tile::<F, 4, 1>(w, x, first, row, out),
                (4, 2) => tile::<F, 4, 2>(w, x, first, row, out),
                _ => unreachable!("4-panel bands run at most 2 rows"),
            }
            row += rows;
        }
        first += band;
    }
}

/// Panels `first..first + P` against input rows `row..row + R`, written
/// to the outputs those panels cover.
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
#[inline]
fn tile<F: Format, const R: usize, const P: usize>(
    w: &Quantized<F>,
    x: &Acts,
    first: usize,
    row: usize,
    out: &mut [f32],
) {
    let groups = x.groups;
    let blocks_per_group = Quantized::<F>::BLOCKS;
    let mut acc = [[_mm512_setzero_ps(); P]; R];
    for g in 0..groups {
        let mut blocks = [&w.blocks[..0]; P];
        for (i, b) in blocks.iter_mut().enumerate() {
            *b = &w.blocks[((first + i) * groups + g) * blocks_per_group..][..blocks_per_group];
        }
        let mut words: [&[[u8; 4]]; R] = [&[]; R];
        for (i, words) in words.iter_mut().enumerate() {
            *words = x.words::<F>(row + i, g);
        }
        // Sums against each block's first and second operand; apart
        // only for a single row, where the chains are few.
        let mut sums = [[_mm512_setzero_si512(); P]; R];
        let mut seconds = [[_mm512_setzero_si512(); P]; R];
        for b in 0..blocks_per_group {
            let mut operands = [(_mm512_setzero_si512(), _mm512_setzero_si512()); P];
            for (o, blocks) in operands.iter_mut().zip(&blocks) {
                *o = unpack::<F>(load(&blocks[b]));
            }
            for ((sums, seconds), words) in sums.iter_mut().zip(&mut seconds).zip(&words) {
                let (lo, hi) = (
                    _mm512_set1_epi32(i32::from_le_bytes(words[2 * b])),
                    _mm512_set1_epi32(i32::from_le_bytes(words[2 * b + 1])),
                );
                for ((sum, second), &(a, c)) in
                    sums.iter_mut().zip(seconds.iter_mut()).zip(&operands)
                {
                    *sum = dot::<F>(*sum, a, lo);
                    if R == 1 {
                        *second = dot::<F>(*second, c, hi);
                    } else {
                        *sum = dot::<F>(*sum, c, hi);
                    }
                }
            }
        }
        for (r, (acc, (sums, seconds))) in acc.iter_mut().zip(sums.iter().zip(&seconds)).enumerate()
        {
            let at = (row + r) * groups + g;
            let (s_x, bias) = (_mm512_set1_ps(x.scales[at]), _mm512_set1_epi32(x.bias[at]));
            for (i, (acc, (&sum, &second))) in
                acc.iter_mut().zip(sums.iter().zip(seconds)).enumerate()
            {
                let sum = _mm512_sub_epi32(_mm512_add_epi32(sum, second), bias);
                let scale = _mm512_mul_ps(load_lanes(&w.scales[(first + i) * groups + g]), s_x);
                *acc = _mm512_fmadd_ps(_mm512_cvtepi32_ps(sum), scale, *acc);
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        let out = &mut out[(row + r) * w.rows..][..w.rows];
        for (i, &acc) in acc.iter().enumerate() {
            let start = (first + i) * PANEL;
            store(&mut out[start..(start + PANEL).min(w.rows)], acc);
        }
    }
}

/// A block's two operands: the columns that pair with the first and
/// the second activation word (`Layout::bit`).
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
fn unpack<F: Format>(v: __m512i) -> (__m512i, __m512i) {
    if F::ACT_BITS == 8 {
        let nibble = _mm512_set1_epi8(0x0F);
        (
            _mm512_and_si512(v, nibble),
            _mm512_and_si512(_mm512_srli_epi16::<4>(v), nibble),
        )
    } else {
        (
            _mm512_srai_epi16::<8>(_mm512_slli_epi16::<8>(v)),
            _mm512_srai_epi16::<8>(v),
        )
    }
}

/// `sum + Σ weights · codes` over each lane's 4 bytes.
#[target_feature(enable = "avx512f,avx512vnni")]
#[inline]
fn dot<F: Format>(sum: __m512i, weights: __m512i, codes: __m512i) -> __m512i {
    if F::ACT_BITS == 8 {
        _mm512_dpbusd_epi32(sum, weights, codes)
    } else {
        _mm512_dpwssd_epi32(sum, weights, codes)
    }
}

/// One block as a vector.
#[target_feature(enable = "avx512f")]
#[inline]
fn load(block: &Block) -> __m512i {
    // SAFETY: a `Block` is 64 readable bytes aligned to 64, and avx512f,
    // which this function is compiled for, was detected by
    // `Vnni::detect` before any caller could run.
    unsafe { _mm512_load_si512(block.0.as_ptr().cast()) }
}

/// One vector of panel lanes.
#[target_feature(enable = "avx512f")]
#[inline]
fn load_lanes(lanes: &Lanes) -> __m512 {
    // SAFETY: `lanes` is 16 readable f32s, `loadu` has no alignment
    // requirement, and avx512f was detected by `Vnni::detect` before any
    // caller could run.
    unsafe { _mm512_loadu_ps(lanes.as_ptr()) }
}

/// The first `out.len()` (at most [`PANEL`]) lanes of `v` to `out`.
#[target_feature(enable = "avx512f")]
#[inline]
fn store(out: &mut [f32], v: __m512) {
    assert!(out.len() <= PANEL, "a store covers at most one panel");
    let mask = u16::try_from((1u32 << out.len()) - 1).expect("at most 16 lanes");
    // SAFETY: the mask selects exactly the first `out.len()` lanes, all
    // inside `out`, and masked-off lanes are never accessed; avx512f was
    // detected by `Vnni::detect` before any caller could run.
    unsafe { _mm512_mask_storeu_ps(out.as_mut_ptr(), mask, v) }
}
