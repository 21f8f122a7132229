//! Group-wise int8 and int4 weight quantization with f32 accumulation.
//!
//! The paper's int8 deployments quantize model weights post-training;
//! activations and accumulation stay in higher precision. This module
//! implements that scheme with production layout choices:
//!
//! * **Group-wise scales.** Each weight row is split into groups of
//!   [`GROUP`] columns and every `(row, group)` pair gets its own f32
//!   scale (`max(|group|)/127` for int8, `max(|group|)/7` for int4).
//!   A single per-row scale lets one outlier wreck the whole row; a
//!   per-group scale bounds the damage to one group — the standard
//!   trick behind GPTQ/AWQ-style weight-only quantization.
//! * **Panel layout.** Codes and scales are interleaved in panels of
//!   [`PANEL`] output rows, like `kernels::PanelMatrix`: for each input
//!   column (or, for int4, column pair) the panel's codes sit side by
//!   side, and each group's scales form one vector of panel lanes.
//! * **Fused dequant-GEMV/GEMM.** The quantized kernels run on the same
//!   tiling routine as the f32 panel kernels and dequantize in
//!   registers: each input column widens one vector of codes and
//!   multiplies it by the group's scale vector, so every product is
//!   `x * (q * s)` on one sequential FMA chain per output — the f32
//!   kernels' summation order. f32 weights are never materialized in
//!   memory.
//! * **Packed int4.** [`Quant4Matrix`] stores two 4-bit codes per byte
//!   (column `2k` of a row in the low nibble, `2k+1` in the high nibble,
//!   biased by +8), with an odd-column remainder occupying a half-used
//!   final byte per row — `storage_bytes` accounts for it exactly.
//!
//! Error bounds: round-to-nearest against a group scale `s` gives
//! `|v - dequant(quant(v))| <= s/2`, i.e. `max|group|/254` for int8 and
//! `max|group|/14` for int4. The test suite pins both bounds on
//! adversarial matrices (all-zero, single-outlier, alternating-sign).

use crate::kernels::{fma_column, gather, interleave, panel_matmul, runs, Lanes, Panels, PANEL};
use crate::tensor::Matrix;

/// Columns per quantization group. 64 matches the engine's smallest
/// hidden size and divides every dimension the models use; ragged final
/// groups (cols not a multiple of 64) are still handled.
pub const GROUP: usize = 64;

// The int4 kernel decodes whole bytes (column pairs) inside a group, so
// every group must start on a byte boundary.
const _: () = assert!(GROUP.is_multiple_of(2), "quant GROUP must be even");

/// Number of groups in a row of `cols` columns.
#[must_use]
fn groups_of(cols: usize) -> usize {
    cols.div_ceil(GROUP).max(1)
}

/// Row-major `(row, group)` scales `max(|group|) / qmax` (1.0 for an
/// all-zero group).
fn group_scales(m: &Matrix, qmax: f32) -> Vec<f32> {
    let groups = groups_of(m.cols);
    let mut scales = Vec::with_capacity(m.rows * groups);
    for r in 0..m.rows {
        let row = m.row(r);
        for g in 0..groups {
            let group = &row[(g * GROUP).min(m.cols)..((g + 1) * GROUP).min(m.cols)];
            let max = group.iter().fold(0.0f32, |a, v| a.max(v.abs()));
            scales.push(if max == 0.0 { 1.0 } else { max / qmax });
        }
    }
    scales
}

/// Round-to-nearest code of `v` against `scale`, clamped to `±qmax`.
#[allow(clippy::cast_possible_truncation)]
fn code(v: f32, scale: f32, qmax: f32) -> i8 {
    (v / scale).round().clamp(-qmax, qmax) as i8
}

/// A packed int4 nibble, unbiased.
#[inline(always)]
fn nibble(n: u8) -> f32 {
    f32::from(i16::from(n) - 8)
}

/// An int8-quantized matrix with one f32 scale per `(row, group)`,
/// interleaved in panels of [`PANEL`] rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantMatrix {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// `codes[p * cols + c][j]`: row `p * PANEL + j`, column `c`.
    codes: Vec<[i8; PANEL]>,
    /// `scales[p * groups + g][j]`: row `p * PANEL + j`, group `g`.
    scales: Vec<Lanes>,
}

impl QuantMatrix {
    /// Quantize an f32 matrix with group-wise scales.
    #[must_use]
    pub fn quantize(m: &Matrix) -> Self {
        let groups = groups_of(m.cols);
        let scales = group_scales(m, 127.0);
        QuantMatrix {
            rows: m.rows,
            cols: m.cols,
            codes: interleave(m.rows, m.cols, |r, c| {
                code(m.get(r, c), scales[r * groups + c / GROUP], 127.0)
            }),
            scales: interleave(m.rows, groups, |r, g| scales[r * groups + g]),
        }
    }

    /// Dequantize back to f32 (for error measurement and the fused-vs-
    /// unfused equivalence test).
    #[must_use]
    pub fn dequantize(&self) -> Matrix {
        let groups = groups_of(self.cols);
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (p, j) = (r / PANEL, r % PANEL);
            for c in 0..self.cols {
                let scale = self.scales[p * groups + c / GROUP][j];
                out.set(r, c, f32::from(self.codes[p * self.cols + c][j]) * scale);
            }
        }
        out
    }

    /// `out = x · w^T` with on-the-fly dequantization and f32 accumulation.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn gemv(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "qgemv input dim");
        assert_eq!(out.len(), self.rows, "qgemv output dim");
        panel_matmul(self, 1, x, out);
    }

    /// Batched fused GEMM: `out[b] = xs[b] · w^T`, each tile of panels
    /// reused across the batch exactly like `kernels::gemm`, and
    /// bit-identical per row to [`Self::gemv`].
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn gemm(&self, xs: &Matrix, out: &mut Matrix) {
        assert_eq!(xs.cols, self.cols, "qgemm input dim");
        assert_eq!(out.rows, xs.rows, "qgemm batch dim");
        assert_eq!(out.cols, self.rows, "qgemm output dim");
        panel_matmul(self, xs.rows, xs.as_slice(), out.as_mut_slice());
    }

    /// Storage bytes of the format (one code byte per weight plus 4 per
    /// group scale) — roughly a quarter of f32. The zero rows padding
    /// the last panel are layout, not format, and are not counted.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.rows * self.cols + self.rows * groups_of(self.cols) * 4
    }
}

impl Panels for QuantMatrix {
    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    #[inline(always)]
    fn accumulate<const R: usize, const P: usize>(
        &self,
        first: usize,
        xs: [&[f32]; R],
    ) -> [[Lanes; P]; R] {
        let (cols, groups) = (self.cols, groups_of(self.cols));
        let codes: [&[[i8; PANEL]]; P] = runs(&self.codes, first, cols);
        let scales: [&[Lanes]; P] = runs(&self.scales, first, groups);
        let mut acc = [[[0.0; PANEL]; P]; R];
        for g in 0..groups {
            let s = gather(&scales, g);
            for c in g * GROUP..cols.min((g + 1) * GROUP) {
                let mut w = [[0.0; PANEL]; P];
                for ((w, q), s) in w.iter_mut().zip(gather(&codes, c)).zip(&s) {
                    for ((w, q), s) in w.iter_mut().zip(q).zip(s) {
                        *w = f32::from(q) * s;
                    }
                }
                fma_column(&mut acc, gather(&xs, c), &w);
            }
        }
        acc
    }
}

/// An int4-quantized matrix: two codes per byte, group-wise f32 scales,
/// interleaved in panels of [`PANEL`] rows.
///
/// Codes are symmetric round-to-nearest in `-7..=7` against the group
/// scale `max(|group|)/7`, stored biased by +8 (so `1..=15`; the nibble
/// value 0 is unused). Column `2k` of a row lives in the low nibble of
/// its packed byte `k`, column `2k+1` in the high nibble; rows with odd
/// column counts leave the final high nibble zero.
#[derive(Debug, Clone, PartialEq)]
pub struct Quant4Matrix {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// `codes[p * cols.div_ceil(2) + k][j]`: row `p * PANEL + j`,
    /// columns `2k` (low nibble) and `2k + 1` (high nibble).
    codes: Vec<[u8; PANEL]>,
    /// `scales[p * groups + g][j]`: row `p * PANEL + j`, group `g`.
    scales: Vec<Lanes>,
}

impl Quant4Matrix {
    /// Quantize an f32 matrix to packed int4 with group-wise scales.
    #[must_use]
    pub fn quantize(m: &Matrix) -> Self {
        let groups = groups_of(m.cols);
        let scales = group_scales(m, 7.0);
        let biased = |r: usize, c: usize| -> u8 {
            if c < m.cols {
                (code(m.get(r, c), scales[r * groups + c / GROUP], 7.0) + 8).cast_unsigned()
            } else {
                0
            }
        };
        Quant4Matrix {
            rows: m.rows,
            cols: m.cols,
            codes: interleave(m.rows, m.cols.div_ceil(2), |r, k| {
                biased(r, 2 * k) | biased(r, 2 * k + 1) << 4
            }),
            scales: interleave(m.rows, groups, |r, g| scales[r * groups + g]),
        }
    }

    /// Dequantize back to f32.
    #[must_use]
    pub fn dequantize(&self) -> Matrix {
        let groups = groups_of(self.cols);
        let pairs = self.cols.div_ceil(2);
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (p, j) = (r / PANEL, r % PANEL);
            for c in 0..self.cols {
                let byte = self.codes[p * pairs + c / 2][j];
                let n = if c.is_multiple_of(2) {
                    byte & 0x0F
                } else {
                    byte >> 4
                };
                out.set(r, c, nibble(n) * self.scales[p * groups + c / GROUP][j]);
            }
        }
        out
    }

    /// `out = x · w^T` with fused nibble unpacking and f32 accumulation.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn gemv(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "q4gemv input dim");
        assert_eq!(out.len(), self.rows, "q4gemv output dim");
        panel_matmul(self, 1, x, out);
    }

    /// Batched fused GEMM, each tile of panels reused across the batch.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn gemm(&self, xs: &Matrix, out: &mut Matrix) {
        assert_eq!(xs.cols, self.cols, "q4gemm input dim");
        assert_eq!(out.rows, xs.rows, "q4gemm batch dim");
        assert_eq!(out.cols, self.rows, "q4gemm output dim");
        panel_matmul(self, xs.rows, xs.as_slice(), out.as_mut_slice());
    }

    /// Storage bytes of the format: `rows * ceil(cols/2)` packed code
    /// bytes — exact for odd column counts — plus 4 per group scale.
    /// The zero rows padding the last panel are not counted.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.rows * self.cols.div_ceil(2) + self.rows * groups_of(self.cols) * 4
    }
}

impl Panels for Quant4Matrix {
    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    #[inline(always)]
    fn accumulate<const R: usize, const P: usize>(
        &self,
        first: usize,
        xs: [&[f32]; R],
    ) -> [[Lanes; P]; R] {
        let (cols, groups, pairs) = (self.cols, groups_of(self.cols), self.cols.div_ceil(2));
        let codes: [&[[u8; PANEL]]; P] = runs(&self.codes, first, pairs);
        let scales: [&[Lanes]; P] = runs(&self.scales, first, groups);
        let mut acc = [[[0.0; PANEL]; P]; R];
        for g in 0..groups {
            let s = gather(&scales, g);
            let end = cols.min((g + 1) * GROUP);
            // Whole bytes: two columns per step, low nibble first. An odd
            // final column sits alone in the low nibble of a last byte.
            for k in g * GROUP / 2..end.div_ceil(2) {
                let (mut lo, mut hi) = ([[0.0; PANEL]; P], [[0.0; PANEL]; P]);
                let bytes = gather(&codes, k);
                for (((lo, hi), b), s) in lo.iter_mut().zip(&mut hi).zip(bytes).zip(&s) {
                    for (((lo, hi), b), s) in lo.iter_mut().zip(hi).zip(b).zip(s) {
                        *lo = nibble(b & 0x0F) * s;
                        *hi = nibble(b >> 4) * s;
                    }
                }
                fma_column(&mut acc, gather(&xs, 2 * k), &lo);
                if 2 * k + 1 < end {
                    fma_column(&mut acc, gather(&xs, 2 * k + 1), &hi);
                }
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize, cols: usize, seed: u32) -> Matrix {
        // Small deterministic pseudo-random matrix.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
        };
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect())
    }

    /// Max |group| per (row, group) of a matrix, for bound checks.
    fn group_max(m: &Matrix, r: usize, g: usize) -> f32 {
        let start = g * GROUP;
        let end = (start + GROUP).min(m.cols);
        m.row(r)[start..end]
            .iter()
            .fold(0.0f32, |a, v| a.max(v.abs()))
    }

    #[test]
    fn quantization_error_is_small() {
        let m = sample(16, 64, 7);
        let q = QuantMatrix::quantize(&m);
        let d = q.dequantize();
        for r in 0..m.rows {
            for c in 0..m.cols {
                let bound = group_max(&m, r, c / GROUP) / 254.0 + 1e-6;
                let err = (m.get(r, c) - d.get(r, c)).abs();
                assert!(err <= bound, "err {err} at {r},{c}");
            }
        }
    }

    #[test]
    fn int4_roundtrip_error_within_group_bound() {
        let m = sample(8, 96, 21);
        let q = Quant4Matrix::quantize(&m);
        let d = q.dequantize();
        for r in 0..m.rows {
            for c in 0..m.cols {
                let bound = group_max(&m, r, c / GROUP) / 14.0 + 1e-6;
                let err = (m.get(r, c) - d.get(r, c)).abs();
                assert!(err <= bound, "err {err} at {r},{c}");
            }
        }
    }

    #[test]
    fn group_scales_contain_outlier_damage() {
        // One huge outlier in the first group must not degrade groups
        // that don't contain it (the whole point of group-wise scales).
        let mut m = sample(1, 2 * GROUP, 5);
        m.set(0, 3, 1000.0);
        let q = QuantMatrix::quantize(&m);
        let d = q.dequantize();
        for c in GROUP..2 * GROUP {
            let bound = group_max(&m, 0, 1) / 254.0 + 1e-6;
            let err = (m.get(0, c) - d.get(0, c)).abs();
            assert!(err <= bound, "outlier leaked into clean group at col {c}");
        }
    }

    #[test]
    fn adversarial_matrices_quantize_within_bounds() {
        let zero = Matrix::zeros(4, 70);
        assert_eq!(QuantMatrix::quantize(&zero).dequantize(), zero);
        assert_eq!(Quant4Matrix::quantize(&zero).dequantize(), zero);

        let alt = Matrix::from_vec(
            2,
            65,
            (0..130)
                .map(|i| if i % 2 == 0 { 0.25 } else { -0.25 })
                .collect(),
        );
        let q8 = QuantMatrix::quantize(&alt).dequantize();
        let q4 = Quant4Matrix::quantize(&alt).dequantize();
        for r in 0..2 {
            for c in 0..65 {
                assert!((q8.get(r, c) - alt.get(r, c)).abs() <= 0.25 / 254.0 + 1e-6);
                assert!((q4.get(r, c) - alt.get(r, c)).abs() <= 0.25 / 14.0 + 1e-6);
            }
        }
    }

    #[test]
    fn qgemv_close_to_f32_gemv() {
        let m = sample(8, 32, 11);
        let q = QuantMatrix::quantize(&m);
        let x: Vec<f32> = (0..32).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut exact = vec![0.0; 8];
        crate::kernels::gemv(&x, &m, &mut exact);
        let mut approx = vec![0.0; 8];
        q.gemv(&x, &mut approx);
        for (e, a) in exact.iter().zip(&approx) {
            let scale = e.abs().max(1.0);
            assert!((e - a).abs() / scale < 0.02, "exact {e} approx {a}");
        }
    }

    #[test]
    fn fused_gemv_matches_dequantize_then_gemv() {
        // Fused kernels must compute the same function as dequantizing
        // and running the f32 kernel (up to f32 rounding in the scale
        // multiply, which reassociates one multiply per group).
        let m = sample(6, 97, 13); // odd cols: ragged group + half byte
        let x: Vec<f32> = (0..97).map(|i| (i as f32 * 0.17).sin()).collect();
        for (fused, deq) in [
            {
                let q = QuantMatrix::quantize(&m);
                let mut f = vec![0.0; 6];
                q.gemv(&x, &mut f);
                let mut d = vec![0.0; 6];
                crate::kernels::gemv(&x, &q.dequantize(), &mut d);
                (f, d)
            },
            {
                let q = Quant4Matrix::quantize(&m);
                let mut f = vec![0.0; 6];
                q.gemv(&x, &mut f);
                let mut d = vec![0.0; 6];
                crate::kernels::gemv(&x, &q.dequantize(), &mut d);
                (f, d)
            },
        ] {
            for (f, d) in fused.iter().zip(&deq) {
                let scale = d.abs().max(1.0);
                assert!((f - d).abs() / scale < 1e-4, "fused {f} unfused {d}");
            }
        }
    }

    #[test]
    fn quantized_gemm_bit_identical_to_gemv() {
        let m = sample(5, 33, 17);
        let xs = sample(3, 33, 19);
        let q8 = QuantMatrix::quantize(&m);
        let q4 = Quant4Matrix::quantize(&m);
        let mut out8 = Matrix::zeros(3, 5);
        let mut out4 = Matrix::zeros(3, 5);
        q8.gemm(&xs, &mut out8);
        q4.gemm(&xs, &mut out4);
        for b in 0..3 {
            let mut s8 = vec![0.0; 5];
            let mut s4 = vec![0.0; 5];
            q8.gemv(xs.row(b), &mut s8);
            q4.gemv(xs.row(b), &mut s4);
            assert_eq!(out8.row(b), &s8[..]);
            assert_eq!(out4.row(b), &s4[..]);
        }
    }

    #[test]
    fn zero_matrix_quantizes_safely() {
        let m = Matrix::zeros(4, 4);
        let q = QuantMatrix::quantize(&m);
        assert_eq!(q.dequantize(), m);
    }

    #[test]
    fn storage_is_quarter_of_f32() {
        let m = sample(64, 64, 3);
        let q = QuantMatrix::quantize(&m);
        let f32_bytes = 64 * 64 * 4;
        assert!(q.storage_bytes() < f32_bytes / 3);
    }

    #[test]
    fn storage_bytes_exact_for_odd_dims() {
        // 3 rows x 65 cols: int8 = 195 data + 3*2 group scales * 4;
        // int4 = 3*33 packed bytes (remainder half-byte counted) + same
        // scale count.
        let m = sample(3, 65, 9);
        let q8 = QuantMatrix::quantize(&m);
        assert_eq!(q8.storage_bytes(), 3 * 65 + 3 * 2 * 4);
        let q4 = Quant4Matrix::quantize(&m);
        assert_eq!(q4.storage_bytes(), 3 * 33 + 3 * 2 * 4);
        assert!(q4.storage_bytes() < q8.storage_bytes());
    }
}
