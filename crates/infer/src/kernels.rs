//! Compute kernels: matmul (scalar reference + panel kernels), RMSNorm,
//! softmax, SiLU, RoPE.
//!
//! Two matmul families live here:
//!
//! * [`gemv`] — the scalar **reference** kernel: one chained
//!   accumulator per output row over a row-major [`Matrix`]. Kept as the
//!   correctness oracle and the "naive" baseline in `bench_infer`.
//! * [`gemv_tiled`] / [`gemm`] — the production path over a
//!   [`PanelMatrix`], whose weights are interleaved in panels of
//!   [`PANEL`] output rows: for each input column, the panel's rows sit
//!   side by side, one per f32 lane of a 512-bit vector. Every output is
//!   then a **single sequential FMA chain** over the input dimension
//!   (`acc = x[c].mul_add(w[r][c], acc)` for `c = 0, 1, ..`), with the
//!   panel's rows advancing together in the lanes of one accumulator.
//!   Nothing is reduced horizontally. Blocking only decides how many
//!   panels and input rows run at once — it never changes which chain
//!   an output belongs to or the order along it — so `gemm` over a
//!   batch is **bit-identical** to `gemv_tiled` per input row, and the
//!   fused int8/int4 kernels in [`crate::quant`] share the same tiling
//!   routine and order. Versus [`gemv`] each product is fused into its add
//!   instead of rounded separately, so results may differ from the
//!   naive kernel by float rounding; the property suite
//!   (`tests/prop_kernels.rs`) pins that drift to ≤1e-5 relative error.
//!
//! A tile of `R` input rows × `P` panels keeps its `R·P` accumulators in
//! vector registers for the whole input dimension: each input column
//! costs `P` weight-vector loads, `R` broadcasts and `R·P` FMAs, and the
//! `R·P` independent chains hide the FMA latency.

use crate::tensor::Matrix;

/// Output rows per weight panel (and positions per K block of the KV
/// cache): the f32 lanes of one 512-bit vector.
pub const PANEL: usize = 16;

/// One vector of panel lanes: lane `j` belongs to output row `j` of
/// its panel.
pub(crate) type Lanes = [f32; PANEL];

/// Input rows per tile in the batched kernels. With [`PANELS_PER_TILE`]
/// this gives 16 accumulator vectors: half the AVX-512 register file,
/// leaving room for the weight vectors and broadcasts.
const ROWS_PER_TILE: usize = 4;

/// Panels per tile: four independent FMA chains even for a single input
/// row (decode), enough to cover the FMA latency on two ports.
const PANELS_PER_TILE: usize = 4;

/// Interleave a `rows x cols` grid of values into panels of [`PANEL`]
/// rows: element `p * cols + c` holds lane `j` = value `(p * PANEL + j,
/// c)`. Lanes past `rows` in the last panel hold `T::default()`.
pub(crate) fn interleave<T: Copy + Default>(
    rows: usize,
    cols: usize,
    value: impl Fn(usize, usize) -> T,
) -> Vec<[T; PANEL]> {
    let mut out = Vec::with_capacity(rows.div_ceil(PANEL) * cols);
    for p in 0..rows.div_ceil(PANEL) {
        for c in 0..cols {
            out.push(std::array::from_fn(|j| {
                let r = p * PANEL + j;
                if r < rows {
                    value(r, c)
                } else {
                    T::default()
                }
            }));
        }
    }
    out
}

/// Advance every chain of a tile by one input column: `acc[r][i][j] =
/// x[r] * w[i][j] + acc[r][i][j]`, one rounding. The only place a panel
/// kernel touches an accumulator, so every weight format sums in the
/// same order.
#[inline(always)]
pub(crate) fn fma_column<const R: usize, const P: usize>(
    acc: &mut [[Lanes; P]; R],
    x: [f32; R],
    w: &[Lanes; P],
) {
    for (acc, x) in acc.iter_mut().zip(x) {
        for (lanes, w) in acc.iter_mut().zip(w) {
            for (a, w) in lanes.iter_mut().zip(w) {
                *a = x.mul_add(*w, *a);
            }
        }
    }
}

/// Element `i` of each of `N` runs: an input column across a tile's
/// rows, or a column (or group scale) across its panels.
///
/// The hot loops build their small arrays with plain loops rather than
/// `std::array::from_fn`, whose closure calls the compiler does not
/// reliably inline.
#[inline(always)]
pub(crate) fn gather<T: Copy + Default, const N: usize>(runs: &[&[T]; N], i: usize) -> [T; N] {
    let mut out = [T::default(); N];
    for (o, run) in out.iter_mut().zip(runs) {
        *o = run[i];
    }
    out
}

/// `N` consecutive runs of `len` elements of `data`, from run `first`:
/// the per-panel views a tile slices once, before its column loop, so
/// the loop runs without bounds checks.
#[inline(always)]
pub(crate) fn runs<T, const N: usize>(data: &[T], first: usize, len: usize) -> [&[T]; N] {
    let mut out = [&data[..0]; N];
    for (i, run) in out.iter_mut().enumerate() {
        *run = &data[(first + i) * len..][..len];
    }
    out
}

/// A weight format stored as panels of [`PANEL`] output rows.
pub(crate) trait Panels {
    /// `(rows, cols)`: outputs and inputs.
    fn shape(&self) -> (usize, usize);

    /// Run `P` panels, starting at panel `first`, against `R` input rows
    /// of exactly `cols` elements: one [`fma_column`] per input column,
    /// in column order, from zeroed accumulators.
    fn accumulate<const R: usize, const P: usize>(
        &self,
        first: usize,
        xs: [&[f32]; R],
    ) -> [[Lanes; P]; R];
}

/// `out[b] = xs[b] · W^T` for the `n` input rows packed in `xs` (row `b`
/// at `xs[b * cols..]`, output row `b` at `out[b * rows..]`): the one
/// routine behind every panel format. Panels are the outer loop, so a
/// tile's weights stay in L1 while the input rows stream past them.
pub(crate) fn panel_matmul<F: Panels>(w: &F, n: usize, xs: &[f32], out: &mut [f32]) {
    let (rows, cols) = w.shape();
    assert_eq!(xs.len(), n * cols, "matmul input dim");
    assert_eq!(out.len(), n * rows, "matmul output dim");
    let panels = rows.div_ceil(PANEL);
    let mut p = 0;
    while p + PANELS_PER_TILE <= panels {
        panel_rows::<F, PANELS_PER_TILE>(w, p, n, xs, out);
        p += PANELS_PER_TILE;
    }
    for p in p..panels {
        panel_rows::<F, 1>(w, p, n, xs, out);
    }
}

/// Panels `first..first + P` against every input row.
fn panel_rows<F: Panels, const P: usize>(
    w: &F,
    first: usize,
    n: usize,
    xs: &[f32],
    out: &mut [f32],
) {
    let mut b = 0;
    while b + ROWS_PER_TILE <= n {
        tile::<F, ROWS_PER_TILE, P>(w, first, b, xs, out);
        b += ROWS_PER_TILE;
    }
    for b in b..n {
        tile::<F, 1, P>(w, first, b, xs, out);
    }
}

/// One tile: input rows `b..b + R` against panels `first..first + P`,
/// written to the outputs those panels cover.
#[inline(always)]
fn tile<F: Panels, const R: usize, const P: usize>(
    w: &F,
    first: usize,
    b: usize,
    xs: &[f32],
    out: &mut [f32],
) {
    let (rows, cols) = w.shape();
    let acc = w.accumulate::<R, P>(first, runs(xs, b, cols));
    for (r, acc) in acc.iter().enumerate() {
        let out = &mut out[(b + r) * rows..][..rows];
        for (i, lanes) in acc.iter().enumerate() {
            let start = (first + i) * PANEL;
            let live = PANEL.min(rows - start);
            out[start..start + live].copy_from_slice(&lanes[..live]);
        }
    }
}

/// A full-precision weight matrix (`rows` outputs x `cols` inputs, the
/// same orientation as [`Matrix`]) interleaved in panels of [`PANEL`]
/// output rows, packed once when the model is built or loaded. The last
/// panel is zero-padded to a full [`PANEL`] rows.
#[derive(Debug, Clone, PartialEq)]
pub struct PanelMatrix {
    rows: usize,
    cols: usize,
    /// `data[p * cols + c][j]` = weight of output row `p * PANEL + j`
    /// at input column `c`.
    data: Vec<Lanes>,
}

impl PanelMatrix {
    /// Pack a row-major matrix.
    #[must_use]
    pub fn pack(m: &Matrix) -> Self {
        PanelMatrix {
            rows: m.rows,
            cols: m.cols,
            data: interleave(m.rows, m.cols, |r, c| m.get(r, c)),
        }
    }

    /// The row-major matrix this was packed from.
    #[must_use]
    pub fn unpack(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                m.set(r, c, self.data[(r / PANEL) * self.cols + c][r % PANEL]);
            }
        }
        m
    }

    /// Output rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }
}

impl Panels for PanelMatrix {
    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    #[inline(always)]
    fn accumulate<const R: usize, const P: usize>(
        &self,
        first: usize,
        xs: [&[f32]; R],
    ) -> [[Lanes; P]; R] {
        let cols = self.cols;
        let panels: [&[Lanes]; P] = runs(&self.data, first, cols);
        let mut acc = [[[0.0; PANEL]; P]; R];
        for c in 0..cols {
            fma_column(&mut acc, gather(&xs, c), &gather(&panels, c));
        }
        acc
    }
}

/// Panel `out = x · w^T`: same contract as [`gemv`], one sequential FMA
/// chain per output. This is the kernel behind `Linear::F32`.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn gemv_tiled(x: &[f32], w: &PanelMatrix, out: &mut [f32]) {
    assert_eq!(x.len(), w.cols, "gemv input dim");
    assert_eq!(out.len(), w.rows, "gemv output dim");
    panel_matmul(w, 1, x, out);
}

/// Batched panel matmul: `out[b] = xs[b] · w^T` for every input row
/// `b`. Each tile of panels stays in L1 while the whole batch streams
/// past it — the weight-traffic amortization that batched decode and
/// chunked prefill buy. Every output is the same FMA chain
/// [`gemv_tiled`] computes, so `gemm` over a batch is bit-identical to
/// [`gemv_tiled`] per input row.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn gemm(xs: &Matrix, w: &PanelMatrix, out: &mut Matrix) {
    assert_eq!(xs.cols, w.cols, "gemm input dim");
    assert_eq!(out.rows, xs.rows, "gemm batch dim");
    assert_eq!(out.cols, w.rows, "gemm output dim");
    panel_matmul(w, xs.rows, xs.as_slice(), out.as_mut_slice());
}

/// `out = x · w^T` for a single input row `x` (`1 x in`), with `w` stored
/// as `out_dim x in_dim` (each row of `w` is one output neuron) — the
/// GEMV at the heart of decode.
///
/// This is the scalar **reference** kernel (chained accumulator, no lane
/// parallelism); the hot path uses [`gemv_tiled`].
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn gemv(x: &[f32], w: &Matrix, out: &mut [f32]) {
    assert_eq!(x.len(), w.cols, "gemv input dim");
    assert_eq!(out.len(), w.rows, "gemv output dim");
    for (row, o) in out.iter_mut().enumerate() {
        let wr = w.row(row);
        // One strictly-ordered accumulator chain: every add waits on the
        // previous one, so the kernel runs at FP-add latency — the
        // textbook baseline the tiled kernel is measured against.
        let mut acc = 0.0f32;
        for (xi, wi) in x.iter().zip(wr) {
            acc += xi * wi;
        }
        *o = acc;
    }
}

/// RMSNorm: `x * g / sqrt(mean(x^2) + eps)`.
pub fn rmsnorm(x: &mut [f32], gain: &[f32], eps: f32) {
    assert_eq!(x.len(), gain.len());
    let ms: f32 = x.iter().map(|v| v * v).sum::<f32>() / x.len() as f32;
    let inv = 1.0 / (ms + eps).sqrt();
    for (v, g) in x.iter_mut().zip(gain) {
        *v *= inv * g;
    }
}

/// Numerically-stable in-place softmax.
pub fn softmax(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in x.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in x.iter_mut() {
        *v /= sum;
    }
}

/// SiLU activation: `x * sigmoid(x)`.
#[must_use]
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// Apply rotary position embedding to a head vector of even length at
/// sequence position `pos`, with base `theta` (Llama uses 10000).
pub fn rope(head: &mut [f32], pos: usize, theta: f32) {
    let d = head.len();
    assert_eq!(d % 2, 0, "rope needs even head dim");
    for i in (0..d).step_by(2) {
        #[allow(clippy::cast_precision_loss)]
        let freq = 1.0 / theta.powf(i as f32 / d as f32);
        #[allow(clippy::cast_precision_loss)]
        let angle = pos as f32 * freq;
        let (sin, cos) = angle.sin_cos();
        let (a, b) = (head[i], head[i + 1]);
        head[i] = a * cos - b * sin;
        head[i + 1] = a * sin + b * cos;
    }
}

/// Argmax index of a slice (ties broken by lowest index).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn argmax(x: &[f32]) -> usize {
    assert!(!x.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, v) in x.iter().enumerate() {
        if *v > x[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemv_identity() {
        let mut w = Matrix::zeros(3, 3);
        for i in 0..3 {
            w.set(i, i, 1.0);
        }
        let mut out = [0.0; 3];
        gemv(&[1.0, 2.0, 3.0], &w, &mut out);
        assert_eq!(out, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn gemv_matches_naive() {
        let w = Matrix::from_vec(2, 5, (0..10).map(|i| i as f32 * 0.5).collect());
        let x: Vec<f32> = (0..5).map(|i| 1.0 - i as f32 * 0.1).collect();
        let mut out = [0.0; 2];
        gemv(&x, &w, &mut out);
        for (r, got) in out.iter().enumerate() {
            let expect: f32 = (0..5).map(|c| x[c] * w.get(r, c)).sum();
            assert!((got - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut x = [1.0, 3.0, 2.0];
        softmax(&mut x);
        let sum: f32 = x.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(x[1] > x[2] && x[2] > x[0]);
    }

    #[test]
    fn softmax_handles_large_values() {
        let mut x = [1000.0, 1000.0];
        softmax(&mut x);
        assert!((x[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn rmsnorm_unit_scale() {
        let mut x = vec![3.0, 4.0];
        let g = vec![1.0, 1.0];
        rmsnorm(&mut x, &g, 1e-6);
        // RMS of (3,4) is sqrt(12.5); normalized values keep the ratio.
        assert!((x[1] / x[0] - 4.0 / 3.0).abs() < 1e-5);
        let ms: f32 = x.iter().map(|v| v * v).sum::<f32>() / 2.0;
        assert!((ms - 1.0).abs() < 1e-4);
    }

    #[test]
    fn silu_properties() {
        assert_eq!(silu(0.0), 0.0);
        assert!(silu(5.0) > 4.9);
        assert!(silu(-5.0) > -0.05 && silu(-5.0) < 0.0);
    }

    #[test]
    fn rope_preserves_norm() {
        let mut h = vec![1.0, 2.0, 3.0, 4.0];
        let before: f32 = h.iter().map(|v| v * v).sum();
        rope(&mut h, 17, 10000.0);
        let after: f32 = h.iter().map(|v| v * v).sum();
        assert!((before - after).abs() < 1e-4);
    }

    #[test]
    fn rope_position_zero_is_identity() {
        let mut h = vec![1.0, 2.0, 3.0, 4.0];
        let orig = h.clone();
        rope(&mut h, 0, 10000.0);
        for (a, b) in h.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rope_relative_property() {
        // Dot product of two rotated vectors depends only on the position
        // difference (the defining property of RoPE).
        let q = vec![0.5, -1.0];
        let k = vec![1.5, 0.25];
        let dot = |a: &[f32], b: &[f32]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f32>();
        let mut q1 = q.clone();
        let mut k1 = k.clone();
        rope(&mut q1, 5, 10000.0);
        rope(&mut k1, 3, 10000.0);
        let mut q2 = q.clone();
        let mut k2 = k.clone();
        rope(&mut q2, 12, 10000.0);
        rope(&mut k2, 10, 10000.0);
        assert!((dot(&q1, &k1) - dot(&q2, &k2)).abs() < 1e-4);
    }

    #[test]
    fn argmax_basic() {
        assert_eq!(argmax(&[0.1, 0.9, 0.5]), 1);
        assert_eq!(argmax(&[2.0, 2.0]), 0);
    }

    #[test]
    fn tiled_gemv_tracks_naive() {
        // 13 cols; 19 rows: one full panel plus a ragged one.
        let w = Matrix::from_vec(19, 13, (0..247).map(|i| (i as f32 * 0.713).sin()).collect());
        let x: Vec<f32> = (0..13).map(|i| (i as f32 * 0.29).cos()).collect();
        let mut naive = vec![0.0; 19];
        gemv(&x, &w, &mut naive);
        let mut tiled = vec![0.0; 19];
        gemv_tiled(&x, &PanelMatrix::pack(&w), &mut tiled);
        for (n, t) in naive.iter().zip(&tiled) {
            assert!(
                (n - t).abs() <= 1e-5 * n.abs().max(1.0),
                "naive {n} tiled {t}"
            );
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let w = Matrix::from_vec(17, 3, (0..51).map(|i| i as f32).collect());
        let p = PanelMatrix::pack(&w);
        assert_eq!((p.rows(), p.cols()), (17, 3));
        assert_eq!(p.unpack(), w);
    }

    #[test]
    fn gemm_rows_bit_identical_to_tiled_gemv() {
        // 5 batch rows: one 4-row tile plus a single row; 70 weight rows:
        // one 4-panel tile plus a ragged single panel.
        let w = Matrix::from_vec(70, 19, (0..1330).map(|i| (i as f32 * 0.37).sin()).collect());
        let xs = Matrix::from_vec(5, 19, (0..95).map(|i| (i as f32 * 0.11).cos()).collect());
        let w = PanelMatrix::pack(&w);
        let mut out = Matrix::zeros(5, 70);
        gemm(&xs, &w, &mut out);
        for b in 0..5 {
            let mut single = vec![0.0; 70];
            gemv_tiled(xs.row(b), &w, &mut single);
            assert_eq!(out.row(b), &single[..], "batch row {b} diverged");
        }
    }

    #[test]
    fn tiled_kernels_handle_empty_and_tiny_shapes() {
        let w = PanelMatrix::pack(&Matrix::zeros(0, 7));
        let x = vec![1.0; 7];
        let mut out: Vec<f32> = Vec::new();
        gemv_tiled(&x, &w, &mut out);
        assert!(out.is_empty());

        let w1 = PanelMatrix::pack(&Matrix::from_vec(1, 1, vec![2.5]));
        let mut o1 = [0.0];
        gemv_tiled(&[4.0], &w1, &mut o1);
        assert_eq!(o1[0], 10.0);

        let we = PanelMatrix::pack(&Matrix::zeros(3, 0));
        let xe: Vec<f32> = Vec::new();
        let mut oe = [9.0; 3];
        gemv_tiled(&xe, &we, &mut oe);
        assert_eq!(oe, [0.0; 3]);

        let mut empty_batch = Matrix::zeros(0, 4);
        gemm(
            &Matrix::zeros(0, 7),
            &PanelMatrix::pack(&Matrix::from_vec(4, 7, vec![1.0; 28])),
            &mut empty_batch,
        );
        assert_eq!(empty_batch.rows, 0);
    }
}
