//! Compute kernels: matmul (scalar reference + panel kernels),
//! attention, RMSNorm, softmax, SiLU, RoPE.
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
//!
//! Attention runs on the same tiles and the same FMA step. For one query
//! position, all query heads of a KV head are scored against four key
//! blocks of [`PANEL`] positions at a time (every chain of the tile
//! shares each loaded key vector), and the softmax-weighted values are
//! summed for those heads over vectors of [`PANEL`] value dimensions.
//! Each score is one FMA chain over the head dimension and each output
//! one FMA chain over positions, in order, so a row's attention does
//! not depend on how many heads or positions a tile covers.
//!
//! The per-element ops are straight-line code that vectorizes: [`exp`]
//! is a polynomial with a bit-built power of two rather than a libm
//! call, [`softmax`] reduces over lane partials in a fixed order, and
//! [`silu`] goes through [`exp`]. [`rope_angles`] computes each
//! position's rotation once, so a forward rotates every head of every
//! layer with the same table, bit-identical to [`rope`].

use crate::tensor::Matrix;

/// Output rows per weight panel (and positions per K block of the KV
/// cache): the f32 lanes of one 512-bit vector.
pub const PANEL: usize = 16;

/// One vector of panel lanes: lane `j` belongs to output row `j` of
/// its panel.
pub(crate) type Lanes = [f32; PANEL];

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

/// A computation over a grid, run tile by tile with each tile's size
/// as compile-time constants.
trait Tiled {
    /// The tile of `R` grid rows from `row` by `C` grid columns from
    /// `col`.
    fn tile<const R: usize, const C: usize>(&mut self, row: usize, col: usize);
}

/// Cover a `rows x cols` grid with tiles of 4, 2 or 1 rows by 4, 2 or 1
/// columns, rows in the outer loop: whole 4 x 4 tiles, then the
/// remainders. A 4 x 4 tile of FMA chains holds 16 accumulator vectors,
/// half the AVX-512 register file, leaving room for the loaded vectors
/// and broadcasts; four columns give four independent chains even for
/// a single row (decode), enough to cover the FMA latency on two ports.
fn tiles<T: Tiled>(job: &mut T, rows: usize, cols: usize) {
    let mut r = 0;
    while r + 4 <= rows {
        tile_cols::<T, 4>(job, r, cols);
        r += 4;
    }
    if r + 2 <= rows {
        tile_cols::<T, 2>(job, r, cols);
        r += 2;
    }
    if r < rows {
        tile_cols::<T, 1>(job, r, cols);
    }
}

/// Every column of grid rows `row..row + R`.
fn tile_cols<T: Tiled, const R: usize>(job: &mut T, row: usize, cols: usize) {
    let mut c = 0;
    while c + 4 <= cols {
        job.tile::<R, 4>(row, c);
        c += 4;
    }
    if c + 2 <= cols {
        job.tile::<R, 2>(row, c);
        c += 2;
    }
    if c < cols {
        job.tile::<R, 1>(row, c);
    }
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
/// routine behind every panel format. Panels are the grid rows [`tiles`]
/// runs in the outer loop, so a tile's weights stay in L1 while the
/// input rows stream past them.
pub(crate) fn panel_matmul<F: Panels>(w: &F, n: usize, xs: &[f32], out: &mut [f32]) {
    let (rows, cols) = w.shape();
    assert_eq!(xs.len(), n * cols, "matmul input dim");
    assert_eq!(out.len(), n * rows, "matmul output dim");
    tiles(&mut Matmul { w, xs, out }, rows.div_ceil(PANEL), n);
}

/// A panel matmul as a grid of panels (rows) by input rows (columns).
struct Matmul<'a, F> {
    w: &'a F,
    xs: &'a [f32],
    out: &'a mut [f32],
}

impl<F: Panels> Tiled for Matmul<'_, F> {
    /// Panels `first..first + P` against input rows `b..b + R`, written
    /// to the outputs those panels cover.
    #[inline(always)]
    fn tile<const P: usize, const R: usize>(&mut self, first: usize, b: usize) {
        let (rows, cols) = self.w.shape();
        let acc = self.w.accumulate::<R, P>(first, runs(self.xs, b, cols));
        for (r, acc) in acc.iter().enumerate() {
            let out = &mut self.out[(b + r) * rows..][..rows];
            for (i, lanes) in acc.iter().enumerate() {
                let start = (first + i) * PANEL;
                let live = PANEL.min(rows - start);
                out[start..start + live].copy_from_slice(&lanes[..live]);
            }
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

/// `e^x` in straight-line vector-friendly code: a loop over it
/// vectorizes, where libm's `expf` is an opaque call per element.
///
/// Cody-Waite reduction `x = n·ln2 + r` with `|r| <= ln2/2`, then a
/// degree-6 polynomial for `e^r` whose coefficients minimize the
/// relative error on that interval (5e-9 after rounding them to f32).
/// `2^n` is built from the bits of `x·log2(e) + 1.5·2^23`, whose low
/// mantissa bits hold `n` once the sum rounds to an integer: LLVM
/// scalarizes a saturating `n as i32`. The scale is applied as two
/// factors `2^(n/2)·2^(n - n/2)`, so results near overflow and in the
/// subnormal range still round once.
///
/// Within 2 ulp of [`f32::exp`] wherever that returns a normal float;
/// 0 at −∞ (and below about −103.9), +∞ where `f32::exp` overflows,
/// NaN for NaN.
#[inline]
#[must_use]
pub fn exp(x: f32) -> f32 {
    /// `1.5·2^23`: adding it rounds to an integer held in the low bits.
    const SHIFT: f32 = 12_582_912.0;
    /// `ln 2` split so that `n·LN2_HI` is exact for `|n| < 2^15`.
    const LN2_HI: f32 = 355.0 / 512.0;
    const LN2_LO: f32 = -2.121_944_4e-4;
    /// `e^r ≈ 1 + r + C[0]·r² + … + C[4]·r⁶`.
    const C: [f32; 5] = [
        0.499_999_94,
        0.166_665_21,
        0.041_668_43,
        0.008_368_693,
        0.001_381_239_7,
    ];
    // Keeps n in [-150, 128], where both scale factors are normal;
    // beyond it the result is 0 or +∞ anyway. NaN passes through.
    let x = x.clamp(-104.0, 89.0);
    let t = x.mul_add(std::f32::consts::LOG2_E, SHIFT);
    let n = t - SHIFT;
    let r = (-n).mul_add(LN2_HI, x);
    let r = (-n).mul_add(LN2_LO, r);
    let mut p = C[4];
    for c in [C[3], C[2], C[1], C[0], 1.0, 1.0] {
        p = p.mul_add(r, c);
    }
    let n = t.to_bits().wrapping_sub(SHIFT.to_bits()) as i32;
    let pow2 = |e: i32| f32::from_bits((e.wrapping_add(127) as u32) << 23);
    p * pow2(n >> 1) * pow2(n - (n >> 1))
}

/// Apply `f(lane, element)` to every element of `x`, element `i` with
/// lane `i % PANEL`: whole vectors first, so the loop vectorizes.
#[inline(always)]
fn for_lanes(x: &mut [f32], lanes: &mut Lanes, mut f: impl FnMut(&mut f32, &mut f32)) {
    let (full, tail) = x.as_chunks_mut::<PANEL>();
    for chunk in full {
        for (l, v) in lanes.iter_mut().zip(chunk) {
            f(l, v);
        }
    }
    for (l, v) in lanes.iter_mut().zip(tail) {
        f(l, v);
    }
}

/// Fold lane partials pairwise, halving the width each step.
#[inline(always)]
fn fold_lanes(mut lanes: Lanes, f: impl Fn(f32, f32) -> f32) -> f32 {
    let mut width = PANEL;
    while width > 1 {
        width /= 2;
        for i in 0..width {
            lanes[i] = f(lanes[i], lanes[i + width]);
        }
    }
    lanes[0]
}

/// Numerically-stable in-place softmax. The max and the sum run over
/// `PANEL` lane partials (element `i` in lane `i % PANEL`) folded in a
/// fixed order, and every `exp` is [`exp`], so the loops vectorize.
pub fn softmax(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let mut max = [f32::NEG_INFINITY; PANEL];
    for_lanes(x, &mut max, |m, v| *m = m.max(*v));
    let max = fold_lanes(max, f32::max);
    let mut sum = [0.0; PANEL];
    for_lanes(x, &mut sum, |s, v| {
        *v = exp(*v - max);
        *s += *v;
    });
    let sum = fold_lanes(sum, |a, b| a + b);
    for v in x.iter_mut() {
        *v /= sum;
    }
}

/// SiLU activation: `x * sigmoid(x)`, through [`exp`].
#[inline]
#[must_use]
pub fn silu(x: f32) -> f32 {
    x / (1.0 + exp(-x))
}

/// The `(cos, sin)` of the rotation [`rope`] applies to each pair of a
/// `head_dim`-wide head, for each of `positions` in turn: `head_dim / 2`
/// entries per position. A forward computes these once per position
/// and rotates every head of every layer with them.
///
/// # Panics
///
/// Panics if `head_dim` is odd.
#[must_use]
pub fn rope_angles(
    positions: impl IntoIterator<Item = usize>,
    head_dim: usize,
    theta: f32,
) -> Vec<(f32, f32)> {
    assert_eq!(head_dim % 2, 0, "rope needs even head dim");
    #[allow(clippy::cast_precision_loss)]
    let freqs: Vec<f32> = (0..head_dim)
        .step_by(2)
        .map(|i| 1.0 / theta.powf(i as f32 / head_dim as f32))
        .collect();
    positions
        .into_iter()
        .flat_map(|pos| {
            freqs.iter().map(move |freq| {
                #[allow(clippy::cast_precision_loss)]
                let (sin, cos) = (pos as f32 * freq).sin_cos();
                (cos, sin)
            })
        })
        .collect()
}

/// Rotate each pair `(head[2i], head[2i + 1])` by `angles[i]`, a
/// `(cos, sin)` from [`rope_angles`].
///
/// # Panics
///
/// Panics unless `head` holds exactly two values per angle.
pub fn rope_rotate(head: &mut [f32], angles: &[(f32, f32)]) {
    assert_eq!(head.len(), 2 * angles.len(), "one angle per pair");
    for (pair, &(cos, sin)) in head.chunks_exact_mut(2).zip(angles) {
        let (a, b) = (pair[0], pair[1]);
        pair[0] = a * cos - b * sin;
        pair[1] = a * sin + b * cos;
    }
}

/// Apply rotary position embedding to a head vector of even length at
/// sequence position `pos`, with base `theta` (Llama uses 10000).
pub fn rope(head: &mut [f32], pos: usize, theta: f32) {
    rope_rotate(head, &rope_angles([pos], head.len(), theta));
}

/// Causal attention of one query position, every head at once: `group`
/// query heads of `dim` values share each KV head. `q` and `out` hold
/// every query head; `keys` and `values` are one layer of the KV cache,
/// keys in blocks of [`PANEL`] positions (`keys[block * kv_dim + d][t]`),
/// values row-major (`values[pos * kv_dim + d]`), of which the first
/// `seq` positions are attended. `scores` is scratch, one buffer for
/// every head.
///
/// For each KV head, its query heads are scored against the keys in
/// tiles of up to 4 heads x 4 key blocks; each score is one FMA chain
/// over `dim`, and every chain of a tile shares each loaded K vector.
/// After a softmax per head, the values are summed in tiles of up to 4
/// heads x 4 vectors of [`PANEL`] values; each output is one FMA chain
/// over positions, in order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attend(
    q: &[f32],
    group: usize,
    dim: usize,
    keys: &[Lanes],
    values: &[f32],
    seq: usize,
    scores: &mut Vec<f32>,
    out: &mut [f32],
) {
    let kv_dim = q.len() / group;
    let queries = group * dim;
    let blocks = seq.div_ceil(PANEL);
    let stride = blocks * PANEL;
    scores.resize(group * stride, 0.0);
    #[allow(clippy::cast_precision_loss)]
    let scale = 1.0 / (dim as f32).sqrt();
    // Zero-width heads have nothing to attend.
    for kv_head in 0..kv_dim / dim.max(1) {
        tiles(
            &mut Scores {
                q: &q[kv_head * queries..][..queries],
                keys,
                kv_dim,
                head: kv_head * dim,
                dim,
                scale,
                stride,
                out: scores,
            },
            group,
            blocks,
        );
        for head in scores.chunks_exact_mut(stride) {
            softmax(&mut head[..seq]);
        }
        let mut sums = ValueSum {
            weights: scores,
            stride,
            seq,
            values,
            kv_dim,
            head: kv_head * dim,
            dim,
            first: 0,
            width: PANEL,
            out: &mut out[kv_head * queries..][..queries],
        };
        tiles(&mut sums, group, dim / PANEL);
        let tail = dim % PANEL;
        if tail > 0 {
            sums.first = dim - tail;
            sums.width = tail;
            tiles(&mut sums, group, 1);
        }
    }
}

/// Scores of a KV head's query heads (grid rows) against its key blocks
/// (grid columns): `out[r * stride + t]` = head `r` · key `t`, scaled.
struct Scores<'a> {
    q: &'a [f32],
    keys: &'a [Lanes],
    kv_dim: usize,
    /// First dimension of this KV head within a key.
    head: usize,
    dim: usize,
    scale: f32,
    stride: usize,
    out: &'a mut [f32],
}

impl Tiled for Scores<'_> {
    #[inline(always)]
    fn tile<const R: usize, const P: usize>(&mut self, row: usize, block: usize) {
        let queries: [&[f32]; R] = runs(self.q, row, self.dim);
        let mut keys = [&self.keys[..0]; P];
        for (i, k) in keys.iter_mut().enumerate() {
            *k = &self.keys[(block + i) * self.kv_dim + self.head..][..self.dim];
        }
        let mut acc = [[[0.0; PANEL]; P]; R];
        for d in 0..self.dim {
            fma_column(&mut acc, gather(&queries, d), &gather(&keys, d));
        }
        // Scaled in registers, then copied: scaling on the way out made
        // LLVM check `out` against the stack copy of the tile and fall
        // back to a scalar loop.
        for a in acc.as_flattened_mut().as_flattened_mut() {
            *a *= self.scale;
        }
        for (r, acc) in acc.iter().enumerate() {
            self.out[(row + r) * self.stride + block * PANEL..][..P * PANEL]
                .copy_from_slice(acc.as_flattened());
        }
    }
}

/// Softmax-weighted value sums of a KV head's query heads (grid rows)
/// over vectors of its value dimensions from `first` (grid columns):
/// whole vectors of [`PANEL`] values, or the head's last `width < PANEL`
/// values as a one-column grid.
struct ValueSum<'a> {
    weights: &'a [f32],
    stride: usize,
    seq: usize,
    values: &'a [f32],
    kv_dim: usize,
    /// First dimension of this KV head within a value.
    head: usize,
    dim: usize,
    first: usize,
    width: usize,
    out: &'a mut [f32],
}

impl Tiled for ValueSum<'_> {
    #[inline(always)]
    fn tile<const R: usize, const P: usize>(&mut self, row: usize, vector: usize) {
        let col = self.first + vector * PANEL;
        // Only one-column grids cover a partial vector. Whole-vector
        // tiles copy a constant `P * PANEL` values per position, which
        // compiles to plain vector loads.
        let width = if P == 1 { self.width } else { P * PANEL };
        let acc = if width == P * PANEL {
            self.sum::<R, P>(row, col, P * PANEL)
        } else {
            self.sum::<R, P>(row, col, width)
        };
        for (r, acc) in acc.iter().enumerate() {
            self.out[(row + r) * self.dim + col..][..width]
                .copy_from_slice(&acc.as_flattened()[..width]);
        }
    }
}

impl ValueSum<'_> {
    /// Heads `row..row + R` over value dimensions `col..col + width`.
    #[inline(always)]
    fn sum<const R: usize, const P: usize>(
        &self,
        row: usize,
        col: usize,
        width: usize,
    ) -> [[Lanes; P]; R] {
        let mut weights = [&self.weights[..0]; R];
        for (r, w) in weights.iter_mut().enumerate() {
            *w = &self.weights[(row + r) * self.stride..][..self.seq];
        }
        let start = self.head + col;
        let mut acc = [[[0.0; PANEL]; P]; R];
        for t in 0..self.seq {
            let mut v = [[0.0; PANEL]; P];
            v.as_flattened_mut()[..width]
                .copy_from_slice(&self.values[t * self.kv_dim + start..][..width]);
            fma_column(&mut acc, gather(&weights, t), &v);
        }
        acc
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
