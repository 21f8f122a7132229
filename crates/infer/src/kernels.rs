//! Compute kernels: matmul (scalar reference + panel kernels),
//! attention, RMSNorm, softmax, SiLU, RoPE.
//!
//! Two f32 matmul families live here:
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
//!   batch is **bit-identical** to `gemv_tiled` per input row. Versus
//!   [`gemv`] each product is fused into its add instead of rounded
//!   separately, so results may differ from the naive kernel by float
//!   rounding; the property suite (`tests/prop_kernels.rs`) pins that
//!   drift to ≤1e-5 relative error.
//!
//! A tile of `R` input rows × `P` panels keeps its `R·P` accumulators in
//! vector registers for the whole input dimension: each input column
//! costs `P` weight-vector loads, `R` broadcasts and `R·P` FMAs, and the
//! `R·P` independent chains hide the FMA latency. The int8 and int4
//! weights in [`crate::quant`] share the panel height and the one-chain
//! contract but run on integer dot products.
//!
//! Attention runs on the same tiles and the same FMA step, one call per
//! run of up to 4 consecutive query positions of one sequence. The query
//! heads of the whole run that share a KV head are scored as one grid
//! against four key blocks of [`PANEL`] positions at a time (every chain
//! of the tile shares each loaded key vector), and the softmax-weighted
//! values are summed for those heads over vectors of [`PANEL`] value
//! dimensions: together over the positions every row of the run
//! attends, then per row over its own causal tail. Each score is one
//! FMA chain over the head dimension and each output one FMA chain over
//! positions, in order, so a row's attention does not depend on its run
//! or on how many heads or positions a tile covers.
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
/// x[r] * w[i][j] + acc[r][i][j]`, one rounding. The only place an f32
/// panel tile touches an accumulator, so the matmul and attention sum in
/// the same order.
#[inline(always)]
fn fma_column<const R: usize, const P: usize>(
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
/// rows, or a column across its panels.
///
/// The hot loops build their small arrays with plain loops rather than
/// `std::array::from_fn`, whose closure calls the compiler does not
/// reliably inline.
#[inline(always)]
fn gather<T: Copy + Default, const N: usize>(runs: &[&[T]; N], i: usize) -> [T; N] {
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
fn runs<T, const N: usize>(data: &[T], first: usize, len: usize) -> [&[T]; N] {
    let mut out = [&data[..0]; N];
    for (i, run) in out.iter_mut().enumerate() {
        *run = &data[(first + i) * len..][..len];
    }
    out
}

/// A computation over a grid, run tile by tile with each tile's size
/// as compile-time constants.
trait Tiled {
    /// Called once per band of `R` grid rows from `row`, before its
    /// tiles. Bands run in grid-row order and never overlap.
    #[inline(always)]
    fn band<const R: usize>(&mut self, _row: usize) {}

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
    job.band::<R>(row);
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

/// `out[b] = xs[b] · W^T` for the `n` input rows packed in `xs` (row `b`
/// at `xs[b * cols..]`, output row `b` at `out[b * rows..]`): the one
/// routine behind the f32 panel kernels. Panels are the grid rows
/// [`tiles`] runs in the outer loop, so a tile's weights stay in L1 while
/// the input rows stream past them.
fn panel_matmul(w: &PanelMatrix, n: usize, xs: &[f32], out: &mut [f32]) {
    assert_eq!(xs.len(), n * w.cols, "matmul input dim");
    assert_eq!(out.len(), n * w.rows, "matmul output dim");
    tiles(&mut Matmul { w, xs, out }, w.rows.div_ceil(PANEL), n);
}

/// A panel matmul as a grid of panels (rows) by input rows (columns).
struct Matmul<'a> {
    w: &'a PanelMatrix,
    xs: &'a [f32],
    out: &'a mut [f32],
}

impl Tiled for Matmul<'_> {
    /// Panels `first..first + P` against input rows `b..b + R`, written
    /// to the outputs those panels cover.
    #[inline(always)]
    fn tile<const P: usize, const R: usize>(&mut self, first: usize, b: usize) {
        let (rows, cols) = (self.w.rows, self.w.cols);
        let panels: [&[Lanes]; P] = runs(&self.w.data, first, cols);
        let xs: [&[f32]; R] = runs(self.xs, b, cols);
        let mut acc = [[[0.0; PANEL]; P]; R];
        for c in 0..cols {
            fma_column(&mut acc, gather(&xs, c), &gather(&panels, c));
        }
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

/// Causal attention of a run of `run` consecutive query positions of
/// one sequence, every head at once: `group` query heads of `dim` values
/// share each KV head. `q` and `out` hold every query head of each row
/// of the run; `keys` and `values` are one layer of the KV cache, keys
/// in blocks of [`PANEL`] positions (`keys[block * kv_dim + d][t]`),
/// values row-major (`values[pos * kv_dim + d]`), already holding every
/// position of the run. Row `r` of the run attends the first `seq + r`
/// positions. `scores` is scratch, one buffer for every head.
///
/// For each KV head, the query heads of every row of the run are scored
/// against the keys as one grid, in tiles of up to 4 heads x 4 key
/// blocks; each score is one FMA chain over `dim`, and every chain of a
/// tile shares each loaded K vector. After a softmax per head, the
/// values of the `seq` positions every row attends are summed for all
/// the run's heads in tiles of up to 4 heads x 4 vectors of [`PANEL`]
/// values, and each later row then carries its own heads' sums on over
/// the positions only it attends. Each output is one FMA chain over
/// positions, in order, so neither the run nor the tiling changes a
/// result: a run of one is a decode step.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attend(
    q: &[f32],
    run: usize,
    group: usize,
    dim: usize,
    keys: &[Lanes],
    values: &[f32],
    seq: usize,
    scores: &mut Vec<f32>,
    out: &mut [f32],
) {
    let heads = HeadRows {
        group,
        width: q.len() / run,
        dim,
    };
    let kv_dim = heads.width / group;
    let queries = group * dim;
    let blocks = (seq + run - 1).div_ceil(PANEL);
    let stride = blocks * PANEL;
    scores.resize(run * group * stride, 0.0);
    #[allow(clippy::cast_precision_loss)]
    let scale = 1.0 / (dim as f32).sqrt();
    // Zero-width heads have nothing to attend.
    for kv_head in 0..kv_dim / dim.max(1) {
        tiles(
            &mut Scores {
                q: &q[kv_head * queries..],
                heads,
                band: [0; 4],
                keys,
                kv_dim,
                head: kv_head * dim,
                scale,
                stride,
                out: scores,
            },
            run * group,
            blocks,
        );
        for (r, heads) in scores.chunks_exact_mut(group * stride).enumerate() {
            for head in heads.chunks_exact_mut(stride) {
                softmax(&mut head[..seq + r]);
            }
        }
        let mut sums = ValueSum {
            weights: scores,
            stride,
            values,
            kv_dim,
            head: kv_head * dim,
            heads,
            out: &mut out[kv_head * queries..],
            row0: 0,
            positions: 0..0,
            band: [0; 4],
            first: 0,
            width: PANEL,
        };
        sums.rows(0, run * group, 0..seq);
        for r in 1..run {
            sums.rows(r * group, group, seq..seq + r);
        }
    }
}

/// The layout of a run's query heads for one KV head, as the rows of
/// its attention grid: grid row `i` is query head `i % group` of row
/// `i / group` of the run, whose `dim` values sit `width` apart per row
/// in `q` and in `out`.
#[derive(Clone, Copy)]
struct HeadRows {
    group: usize,
    width: usize,
    dim: usize,
}

impl HeadRows {
    /// The offsets of grid rows `row..row + R`, worked out once per band
    /// of tiles.
    #[inline(always)]
    fn band<const R: usize>(self, row: usize) -> [usize; 4] {
        let mut at = [0; 4];
        for (i, at) in at.iter_mut().take(R).enumerate() {
            let head = row + i;
            *at = head / self.group * self.width + head % self.group * self.dim;
        }
        at
    }
}

/// Scores of a run's query heads of one KV head (grid rows) against its
/// key blocks (grid columns): `out[i * stride + t]` = grid row `i` · key
/// `t`, scaled.
struct Scores<'a> {
    q: &'a [f32],
    heads: HeadRows,
    /// Offsets of the current band's query heads in `q`.
    band: [usize; 4],
    keys: &'a [Lanes],
    kv_dim: usize,
    /// First dimension of this KV head within a key.
    head: usize,
    scale: f32,
    stride: usize,
    out: &'a mut [f32],
}

impl Tiled for Scores<'_> {
    #[inline(always)]
    fn band<const R: usize>(&mut self, row: usize) {
        self.band = self.heads.band::<R>(row);
    }

    #[inline(always)]
    fn tile<const R: usize, const P: usize>(&mut self, row: usize, block: usize) {
        let dim = self.heads.dim;
        let mut queries = [&self.q[..0]; R];
        for (q, &at) in queries.iter_mut().zip(&self.band) {
            *q = &self.q[at..][..dim];
        }
        let mut keys = [&self.keys[..0]; P];
        for (i, k) in keys.iter_mut().enumerate() {
            *k = &self.keys[(block + i) * self.kv_dim + self.head..][..dim];
        }
        let mut acc = [[[0.0; PANEL]; P]; R];
        for d in 0..dim {
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

/// Softmax-weighted value sums of a run's query heads of one KV head
/// (grid rows from `row0`, weights `stride` apart) over `positions`, for
/// vectors of its value dimensions from `first` (grid columns): whole
/// vectors of [`PANEL`] values, or the head's last `width < PANEL`
/// values as a one-column grid. Sums over positions from 0 start at
/// zero; later positions carry on the sums already in `out`.
struct ValueSum<'a> {
    weights: &'a [f32],
    stride: usize,
    values: &'a [f32],
    kv_dim: usize,
    /// First dimension of this KV head within a value.
    head: usize,
    heads: HeadRows,
    out: &'a mut [f32],
    row0: usize,
    positions: std::ops::Range<usize>,
    /// Offsets of the current band's heads in `out`.
    band: [usize; 4],
    first: usize,
    width: usize,
}

impl Tiled for ValueSum<'_> {
    #[inline(always)]
    fn band<const R: usize>(&mut self, row: usize) {
        self.band = self.heads.band::<R>(self.row0 + row);
    }

    #[inline(always)]
    fn tile<const R: usize, const P: usize>(&mut self, row: usize, vector: usize) {
        let col = self.first + vector * PANEL;
        // Only one-column grids cover a partial vector. Whole-vector
        // tiles copy a constant `P * PANEL` values per position, which
        // compiles to plain vector loads.
        let width = if P == 1 { self.width } else { P * PANEL };
        let acc = if width == P * PANEL {
            self.sum::<R, P>(self.row0 + row, col, P * PANEL)
        } else {
            self.sum::<R, P>(self.row0 + row, col, width)
        };
        for (acc, &at) in acc.iter().zip(&self.band) {
            self.out[at + col..][..width].copy_from_slice(&acc.as_flattened()[..width]);
        }
    }
}

impl ValueSum<'_> {
    /// Every value dimension of grid rows `row0..row0 + rows` over
    /// `positions`.
    fn rows(&mut self, row0: usize, rows: usize, positions: std::ops::Range<usize>) {
        (self.row0, self.positions) = (row0, positions);
        (self.first, self.width) = (0, PANEL);
        let dim = self.heads.dim;
        tiles(self, rows, dim / PANEL);
        let tail = dim % PANEL;
        if tail > 0 {
            (self.first, self.width) = (dim - tail, tail);
            tiles(self, rows, 1);
        }
    }

    /// Grid rows `row..row + R` over value dimensions `col..col + width`.
    #[inline(always)]
    fn sum<const R: usize, const P: usize>(
        &self,
        row: usize,
        col: usize,
        width: usize,
    ) -> [[Lanes; P]; R] {
        let positions = self.positions.clone();
        // Indexed by position: each slice ends where `positions` does,
        // so the loop below needs no bounds checks.
        let mut weights = [&self.weights[..0]; R];
        for (r, w) in weights.iter_mut().enumerate() {
            *w = &self.weights[(row + r) * self.stride..][..positions.end];
        }
        let mut acc = [[[0.0; PANEL]; P]; R];
        if positions.start > 0 {
            for (acc, &at) in acc.iter_mut().zip(&self.band) {
                acc.as_flattened_mut()[..width].copy_from_slice(&self.out[at + col..][..width]);
            }
        }
        let start = self.head + col;
        for t in positions {
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
