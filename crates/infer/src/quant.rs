//! Group-wise int8 and int4 weights on exact integer dot products.
//!
//! The paper's int8 deployments run on the Xeon's integer matrix units:
//! weights and activations both quantized, their products summed in
//! integers. This module does the same on AVX-512 VNNI:
//!
//! * **Group-wise scales.** Each weight row is split into groups of
//!   [`GROUP`] columns and every `(row, group)` pair gets its own f32
//!   scale (`max(|group|)/127` for int8, `max(|group|)/7` for int4).
//!   A single per-row scale lets one outlier wreck the whole row; a
//!   per-group scale bounds the damage to one group — the standard
//!   trick behind GPTQ/AWQ-style weight quantization.
//! * **Activation codes.** Each input row is quantized per group of
//!   [`GROUP`] columns against its own symmetric scale, rounding half to
//!   even: `max|x|/127` (8-bit codes) for int4 weights, `max|x|/32767`
//!   (16-bit codes) for int8 weights. The width is a fixed property of
//!   the format: with 8-bit codes the int8 draft of speculative decoding
//!   loses acceptance, with 16-bit codes it matches f32 activations. An
//!   input several matrices share (q/k/v, gate/up) is quantized once
//!   (`Input`).
//! * **Exact group sums.** Every `(output, input row, group)` dot product
//!   is an exact int32 sum of code products; int4's +8 nibble bias is
//!   removed by subtracting `8·Σx` for the group. Each group then takes
//!   one f32 step, in group order: `acc = (sum as f32).mul_add(s_w * s_x,
//!   acc)`. That chain does not depend on how rows are tiled, so `gemv`,
//!   `gemm` and the model's three forwards agree bit for bit.
//! * **Block layout.** Codes are repacked when a matrix is quantized
//!   into 64-byte blocks of [`PANEL`] rows, group by group, each group
//!   zero-padded to [`GROUP`] columns: lane `j` (4 bytes) of a block holds
//!   row `j`'s codes of 4 int8 columns or 8 int4 columns, in the order
//!   the dot-product instructions pair them with activation words. One load feeds the dot products of every input
//!   row of a tile.
//! * **Two kernels, one result.** The private `vnni` module, the crate's
//!   only `unsafe` code, runs the blocks on `vpdpbusd` (int4 weights ×
//!   8-bit codes) and `vpdpwssd` (int8 × 16-bit), in tiles of up to 4
//!   input rows × 2–4 panels. [`Quantized::quantize`] selects it once,
//!   where `is_x86_feature_detected!` confirms AVX-512 F, BW and VNNI.
//!   Elsewhere a portable safe kernel computes the same integers with
//!   the same f32 steps; it is also the tests' bit-exact oracle.
//!
//! Error bounds: round-to-nearest against a group scale `s` gives
//! `|v - dequant(quant(v))| <= s/2`, i.e. `max|group|/254` for int8 and
//! `max|group|/14` for int4 weights. Against the f32 product with the
//! dequantized weights, an output then errs by at most `Σ_g (s_x[g]/2) ·
//! Σ_{c∈g} |w(r, c)|` plus f32 rounding, `s_x[g]` the activation scale of
//! group `g`. The test suite pins these bounds on adversarial matrices
//! (all-zero, single-outlier, alternating-sign).

use crate::kernels::{interleave, Lanes, PANEL};
use crate::tensor::Matrix;
use std::cell::OnceCell;
use std::marker::PhantomData;

#[cfg(target_arch = "x86_64")]
mod vnni;

/// Columns per quantization group, for weights and activations alike.
/// 64 matches the engine's smallest hidden size and divides every
/// dimension the models use; ragged final groups (cols not a multiple
/// of 64) are zero-padded.
pub const GROUP: usize = 64;

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
fn code(v: f32, scale: f32, qmax: f32) -> i32 {
    (v / scale).round().clamp(-qmax, qmax) as i32
}

/// A quantized weight format: [`Int8`] or [`Int4`].
pub trait Format:
    layout::Layout + Copy + Clone + Default + PartialEq + std::fmt::Debug + 'static
{
    /// Largest weight code magnitude: a weight group's scale is its
    /// largest magnitude over this.
    const WEIGHT_MAX: f32;
    /// Largest activation code magnitude: an input group's scale is its
    /// largest magnitude over this.
    const ACT_MAX: f32;
}

mod layout {
    use crate::kernels::PANEL;

    /// The codes and block layout the integer kernels read; implemented
    /// only by the two formats.
    pub trait Layout {
        /// Bits per stored weight code.
        const WEIGHT_BITS: usize;
        /// Added to each weight code when stored, so an int4 nibble is the
        /// unsigned byte operand of `vpdpbusd`.
        const BIAS: i32;
        /// Bits per activation code.
        const ACT_BITS: usize;
        /// Input columns per 64-byte block: one 4-byte lane per row.
        const BLOCK_COLS: usize = 32 / Self::WEIGHT_BITS;

        /// The lowest bit of column `k` of a block in a row's 4-byte lane,
        /// read as a little-endian word. Columns `0..BLOCK_COLS/2` form the
        /// first operand a block unpacks to and pair, in order, with one
        /// activation word; the rest form the second and pair with the next
        /// word.
        fn bit(k: usize) -> u32;

        /// The stored (biased) code of column `k` in a lane word.
        fn stored(lane: i32, k: usize) -> i32;

        /// `sum[j] += Σ_k stored(lanes[j], k) · codes[k]` over one block's
        /// columns: the portable kernel's step, written out so that it
        /// vectorizes across the lanes.
        fn dot(sum: &mut [i32; PANEL], lanes: [i32; PANEL], codes: &[i32]);
    }
}

/// Int8 weights (`±127` against the group scale) with 16-bit activation
/// codes, on `vpdpwssd`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Int8;

/// Packed int4 weights (`±7` against the group scale, stored biased by
/// +8 as `1..=15`) with 8-bit activation codes, on `vpdpbusd`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Int4;

impl Format for Int8 {
    const WEIGHT_MAX: f32 = 127.0;
    const ACT_MAX: f32 = 32767.0;
}

impl Format for Int4 {
    const WEIGHT_MAX: f32 = 7.0;
    const ACT_MAX: f32 = 127.0;
}

impl layout::Layout for Int8 {
    const WEIGHT_BITS: usize = 8;
    const BIAS: i32 = 0;
    const ACT_BITS: usize = 16;

    /// `vpdpwssd` multiplies 16-bit words: the low bytes of a lane's two
    /// words (bytes 0 and 2) sign-extend to columns 0 and 1, the high
    /// bytes (1 and 3) to columns 2 and 3.
    fn bit(k: usize) -> u32 {
        // Columns 0, 1, 2, 3 at bytes 0, 2, 1, 3.
        (16 * (k & 1) + 8 * (k >> 1)) as u32
    }

    fn stored(lane: i32, k: usize) -> i32 {
        (lane << (24 - Self::bit(k))) >> 24
    }

    fn dot(sum: &mut [i32; PANEL], lanes: [i32; PANEL], codes: &[i32]) {
        let &[x0, x1, x2, x3] = codes else {
            unreachable!("4 columns per block")
        };
        for (s, lane) in sum.iter_mut().zip(lanes) {
            *s += (lane << 24 >> 24) * x0
                + (lane << 8 >> 24) * x1
                + (lane << 16 >> 24) * x2
                + (lane >> 24) * x3;
        }
    }
}

impl layout::Layout for Int4 {
    const WEIGHT_BITS: usize = 4;
    const BIAS: i32 = 8;
    const ACT_BITS: usize = 8;

    /// Column `k < 4` in the low nibble of byte `k`, column `k + 4` in
    /// its high nibble.
    fn bit(k: usize) -> u32 {
        (8 * (k & 3) + 4 * (k >> 2)) as u32
    }

    fn stored(lane: i32, k: usize) -> i32 {
        (lane >> Self::bit(k)) & 0x0F
    }

    fn dot(sum: &mut [i32; PANEL], lanes: [i32; PANEL], codes: &[i32]) {
        let &[x0, x1, x2, x3, x4, x5, x6, x7] = codes else {
            unreachable!("8 columns per block")
        };
        for (s, lane) in sum.iter_mut().zip(lanes) {
            let n = |bit: u32| (lane >> bit) & 0x0F;
            *s += n(0) * x0 + n(8) * x1 + n(16) * x2 + n(24) * x3;
            *s += n(4) * x4 + n(12) * x5 + n(20) * x6 + n(28) * x7;
        }
    }
}

/// One 64-byte block: 4 bytes for each of [`PANEL`] rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(64))]
struct Block([u8; 64]);

impl Block {
    /// Each row's 4 bytes as a little-endian word.
    fn lanes(&self) -> [i32; PANEL] {
        let mut lanes = [0; PANEL];
        for (lane, bytes) in lanes.iter_mut().zip(self.0.as_chunks::<4>().0) {
            *lane = i32::from_le_bytes(*bytes);
        }
        lanes
    }
}

/// A quantized weight matrix (`rows` outputs x `cols` inputs) with one
/// f32 scale per `(row, group)`, in blocks of [`PANEL`] rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantized<F: Format> {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// `blocks[(p * groups + g) * GROUP / F::BLOCK_COLS + b]`: rows
    /// `p * PANEL..` and block `b`'s columns of group `g`, lane `j` = row
    /// `p * PANEL + j`.
    blocks: Vec<Block>,
    /// `scales[p * groups + g][j]`: row `p * PANEL + j`, group `g`.
    scales: Vec<Lanes>,
    kernel: Kernel,
    format: PhantomData<F>,
}

/// An int8-quantized matrix.
pub type QuantMatrix = Quantized<Int8>;

/// An int4-quantized matrix: two codes per byte.
pub type Quant4Matrix = Quantized<Int4>;

/// The kernel a matrix runs on, chosen once when it is quantized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// Safe Rust over the same integers: the fallback and the oracle.
    Portable,
    /// AVX-512 VNNI, which the token proves the CPU has.
    #[cfg(target_arch = "x86_64")]
    Vnni(vnni::Vnni),
}

impl Kernel {
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(token) = vnni::Vnni::detect() {
            return Kernel::Vnni(token);
        }
        Kernel::Portable
    }
}

impl<F: Format> Quantized<F> {
    /// Blocks per group.
    const BLOCKS: usize = GROUP / F::BLOCK_COLS;

    /// Quantize an f32 matrix with group-wise scales, and select the
    /// VNNI kernel if the CPU has it.
    #[must_use]
    pub fn quantize(m: &Matrix) -> Self {
        let groups = groups_of(m.cols);
        let scales = group_scales(m, F::WEIGHT_MAX);
        let mut blocks = vec![Block([0; 64]); m.rows.div_ceil(PANEL) * groups * Self::BLOCKS];
        for r in 0..m.rows {
            let (p, j) = (r / PANEL, r % PANEL);
            for (c, &v) in m.row(r).iter().enumerate() {
                let (g, col) = (c / GROUP, c % GROUP);
                let stored = code(v, scales[r * groups + g], F::WEIGHT_MAX) + F::BIAS;
                let bit = F::bit(col % F::BLOCK_COLS);
                let block = &mut blocks[(p * groups + g) * Self::BLOCKS + col / F::BLOCK_COLS];
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                {
                    block.0[4 * j + bit as usize / 8] |= (stored as u8) << (bit % 8);
                }
            }
        }
        Quantized {
            rows: m.rows,
            cols: m.cols,
            blocks,
            scales: interleave(m.rows, groups, |r, g| scales[r * groups + g]),
            kernel: Kernel::detect(),
            format: PhantomData,
        }
    }

    /// Dequantize back to f32 (for error measurement and the
    /// error-bound tests).
    #[must_use]
    pub fn dequantize(&self) -> Matrix {
        let groups = groups_of(self.cols);
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (p, j) = (r / PANEL, r % PANEL);
            for c in 0..self.cols {
                let (g, col) = (c / GROUP, c % GROUP);
                let block = &self.blocks[(p * groups + g) * Self::BLOCKS + col / F::BLOCK_COLS];
                #[allow(clippy::cast_precision_loss)]
                let q = (F::stored(block.lanes()[j], col % F::BLOCK_COLS) - F::BIAS) as f32;
                out.set(r, c, q * self.scales[p * groups + g][j]);
            }
        }
        out
    }

    /// `out = x · w^T`, `x` quantized per group.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn gemv(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "qgemv input dim");
        assert_eq!(out.len(), self.rows, "qgemv output dim");
        self.matmul(&Acts::quantize::<F>(x, 1, self.cols), out);
    }

    /// Batched GEMM: `out[b] = xs[b] · w^T`, each block of weights
    /// reused across a tile of input rows, and bit-identical per row to
    /// [`Self::gemv`].
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn gemm(&self, xs: &Matrix, out: &mut Matrix) {
        self.apply(&Input::new(xs), out);
    }

    /// [`Self::gemm`] over an input that may already hold its codes.
    pub(crate) fn apply(&self, input: &Input, out: &mut Matrix) {
        assert_eq!(input.x.cols, self.cols, "qgemm input dim");
        assert_eq!(out.rows, input.x.rows, "qgemm batch dim");
        assert_eq!(out.cols, self.rows, "qgemm output dim");
        self.matmul(input.acts::<F>(), out.as_mut_slice());
    }

    /// Run the selected kernel.
    fn matmul(&self, x: &Acts, out: &mut [f32]) {
        match self.kernel {
            Kernel::Portable => portable(self, x, out),
            #[cfg(target_arch = "x86_64")]
            Kernel::Vnni(token) => token.matmul(self, x, out),
        }
    }

    /// Storage bytes of the format: `rows * ceil(cols * bits / 8)` code
    /// bytes — exact for an int4 row of odd length — plus 4 per group
    /// scale. The zero rows and columns padding panels and groups are
    /// layout, not format, and are not counted.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.rows * (self.cols * F::WEIGHT_BITS).div_ceil(8) + self.rows * groups_of(self.cols) * 4
    }
}

/// Input rows quantized for one activation width: per `(row, group)` a
/// scale, the bias correction and the codes, little-endian, each group
/// zero-padded to [`GROUP`] codes.
struct Acts {
    rows: usize,
    groups: usize,
    /// `codes[((r * groups + g) * GROUP + c) * F::ACT_BITS / 8..]`: the
    /// code of column `c` of group `g` of row `r`.
    codes: Vec<u8>,
    /// `scales[r * groups + g]`: `max|x| / F::ACT_MAX` (1.0 for an
    /// all-zero group; NaN or infinite if the group holds such a value).
    scales: Vec<f32>,
    /// `bias[r * groups + g]`: `F::BIAS` times the sum of the codes.
    bias: Vec<i32>,
}

impl Acts {
    /// Quantize `n` rows of `cols` values, packed in `xs`.
    #[allow(clippy::cast_possible_truncation)]
    fn quantize<F: Format>(xs: &[f32], n: usize, cols: usize) -> Self {
        /// `1.5·2^23`: adding it to an integer of magnitude below `2^22`
        /// puts the integer in the low bits of the sum.
        const SHIFT: f32 = 12_582_912.0;
        let groups = groups_of(cols);
        let width = F::ACT_BITS / 8;
        let mut acts = Acts {
            rows: n,
            groups,
            codes: vec![0; n * groups * GROUP * width],
            scales: Vec::with_capacity(n * groups),
            bias: Vec::with_capacity(n * groups),
        };
        let mut runs = acts.codes.chunks_exact_mut(GROUP * width);
        for r in 0..n {
            let row = &xs[r * cols..][..cols];
            for g in 0..groups {
                let x = &row[(g * GROUP).min(cols)..((g + 1) * GROUP).min(cols)];
                // The largest magnitude by bit pattern: NaN sorts above
                // infinity, so either makes the scale non-finite.
                let bits = x.iter().fold(0, |m, v| m.max(v.to_bits() & 0x7FFF_FFFF));
                let max = f32::from_bits(bits);
                let scale = if max == 0.0 { 1.0 } else { max / F::ACT_MAX };
                let code = |v: f32| {
                    let t = (v / scale).clamp(-F::ACT_MAX, F::ACT_MAX).round_ties_even();
                    (t + SHIFT)
                        .to_bits()
                        .wrapping_sub(SHIFT.to_bits())
                        .cast_signed()
                };
                let run = runs.next().expect("one run of codes per group");
                let mut sum = 0;
                // A non-finite scale alone makes the group's f32 step
                // non-finite; a zero one (a subnormal maximum) makes it
                // zero. Either way the codes stay zero.
                if scale.is_finite() && scale > 0.0 {
                    if width == 1 {
                        for (byte, &v) in run.iter_mut().zip(x) {
                            let q = code(v);
                            *byte = q as u8;
                            sum += q;
                        }
                    } else {
                        for (bytes, &v) in run.as_chunks_mut::<2>().0.iter_mut().zip(x) {
                            let q = code(v);
                            *bytes = (q as i16).to_le_bytes();
                            sum += q;
                        }
                    }
                }
                acts.scales.push(scale);
                acts.bias.push(F::BIAS * sum);
            }
        }
        acts
    }

    /// The codes of group `g` of row `r`, as little-endian 32-bit words:
    /// four 8-bit or two 16-bit codes each.
    fn words<F: Format>(&self, r: usize, g: usize) -> &[[u8; 4]] {
        let len = GROUP * F::ACT_BITS / 8;
        self.codes[(r * self.groups + g) * len..][..len]
            .as_chunks()
            .0
    }

    /// The codes of group `g` of row `r`.
    fn codes<F: Format>(&self, r: usize, g: usize) -> [i32; GROUP] {
        let bytes = self.words::<F>(r, g).as_flattened();
        let mut codes = [0; GROUP];
        if F::ACT_BITS == 8 {
            for (q, &b) in codes.iter_mut().zip(bytes) {
                *q = i32::from(b.cast_signed());
            }
        } else {
            for (q, &b) in codes.iter_mut().zip(bytes.as_chunks::<2>().0) {
                *q = i32::from(i16::from_le_bytes(b));
            }
        }
        codes
    }
}

/// An input matrix shared by several matmuls, quantized once per
/// activation width on first use: the model's q/k/v projections share
/// one, gate and up another.
pub(crate) struct Input<'a> {
    x: &'a Matrix,
    /// 8-bit codes (for int4 weights), then 16-bit (for int8).
    acts: [OnceCell<Acts>; 2],
}

impl<'a> Input<'a> {
    /// `x`, not yet quantized.
    pub(crate) fn new(x: &'a Matrix) -> Self {
        Input {
            x,
            acts: [OnceCell::new(), OnceCell::new()],
        }
    }

    /// The f32 rows.
    pub(crate) fn matrix(&self) -> &Matrix {
        self.x
    }

    fn acts<F: Format>(&self) -> &Acts {
        self.acts[usize::from(F::ACT_BITS == 16)]
            .get_or_init(|| Acts::quantize::<F>(self.x.as_slice(), self.x.rows, self.x.cols))
    }
}

/// The portable kernel: for each input row and panel, every group's
/// exact integer sum, then its f32 step, as `vnni` computes them. Each
/// block's columns are shifted out of its lane words (`Layout::dot`), 16
/// rows at a time.
fn portable<F: Format>(w: &Quantized<F>, x: &Acts, out: &mut [f32]) {
    let groups = x.groups;
    for r in 0..x.rows {
        for p in 0..w.rows.div_ceil(PANEL) {
            let mut acc = [0.0f32; PANEL];
            for g in 0..groups {
                let codes = x.codes::<F>(r, g);
                let blocks = &w.blocks[(p * groups + g) * Quantized::<F>::BLOCKS..];
                let mut sum = [0i32; PANEL];
                for (block, codes) in blocks.iter().zip(codes.chunks_exact(F::BLOCK_COLS)) {
                    F::dot(&mut sum, block.lanes(), codes);
                }
                let (s_x, bias) = (x.scales[r * groups + g], x.bias[r * groups + g]);
                for ((a, s), s_w) in acc.iter_mut().zip(sum).zip(&w.scales[p * groups + g]) {
                    #[allow(clippy::cast_precision_loss)]
                    let s = (s - bias) as f32;
                    *a = s.mul_add(s_w * s_x, *a);
                }
            }
            let start = p * PANEL;
            let live = PANEL.min(w.rows - start);
            out[r * w.rows + start..][..live].copy_from_slice(&acc[..live]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The scalar integer reference: weight and activation codes from
    /// their definitions, row-major, each group summed exactly in i64
    /// and then stepped in f32 as the kernels do.
    fn reference<F: Format>(m: &Matrix, xs: &Matrix) -> Matrix {
        let groups = groups_of(m.cols);
        let mut out = Matrix::zeros(xs.rows, m.rows);
        for b in 0..xs.rows {
            let x = xs.row(b);
            for r in 0..m.rows {
                let mut acc = 0.0f32;
                for g in 0..groups {
                    let cols = (g * GROUP).min(m.cols)..((g + 1) * GROUP).min(m.cols);
                    let (w, x) = (&m.row(r)[cols.clone()], &x[cols]);
                    let w_max = w.iter().fold(0.0f32, |a, v| a.max(v.abs()));
                    let s_w = if w_max == 0.0 {
                        1.0
                    } else {
                        w_max / F::WEIGHT_MAX
                    };
                    let x_max = x.iter().fold(0.0f32, |a, v| a.max(v.abs()));
                    let s_x = if x_max == 0.0 {
                        1.0
                    } else {
                        x_max / F::ACT_MAX
                    };
                    let sum: i64 = w
                        .iter()
                        .zip(x)
                        .map(|(&w, &x)| {
                            let q_w = (w / s_w).round().clamp(-F::WEIGHT_MAX, F::WEIGHT_MAX);
                            let q_x = (x / s_x).round_ties_even();
                            q_w as i64 * q_x as i64
                        })
                        .sum();
                    acc = (sum as f32).mul_add(s_w * s_x, acc);
                }
                out.set(b, r, acc);
            }
        }
        out
    }

    /// Every kernel this CPU can run on `q`, by name, over `xs`.
    fn every_kernel<F: Format>(q: &Quantized<F>, xs: &Matrix) -> Vec<(&'static str, Vec<f32>)> {
        let acts = Acts::quantize::<F>(xs.as_slice(), xs.rows, xs.cols);
        let mut runs = Vec::new();
        let mut out = vec![0.0; xs.rows * q.rows];
        portable(q, &acts, &mut out);
        runs.push(("portable", out));
        #[cfg(target_arch = "x86_64")]
        if let Some(token) = vnni::Vnni::detect() {
            let mut out = vec![0.0; xs.rows * q.rows];
            token.matmul(q, &acts, &mut out);
            runs.push(("vnni", out));
        }
        runs
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_kernels_match_reference<F: Format>(m: &Matrix, xs: &Matrix) {
        let want = bits(reference::<F>(m, xs).as_slice());
        for (name, got) in every_kernel(&Quantized::<F>::quantize(m), xs) {
            assert_eq!(
                bits(&got),
                want,
                "{name} {:?} {}x{} over {} rows",
                F::default(),
                m.rows,
                m.cols,
                xs.rows
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn vnni_portable_and_scalar_reference_agree_bit_for_bit(
            rows in prop_oneof![1usize..=PANEL + 1, 1usize..=5 * PANEL + 1],
            cols in prop_oneof![1usize..9, (GROUP - 3)..(GROUP + 4), 1usize..200],
            n in 1usize..=20,
            seed in any::<u32>(),
        ) {
            let m = sample(rows, cols, seed);
            let xs = sample(n, cols, seed ^ 0x5EED);
            assert_kernels_match_reference::<Int8>(&m, &xs);
            assert_kernels_match_reference::<Int4>(&m, &xs);
        }
    }

    #[test]
    fn kernels_match_reference_on_tile_and_group_edges() {
        // 100 rows: bands of 4, 2 and 1 panels, the last one ragged.
        // 97 and 130 columns: ragged final groups, odd and even.
        for (cols, n) in [(97, 1), (97, 2), (130, 3), (97, 4), (130, 7), (97, 9)] {
            let m = sample(100, cols, 31);
            let xs = sample(n, cols, 37);
            assert_kernels_match_reference::<Int8>(&m, &xs);
            assert_kernels_match_reference::<Int4>(&m, &xs);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn a_cpu_with_avx512_vnni_gets_the_vnni_kernel() {
        // Floors at smoke scale cannot tell the kernels apart.
        if is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512vnni")
        {
            let m = sample(20, 70, 3);
            assert!(matches!(QuantMatrix::quantize(&m).kernel, Kernel::Vnni(_)));
            assert!(matches!(Quant4Matrix::quantize(&m).kernel, Kernel::Vnni(_)));
        }
    }

    #[test]
    fn a_non_finite_activation_poisons_every_output_of_its_row() {
        // 3 input rows over 2 groups; one NaN or infinity in a group of
        // row 1 feeds every output of row 1 and none of the others.
        let m = sample(20, 100, 5);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for col in [0, 70] {
                let mut xs = sample(3, 100, 9);
                xs.set(1, col, bad);
                let q8 = QuantMatrix::quantize(&m);
                let q4 = Quant4Matrix::quantize(&m);
                let runs = [every_kernel(&q8, &xs), every_kernel(&q4, &xs)];
                for (name, out) in runs.iter().flatten() {
                    for (r, row) in out.chunks(20).enumerate() {
                        let finite = row.iter().filter(|v| v.is_finite()).count();
                        let want = if r == 1 { 0 } else { 20 };
                        assert_eq!(finite, want, "{name}: {bad} at column {col}, row {r}");
                    }
                }
            }
        }
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
        // The integer kernels compute the dequantized weights' product
        // with the quantized activations: against the f32 product with
        // the exact activations, each output errs by at most half an
        // activation step per weight magnitude, Σ_g (s_x[g]/2) ·
        // Σ_{c∈g} |w(r, c)|, plus f32 rounding.
        let m = sample(6, 97, 13); // odd cols: ragged group + half byte
        let x: Vec<f32> = (0..97).map(|i| (i as f32 * 0.17).sin()).collect();
        for (fused, deq, act_max) in [
            {
                let q = QuantMatrix::quantize(&m);
                let mut f = vec![0.0; 6];
                q.gemv(&x, &mut f);
                (f, q.dequantize(), Int8::ACT_MAX)
            },
            {
                let q = Quant4Matrix::quantize(&m);
                let mut f = vec![0.0; 6];
                q.gemv(&x, &mut f);
                (f, q.dequantize(), Int4::ACT_MAX)
            },
        ] {
            let mut want = vec![0.0; 6];
            crate::kernels::gemv(&x, &deq, &mut want);
            for (r, (f, d)) in fused.iter().zip(&want).enumerate() {
                let (mut bound, mut magnitude) = (0.0f32, 0.0f32);
                for (g, x) in x.chunks(GROUP).enumerate() {
                    let s_x = x.iter().fold(0.0f32, |a, v| a.max(v.abs())) / act_max;
                    let w = &deq.row(r)[g * GROUP..][..x.len()];
                    bound += s_x / 2.0 * w.iter().map(|w| w.abs()).sum::<f32>();
                    magnitude += w.iter().zip(x).map(|(w, x)| (w * x).abs()).sum::<f32>();
                }
                let slack = 1e-5 * magnitude + 1e-6;
                assert!(
                    (f - d).abs() <= bound + slack,
                    "fused {f} unfused {d} bound {bound}"
                );
            }
        }
    }

    #[test]
    fn quantized_gemm_bit_identical_to_gemv() {
        // 100 rows: bands of 4, 2 and 1 panels, the last one ragged. 97
        // columns: a whole group, then a ragged one ending on a half
        // byte. Batches of 1 to 4 rows run one tile per band; 15 and 35
        // run several 4-row tiles and every remainder.
        let m = sample(100, 97, 17);
        let q8 = QuantMatrix::quantize(&m);
        let q4 = Quant4Matrix::quantize(&m);
        for batch in [1, 2, 3, 4, 5, 15, 35] {
            let xs = sample(batch, 97, 19);
            let mut out8 = Matrix::zeros(batch, 100);
            let mut out4 = Matrix::zeros(batch, 100);
            q8.gemm(&xs, &mut out8);
            q4.gemm(&xs, &mut out4);
            for b in 0..batch {
                let mut s8 = vec![0.0; 100];
                let mut s4 = vec![0.0; 100];
                q8.gemv(xs.row(b), &mut s8);
                q4.gemv(xs.row(b), &mut s4);
                assert_eq!(out8.row(b), &s8[..], "int8 row {b} of {batch}");
                assert_eq!(out4.row(b), &s4[..], "int4 row {b} of {batch}");
            }
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
