//! A Llama-architecture decoder at arbitrary (tiny) scale.
//!
//! Decode has three entry points that are **bit-identical** per token
//! (every output of every weight format is one sequential FMA chain over
//! the input dimension, however the panel kernels tile the batch):
//!
//! * [`TinyModel::forward`] — one token, one sequence (a 1-token chunk).
//! * [`TinyModel::forward_chunk`] — `n` consecutive tokens of one
//!   sequence in a single pass per layer (prefill and speculative
//!   verification); each weight matrix is streamed once per chunk
//!   instead of once per token.
//! * [`TinyModel::forward_batch`] — one token each for `B` independent
//!   sequences (continuous batching); weights stream once per step
//!   across the whole batch.
//!
//! All three run one decoder loop, so RoPE, the cache append and
//! attention exist once. Each call computes every row's RoPE `(cos,
//! sin)` table once and rotates the query and key heads of every layer
//! with it. Attention reads a [`KvCache`] whose keys are stored
//! transposed in blocks of [`PANEL`] positions and whose values stay
//! row-major, and handles all heads of a query position in one
//! `kernels::attend` call: each score is one FMA chain over the head
//! dimension, each output one FMA chain over positions.

use crate::kernels::{
    attend, gemm, gemv, gemv_tiled, rmsnorm, rope_angles, rope_rotate, silu, Lanes, PanelMatrix,
    PANEL,
};
use crate::quant::{Quant4Matrix, QuantMatrix};
use crate::tensor::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Architecture hyperparameters (a miniature `cllm_workload::ModelConfig`).
#[derive(Debug, Clone, PartialEq)]
pub struct TinyConfig {
    /// Hidden dimension.
    pub hidden: usize,
    /// Decoder blocks.
    pub layers: usize,
    /// Query heads.
    pub heads: usize,
    /// KV heads (grouped-query attention when < heads).
    pub kv_heads: usize,
    /// Gated-MLP intermediate dimension.
    pub intermediate: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Maximum sequence length the KV cache allocates for.
    pub max_seq: usize,
    /// RoPE base.
    pub rope_theta: f32,
    /// RMSNorm epsilon.
    pub eps: f32,
}

impl TinyConfig {
    /// A small config for fast tests: 64 hidden, 2 layers, GQA 4:2.
    #[must_use]
    pub fn test_small() -> Self {
        TinyConfig {
            hidden: 64,
            layers: 2,
            heads: 4,
            kv_heads: 2,
            intermediate: 172,
            vocab: 256,
            max_seq: 128,
            rope_theta: 10000.0,
            eps: 1e-5,
        }
    }

    /// Per-head dimension.
    #[must_use]
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }

    /// K/V projection width.
    #[must_use]
    pub fn kv_dim(&self) -> usize {
        self.kv_heads * self.head_dim()
    }
}

/// A linear layer in one of four weight formats.
#[derive(Debug, Clone, PartialEq)]
pub enum Linear {
    /// Full-precision weights in panels on the tiled kernel path (the
    /// default).
    F32(PanelMatrix),
    /// Full-precision weights on the scalar reference kernel — the
    /// "naive" baseline `bench_infer` measures tiled speedups against.
    /// Serializes identically to [`Linear::F32`] (and deserializes as
    /// it); the variant only selects a kernel.
    NaiveF32(Matrix),
    /// Int8-quantized weights (group-wise scales, fused dequant).
    Int8(QuantMatrix),
    /// Packed int4-quantized weights (group-wise scales, fused dequant).
    Int4(Quant4Matrix),
}

impl Linear {
    /// `out = x · W^T`.
    pub fn apply(&self, x: &[f32], out: &mut [f32]) {
        match self {
            Linear::F32(m) => gemv_tiled(x, m, out),
            Linear::NaiveF32(m) => gemv(x, m, out),
            Linear::Int8(q) => q.gemv(x, out),
            Linear::Int4(q) => q.gemv(x, out),
        }
    }

    /// Batched `out[b] = xs[b] · W^T`, bit-identical per row to
    /// [`Linear::apply`]. The tiled and quantized formats reuse each
    /// tile of weight panels across the batch; the naive format deliberately
    /// re-runs the reference GEMV per row (no amortization), keeping the
    /// baseline honest.
    pub fn apply_batch(&self, xs: &Matrix, out: &mut Matrix) {
        match self {
            Linear::F32(m) => gemm(xs, m, out),
            Linear::NaiveF32(m) => {
                for b in 0..xs.rows {
                    gemv(xs.row(b), m, out.row_mut(b));
                }
            }
            Linear::Int8(q) => q.gemm(xs, out),
            Linear::Int4(q) => q.gemm(xs, out),
        }
    }

    /// Output dimension.
    #[must_use]
    pub fn rows(&self) -> usize {
        match self {
            Linear::F32(m) => m.rows(),
            Linear::NaiveF32(m) => m.rows,
            Linear::Int8(q) => q.rows,
            Linear::Int4(q) => q.rows,
        }
    }
}

/// Weights of one decoder block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockWeights {
    /// Pre-attention RMSNorm gain.
    pub input_norm: Vec<f32>,
    /// Query projection (`hidden x hidden`).
    pub wq: Linear,
    /// Key projection (`kv_dim x hidden`).
    pub wk: Linear,
    /// Value projection (`kv_dim x hidden`).
    pub wv: Linear,
    /// Output projection (`hidden x hidden`).
    pub wo: Linear,
    /// Post-attention RMSNorm gain.
    pub post_norm: Vec<f32>,
    /// Gate projection (`intermediate x hidden`).
    pub w_gate: Linear,
    /// Up projection (`intermediate x hidden`).
    pub w_up: Linear,
    /// Down projection (`hidden x intermediate`).
    pub w_down: Linear,
}

/// The full model.
#[derive(Debug, Clone, PartialEq)]
pub struct TinyModel {
    /// Hyperparameters.
    pub config: TinyConfig,
    /// Token embedding table (`vocab x hidden`).
    pub embed: Matrix,
    /// Decoder blocks.
    pub blocks: Vec<BlockWeights>,
    /// Final RMSNorm gain.
    pub final_norm: Vec<f32>,
    /// LM head (`vocab x hidden`).
    pub lm_head: Linear,
}

/// Per-layer KV cache.
///
/// Keys are stored transposed in blocks of [`PANEL`] positions
/// (`[block][kv_dim][PANEL]`), so attention scores a whole block with
/// one FMA chain over the head dimension; lanes of the last block past
/// `len` are never read. Values stay row-major (`[position][kv_dim]`).
/// The serialized form ([`KvCache::to_bytes`]) is row-major for both.
#[derive(Debug, Clone)]
pub struct KvCache {
    /// Per layer: `k[l][block * kv_dim + d][t]` is dimension `d` of the
    /// key at position `block * PANEL + t`.
    k: Vec<Vec<Lanes>>,
    /// Per layer: `v[l][pos * kv_dim + d]`.
    v: Vec<Vec<f32>>,
    /// Tokens currently cached.
    pub len: usize,
    /// Width of one token's K (or V) entry.
    pub kv_dim: usize,
}

impl KvCache {
    fn empty(layers: usize, kv_dim: usize) -> Self {
        KvCache {
            k: vec![Vec::new(); layers],
            v: vec![Vec::new(); layers],
            len: 0,
            kv_dim,
        }
    }

    /// KV bytes currently held (f32).
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.v.iter().map(Vec::len).sum::<usize>() * 8
    }

    /// Append the key and value of position `pos` of `layer`, which
    /// must be the next position that layer has not stored.
    fn store(&mut self, layer: usize, pos: usize, key: &[f32], value: &[f32]) {
        let kvd = self.kv_dim;
        debug_assert_eq!(
            self.v[layer].len(),
            pos * kvd,
            "KV positions stored in order"
        );
        let keys = &mut self.k[layer];
        let block = pos / PANEL;
        if keys.len() < (block + 1) * kvd {
            keys.resize((block + 1) * kvd, [0.0; PANEL]);
        }
        for (lanes, &kd) in keys[block * kvd..].iter_mut().zip(key) {
            lanes[pos % PANEL] = kd;
        }
        self.v[layer].extend_from_slice(value);
    }

    /// Drop cached entries beyond the first `len` tokens. Speculative
    /// decoding uses this to roll back a rejected draft suffix.
    ///
    /// # Panics
    ///
    /// Panics if `len > self.len` (a cache cannot be truncated forward).
    pub fn truncate(&mut self, len: usize) {
        assert!(len <= self.len, "cannot truncate cache forward");
        let kvd = self.kv_dim;
        for keys in &mut self.k {
            keys.truncate(len.div_ceil(PANEL) * kvd);
        }
        for values in &mut self.v {
            values.truncate(len * kvd);
        }
        self.len = len;
    }

    /// Serialize the cache (for sealing/migrating a live session).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let kvd = self.kv_dim;
        let mut out = Vec::new();
        out.extend_from_slice(b"CKVC");
        out.extend_from_slice(&(self.len as u32).to_le_bytes());
        out.extend_from_slice(&(kvd as u32).to_le_bytes());
        out.extend_from_slice(&(self.k.len() as u32).to_le_bytes());
        for keys in &self.k {
            out.extend_from_slice(&((self.len * kvd) as u32).to_le_bytes());
            for t in 0..self.len {
                for d in 0..kvd {
                    out.extend_from_slice(&keys[(t / PANEL) * kvd + d][t % PANEL].to_le_bytes());
                }
            }
        }
        for values in &self.v {
            out.extend_from_slice(&(values.len() as u32).to_le_bytes());
            for v in values {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Restore a cache serialized by [`KvCache::to_bytes`]. Returns `None`
    /// on a malformed or internally inconsistent buffer.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let end = pos.checked_add(n)?;
            if end > bytes.len() {
                return None;
            }
            let s = &bytes[*pos..end];
            *pos = end;
            Some(s)
        };
        if take(&mut pos, 4)? != b"CKVC" {
            return None;
        }
        let len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        let kv_dim = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        let layers = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        let read_layer = |pos: &mut usize| -> Option<Vec<f32>> {
            let n = u32::from_le_bytes(take(pos, 4)?.try_into().ok()?) as usize;
            if n != len * kv_dim {
                return None;
            }
            let raw = take(pos, n * 4)?;
            Some(
                raw.chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("4")))
                    .collect(),
            )
        };
        let k: Option<Vec<Vec<f32>>> = (0..layers).map(|_| read_layer(&mut pos)).collect();
        let v: Option<Vec<Vec<f32>>> = (0..layers).map(|_| read_layer(&mut pos)).collect();
        if pos != bytes.len() {
            return None;
        }
        let (k, v) = (k?, v?);
        let mut cache = KvCache::empty(layers, kv_dim);
        if kv_dim > 0 {
            for (layer, (keys, values)) in k.iter().zip(&v).enumerate() {
                let rows = keys.chunks_exact(kv_dim).zip(values.chunks_exact(kv_dim));
                for (t, (key, value)) in rows.enumerate() {
                    cache.store(layer, t, key, value);
                }
            }
        }
        cache.len = len;
        Some(cache)
    }
}

/// Identity `AsMut`, so batched forwards accept both owned slices
/// (`&mut [KvCache]`) and gathered references (`&mut [&mut KvCache]`).
impl AsMut<KvCache> for KvCache {
    fn as_mut(&mut self) -> &mut KvCache {
        self
    }
}

fn init_matrix(rng: &mut StdRng, rows: usize, cols: usize, scale: f32) -> Matrix {
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        // Uniform in [-scale, scale] — adequate for a functional model.
        data.push((rng.random::<f32>() * 2.0 - 1.0) * scale);
    }
    Matrix::from_vec(rows, cols, data)
}

fn init_linear(rng: &mut StdRng, rows: usize, cols: usize, scale: f32) -> Linear {
    Linear::F32(PanelMatrix::pack(&init_matrix(rng, rows, cols, scale)))
}

/// Residual connection: `x += delta`, element by element.
fn add(x: &mut Matrix, delta: &Matrix) {
    for (xi, d) in x.as_mut_slice().iter_mut().zip(delta.as_slice()) {
        *xi += d;
    }
}

impl TinyModel {
    /// Deterministically initialize a model from `seed`.
    #[must_use]
    pub fn init(config: &TinyConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = config.hidden;
        let kv = config.kv_dim();
        let inter = config.intermediate;
        #[allow(clippy::cast_precision_loss)]
        let scale = 1.0 / (h as f32).sqrt();
        let blocks = (0..config.layers)
            .map(|_| BlockWeights {
                input_norm: vec![1.0; h],
                wq: init_linear(&mut rng, h, h, scale),
                wk: init_linear(&mut rng, kv, h, scale),
                wv: init_linear(&mut rng, kv, h, scale),
                wo: init_linear(&mut rng, h, h, scale),
                post_norm: vec![1.0; h],
                w_gate: init_linear(&mut rng, inter, h, scale),
                w_up: init_linear(&mut rng, inter, h, scale),
                w_down: init_linear(&mut rng, h, inter, scale),
            })
            .collect();
        TinyModel {
            config: config.clone(),
            embed: init_matrix(&mut rng, config.vocab, h, 0.1),
            blocks,
            final_norm: vec![1.0; h],
            lm_head: init_linear(&mut rng, config.vocab, h, scale),
        }
    }

    /// Copy of the model with every linear layer mapped through `f`
    /// (embedding and norms are shared structure and copied as-is).
    fn map_linears(&self, f: impl Fn(&Linear) -> Linear) -> TinyModel {
        TinyModel {
            config: self.config.clone(),
            embed: self.embed.clone(),
            blocks: self
                .blocks
                .iter()
                .map(|b| BlockWeights {
                    input_norm: b.input_norm.clone(),
                    wq: f(&b.wq),
                    wk: f(&b.wk),
                    wv: f(&b.wv),
                    wo: f(&b.wo),
                    post_norm: b.post_norm.clone(),
                    w_gate: f(&b.w_gate),
                    w_up: f(&b.w_up),
                    w_down: f(&b.w_down),
                })
                .collect(),
            final_norm: self.final_norm.clone(),
            lm_head: f(&self.lm_head),
        }
    }

    /// Quantize all linear layers to int8 (embedding and norms stay f32,
    /// as in the paper's deployments). Already-quantized layers are kept.
    #[must_use]
    pub fn quantized(&self) -> TinyModel {
        self.map_linears(|l| match l {
            Linear::F32(m) => Linear::Int8(QuantMatrix::quantize(&m.unpack())),
            Linear::NaiveF32(m) => Linear::Int8(QuantMatrix::quantize(m)),
            other => other.clone(),
        })
    }

    /// Quantize all linear layers to packed int4 (group-wise scales).
    /// Already-quantized layers are kept.
    #[must_use]
    pub fn quantized4(&self) -> TinyModel {
        self.map_linears(|l| match l {
            Linear::F32(m) => Linear::Int4(Quant4Matrix::quantize(&m.unpack())),
            Linear::NaiveF32(m) => Linear::Int4(Quant4Matrix::quantize(m)),
            other => other.clone(),
        })
    }

    /// Copy of the model with full-precision layers pinned to the scalar
    /// reference kernel — the naive baseline for `bench_infer`.
    #[must_use]
    pub fn naive(&self) -> TinyModel {
        self.map_linears(|l| match l {
            Linear::F32(m) => Linear::NaiveF32(m.unpack()),
            other => other.clone(),
        })
    }

    /// Fresh KV cache.
    #[must_use]
    pub fn new_cache(&self) -> KvCache {
        KvCache::empty(self.config.layers, self.config.kv_dim())
    }

    /// Process one token at position `cache.len`, append to the cache and
    /// return the next-token logits. This is a 1-token
    /// [`TinyModel::forward_chunk`], so single-token decode is
    /// bit-identical to chunked and batched decode.
    ///
    /// # Panics
    ///
    /// Panics if `token >= vocab` or the cache is full.
    #[must_use]
    pub fn forward(&self, token: usize, cache: &mut KvCache) -> Vec<f32> {
        self.forward_chunk(&[token], cache).row(0).to_vec()
    }

    /// Process `n` consecutive tokens of one sequence in a single pass
    /// per layer, appending all of them to the cache; returns the `n x
    /// vocab` logits (row `i` = next-token logits after `tokens[..=i]`).
    ///
    /// Each weight matrix is streamed from memory once per chunk via the
    /// batched kernels, which is what makes prefill and speculative
    /// verification fast; causality is preserved by appending K/V
    /// position-by-position before attending.
    ///
    /// # Panics
    ///
    /// Panics if any token is out of vocabulary or the chunk overflows
    /// the cache.
    #[must_use]
    pub fn forward_chunk(&self, tokens: &[usize], cache: &mut KvCache) -> Matrix {
        self.forward_rows(tokens, &mut [cache], |_| 0)
    }

    /// Advance `B` independent sequences by one token each in a single
    /// pass per layer; `tokens[b]` goes to `caches[b]` at its own
    /// position (sequences may be at different lengths). Returns the
    /// `B x vocab` logits. Weight traffic is amortized across the batch
    /// exactly as the analytical model assumes for batched decode.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch, out-of-vocabulary tokens, or any full
    /// cache.
    #[must_use]
    pub fn forward_batch<C: AsMut<KvCache>>(&self, tokens: &[usize], caches: &mut [C]) -> Matrix {
        assert_eq!(tokens.len(), caches.len(), "one cache per sequence");
        let mut caches: Vec<&mut KvCache> = caches.iter_mut().map(AsMut::as_mut).collect();
        self.forward_rows(tokens, &mut caches, |b| b)
    }

    /// The decoder behind every forward: row `i` appends `tokens[i]` to
    /// `caches[cache_of(i)]` at that cache's next position (rows of one
    /// cache in order), and every layer runs once over all rows. Returns
    /// the logits, one row per token.
    fn forward_rows(
        &self,
        tokens: &[usize],
        caches: &mut [&mut KvCache],
        cache_of: impl Fn(usize) -> usize,
    ) -> Matrix {
        let cfg = &self.config;
        let n = tokens.len();
        for &t in tokens {
            assert!(t < cfg.vocab, "token {t} out of vocabulary");
        }
        let mut lens: Vec<usize> = caches.iter().map(|c| c.len).collect();
        let rows: Vec<(usize, usize)> = (0..n)
            .map(|i| {
                let c = cache_of(i);
                let pos = lens[c];
                lens[c] += 1;
                (c, pos)
            })
            .collect();
        assert!(lens.iter().all(|&len| len <= cfg.max_seq), "KV cache full");
        let h = cfg.hidden;
        let hd = cfg.head_dim();
        let kvd = cfg.kv_dim();
        let inter = cfg.intermediate;
        let group = cfg.heads / cfg.kv_heads;
        let angles = rope_angles(rows.iter().map(|&(_, pos)| pos), hd, cfg.rope_theta);
        let mut scores = Vec::new();

        let mut x = Matrix::zeros(n, h);
        for (i, &t) in tokens.iter().enumerate() {
            x.row_mut(i).copy_from_slice(self.embed.row(t));
        }

        for (layer, block) in self.blocks.iter().enumerate() {
            // Attention sub-block.
            let mut normed = x.clone();
            for i in 0..n {
                rmsnorm(normed.row_mut(i), &block.input_norm, cfg.eps);
            }
            let mut q = Matrix::zeros(n, h);
            let mut k = Matrix::zeros(n, kvd);
            let mut v = Matrix::zeros(n, kvd);
            block.wq.apply_batch(&normed, &mut q);
            block.wk.apply_batch(&normed, &mut k);
            block.wv.apply_batch(&normed, &mut v);

            let mut attn = Matrix::zeros(n, h);
            for (i, &(c, pos)) in rows.iter().enumerate() {
                let rotation = &angles[i * hd / 2..][..hd / 2];
                for head in 0..cfg.heads {
                    rope_rotate(&mut q.row_mut(i)[head * hd..][..hd], rotation);
                }
                for head in 0..cfg.kv_heads {
                    rope_rotate(&mut k.row_mut(i)[head * hd..][..hd], rotation);
                }
                let cache = &mut *caches[c];
                cache.store(layer, pos, k.row(i), v.row(i));
                attend(
                    q.row(i),
                    group,
                    hd,
                    &cache.k[layer],
                    &cache.v[layer],
                    pos + 1,
                    &mut scores,
                    attn.row_mut(i),
                );
            }

            let mut proj = Matrix::zeros(n, h);
            block.wo.apply_batch(&attn, &mut proj);
            add(&mut x, &proj);

            // MLP sub-block.
            let mut normed = x.clone();
            for i in 0..n {
                rmsnorm(normed.row_mut(i), &block.post_norm, cfg.eps);
            }
            let mut gate = Matrix::zeros(n, inter);
            let mut up = Matrix::zeros(n, inter);
            block.w_gate.apply_batch(&normed, &mut gate);
            block.w_up.apply_batch(&normed, &mut up);
            for (g, u) in gate.as_mut_slice().iter_mut().zip(up.as_slice()) {
                *g = silu(*g) * u;
            }
            let mut down = Matrix::zeros(n, h);
            block.w_down.apply_batch(&gate, &mut down);
            add(&mut x, &down);
        }

        for (cache, len) in caches.iter_mut().zip(lens) {
            cache.len = len;
        }

        for i in 0..n {
            rmsnorm(x.row_mut(i), &self.final_norm, cfg.eps);
        }
        let mut logits = Matrix::zeros(n, cfg.vocab);
        self.lm_head.apply_batch(&x, &mut logits);
        logits
    }

    /// Approximate parameter count.
    #[must_use]
    pub fn param_count(&self) -> usize {
        let c = &self.config;
        let block = c.hidden * c.hidden * 2
            + c.hidden * c.kv_dim() * 2
            + 3 * c.hidden * c.intermediate
            + 2 * c.hidden;
        2 * c.vocab * c.hidden + c.layers * block + c.hidden
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{rmsnorm, rope};

    fn model() -> TinyModel {
        TinyModel::init(&TinyConfig::test_small(), 1234)
    }

    #[test]
    fn deterministic_init() {
        let a = model();
        let b = model();
        assert_eq!(a.embed, b.embed);
        assert_eq!(a.blocks.len(), 2);
    }

    #[test]
    fn forward_produces_finite_logits() {
        let m = model();
        let mut cache = m.new_cache();
        let logits = m.forward(7, &mut cache);
        assert_eq!(logits.len(), 256);
        assert!(logits.iter().all(|v| v.is_finite()));
        assert_eq!(cache.len, 1);
    }

    #[test]
    fn context_changes_predictions() {
        // The same token after different histories must yield different
        // logits — i.e. attention actually attends.
        let m = model();
        let mut c1 = m.new_cache();
        let _ = m.forward(5, &mut c1);
        let l1 = m.forward(9, &mut c1);
        let mut c2 = m.new_cache();
        let _ = m.forward(6, &mut c2);
        let l2 = m.forward(9, &mut c2);
        let diff: f32 = l1.iter().zip(&l2).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-3, "history had no effect: diff {diff}");
    }

    #[test]
    fn cache_prefix_consistency() {
        // Feeding [a, b, c] one at a time must match feeding [a, b] then c
        // in a fresh cache (incremental KV caching is exact).
        let m = model();
        let mut full = m.new_cache();
        let _ = m.forward(1, &mut full);
        let _ = m.forward(2, &mut full);
        let l_full = m.forward(3, &mut full);

        let mut replay = m.new_cache();
        let _ = m.forward(1, &mut replay);
        let _ = m.forward(2, &mut replay);
        let l_replay = m.forward(3, &mut replay);
        assert_eq!(l_full, l_replay);
    }

    #[test]
    fn quantized_model_tracks_f32() {
        let m = model();
        let q = m.quantized();
        let mut cf = m.new_cache();
        let mut cq = q.new_cache();
        let lf = m.forward(42, &mut cf);
        let lq = q.forward(42, &mut cq);
        // Correlation between f32 and int8 logits should be strong.
        let dot: f32 = lf.iter().zip(&lq).map(|(a, b)| a * b).sum();
        let nf: f32 = lf.iter().map(|v| v * v).sum::<f32>().sqrt();
        let nq: f32 = lq.iter().map(|v| v * v).sum::<f32>().sqrt();
        let corr = dot / (nf * nq);
        assert!(corr > 0.98, "correlation {corr}");
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn rejects_out_of_vocab() {
        let m = model();
        let mut cache = m.new_cache();
        let _ = m.forward(9999, &mut cache);
    }

    #[test]
    fn gqa_grouping_works() {
        // test_small uses 4 heads over 2 kv heads; forward must not panic
        // and kv cache width must be kv_dim.
        let m = model();
        let mut cache = m.new_cache();
        let _ = m.forward(0, &mut cache);
        assert_eq!(cache.k[0].len(), m.config.kv_dim());
    }

    #[test]
    fn kv_cache_migration_is_exact() {
        // Seal-and-migrate: a restored cache continues generation exactly
        // where the original left off.
        let m = model();
        let mut original = m.new_cache();
        for t in [5usize, 9, 3, 14] {
            let _ = m.forward(t, &mut original);
        }
        let restored = KvCache::from_bytes(&original.to_bytes()).unwrap();
        let mut a = original.clone();
        let mut b = restored;
        assert_eq!(m.forward(21, &mut a), m.forward(21, &mut b));
    }

    #[test]
    fn kv_cache_rejects_garbage() {
        assert!(KvCache::from_bytes(b"junk").is_none());
        let m = model();
        let mut c = m.new_cache();
        let _ = m.forward(1, &mut c);
        let mut bytes = c.to_bytes();
        bytes.pop();
        assert!(KvCache::from_bytes(&bytes).is_none());
        bytes.push(0);
        bytes.push(0);
        assert!(KvCache::from_bytes(&bytes).is_none());
    }

    #[test]
    fn kv_cache_serializes_row_major_with_exact_bytes() {
        // 17 tokens: one full K block of PANEL positions and one more.
        let m = model();
        let cfg = &m.config;
        let (kvd, hd, n) = (cfg.kv_dim(), cfg.head_dim(), PANEL + 1);
        let tokens: Vec<usize> = (0..n).map(|i| (i * 37) % cfg.vocab).collect();
        let mut cache = m.new_cache();
        let _ = m.forward_chunk(&tokens, &mut cache);

        // Layer 0's keys and values straight from the weights, row-major.
        let (mut want_k, mut want_v) = (Vec::new(), Vec::new());
        for (pos, &t) in tokens.iter().enumerate() {
            let mut x = m.embed.row(t).to_vec();
            rmsnorm(&mut x, &m.blocks[0].input_norm, cfg.eps);
            let (mut k, mut v) = (vec![0.0; kvd], vec![0.0; kvd]);
            m.blocks[0].wk.apply(&x, &mut k);
            m.blocks[0].wv.apply(&x, &mut v);
            for head in k.chunks_exact_mut(hd) {
                rope(head, pos, cfg.rope_theta);
            }
            want_k.extend(k);
            want_v.extend(v);
        }

        // CKVC: magic, len, kv_dim, layers, then every layer's K, then
        // every layer's V, each a u32 count and its f32s.
        let bytes = cache.to_bytes();
        let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        assert_eq!(&bytes[..4], b"CKVC");
        assert_eq!(
            [u32_at(4), u32_at(8), u32_at(12)],
            [n as u32, kvd as u32, cfg.layers as u32]
        );
        let layer_bytes = 4 + n * kvd * 4;
        assert_eq!(bytes.len(), 16 + 2 * cfg.layers * layer_bytes);
        let floats = |off: usize| -> Vec<f32> {
            assert_eq!(u32_at(off) as usize, n * kvd);
            bytes[off + 4..off + layer_bytes]
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect()
        };
        assert_eq!(floats(16), want_k);
        assert_eq!(floats(16 + cfg.layers * layer_bytes), want_v);

        assert_eq!(cache.bytes(), cfg.layers * n * kvd * 8);
        cache.truncate(PANEL - 1);
        assert_eq!(cache.bytes(), cfg.layers * (PANEL - 1) * kvd * 8);
    }

    #[test]
    fn param_count_plausible() {
        let m = model();
        let p = m.param_count();
        assert!(p > 50_000 && p < 500_000, "params {p}");
    }

    #[test]
    fn chunked_forward_bit_identical_to_sequential() {
        let m = model();
        let tokens = [3usize, 17, 99, 4, 200];
        let mut seq_cache = m.new_cache();
        let seq_logits: Vec<Vec<f32>> = tokens
            .iter()
            .map(|&t| m.forward(t, &mut seq_cache))
            .collect();
        let mut chunk_cache = m.new_cache();
        let chunk_logits = m.forward_chunk(&tokens, &mut chunk_cache);
        assert_eq!(chunk_cache.len, tokens.len());
        for (i, sl) in seq_logits.iter().enumerate() {
            assert_eq!(chunk_logits.row(i), &sl[..], "position {i} diverged");
        }
        // And the caches are byte-identical, so generation can continue
        // from either.
        assert_eq!(seq_cache.to_bytes(), chunk_cache.to_bytes());
    }

    #[test]
    fn chunked_forward_matches_for_quantized_models() {
        for m in [model().quantized(), model().quantized4(), model().naive()] {
            let tokens = [8usize, 1, 77];
            let mut seq_cache = m.new_cache();
            let all: Vec<Vec<f32>> = tokens
                .iter()
                .map(|&t| m.forward(t, &mut seq_cache))
                .collect();
            let seq_last = all.last().unwrap().clone();
            let mut chunk_cache = m.new_cache();
            let chunk = m.forward_chunk(&tokens, &mut chunk_cache);
            assert_eq!(chunk.row(tokens.len() - 1), &seq_last[..]);
        }
    }

    #[test]
    fn batched_forward_bit_identical_to_individual() {
        let m = model();
        // Three sequences at different lengths.
        let prompts: [&[usize]; 3] = [&[1, 2], &[9], &[40, 41, 42]];
        let mut caches: Vec<KvCache> = prompts
            .iter()
            .map(|p| {
                let mut c = m.new_cache();
                let _ = m.forward_chunk(p, &mut c);
                c
            })
            .collect();
        let mut individual = caches.clone();
        let step = [7usize, 8, 9];
        let batched = m.forward_batch(&step, &mut caches);
        for (b, &t) in step.iter().enumerate() {
            let single = m.forward(t, &mut individual[b]);
            assert_eq!(batched.row(b), &single[..], "sequence {b} diverged");
            assert_eq!(caches[b].len, individual[b].len);
        }
    }

    #[test]
    fn truncate_rolls_back_exactly() {
        let m = model();
        let mut reference = m.new_cache();
        let _ = m.forward_chunk(&[5, 6], &mut reference);
        let mut speculated = reference.clone();
        let _ = m.forward_chunk(&[100, 101, 102], &mut speculated);
        speculated.truncate(2);
        assert_eq!(speculated.to_bytes(), reference.to_bytes());
        // Continuing after rollback matches continuing the reference.
        assert_eq!(
            m.forward(33, &mut speculated),
            m.forward(33, &mut reference)
        );
    }

    #[test]
    #[should_panic(expected = "truncate cache forward")]
    fn truncate_forward_rejected() {
        let m = model();
        let mut c = m.new_cache();
        let _ = m.forward(1, &mut c);
        c.truncate(2);
    }

    #[test]
    fn int4_model_tracks_f32() {
        let m = model();
        let q = m.quantized4();
        let mut cf = m.new_cache();
        let mut cq = q.new_cache();
        let lf = m.forward(42, &mut cf);
        let lq = q.forward(42, &mut cq);
        let dot: f32 = lf.iter().zip(&lq).map(|(a, b)| a * b).sum();
        let nf: f32 = lf.iter().map(|v| v * v).sum::<f32>().sqrt();
        let nq: f32 = lq.iter().map(|v| v * v).sum::<f32>().sqrt();
        let corr = dot / (nf * nq);
        assert!(corr > 0.90, "int4 correlation {corr}");
    }
}
