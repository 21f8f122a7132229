//! Model weight serialization — the byte format that gets sealed /
//! encrypted at rest in the confidential pipeline.
//!
//! Format (little-endian): magic `CLLM`, version u16, seven u32 config
//! fields, then per block and head each weight matrix as produced by
//! [`Matrix::to_bytes`], length-prefixed with u64. Only f32 models are
//! serialized; quantization is re-applied after loading (as the paper's
//! deployments do: the artifact at rest is the full-precision model).
//!
//! Loading treats the bytes as untrusted: every shape is checked against
//! the config, and a malformed stream returns an error rather than
//! panicking or allocating beyond what the stream itself holds.

use crate::kernels::PanelMatrix;
use crate::model::{BlockWeights, Linear, TinyConfig, TinyModel};
use crate::tensor::Matrix;

const MAGIC: &[u8; 4] = b"CLLM";
const VERSION: u16 = 1;

/// Serialization errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerializeError {
    /// The model contains quantized layers; serialize the f32 original.
    QuantizedModel,
    /// The byte stream is not a valid model.
    Malformed(&'static str),
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::QuantizedModel => {
                f.write_str("quantized models are not serializable; store the f32 original")
            }
            SerializeError::Malformed(what) => write!(f, "malformed model bytes: {what}"),
        }
    }
}

impl std::error::Error for SerializeError {}

/// Bytes of the smallest possible decoder block: nine length-prefixed
/// matrices (two norms, seven linears) of at least 16 bytes each (u64
/// length + u32 rows + u32 cols).
const MIN_BLOCK_BYTES: usize = 9 * 16;

fn linear_matrix(l: &Linear) -> Result<Matrix, SerializeError> {
    match l {
        Linear::F32(m) => Ok(m.unpack()),
        // NaiveF32 is a kernel choice, not a weight format: it serializes
        // as full precision and deserializes as the (tiled) F32 variant.
        Linear::NaiveF32(m) => Ok(m.clone()),
        Linear::Int8(_) | Linear::Int4(_) => Err(SerializeError::QuantizedModel),
    }
}

fn push_matrix(out: &mut Vec<u8>, m: &Matrix) {
    let bytes = m.to_bytes();
    out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(&bytes);
}

fn push_vec(out: &mut Vec<u8>, v: &[f32]) {
    push_matrix(out, &Matrix::from_vec(1, v.len(), v.to_vec()));
}

/// Serialize an f32 model to bytes.
pub fn model_to_bytes(model: &TinyModel) -> Result<Vec<u8>, SerializeError> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    let c = &model.config;
    for field in [
        c.hidden,
        c.layers,
        c.heads,
        c.kv_heads,
        c.intermediate,
        c.vocab,
        c.max_seq,
    ] {
        out.extend_from_slice(&(field as u32).to_le_bytes());
    }
    out.extend_from_slice(&c.rope_theta.to_le_bytes());
    out.extend_from_slice(&c.eps.to_le_bytes());

    push_matrix(&mut out, &model.embed);
    for b in &model.blocks {
        push_vec(&mut out, &b.input_norm);
        for l in [&b.wq, &b.wk, &b.wv, &b.wo, &b.w_gate, &b.w_up, &b.w_down] {
            push_matrix(&mut out, &linear_matrix(l)?);
        }
        push_vec(&mut out, &b.post_norm);
    }
    push_vec(&mut out, &model.final_norm);
    push_matrix(&mut out, &linear_matrix(&model.lm_head)?);
    Ok(out)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SerializeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(SerializeError::Malformed("truncated"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, SerializeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn f32(&mut self) -> Result<f32, SerializeError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// A matrix that must be `rows x cols`.
    fn matrix(&mut self, rows: usize, cols: usize) -> Result<Matrix, SerializeError> {
        let len = u64::from_le_bytes(self.take(8)?.try_into().expect("8"));
        let len = usize::try_from(len).map_err(|_| SerializeError::Malformed("truncated"))?;
        let m =
            Matrix::from_bytes(self.take(len)?).ok_or(SerializeError::Malformed("bad matrix"))?;
        if (m.rows, m.cols) != (rows, cols) {
            return Err(SerializeError::Malformed(
                "matrix shape does not match the config",
            ));
        }
        Ok(m)
    }

    fn linear(&mut self, rows: usize, cols: usize) -> Result<Linear, SerializeError> {
        Ok(Linear::F32(PanelMatrix::pack(&self.matrix(rows, cols)?)))
    }

    fn norm(&mut self, len: usize) -> Result<Vec<f32>, SerializeError> {
        Ok(self.matrix(1, len)?.as_slice().to_vec())
    }
}

/// Deserialize a model from [`model_to_bytes`] output.
///
/// # Errors
///
/// [`SerializeError::Malformed`] if the bytes are truncated, carry
/// trailing data, describe an inconsistent config (heads not dividing
/// the hidden size, kv heads not dividing the heads, an odd head
/// dimension), or hold a matrix or norm whose shape disagrees with the
/// config.
pub fn model_from_bytes(bytes: &[u8]) -> Result<TinyModel, SerializeError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(SerializeError::Malformed("bad magic"));
    }
    let version = u16::from_le_bytes(r.take(2)?.try_into().expect("2"));
    if version != VERSION {
        return Err(SerializeError::Malformed("unsupported version"));
    }
    let config = TinyConfig {
        hidden: r.u32()? as usize,
        layers: r.u32()? as usize,
        heads: r.u32()? as usize,
        kv_heads: r.u32()? as usize,
        intermediate: r.u32()? as usize,
        vocab: r.u32()? as usize,
        max_seq: r.u32()? as usize,
        rope_theta: r.f32()?,
        eps: r.f32()?,
    };
    if config.heads == 0
        || config.kv_heads == 0
        || !config.hidden.is_multiple_of(config.heads)
        || !config.heads.is_multiple_of(config.kv_heads)
        || !config.head_dim().is_multiple_of(2)
    {
        return Err(SerializeError::Malformed("inconsistent config"));
    }
    let (h, kv, inter) = (config.hidden, config.kv_dim(), config.intermediate);
    let embed = r.matrix(config.vocab, h)?;
    let mut blocks = Vec::with_capacity(config.layers.min(r.remaining() / MIN_BLOCK_BYTES));
    for _ in 0..config.layers {
        blocks.push(BlockWeights {
            input_norm: r.norm(h)?,
            wq: r.linear(h, h)?,
            wk: r.linear(kv, h)?,
            wv: r.linear(kv, h)?,
            wo: r.linear(h, h)?,
            w_gate: r.linear(inter, h)?,
            w_up: r.linear(inter, h)?,
            w_down: r.linear(h, inter)?,
            post_norm: r.norm(h)?,
        });
    }
    let final_norm = r.norm(h)?;
    let lm_head = r.linear(config.vocab, h)?;
    if r.remaining() != 0 {
        return Err(SerializeError::Malformed("trailing bytes"));
    }
    Ok(TinyModel {
        config,
        embed,
        blocks,
        final_norm,
        lm_head,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let m = TinyModel::init(&TinyConfig::test_small(), 7);
        let bytes = model_to_bytes(&m).unwrap();
        let back = model_from_bytes(&bytes).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn roundtrip_model_generates_identically() {
        use crate::generate::{generate, Sampling};
        let m = TinyModel::init(&TinyConfig::test_small(), 7);
        let back = model_from_bytes(&model_to_bytes(&m).unwrap()).unwrap();
        assert_eq!(
            generate(&m, &[1, 2], 6, Sampling::Greedy, 0),
            generate(&back, &[1, 2], 6, Sampling::Greedy, 0)
        );
    }

    #[test]
    fn quantized_model_rejected() {
        let m = TinyModel::init(&TinyConfig::test_small(), 7).quantized();
        assert_eq!(model_to_bytes(&m), Err(SerializeError::QuantizedModel));
        let m4 = TinyModel::init(&TinyConfig::test_small(), 7).quantized4();
        assert_eq!(model_to_bytes(&m4), Err(SerializeError::QuantizedModel));
    }

    #[test]
    fn naive_model_serializes_as_f32() {
        let m = TinyModel::init(&TinyConfig::test_small(), 7);
        let bytes_naive = model_to_bytes(&m.naive()).unwrap();
        assert_eq!(bytes_naive, model_to_bytes(&m).unwrap());
        // Deserializes back onto the tiled path.
        assert_eq!(model_from_bytes(&bytes_naive).unwrap(), m);
    }

    /// A model small enough to flip every bit of: one layer, hidden 8.
    fn tiny() -> TinyModel {
        let config = TinyConfig {
            hidden: 8,
            layers: 1,
            heads: 2,
            kv_heads: 1,
            intermediate: 6,
            vocab: 5,
            max_seq: 8,
            rope_theta: 10000.0,
            eps: 1e-5,
        };
        TinyModel::init(&config, 3)
    }

    #[test]
    fn every_truncation_and_trailing_byte_is_rejected() {
        let bytes = model_to_bytes(&tiny()).unwrap();
        for len in 0..bytes.len() {
            assert!(model_from_bytes(&bytes[..len]).is_err(), "prefix of {len}");
        }
        let mut longer = bytes;
        longer.push(0);
        assert_eq!(
            model_from_bytes(&longer),
            Err(SerializeError::Malformed("trailing bytes"))
        );
    }

    #[test]
    fn every_structural_bit_flip_is_rejected() {
        let bytes = model_to_bytes(&tiny()).unwrap();
        let mut accepted = 0;
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(m) = model_from_bytes(&flipped) {
                // A flipped weight, float field or max_seq loads as
                // exactly the model the bytes describe.
                assert_eq!(model_to_bytes(&m).unwrap(), flipped, "bit {bit}");
                accepted += 1;
            }
        }
        // Structural bytes: magic, version, the six shape fields, and
        // the length prefix and header of each of the 12 matrices (the
        // embedding, nine per layer, the final norm, the LM head). A
        // flip in any of them must be rejected; a flip anywhere else
        // changes a value, which any bytes may hold.
        let structural = 4 + 2 + 6 * 4 + 12 * 16;
        assert_eq!(accepted, (bytes.len() - structural) * 8);
    }

    #[test]
    fn wrong_shapes_and_inconsistent_configs_are_rejected() {
        let shape = Err(SerializeError::Malformed(
            "matrix shape does not match the config",
        ));
        let config = Err(SerializeError::Malformed("inconsistent config"));
        let load = |m: &TinyModel| model_from_bytes(&model_to_bytes(m).unwrap());
        let base = TinyModel::init(&TinyConfig::test_small(), 7);

        let mut m = base.clone();
        m.blocks[1].wk = m.blocks[1].wq.clone();
        assert_eq!(load(&m), shape);
        let mut m = base.clone();
        m.blocks[0].post_norm.pop();
        assert_eq!(load(&m), shape);
        let mut m = base.clone();
        m.config.intermediate += 1;
        assert_eq!(load(&m), shape);

        // Four heads over three kv heads; then a head dim of one.
        let mut m = base.clone();
        m.config.kv_heads = 3;
        assert_eq!(load(&m), config);
        let mut m = base.clone();
        m.config.heads = 64;
        assert_eq!(load(&m), config);

        // A layer count no stream could hold is an error, not an
        // allocation failure.
        let mut bytes = model_to_bytes(&base).unwrap();
        bytes[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(model_from_bytes(&bytes).is_err());
    }

    #[test]
    fn malformed_rejected() {
        assert!(model_from_bytes(b"nope").is_err());
        let m = TinyModel::init(&TinyConfig::test_small(), 7);
        let mut bytes = model_to_bytes(&m).unwrap();
        bytes.truncate(bytes.len() / 2);
        assert!(model_from_bytes(&bytes).is_err());
        bytes[0] = b'X';
        assert!(model_from_bytes(&bytes).is_err());
    }
}
