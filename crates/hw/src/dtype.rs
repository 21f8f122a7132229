//! Numeric data types used for model weights, activations and KV caches.

/// Inference data type.
///
/// The paper evaluates bfloat16 and int8 (via model quantization) as the two
/// practical deployment types, with float32 appearing only in the framework
/// micro-benchmark (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum DType {
    /// IEEE-754 single precision, 4 bytes per element.
    F32,
    /// Brain floating point, 2 bytes per element; natively supported by AMX
    /// tiles and AVX-512 BF16.
    Bf16,
    /// 8-bit integer with per-tensor scale (post-training quantization).
    Int8,
}

impl DType {
    /// Storage size of one element in bytes.
    #[must_use]
    pub fn bytes(self) -> f64 {
        match self {
            DType::F32 => 4.0,
            DType::Bf16 => 2.0,
            DType::Int8 => 1.0,
        }
    }

    /// Short lowercase label used in tables and figure legends
    /// (matches the paper: `f32`, `bf16`, `int8`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DType::F32 => "f32",
            DType::Bf16 => "bf16",
            DType::Int8 => "int8",
        }
    }

    /// The data type a CLI name selects: its [`label`](DType::label)
    /// (`f32`, `bf16` or `int8`).
    #[must_use]
    pub fn from_name(name: &str) -> Option<DType> {
        DType::all().into_iter().find(|d| d.label() == name)
    }

    /// Storage size of one *activation/KV-cache* element when weights are
    /// stored at this dtype. int8 quantization applies to weights only;
    /// the inference state (activations, KV cache) stays at bfloat16 in
    /// IPEX — which is why int8 roughly halves latency (weights dominate
    /// batch-1 decode) but gains less throughput at large batch, where
    /// bf16 KV reads dominate (Figure 4).
    #[must_use]
    pub fn act_bytes(self) -> f64 {
        match self {
            DType::F32 => 4.0,
            DType::Bf16 | DType::Int8 => 2.0,
        }
    }

    /// Relative per-operator compute cost multiplier of running this dtype
    /// compared to raw MAC throughput, accounting for quantize/dequantize
    /// traffic on the int8 path and up-conversion on f32.
    ///
    /// int8 inference still performs activation quantization, scale fusion
    /// and fp32 accumulation; the paper observes it achieves *similar
    /// throughput* to bf16 on AMX despite twice the nominal tile rate
    /// (Figure 4), which this multiplier reflects.
    #[must_use]
    pub fn compute_tax(self) -> f64 {
        match self {
            DType::F32 => 1.0,
            DType::Bf16 => 1.0,
            DType::Int8 => 1.9,
        }
    }

    /// All deployment data types, in the order figures present them.
    #[must_use]
    pub fn all() -> [DType; 3] {
        [DType::F32, DType::Bf16, DType::Int8]
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_name_inverts_label_and_rejects_the_rest() {
        for d in DType::all() {
            assert_eq!(DType::from_name(d.label()), Some(d));
        }
        for bad in ["", "int4", "BF16", "fp32", "bogus"] {
            assert_eq!(DType::from_name(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn sizes_are_powers_of_two_halving() {
        assert_eq!(DType::F32.bytes(), 4.0);
        assert_eq!(DType::Bf16.bytes(), 2.0);
        assert_eq!(DType::Int8.bytes(), 1.0);
    }

    #[test]
    fn display_matches_paper_labels() {
        assert_eq!(DType::Bf16.to_string(), "bf16");
        assert_eq!(DType::Int8.to_string(), "int8");
        assert_eq!(DType::F32.to_string(), "f32");
    }

    #[test]
    fn int8_compute_tax_halves_its_nominal_advantage() {
        // With AMX int8 at 2x bf16 tile rate but ~1.9x compute tax, the
        // effective throughput advantage is ~5%, matching Figure 4 where
        // int8 "generally achieves similar throughput to bfloat16".
        let effective = 2.0 / DType::Int8.compute_tax();
        assert!(effective > 0.95 && effective < 1.25);
    }
}
