//! Seeded input generation: a small RNG, request lengths and synthetic
//! text.
//!
//! Everything a run feeds the program is derived here from `--seed` (or,
//! for deployment artifacts that must not vary between runs, from fixed
//! constants), so the same seed always produces the same requests.

use cllm_workload::trace::LognormalLen;

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    /// An independent stream for item `index` of stream family `tag`.
    pub fn stream(seed: u64, tag: u64, index: u64) -> Self {
        let mut r = Rng::new(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.0 ^= index.wrapping_mul(0xD1B5_4A32_D192_ED03);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        let span = (hi - lo + 1) as u64;
        lo + usize::try_from(self.next_u64() % span).expect("span fits usize")
    }
}

/// Longest prompt and answer a request may have, in tokens: the chat
/// length distributions are clamped here so that prompt, answer and a
/// speculative draft window fit the model's context.
const PROMPT_CAP: u64 = 512;
const OUTPUT_CAP: u64 = 384;

/// Prompt and answer length of one request, in tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lengths {
    pub prompt: usize,
    pub output: usize,
}

/// Lengths of stratum `slot` out of `n`: the prompt length is the
/// `(slot + ½) / n` quantile of `LognormalLen::chat_prompt()` and the
/// answer length a quantile of `LognormalLen::chat_output()` from a fixed
/// permutation of the strata (prompt and answer lengths are drawn
/// independently in `cllm_workload::trace`), both clamped to the caps.
/// `n` requests over all strata follow the serving simulator's chat mix.
pub fn lengths(slot: u64, n: u64) -> Lengths {
    let quantile = |s: u64, dist: LognormalLen, cap: u64| {
        #[allow(clippy::cast_precision_loss)]
        let q = (s as f64 + 0.5) / n as f64;
        let v = (dist.mu_ln + dist.sigma_ln * probit(q)).exp().round();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let v = (v as u64).clamp(dist.min_tokens, dist.max_tokens.min(cap));
        usize::try_from(v).expect("length fits usize")
    };
    Lengths {
        prompt: quantile(slot, LognormalLen::chat_prompt(), PROMPT_CAP),
        output: quantile((slot * 37 + 17) % n, LognormalLen::chat_output(), OUTPUT_CAP),
    }
}

/// The stratum of the `i`-th request of a stream over `n` strata (`n` a
/// power of two): bit-reversed order, so every prefix of a round is
/// spread evenly over the length distribution.
pub fn slot_order(i: u64, n: u64) -> u64 {
    debug_assert!(n.is_power_of_two());
    let bits = n.trailing_zeros();
    if bits == 0 {
        return 0;
    }
    (i % n).reverse_bits() >> (64 - bits)
}

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// relative error below 1.2e-9), for `0 < p < 1`.
fn probit(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const LOW: f64 = 0.024_25;
    let tail = |q: f64| {
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    if p < LOW {
        tail((-2.0 * p.ln()).sqrt())
    } else if p > 1.0 - LOW {
        -tail((-2.0 * (1.0 - p).ln()).sqrt())
    } else {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

/// Common words the chat prompts are drawn from.
#[rustfmt::skip]
const WORDS: [&str; 64] = [
    "the", "model", "enclave", "memory", "attestation", "quote", "key", "weights",
    "token", "prompt", "answer", "secure", "channel", "trust", "domain", "guest",
    "host", "cloud", "tenant", "policy", "measure", "report", "verify", "seal",
    "unseal", "encrypt", "decrypt", "page", "cache", "batch", "latency", "cost",
    "throughput", "socket", "core", "thread", "request", "response", "server", "client",
    "data", "private", "public", "owner", "user", "inference", "decode", "prefill",
    "layer", "attention", "vector", "matrix", "kernel", "firmware", "device", "gpu",
    "cpu", "bounce", "buffer", "copy", "stream", "frame", "nonce", "record",
];

/// `n` space-separated common words.
pub fn words(rng: &mut Rng, n: usize) -> String {
    let mut out = String::new();
    for i in 0..n {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(WORDS[rng.range(0, WORDS.len() - 1)]);
    }
    out
}

/// Words whose encoding under `tokens` reaches `target` tokens; it adds a
/// quarter of the missing tokens' worth of words at a time, so it
/// overshoots by little where words take at most four tokens.
pub fn prompt_of(rng: &mut Rng, target: usize, tokens: impl Fn(&str) -> usize) -> String {
    let mut text = words(rng, (target / 4).max(1));
    loop {
        let have = tokens(&text);
        if have >= target {
            return text;
        }
        let more = ((target - have) / 4).max(1);
        text.push(' ');
        text.push_str(&words(rng, more));
    }
}
