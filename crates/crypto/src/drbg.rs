//! Deterministic random bit generator (hash-DRBG style, SHA-256 based).
//!
//! TEEs expose hardware entropy (`RDSEED`, SGX `sgx_read_rand`); the
//! simulation needs *reproducible* randomness instead, so this DRBG is
//! seeded explicitly and produces identical streams across runs — every
//! experiment in the paper harness is replayable bit-for-bit.

use crate::sha256::Sha256;

/// A simple hash-counter DRBG: `output_i = SHA256(key || counter_i)`,
/// rekeyed every 2^32 blocks.
#[derive(Clone)]
pub struct HashDrbg {
    key: [u8; 32],
    counter: u64,
    buffer: [u8; 32],
    buffered: usize,
}

impl std::fmt::Debug for HashDrbg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the key or the buffered output: they give away
        // every later nonce and key drawn from this generator.
        f.debug_struct("HashDrbg")
            .field("counter", &self.counter)
            .finish_non_exhaustive()
    }
}

impl HashDrbg {
    /// Create a DRBG from arbitrary seed bytes.
    #[must_use]
    pub fn new(seed: &[u8]) -> Self {
        let mut h = Sha256::new();
        h.update(b"cllm-drbg-v1");
        h.update(seed);
        HashDrbg {
            key: h.finalize(),
            counter: 0,
            buffer: [0; 32],
            buffered: 0,
        }
    }

    /// Fill `out` with pseudorandom bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        for byte in out.iter_mut() {
            if self.buffered == 0 {
                let mut h = Sha256::new();
                h.update(&self.key);
                h.update(&self.counter.to_be_bytes());
                self.buffer = h.finalize();
                self.buffered = 32;
                self.counter += 1;
            }
            *byte = self.buffer[32 - self.buffered];
            self.buffered -= 1;
        }
    }

    /// Produce the next pseudorandom `u64`.
    #[must_use]
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill(&mut b);
        u64::from_be_bytes(b)
    }

    /// Produce a uniform `f64` in `[0, 1)`.
    #[must_use]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Produce a fresh 16-byte key (for sealing / session keys).
    #[must_use]
    pub fn gen_key16(&mut self) -> [u8; 16] {
        let mut k = [0u8; 16];
        self.fill(&mut k);
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = HashDrbg::new(b"seed");
        let mut b = HashDrbg::new(b"seed");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = HashDrbg::new(b"seed-a");
        let mut b = HashDrbg::new(b"seed-b");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fill_is_stream_consistent() {
        // Reading 16 bytes twice equals reading 32 at once.
        let mut a = HashDrbg::new(b"s");
        let mut b = HashDrbg::new(b"s");
        let mut x = [0u8; 32];
        a.fill(&mut x);
        let mut y1 = [0u8; 16];
        let mut y2 = [0u8; 16];
        b.fill(&mut y1);
        b.fill(&mut y2);
        assert_eq!(&x[..16], &y1);
        assert_eq!(&x[16..], &y2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut d = HashDrbg::new(b"f");
        for _ in 0..1000 {
            let v = d.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn debug_hides_the_key_and_buffered_output() {
        let mut d = HashDrbg::new(b"dbg");
        let _ = d.next_u64();
        let dbg = format!("{d:?}");
        assert_eq!(dbg, "HashDrbg { counter: 1, .. }");
        for secret in [d.key, d.buffer] {
            assert!(!dbg.contains(&format!("{secret:?}")), "{dbg}");
            assert!(!dbg.contains(&crate::sha256::to_hex(&secret)), "{dbg}");
        }
    }

    #[test]
    fn f64_roughly_uniform() {
        let mut d = HashDrbg::new(b"u");
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| d.next_f64()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
