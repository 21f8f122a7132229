//! Deterministic simulation testing for the serving stack, in the
//! style of FoundationDB's simulation harness.
//!
//! The engine is a pure function of a `u64` seed:
//!
//! 1. [`point::sample_point`] expands a seed into a [`point::ChaosPoint`]
//!    — a fully serializable coordinate in the joint space of serving
//!    path (single node / cluster / autoscale), fleet shape, TEE
//!    platform, KV policy, traffic model, fault schedule (including the
//!    gray `DegradedThroughput` / `StuckDrain` kinds), retry budget and
//!    admission tuning.
//! 2. [`run::run_point`] materializes the point into the real simulator
//!    configs, drives the corresponding PR-6 kernel loop, and checks
//!    the report against every applicable check in
//!    [`cllm_serve::invariants`] — one shared registry, the same
//!    definitions the simulators debug-assert and the CLI prints.
//! 3. On violation, [`shrink::shrink`] delta-debugs the point down to a
//!    minimal repro: drop fault events (ddmin), halve the horizon,
//!    shrink the fleet, strip optional subsystems — while the original
//!    violation keeps reproducing.
//! 4. [`repro::Repro`] serializes the shrunken point plus its expected
//!    digest and violations as JSON; `cllm chaos --repro <file>`
//!    replays it and demands a byte-identical report digest.
//!
//! Nothing here consults wall-clock time, thread identity, or global
//! state: the same seed produces the same point, report, digest and
//! shrink on every machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod point;
pub mod repro;
pub mod run;
pub mod shrink;

pub use point::{sample_point, ChaosPoint, InvalidPoint};
pub use repro::{Repro, ReproError};
pub use run::{run_point, RunOutcome};
pub use shrink::shrink;

/// SplitMix64: the engine's only entropy source. Self-contained so the
/// sampled space can never drift underneath checked-in repro files.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a pure function of `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let x = (self.next_u64() >> 11) as f64;
        x / (1u64 << 53) as f64
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer draw in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi);
        lo + (self.next_u64() as usize) % (hi - lo)
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_pure_function_of_its_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c = Rng::new(43).next_u64();
        assert_ne!(a[0], c, "different seeds must diverge immediately");
    }

    #[test]
    fn f64_draws_stay_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
