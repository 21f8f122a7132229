//! Generative multi-tenant traffic: diurnal load, flash crowds, and
//! heavy-tailed request shapes.
//!
//! The paper prices confidential inference at steady state; real serving
//! traffic is anything but steady. This module generates the
//! million-user-shaped traces the autoscaling and overload experiments
//! run on, deterministically from seeds:
//!
//! * **Diurnal sinusoid** — the base arrival rate swings around its mean
//!   with a configurable amplitude and period (a compressed "day" for
//!   simulation horizons of minutes).
//! * **Flash crowds** — seeded Poisson burst onsets multiply the
//!   instantaneous rate by a configurable factor for a configurable
//!   window: the 10× surge that forces a scale-up decision.
//! * **Heavy-tailed shapes** — prompt and output lengths are truncated
//!   lognormal (most requests short, a fat tail of long ones), per tier.
//! * **Tenant tiers** — every request carries a [`Tier`]
//!   (free/standard/premium) drawn from a [`TierMix`]; the serving side
//!   attaches per-tier SLOs, queue bounds and shedding priority.
//!
//! Arrivals are generated by Lewis thinning of a non-homogeneous Poisson
//! process, so the trace is exact for the composite rate function and
//! byte-identical for a given seed on any platform.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Tenant tier of one request. Order encodes shedding priority: under
/// overload, [`Tier::Free`] is dropped first and [`Tier::Premium`] last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Tier {
    /// Best-effort: first shed, loosest latency expectation.
    Free,
    /// Paying default tier.
    Standard,
    /// Contractual SLO: shed only when nothing else is left to shed.
    Premium,
}

impl Tier {
    /// Every tier, in shedding order (first shed first).
    pub const ALL: [Tier; 3] = [Tier::Free, Tier::Standard, Tier::Premium];

    /// Stable lower-case label for tables and logs.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Tier::Free => "free",
            Tier::Standard => "standard",
            Tier::Premium => "premium",
        }
    }

    /// Dense index (0 = free, 1 = standard, 2 = premium).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Tier::Free => 0,
            Tier::Standard => 1,
            Tier::Premium => 2,
        }
    }
}

/// Arrival shares of the three tiers. Shares need not sum to one — they
/// are normalized at sampling time (all-zero mixes panic).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierMix {
    /// Free-tier share of arrivals.
    pub free: f64,
    /// Standard-tier share of arrivals.
    pub standard: f64,
    /// Premium-tier share of arrivals.
    pub premium: f64,
}

impl TierMix {
    /// A consumer-product-like mix: mostly free riders, a paying
    /// minority, a premium sliver.
    #[must_use]
    pub fn consumer() -> Self {
        TierMix {
            free: 0.70,
            standard: 0.25,
            premium: 0.05,
        }
    }

    /// Draw a tier from the normalized mix.
    ///
    /// # Panics
    ///
    /// Panics if every share is zero or any share is negative.
    #[must_use]
    pub fn sample(&self, rng: &mut StdRng) -> Tier {
        assert!(
            self.free >= 0.0 && self.standard >= 0.0 && self.premium >= 0.0,
            "tier shares must be non-negative"
        );
        let total = self.free + self.standard + self.premium;
        assert!(total > 0.0, "tier mix must have a positive share");
        let u: f64 = rng.random::<f64>() * total;
        if u < self.free {
            Tier::Free
        } else if u < self.free + self.standard {
            Tier::Standard
        } else {
            Tier::Premium
        }
    }
}

/// Truncated lognormal length distribution, in tokens: most mass near
/// `exp(mu_ln)`, a heavy right tail shaped by `sigma_ln`, clamped to
/// `[min_tokens, max_tokens]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LognormalLen {
    /// Mean of the underlying normal (natural log of tokens).
    pub mu_ln: f64,
    /// Standard deviation of the underlying normal.
    pub sigma_ln: f64,
    /// Lower clamp, tokens (>= 1).
    pub min_tokens: u64,
    /// Upper clamp, tokens.
    pub max_tokens: u64,
}

impl LognormalLen {
    /// Chat-like prompts: median ~180 tokens, tail to 4k.
    #[must_use]
    pub fn chat_prompt() -> Self {
        LognormalLen {
            mu_ln: 5.2,
            sigma_ln: 0.9,
            min_tokens: 8,
            max_tokens: 4096,
        }
    }

    /// Chat-like outputs: median ~60 tokens, tail to 1k.
    #[must_use]
    pub fn chat_output() -> Self {
        LognormalLen {
            mu_ln: 4.1,
            sigma_ln: 0.8,
            min_tokens: 4,
            max_tokens: 1024,
        }
    }

    /// Draw one length. Uses a Box–Muller normal from two uniforms, so
    /// the stream is deterministic in the RNG state.
    ///
    /// # Panics
    ///
    /// Panics if the clamp range is empty or `min_tokens` is zero.
    #[must_use]
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        assert!(
            self.min_tokens >= 1 && self.min_tokens <= self.max_tokens,
            "empty or zero-based length clamp"
        );
        let u1: f64 = rng.random::<f64>().max(1e-12);
        let u2: f64 = rng.random::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let v = (self.mu_ln + self.sigma_ln * z).exp();
        (v.round() as u64).clamp(self.min_tokens, self.max_tokens)
    }
}

/// Seeded flash-crowd model: burst onsets are Poisson with mean
/// `bursts_per_hr`; while a burst window is open the instantaneous
/// arrival rate is multiplied by `multiplier`. Overlapping windows do
/// not stack (a crowd is a crowd).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstModel {
    /// Mean burst onsets per hour (Poisson).
    pub bursts_per_hr: f64,
    /// Rate multiplier while a burst window is open (>= 1).
    pub multiplier: f64,
    /// Burst window length, seconds.
    pub window_s: f64,
    /// Seed for onset times.
    pub seed: u64,
}

impl BurstModel {
    /// No flash crowds.
    #[must_use]
    pub fn none() -> Self {
        BurstModel {
            bursts_per_hr: 0.0,
            multiplier: 1.0,
            window_s: 0.0,
            seed: 0,
        }
    }

    /// Deterministic burst onset times in `[0, duration_s)`.
    #[must_use]
    pub fn onsets(&self, duration_s: f64) -> Vec<f64> {
        let rate_per_s = self.bursts_per_hr / 3600.0;
        if rate_per_s <= 0.0 || duration_s <= 0.0 || self.multiplier <= 1.0 || self.window_s <= 0.0
        {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xF1A5_4C20_3D00_0007);
        let mut out = Vec::new();
        let mut t = 0.0f64;
        loop {
            let u: f64 = rng.random::<f64>().max(1e-12);
            t += -u.ln() / rate_per_s;
            if t >= duration_s {
                break;
            }
            out.push(t);
        }
        out
    }
}

/// One generated request, tier-tagged. Ids are assigned densely in
/// arrival order (the serving kernel's request slab requires it).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceRequest {
    /// Request id (arrival order, dense from 0).
    pub id: u64,
    /// Arrival time, seconds from trace start.
    pub arrival_s: f64,
    /// Prompt length, tokens.
    pub prompt_tokens: u64,
    /// Output budget, tokens.
    pub output_tokens: u64,
    /// Tenant tier.
    pub tier: Tier,
}

/// The generative traffic model: diurnal sinusoid × flash crowds, tiered
/// arrivals, lognormal shapes. Everything is deterministic in `seed`
/// (arrival thinning, tier draws, lengths) and `bursts.seed` (onsets).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficModel {
    /// Mean arrival rate, requests/second, before modulation.
    pub base_rate_per_s: f64,
    /// Diurnal swing as a fraction of the base rate, in `[0, 1)`:
    /// `rate(t) = base * (1 + amplitude * sin(2πt / period))`.
    pub diurnal_amplitude: f64,
    /// Diurnal period, seconds (compressed for short horizons).
    pub diurnal_period_s: f64,
    /// Flash-crowd bursts layered on top.
    pub bursts: BurstModel,
    /// Tenant mix of arrivals.
    pub mix: TierMix,
    /// Prompt length distribution.
    pub prompt: LognormalLen,
    /// Output length distribution.
    pub output: LognormalLen,
    /// Seed for thinning, tier draws and lengths.
    pub seed: u64,
}

impl TrafficModel {
    /// A steady (no diurnal, no burst) tiered workload — the control arm.
    #[must_use]
    pub fn steady(base_rate_per_s: f64, seed: u64) -> Self {
        TrafficModel {
            base_rate_per_s,
            diurnal_amplitude: 0.0,
            diurnal_period_s: 86_400.0,
            bursts: BurstModel::none(),
            mix: TierMix::consumer(),
            prompt: LognormalLen::chat_prompt(),
            output: LognormalLen::chat_output(),
            seed,
        }
    }

    /// The flash-crowd scenario: a gentle diurnal swing with `multiplier`×
    /// bursts, compressed so a short horizon sees both phases.
    #[must_use]
    pub fn flash_crowd(base_rate_per_s: f64, multiplier: f64, seed: u64) -> Self {
        TrafficModel {
            diurnal_amplitude: 0.25,
            diurnal_period_s: 600.0,
            bursts: BurstModel {
                bursts_per_hr: 30.0,
                multiplier,
                window_s: 45.0,
                seed: seed ^ 0x000B_0057,
            },
            ..TrafficModel::steady(base_rate_per_s, seed)
        }
    }

    /// Instantaneous arrival rate at `t`, given the burst onsets for the
    /// horizon (from [`BurstModel::onsets`]).
    #[must_use]
    pub fn rate_at(&self, t: f64, onsets: &[f64]) -> f64 {
        let diurnal = 1.0
            + self.diurnal_amplitude.clamp(0.0, 1.0)
                * (std::f64::consts::TAU * t / self.diurnal_period_s.max(1e-9)).sin();
        let in_burst = onsets
            .iter()
            .any(|&o| t >= o && t < o + self.bursts.window_s);
        let burst = if in_burst {
            self.bursts.multiplier.max(1.0)
        } else {
            1.0
        };
        self.base_rate_per_s * diurnal * burst
    }

    /// Peak of the rate envelope used by the thinning sampler.
    #[must_use]
    fn rate_max(&self) -> f64 {
        self.base_rate_per_s
            * (1.0 + self.diurnal_amplitude.clamp(0.0, 1.0))
            * self.bursts.multiplier.max(1.0)
    }

    /// Generate the deterministic trace for `duration_s` seconds: Lewis
    /// thinning over the composite rate, then tier and shape draws per
    /// accepted arrival — one RNG stream, so any change to an early
    /// arrival is the *only* change downstream of it.
    ///
    /// # Panics
    ///
    /// Panics if the base rate is not positive, or if the peak rate or the
    /// horizon is not finite.
    #[must_use]
    pub fn generate(&self, duration_s: f64) -> Vec<TraceRequest> {
        assert!(self.base_rate_per_s > 0.0, "base rate must be positive");
        assert!(
            duration_s.is_finite(),
            "horizon must be finite, got {duration_s}"
        );
        let onsets = self.bursts.onsets(duration_s);
        let rate_max = self.rate_max();
        assert!(
            rate_max.is_finite(),
            "peak rate must be finite, got {rate_max}"
        );
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x7EAF_F1C5_EED0_0003);
        let mut out = Vec::new();
        let mut t = 0.0f64;
        let mut id = 0u64;
        loop {
            let u: f64 = rng.random::<f64>().max(1e-12);
            t += -u.ln() / rate_max;
            if t >= duration_s {
                break;
            }
            // Thinning: accept with probability rate(t) / rate_max.
            let accept: f64 = rng.random();
            if accept * rate_max > self.rate_at(t, &onsets) {
                continue;
            }
            let tier = self.mix.sample(&mut rng);
            out.push(TraceRequest {
                id,
                arrival_s: t,
                prompt_tokens: self.prompt.sample(&mut rng),
                output_tokens: self.output.sample(&mut rng),
                tier,
            });
            id += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_trace_is_deterministic_and_dense() {
        let m = TrafficModel::steady(5.0, 7);
        let a = m.generate(60.0);
        let b = m.generate(60.0);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for (i, r) in a.iter().enumerate() {
            assert_eq!(r.id, i as u64, "ids must be dense in arrival order");
            assert!(r.arrival_s < 60.0);
            assert!(r.prompt_tokens >= 1 && r.output_tokens >= 1);
        }
        for w in a.windows(2) {
            assert!(w[0].arrival_s <= w[1].arrival_s);
        }
    }

    #[test]
    fn steady_rate_is_respected() {
        let m = TrafficModel::steady(8.0, 3);
        let n = m.generate(300.0).len();
        #[allow(clippy::cast_precision_loss)]
        let rate = n as f64 / 300.0;
        assert!((rate - 8.0).abs() < 1.0, "observed rate {rate}");
    }

    #[test]
    fn bursts_concentrate_arrivals() {
        let mut m = TrafficModel::steady(4.0, 11);
        m.bursts = BurstModel {
            bursts_per_hr: 60.0,
            multiplier: 10.0,
            window_s: 20.0,
            seed: 5,
        };
        let onsets = m.bursts.onsets(300.0);
        assert!(!onsets.is_empty(), "60/hr over 300 s should fire");
        let trace = m.generate(300.0);
        let in_burst = |t: f64| onsets.iter().any(|&o| t >= o && t < o + 20.0);
        let burst_len: f64 = 300.0f64.min(onsets.len() as f64 * 20.0);
        let inside = trace.iter().filter(|r| in_burst(r.arrival_s)).count() as f64;
        let outside = trace.len() as f64 - inside;
        let inside_rate = inside / burst_len.max(1e-9);
        let outside_rate = outside / (300.0 - burst_len).max(1e-9);
        assert!(
            inside_rate > 3.0 * outside_rate,
            "burst windows must be much denser: {inside_rate:.2}/s vs {outside_rate:.2}/s"
        );
    }

    #[test]
    fn diurnal_modulates_rate() {
        let m = TrafficModel {
            diurnal_amplitude: 0.5,
            diurnal_period_s: 100.0,
            ..TrafficModel::steady(10.0, 1)
        };
        let peak = m.rate_at(25.0, &[]); // sin peak at period/4
        let trough = m.rate_at(75.0, &[]);
        assert!((peak - 15.0).abs() < 1e-9);
        assert!((trough - 5.0).abs() < 1e-9);
    }

    #[test]
    fn tier_mix_roughly_matches_shares() {
        let m = TrafficModel::steady(20.0, 9);
        let trace = m.generate(300.0);
        let mut counts = [0usize; 3];
        for r in &trace {
            counts[r.tier.index()] += 1;
        }
        let total = trace.len() as f64;
        let free = counts[0] as f64 / total;
        let premium = counts[2] as f64 / total;
        assert!((free - 0.70).abs() < 0.06, "free share {free}");
        assert!(premium < 0.12, "premium share {premium}");
        assert!(counts.iter().all(|&c| c > 0), "every tier must appear");
    }

    #[test]
    fn lengths_are_heavy_tailed_and_clamped() {
        let m = TrafficModel::steady(20.0, 13);
        let mut prompts: Vec<u64> = m.generate(200.0).iter().map(|r| r.prompt_tokens).collect();
        prompts.sort_unstable();
        let median = prompts[prompts.len() / 2];
        let max = *prompts.last().unwrap();
        assert!(
            (60..=400).contains(&median),
            "lognormal median out of band: {median}"
        );
        assert!(max <= 4096, "clamp violated: {max}");
        assert!(
            max > 4 * median,
            "tail must be heavy: max {max} vs median {median}"
        );
    }

    #[test]
    fn flash_crowd_preset_outpaces_steady() {
        let steady = TrafficModel::steady(3.0, 21).generate(240.0).len();
        let crowd = TrafficModel::flash_crowd(3.0, 10.0, 21)
            .generate(240.0)
            .len();
        assert!(
            crowd > steady,
            "bursts must add arrivals: {crowd} vs {steady}"
        );
    }

    #[test]
    fn shedding_order_is_free_first() {
        assert_eq!(Tier::ALL[0], Tier::Free);
        assert_eq!(Tier::ALL[2], Tier::Premium);
        assert!(Tier::Free < Tier::Premium);
    }

    #[test]
    #[should_panic(expected = "horizon must be finite")]
    fn infinite_horizon_rejected() {
        let _ = TrafficModel::steady(1.0, 0).generate(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "positive share")]
    fn all_zero_mix_rejected() {
        let mix = TierMix {
            free: 0.0,
            standard: 0.0,
            premium: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let _ = mix.sample(&mut rng);
    }
}
