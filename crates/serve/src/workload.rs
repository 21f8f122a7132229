//! Request arrival processes and shape distributions.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// One inference request as it enters the system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Request id (arrival order).
    pub id: u64,
    /// Arrival time, seconds from simulation start.
    pub arrival_s: f64,
    /// Prompt length in tokens.
    pub prompt_tokens: u64,
    /// Output budget in tokens.
    pub output_tokens: u64,
}

/// Poisson arrivals with log-uniform prompt/output lengths — the shape of
/// real chat/serving traces (many short, few long).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalProcess {
    /// Mean arrival rate, requests/second.
    pub rate_per_s: f64,
    /// Prompt length range (log-uniform), tokens.
    pub prompt_range: (u64, u64),
    /// Output length range (log-uniform), tokens.
    pub output_range: (u64, u64),
    /// RNG seed (deterministic trace).
    pub seed: u64,
}

impl ArrivalProcess {
    /// A modest chat-like workload.
    #[must_use]
    pub fn chat(rate_per_s: f64, seed: u64) -> Self {
        ArrivalProcess {
            rate_per_s,
            prompt_range: (32, 1024),
            output_range: (16, 256),
            seed,
        }
    }

    /// Generate the deterministic request trace for a horizon of
    /// `duration_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive and finite, the horizon is not
    /// finite, or a range is empty/reversed.
    #[must_use]
    pub fn trace(&self, duration_s: f64) -> Vec<Request> {
        assert!(
            self.rate_per_s > 0.0 && self.rate_per_s.is_finite(),
            "arrival rate must be positive and finite, got {}",
            self.rate_per_s
        );
        assert!(
            duration_s.is_finite(),
            "horizon must be finite, got {duration_s}"
        );
        assert!(self.prompt_range.0 >= 1 && self.prompt_range.0 <= self.prompt_range.1);
        assert!(self.output_range.0 >= 1 && self.output_range.0 <= self.output_range.1);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5EED_5EED);
        let mut out = Vec::new();
        let mut t = 0.0;
        let mut id = 0;
        loop {
            // Exponential inter-arrival times.
            let u: f64 = rng.random::<f64>().max(1e-12);
            t += -u.ln() / self.rate_per_s;
            if t >= duration_s {
                break;
            }
            out.push(Request {
                id,
                arrival_s: t,
                prompt_tokens: log_uniform(&mut rng, self.prompt_range),
                output_tokens: log_uniform(&mut rng, self.output_range),
            });
            id += 1;
        }
        out
    }
}

#[allow(
    clippy::cast_precision_loss,
    clippy::cast_sign_loss,
    clippy::cast_possible_truncation
)]
fn log_uniform(rng: &mut StdRng, (lo, hi): (u64, u64)) -> u64 {
    if lo == hi {
        return lo;
    }
    let (llo, lhi) = ((lo as f64).ln(), (hi as f64).ln());
    let v = (llo + rng.random::<f64>() * (lhi - llo)).exp();
    (v.round() as u64).clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic() {
        let p = ArrivalProcess::chat(2.0, 7);
        assert_eq!(p.trace(30.0), p.trace(30.0));
    }

    #[test]
    fn rate_is_respected() {
        let p = ArrivalProcess::chat(5.0, 1);
        let trace = p.trace(200.0);
        let rate = trace.len() as f64 / 200.0;
        assert!((rate - 5.0).abs() < 1.0, "observed rate {rate}");
    }

    #[test]
    fn arrivals_are_ordered_and_in_horizon() {
        let trace = ArrivalProcess::chat(3.0, 2).trace(50.0);
        for w in trace.windows(2) {
            assert!(w[0].arrival_s <= w[1].arrival_s);
        }
        assert!(trace.iter().all(|r| r.arrival_s < 50.0));
    }

    #[test]
    fn shapes_within_ranges() {
        let p = ArrivalProcess::chat(10.0, 3);
        for r in p.trace(50.0) {
            assert!((32..=1024).contains(&r.prompt_tokens));
            assert!((16..=256).contains(&r.output_tokens));
        }
    }

    #[test]
    fn log_uniform_favors_short_requests() {
        // Median of a log-uniform over [32, 1024] is ~181, well below the
        // arithmetic midpoint of 528.
        let p = ArrivalProcess::chat(20.0, 4);
        let mut lens: Vec<u64> = p.trace(100.0).iter().map(|r| r.prompt_tokens).collect();
        lens.sort_unstable();
        let median = lens[lens.len() / 2];
        assert!(median < 400, "median prompt {median}");
    }

    #[test]
    #[should_panic(expected = "arrival rate")]
    fn zero_rate_rejected() {
        let mut p = ArrivalProcess::chat(1.0, 0);
        p.rate_per_s = 0.0;
        let _ = p.trace(1.0);
    }

    #[test]
    #[should_panic(expected = "horizon must be finite")]
    fn infinite_horizon_rejected() {
        let _ = ArrivalProcess::chat(1.0, 0).trace(f64::INFINITY);
    }
}
