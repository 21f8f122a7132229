//! Cluster front door: bounded admission and per-node circuit breakers.
//!
//! A single faulted node degrades; a *fleet* behind a router survives —
//! but only if the router refuses work it cannot serve (bounded
//! admission with a `Rejected` terminal state) and stops feeding nodes
//! that are failing (circuit breakers). Both mechanisms are plain
//! deterministic state machines here, driven entirely by simulation
//! time, so cluster runs stay byte-reproducible.
//!
//! # Breaker state machine
//!
//! ```text
//!             error rate over window
//!   Closed ───────────────────────────▶ Open
//!     ▲                                  │ cooloff elapses
//!     │ probe completes                  ▼
//!     └─────────────────────────────  HalfOpen
//!              (re-attestation toll)     │ error during probe
//!                                        └──────▶ Open again
//! ```
//!
//! Closing the breaker is not free: the node re-attests through the
//! real `cllm_tee::session` handshake (see
//! [`attested_rehandshake`](crate::faults::attested_rehandshake)), and
//! the cluster charges
//! [`RecoveryPolicy::reattest_s`](crate::faults::RecoveryPolicy) — the
//! recovery toll both H100-CC measurement studies flag as the dominant
//! rejoin cost.

use crate::slo::Slo;
use cllm_workload::trace::Tier;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Bounded admission: how much waiting work the router may park on a
/// node, and how stale a request may get before it is shed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionPolicy {
    /// Maximum queued (not yet running) requests per node; a fresh
    /// arrival finding every queue at the cap is `Rejected`.
    pub queue_cap: usize,
    /// Per-request deadline, seconds from original arrival: a request
    /// still waiting in a queue past its deadline is shed as `Rejected`
    /// (it would miss any interactive SLO anyway).
    pub deadline_s: f64,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            queue_cap: 32,
            deadline_s: 30.0,
        }
    }
}

impl AdmissionPolicy {
    /// No bounds: every arrival is queued, nothing is ever shed. Makes a
    /// cluster run conservative-compatible with the single-node
    /// simulator (`rejected == 0`).
    #[must_use]
    pub fn unbounded() -> Self {
        AdmissionPolicy {
            queue_cap: usize::MAX,
            deadline_s: f64::INFINITY,
        }
    }
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Sliding window of recent outcomes (fault events and request
    /// completions) the error rate is judged over.
    pub window: usize,
    /// Errors within the window that trip the breaker open.
    pub trip_errors: usize,
    /// How long an open breaker refuses traffic before letting one probe
    /// through, seconds.
    pub cooloff_s: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 8,
            trip_errors: 3,
            cooloff_s: 5.0,
        }
    }
}

/// Breaker position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Healthy: traffic flows.
    Closed,
    /// Tripped: no new work until the cooloff elapses.
    Open,
    /// Cooloff elapsed: one probe admitted; its outcome decides.
    HalfOpen,
}

/// Per-node circuit breaker: error-rate window → open → half-open probe
/// → close, with the close paying a fresh attested handshake.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    open_until_s: f64,
    recent: VecDeque<bool>, // true = error
    /// Times the breaker tripped open.
    pub trips: u64,
    /// Times a half-open probe closed the breaker.
    pub closes: u64,
}

impl CircuitBreaker {
    /// A closed breaker with an empty window.
    #[must_use]
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            open_until_s: 0.0,
            recent: VecDeque::new(),
            trips: 0,
            closes: 0,
        }
    }

    /// Current position.
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.state
    }

    fn push(&mut self, error: bool) {
        self.recent.push_back(error);
        while self.recent.len() > self.cfg.window {
            self.recent.pop_front();
        }
    }

    /// Record a fault on the node at `now_s`. Trips the breaker when the
    /// window's error count reaches the threshold; any error during a
    /// half-open probe re-opens immediately.
    pub fn record_error(&mut self, now_s: f64) {
        self.push(true);
        let errors = self.recent.iter().filter(|&&e| e).count();
        let trip = match self.state {
            BreakerState::HalfOpen => true, // failed probe
            BreakerState::Closed => errors >= self.cfg.trip_errors,
            BreakerState::Open => false,
        };
        if trip {
            self.state = BreakerState::Open;
            self.open_until_s = now_s + self.cfg.cooloff_s;
            self.recent.clear();
            self.trips += 1;
        }
    }

    /// Record a successful completion on the node. In half-open state
    /// the probe succeeded: the breaker closes and the caller must
    /// charge the re-attestation toll. Returns `true` exactly when this
    /// call closed the breaker.
    pub fn record_success(&mut self) -> bool {
        self.push(false);
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
            self.closes += 1;
            true
        } else {
            false
        }
    }

    /// Whether the router may send new work to the node at `now_s`.
    /// An open breaker whose cooloff has elapsed transitions to
    /// half-open here (and admits the probe).
    pub fn accepts(&mut self, now_s: f64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now_s >= self.open_until_s {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// Per-tier admission bounds and SLO. The shedding order is fixed by
/// [`Tier::ALL`] — free first, premium last — and the per-tier bounds
/// here encode *how much* patience each tier buys: free riders get a
/// short queue and a tight staleness deadline, premium gets a deep queue
/// and the longest deadline, so under overload the free tier absorbs the
/// shedding long before premium feels it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierPolicy {
    /// Maximum queued (not yet running) requests of this tier across the
    /// fleet; an arrival finding its tier at the cap is shed.
    pub queue_cap: usize,
    /// Staleness deadline, seconds from arrival: a request of this tier
    /// still queued past it is shed.
    pub deadline_s: f64,
    /// The latency SLO this tier is judged against in reports.
    pub slo: Slo,
}

/// The fleet's tiered admission table, indexed by [`Tier`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TieredAdmission {
    tiers: [TierPolicy; 3],
}

impl Default for TieredAdmission {
    /// Free: shallow queue (64), 6 s deadline, relaxed SLO (5 s TTFT).
    /// Standard: 192-deep, 20 s deadline, interactive SLO.
    /// Premium: 512-deep, 45 s deadline, interactive SLO.
    fn default() -> Self {
        TieredAdmission {
            tiers: [
                TierPolicy {
                    queue_cap: 64,
                    deadline_s: 6.0,
                    slo: Slo {
                        ttft_s: 5.0,
                        tpot_s: 0.5,
                    },
                },
                TierPolicy {
                    queue_cap: 192,
                    deadline_s: 20.0,
                    slo: Slo::interactive(),
                },
                TierPolicy {
                    queue_cap: 512,
                    deadline_s: 45.0,
                    slo: Slo::interactive(),
                },
            ],
        }
    }
}

impl TieredAdmission {
    /// The policy for one tier.
    #[must_use]
    pub fn policy(&self, tier: Tier) -> &TierPolicy {
        &self.tiers[tier.index()]
    }

    /// Mutable access, for experiment arms that tighten one tier.
    pub fn policy_mut(&mut self, tier: Tier) -> &mut TierPolicy {
        &mut self.tiers[tier.index()]
    }
}

/// Retry budgeting: the per-request cap plus a global retry-rate circuit
/// that kills metastable retry storms. Without the circuit, a burst of
/// crash-class faults re-queues enough work that retries beget timeouts
/// beget retries — the classic metastable failure. The guard bounds the
/// *fleet-wide* retry rate over a sliding window; a retry arriving with
/// the window full is converted into an abort (counted, conserved)
/// instead of re-entering the queue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryBudget {
    /// Maximum re-queues a single request may consume before it is
    /// aborted. This is the autoscaler's only per-request cap: it never
    /// reads the node-level
    /// [`RecoveryPolicy::max_retries`](crate::faults::RecoveryPolicy),
    /// so a budget above that cap allows more retries than the
    /// single-node and cluster simulators would.
    pub per_request: u32,
    /// Sliding window the global retry rate is judged over, seconds.
    pub storm_window_s: f64,
    /// Maximum retries admitted fleet-wide within any window.
    pub storm_max_retries: usize,
}

impl Default for RetryBudget {
    fn default() -> Self {
        RetryBudget {
            per_request: 3,
            storm_window_s: 10.0,
            storm_max_retries: 64,
        }
    }
}

impl RetryBudget {
    /// No budget: per-request retries are unbounded (the recovery
    /// policy's `max_retries` is not consulted) and there is no global
    /// circuit. The baseline the storm test beats.
    #[must_use]
    pub fn unbudgeted() -> Self {
        RetryBudget {
            per_request: u32::MAX,
            storm_window_s: 1.0,
            storm_max_retries: usize::MAX,
        }
    }
}

/// The global retry-rate circuit. Deterministic: driven entirely by
/// simulated retry timestamps.
#[derive(Debug, Clone)]
pub struct RetryStormGuard {
    cfg: RetryBudget,
    recent_s: VecDeque<f64>,
    /// Retries refused by the circuit (the caller aborts the request).
    pub storm_drops: u64,
}

impl RetryStormGuard {
    /// A fresh guard with an empty window.
    #[must_use]
    pub fn new(cfg: RetryBudget) -> Self {
        RetryStormGuard {
            cfg,
            recent_s: VecDeque::new(),
            storm_drops: 0,
        }
    }

    /// The budget this guard enforces.
    #[must_use]
    pub fn budget(&self) -> &RetryBudget {
        &self.cfg
    }

    /// May a request that has already been re-queued `attempts` times
    /// retry again at `now_s`? `false` means the caller must abort it —
    /// either its per-request budget is spent or the fleet-wide retry
    /// rate is already at the circuit's cap (a storm; the drop is
    /// counted in `storm_drops`).
    ///
    /// `now_s` may legitimately exceed the run horizon: a
    /// horizon-clamped outage plus backoff can land a retry past the
    /// end of the run while in-flight work drains. The sliding window
    /// is purely relative (`now_s - storm_window_s`), so no horizon
    /// clamp is needed here — admissions are translation-invariant in
    /// time.
    pub fn admit_retry(&mut self, now_s: f64, attempts: u32) -> bool {
        if attempts >= self.cfg.per_request {
            return false;
        }
        while self
            .recent_s
            .front()
            .is_some_and(|&t| t < now_s - self.cfg.storm_window_s)
        {
            self.recent_s.pop_front();
        }
        if self.recent_s.len() >= self.cfg.storm_max_retries {
            self.storm_drops += 1;
            return false;
        }
        self.recent_s.push_back(now_s);
        true
    }
}

/// Brownout: before shedding *requests*, shed *tokens*. When aggregate
/// queue depth crosses `enter_depth` the controller caps every arriving
/// request's output budget at `output_cap_tokens`; it releases the cap
/// only once depth falls back under `exit_depth` (hysteresis, so the
/// mode doesn't flap at the boundary). Degrading answer length first
/// keeps availability up — a short answer beats a shed request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BrownoutConfig {
    /// Aggregate queued-request depth that activates the brownout.
    pub enter_depth: usize,
    /// Depth below which the brownout deactivates (must be `<=
    /// enter_depth` for the hysteresis to make sense).
    pub exit_depth: usize,
    /// Output-token cap applied to arrivals while active.
    pub output_cap_tokens: u64,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            enter_depth: 256,
            exit_depth: 64,
            output_cap_tokens: 32,
        }
    }
}

/// Brownout state machine (see [`BrownoutConfig`]).
#[derive(Debug, Clone)]
pub struct Brownout {
    cfg: BrownoutConfig,
    active: bool,
    /// Times the brownout activated.
    pub activations: u64,
    /// Output tokens trimmed from arrivals while active.
    pub tokens_trimmed: u64,
}

impl Brownout {
    /// An inactive brownout controller.
    #[must_use]
    pub fn new(cfg: BrownoutConfig) -> Self {
        Brownout {
            cfg,
            active: false,
            activations: 0,
            tokens_trimmed: 0,
        }
    }

    /// Feed the current aggregate queue depth; returns whether the
    /// brownout is active after the observation.
    pub fn observe_depth(&mut self, depth: usize) -> bool {
        if self.active {
            if depth < self.cfg.exit_depth {
                self.active = false;
            }
        } else if depth >= self.cfg.enter_depth {
            self.active = true;
            self.activations += 1;
        }
        self.active
    }

    /// Apply the cap to an arriving request's output budget. A no-op
    /// while inactive; while active, trims to the cap and accounts the
    /// trimmed tokens.
    #[must_use]
    pub fn cap_output(&mut self, output_tokens: u64) -> u64 {
        if self.active && output_tokens > self.cfg.output_cap_tokens {
            self.tokens_trimmed += output_tokens - self.cfg.output_cap_tokens;
            self.cfg.output_cap_tokens
        } else {
            output_tokens
        }
    }

    /// Whether the brownout is currently active.
    #[must_use]
    pub fn active(&self) -> bool {
        self.active
    }
}

/// Pick the routing target among candidate nodes: the accepting node
/// with the shallowest queue, ties to the lowest id. `depths` pairs each
/// candidate node id with its current queue depth (queued + running);
/// `accepts` must already reflect breaker + capacity checks. Returns
/// `None` when no candidate accepts — the caller sheds or falls back.
#[must_use]
pub fn route_least_loaded(candidates: &[(usize, usize)]) -> Option<usize> {
    candidates
        .iter()
        .min_by_key(|&&(id, depth)| (depth, id))
        .map(|&(id, _)| id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_window_is_translation_invariant_past_the_horizon() {
        // The guard has no horizon term: shifting every retry timestamp
        // by a constant — including one that pushes the whole sequence
        // past the end of a run — must produce the same admit/drop
        // pattern and drop count.
        let times = [0.0, 1.0, 2.5, 9.9, 10.05, 11.0, 25.0, 25.0];
        let run = |offset: f64| {
            let mut g = RetryStormGuard::new(RetryBudget {
                per_request: 10,
                storm_window_s: 10.0,
                storm_max_retries: 3,
            });
            let admits: Vec<bool> = times
                .iter()
                .map(|&t| g.admit_retry(t + offset, 0))
                .collect();
            (admits, g.storm_drops)
        };
        let base = run(0.0);
        assert!(base.1 > 0, "the sequence must exercise the circuit");
        assert_eq!(base, run(30.0), "a horizon-sized shift changes nothing");
        assert_eq!(base, run(1.0e6));
    }

    #[test]
    fn breaker_trips_on_error_rate_and_reprobes() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            window: 4,
            trip_errors: 2,
            cooloff_s: 10.0,
        });
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_error(1.0);
        assert_eq!(b.state(), BreakerState::Closed, "one error is tolerated");
        b.record_error(2.0);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips, 1);
        assert!(!b.accepts(5.0), "cooloff still running");
        assert!(b.accepts(12.0), "cooloff elapsed admits the probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.record_success(), "probe success closes the breaker");
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.closes, 1);
    }

    #[test]
    fn failed_probe_reopens() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            window: 4,
            trip_errors: 2,
            cooloff_s: 10.0,
        });
        b.record_error(0.0);
        b.record_error(0.0);
        assert!(b.accepts(11.0));
        b.record_error(11.5); // the probe's node faulted again
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips, 2);
        assert!(!b.accepts(12.0));
        assert!(b.accepts(25.0));
        assert!(b.record_success());
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn successes_age_errors_out_of_the_window() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            window: 3,
            trip_errors: 2,
            cooloff_s: 1.0,
        });
        b.record_error(0.0);
        assert!(!b.record_success());
        assert!(!b.record_success());
        assert!(!b.record_success()); // the error has left the window
        b.record_error(1.0);
        assert_eq!(
            b.state(),
            BreakerState::Closed,
            "a lone error in a healthy window must not trip"
        );
    }

    #[test]
    fn routing_prefers_shallow_queue_then_low_id() {
        assert_eq!(route_least_loaded(&[(0, 5), (1, 2), (2, 2)]), Some(1));
        assert_eq!(route_least_loaded(&[(3, 0)]), Some(3));
        assert_eq!(route_least_loaded(&[]), None);
    }

    #[test]
    fn unbounded_admission_never_sheds() {
        let p = AdmissionPolicy::unbounded();
        assert_eq!(p.queue_cap, usize::MAX);
        assert!(p.deadline_s.is_infinite());
        let d = AdmissionPolicy::default();
        assert!(d.queue_cap < usize::MAX && d.deadline_s.is_finite());
    }

    #[test]
    fn tier_table_orders_patience_by_tier() {
        let t = TieredAdmission::default();
        let free = t.policy(Tier::Free);
        let std_ = t.policy(Tier::Standard);
        let prem = t.policy(Tier::Premium);
        assert!(free.queue_cap < std_.queue_cap && std_.queue_cap < prem.queue_cap);
        assert!(free.deadline_s < std_.deadline_s && std_.deadline_s < prem.deadline_s);
        assert!(free.slo.ttft_s >= prem.slo.ttft_s, "premium SLO is tighter");
        assert_eq!(Tier::ALL[0], Tier::Free, "free is shed first");
    }

    #[test]
    fn storm_guard_enforces_both_budgets() {
        let mut g = RetryStormGuard::new(RetryBudget {
            per_request: 2,
            storm_window_s: 10.0,
            storm_max_retries: 3,
        });
        // Per-request cap: attempts at the budget are refused outright
        // (not counted as storm drops — the request is simply spent).
        assert!(!g.admit_retry(0.0, 2));
        assert_eq!(g.storm_drops, 0);
        // Global circuit: the 4th retry in the window is a storm drop.
        assert!(g.admit_retry(1.0, 0));
        assert!(g.admit_retry(1.5, 0));
        assert!(g.admit_retry(2.0, 1));
        assert!(!g.admit_retry(2.5, 0));
        assert_eq!(g.storm_drops, 1);
        // The window slides: 12.0 is > 10 s past the 1.0/1.5 entries.
        assert!(g.admit_retry(12.0, 0));
        assert_eq!(g.storm_drops, 1);
    }

    #[test]
    fn unbudgeted_guard_never_drops() {
        let mut g = RetryStormGuard::new(RetryBudget::unbudgeted());
        for i in 0..1000 {
            assert!(g.admit_retry(f64::from(i) * 1e-3, i as u32));
        }
        assert_eq!(g.storm_drops, 0);
    }

    #[test]
    fn brownout_hysteresis_and_token_trim() {
        let mut b = Brownout::new(BrownoutConfig {
            enter_depth: 10,
            exit_depth: 4,
            output_cap_tokens: 16,
        });
        assert!(!b.observe_depth(9), "below enter stays off");
        assert_eq!(b.cap_output(100), 100, "inactive is a no-op");
        assert!(b.observe_depth(10), "enter threshold activates");
        assert_eq!(b.cap_output(100), 16);
        assert_eq!(b.cap_output(8), 8, "under-cap arrivals untouched");
        assert_eq!(b.tokens_trimmed, 84);
        assert!(b.observe_depth(7), "hysteresis: 7 >= exit keeps it on");
        assert!(!b.observe_depth(3), "below exit releases");
        assert_eq!(b.cap_output(100), 100);
        assert_eq!(b.activations, 1);
        assert!(b.observe_depth(11));
        assert_eq!(b.activations, 2);
    }
}
