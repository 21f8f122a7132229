//! Deterministic, seeded injection of TEE-specific failure events.
//!
//! The paper's cost story is built on *spot* prices, and its TEE
//! mechanisms — attestation, enclave exits, EPC paging, cGPU bounce
//! buffers — are exactly the components that fail in production. This
//! module models those failures as a pre-generated, seeded event stream
//! the serving event loop consumes:
//!
//! * **Crash-class** events ([`FaultKind::EnclaveCrash`],
//!   [`FaultKind::SpotPreemption`]) destroy the node's state: every
//!   resident request loses its KV cache and is re-queued under the
//!   bounded retry/backoff [`RecoveryPolicy`] (or aborted once the
//!   retry budget is spent).
//! * **Stall-class** events ([`FaultKind::AexStorm`],
//!   [`FaultKind::TdExitStorm`], [`FaultKind::EpcPagingStall`],
//!   [`FaultKind::BounceBufferStall`]) freeze the node for the event's
//!   outage window; state survives but every latency tail inflates.
//! * [`FaultKind::AttestationFailure`] models a quote-verification
//!   failure at session setup: the verifier rejects, and the enclave
//!   re-handshakes through the real `cllm_tee::session` state machine
//!   (see [`attested_rehandshake`]) while the node is unavailable.
//! * **Gray-failure** events ([`FaultKind::DegradedThroughput`],
//!   [`FaultKind::StuckDrain`]) never take the node down and never
//!   destroy state — the node keeps serving, just *worse*. A degraded
//!   window derates every decode step by
//!   [`DEGRADED_THROUGHPUT_FACTOR`]; a stuck drain wedges an in-flight
//!   scale-down so it cannot complete on its own and must be
//!   force-retired at its (horizon-clamped) drain deadline. These are
//!   the partial failures breakers and autoscalers handle worst,
//!   because no hard error ever fires.
//!
//! Rates are per-platform ([`FaultRates::for_platform`]): SGX pays
//! AEX/EPC events, TDX and SEV-SNP pay TD-exit storms, cGPUs pay bounce
//! buffer stalls, and everything rented on spot capacity pays
//! preemptions at the `cllm-cost` [`SpotParams`] rate. Schedules are
//! deterministic in their seed — two generations (on any thread count)
//! are byte-identical — and an **empty schedule is exactly the
//! zero-failure world**: the simulator takes no fault-related branch.

use cllm_cost::SpotParams;
use cllm_tee::attestation::Measurement;
use cllm_tee::platform::TeeKind;
use cllm_tee::session::{enclave_respond, HandshakePhase, SessionError, Verifier};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// The TEE-specific failure modes the injector can schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// Quote verification fails at session setup; the session is
    /// re-established via a fresh attested handshake.
    AttestationFailure,
    /// The enclave process dies (SGX: EPC corruption, host kill, AEX
    /// cascade). All resident KV state is lost.
    EnclaveCrash,
    /// A storm of asynchronous enclave exits (SGX interrupt pressure):
    /// the node stalls, state survives.
    AexStorm,
    /// A storm of TD exits / SEAMCALL round trips (TDX, SEV-SNP VMEXIT
    /// pressure): the node stalls, state survives.
    TdExitStorm,
    /// The SGX working set spills out of the EPC and pages synchronously.
    EpcPagingStall,
    /// The cGPU encrypted PCIe bounce buffer saturates and back-pressures
    /// every host↔device transfer.
    BounceBufferStall,
    /// The cloud provider reclaims the spot instance; the replacement
    /// node must re-provision and re-attest. All resident state is lost.
    SpotPreemption,
    /// Gray failure: a slow-node window (thermal throttle, noisy
    /// neighbour, degraded NIC). For `outage_s` seconds the node keeps
    /// serving but every decode step is derated by
    /// [`DEGRADED_THROUGHPUT_FACTOR`]; no downtime is charged and no
    /// state is lost.
    DegradedThroughput,
    /// Gray failure: a scale-down drain wedges (stuck teardown hook,
    /// un-acknowledged deregistration). A node whose drain falls inside
    /// the `outage_s`-second window cannot confirm completion on its
    /// own and is force-retired at its horizon-clamped drain deadline.
    /// Paths without drains (single node, fixed cluster) record the
    /// event and carry on — exactly a gray failure's signature.
    StuckDrain,
}

/// Decode-step slowdown inside a [`FaultKind::DegradedThroughput`]
/// window: a derated node generates tokens at `1/4` its healthy rate —
/// slow enough to wreck tails, fast enough that nothing hard-fails.
pub const DEGRADED_THROUGHPUT_FACTOR: f64 = 4.0;

impl FaultKind {
    /// Every kind, in the deterministic order schedules are generated
    /// and ties at equal timestamps are broken.
    pub const ALL: [FaultKind; 9] = [
        FaultKind::AttestationFailure,
        FaultKind::EnclaveCrash,
        FaultKind::AexStorm,
        FaultKind::TdExitStorm,
        FaultKind::EpcPagingStall,
        FaultKind::BounceBufferStall,
        FaultKind::SpotPreemption,
        // Gray-failure kinds are appended last so the generation and
        // tie-break positions of the original seven never move — a
        // schedule with zero gray rates is byte-identical to one
        // generated before these kinds existed.
        FaultKind::DegradedThroughput,
        FaultKind::StuckDrain,
    ];

    /// Whether the event is a gray failure: the node stays up and keeps
    /// its state, only quality degrades. Gray events charge no
    /// downtime, so they are invisible to availability — which is
    /// exactly what makes them dangerous.
    #[must_use]
    pub fn is_gray(self) -> bool {
        matches!(self, FaultKind::DegradedThroughput | FaultKind::StuckDrain)
    }

    /// Whether the event destroys resident KV state (crash-class) as
    /// opposed to merely stalling the node.
    #[must_use]
    pub fn loses_state(self) -> bool {
        matches!(self, FaultKind::EnclaveCrash | FaultKind::SpotPreemption)
    }

    /// Short label used in reports and logs.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::AttestationFailure => "attest-fail",
            FaultKind::EnclaveCrash => "enclave-crash",
            FaultKind::AexStorm => "aex-storm",
            FaultKind::TdExitStorm => "td-exit-storm",
            FaultKind::EpcPagingStall => "epc-paging",
            FaultKind::BounceBufferStall => "bounce-stall",
            FaultKind::SpotPreemption => "preemption",
            FaultKind::DegradedThroughput => "degraded-tput",
            FaultKind::StuckDrain => "stuck-drain",
        }
    }

    /// Outage-duration band (seconds) the generator samples log-uniformly
    /// from: how long the node is unavailable when this fault fires.
    #[must_use]
    pub fn outage_band_s(self) -> (f64, f64) {
        match self {
            // Re-handshake cost is charged from the policy instead.
            FaultKind::AttestationFailure => (0.0, 0.0),
            FaultKind::EnclaveCrash => (1.0, 5.0),
            FaultKind::AexStorm | FaultKind::TdExitStorm => (0.05, 0.5),
            FaultKind::EpcPagingStall | FaultKind::BounceBufferStall => (0.02, 0.2),
            // Re-provision a replacement instance and re-attest it.
            FaultKind::SpotPreemption => (10.0, 30.0),
            // Gray windows: `outage_s` is how long the degradation
            // *lasts*, not downtime — the node never goes unavailable.
            FaultKind::DegradedThroughput => (2.0, 20.0),
            FaultKind::StuckDrain => (5.0, 60.0),
        }
    }

    fn seed_salt(self) -> u64 {
        match self {
            FaultKind::AttestationFailure => 0xA77E,
            FaultKind::EnclaveCrash => 0xC4A5,
            FaultKind::AexStorm => 0xAE05,
            FaultKind::TdExitStorm => 0x7DE1,
            FaultKind::EpcPagingStall => 0xE9C0,
            FaultKind::BounceBufferStall => 0xB0B0,
            FaultKind::SpotPreemption => 0x5907,
            FaultKind::DegradedThroughput => 0xD264,
            FaultKind::StuckDrain => 0x57CD,
        }
    }
}

/// One scheduled failure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Simulation time the fault fires, seconds.
    pub at_s: f64,
    /// What fails.
    pub kind: FaultKind,
    /// How long the node is unavailable, seconds (zero for attestation
    /// failures, whose cost is the policy's re-handshake time).
    pub outage_s: f64,
}

/// Mean event rates per hour of operation, per fault kind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultRates {
    /// Quote-verification failures at session setup.
    pub attestation_failures_per_hr: f64,
    /// Enclave crashes (state-destroying).
    pub enclave_crashes_per_hr: f64,
    /// Asynchronous-exit storms (SGX).
    pub aex_storms_per_hr: f64,
    /// TD-exit storms (TDX / SEV-SNP).
    pub td_exit_storms_per_hr: f64,
    /// EPC paging stalls (SGX).
    pub epc_paging_stalls_per_hr: f64,
    /// Encrypted bounce-buffer stalls (cGPU).
    pub bounce_stalls_per_hr: f64,
    /// Spot-instance preemptions (state-destroying), from the
    /// `cllm-cost` spot assumptions.
    pub preemptions_per_hr: f64,
    /// Gray slow-node windows (no downtime, decode steps derated).
    /// Zero by default and in every platform preset — gray failures
    /// are opt-in so existing seeded schedules stay byte-identical.
    pub degraded_windows_per_hr: f64,
    /// Gray stuck-drain windows (scale-downs wedge until force-retire).
    /// Zero by default and in every platform preset.
    pub stuck_drains_per_hr: f64,
}

impl FaultRates {
    /// The zero-failure world: generates an empty schedule.
    #[must_use]
    pub fn none() -> Self {
        FaultRates {
            attestation_failures_per_hr: 0.0,
            enclave_crashes_per_hr: 0.0,
            aex_storms_per_hr: 0.0,
            td_exit_storms_per_hr: 0.0,
            epc_paging_stalls_per_hr: 0.0,
            bounce_stalls_per_hr: 0.0,
            preemptions_per_hr: 0.0,
            degraded_windows_per_hr: 0.0,
            stuck_drains_per_hr: 0.0,
        }
    }

    /// Rates for one platform on spot capacity: each mechanism only
    /// fails on the platforms that have it, and every spot-rented node
    /// pays preemptions at the [`SpotParams`] rate.
    #[must_use]
    pub fn for_platform(kind: TeeKind, spot: &SpotParams) -> Self {
        let mut r = FaultRates {
            preemptions_per_hr: spot.preemptions_per_hr,
            ..Self::none()
        };
        if kind.is_confidential() {
            r.attestation_failures_per_hr = 0.2;
        }
        match kind {
            TeeKind::Sgx => {
                r.enclave_crashes_per_hr = 0.1;
                r.aex_storms_per_hr = 2.0;
                r.epc_paging_stalls_per_hr = 1.0;
            }
            TeeKind::Tdx | TeeKind::SevSnp => {
                r.td_exit_storms_per_hr = 2.0;
            }
            TeeKind::GpuCc => {
                r.bounce_stalls_per_hr = 2.0;
            }
            TeeKind::BareMetal | TeeKind::Vm | TeeKind::GpuNative => {}
        }
        r
    }

    /// Uniformly scale every rate — short simulated horizons use this to
    /// surface events that at production rates would be hours apart.
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative"
        );
        self.attestation_failures_per_hr *= factor;
        self.enclave_crashes_per_hr *= factor;
        self.aex_storms_per_hr *= factor;
        self.td_exit_storms_per_hr *= factor;
        self.epc_paging_stalls_per_hr *= factor;
        self.bounce_stalls_per_hr *= factor;
        self.preemptions_per_hr *= factor;
        self.degraded_windows_per_hr *= factor;
        self.stuck_drains_per_hr *= factor;
        self
    }

    fn rate_per_hr(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::AttestationFailure => self.attestation_failures_per_hr,
            FaultKind::EnclaveCrash => self.enclave_crashes_per_hr,
            FaultKind::AexStorm => self.aex_storms_per_hr,
            FaultKind::TdExitStorm => self.td_exit_storms_per_hr,
            FaultKind::EpcPagingStall => self.epc_paging_stalls_per_hr,
            FaultKind::BounceBufferStall => self.bounce_stalls_per_hr,
            FaultKind::SpotPreemption => self.preemptions_per_hr,
            FaultKind::DegradedThroughput => self.degraded_windows_per_hr,
            FaultKind::StuckDrain => self.stuck_drains_per_hr,
        }
    }
}

/// Bounded retry with exponential backoff plus the re-attestation toll.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Re-queue attempts granted to a request whose node died; the
    /// request is aborted once they are spent.
    pub max_retries: u32,
    /// Backoff before the first re-queue becomes eligible, seconds.
    pub backoff_base_s: f64,
    /// Multiplier applied per additional attempt.
    pub backoff_factor: f64,
    /// Cost of one attested re-handshake (nonce + DH + quote + HKDF),
    /// charged whenever a retried request is re-admitted and whenever a
    /// session-setup attestation fails.
    pub reattest_s: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            backoff_base_s: 0.25,
            backoff_factor: 2.0,
            reattest_s: 0.35,
        }
    }
}

impl RecoveryPolicy {
    /// Largest exponent the backoff doubling may reach: caps the
    /// `factor^(attempt-1)` growth *before* the multiply so huge attempt
    /// counts (or huge factors) can never overflow to infinity.
    pub const MAX_BACKOFF_EXPONENT: u32 = 30;

    /// Ceiling on any single backoff delay, seconds. One hour: past
    /// that, waiting longer carries no information — the node is gone.
    pub const MAX_BACKOFF_S: f64 = 3600.0;

    /// Backoff delay before re-queue attempt `attempt` (1-based) becomes
    /// eligible: `base * factor^(attempt-1)`, with the exponent capped at
    /// [`Self::MAX_BACKOFF_EXPONENT`] and the product clamped to
    /// [`Self::MAX_BACKOFF_S`] — finite for every `attempt` up to
    /// `u32::MAX` and every finite factor.
    #[must_use]
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        let exponent = attempt.saturating_sub(1).min(Self::MAX_BACKOFF_EXPONENT);
        #[allow(clippy::cast_possible_wrap)] // exponent <= 30
        let delay = self.backoff_base_s * self.backoff_factor.powi(exponent as i32);
        delay.min(Self::MAX_BACKOFF_S)
    }
}

/// A complete fault plan: the pre-generated schedule plus the recovery
/// policy the event loop applies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Events in strictly non-decreasing time order.
    pub events: Vec<FaultEvent>,
    /// How the serving loop recovers.
    pub policy: RecoveryPolicy,
}

impl FaultPlan {
    /// The empty plan: simulation behaviour is byte-identical to the
    /// fault-free simulator.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan {
            events: Vec::new(),
            policy: RecoveryPolicy::default(),
        }
    }

    /// Generate the deterministic schedule for `rates` over a horizon of
    /// `duration_s` seconds. Each kind is an independent Poisson process
    /// (exponential interarrivals) on its own seed stream derived from
    /// `seed`, so adding one kind never perturbs another's arrival
    /// times; the merged stream is sorted by time with ties broken in
    /// [`FaultKind::ALL`] order.
    #[must_use]
    pub fn seeded(rates: &FaultRates, duration_s: f64, seed: u64) -> Self {
        let mut events: Vec<FaultEvent> = Vec::new();
        for kind in FaultKind::ALL {
            let rate_per_s = rates.rate_per_hr(kind) / 3600.0;
            if rate_per_s <= 0.0 || duration_s <= 0.0 {
                continue;
            }
            let mut rng = StdRng::seed_from_u64(seed ^ kind.seed_salt().wrapping_mul(0x9E37_79B9));
            let mut t = 0.0f64;
            loop {
                let u: f64 = rng.random::<f64>().max(1e-12);
                t += -u.ln() / rate_per_s;
                if t >= duration_s {
                    break;
                }
                let (lo, hi) = kind.outage_band_s();
                let outage_s = if hi <= lo {
                    lo
                } else {
                    // Log-uniform in the band: occasional long outages,
                    // mostly short ones, like real incident data.
                    (lo.ln() + rng.random::<f64>() * (hi.ln() - lo.ln())).exp()
                };
                events.push(FaultEvent {
                    at_s: t,
                    kind,
                    outage_s,
                });
            }
        }
        events.sort_by(|a, b| {
            a.at_s
                .partial_cmp(&b.at_s)
                // infallible: event times are finite exponential gaps
                .expect("finite event times")
                .then_with(|| {
                    // infallible: every generated kind is a member of ALL
                    let pos = |k| FaultKind::ALL.iter().position(|&x| x == k).expect("known");
                    pos(a.kind).cmp(&pos(b.kind))
                })
        });
        FaultPlan {
            events,
            policy: RecoveryPolicy::default(),
        }
    }

    /// Same plan with a different recovery policy.
    #[must_use]
    pub fn with_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Stable two-way merge: interleave `other`'s events into this plan
    /// by event time, preserving the *relative order* of each input
    /// stream exactly (ties go to `self`'s event). The cluster layer
    /// merges correlated-wave preemptions into a node's independent base
    /// schedule this way, so layering a wave never reorders the node's
    /// own Poisson streams. The merged plan keeps `self`'s policy.
    #[must_use]
    pub fn merge(self, other: FaultPlan) -> FaultPlan {
        let mut events = Vec::with_capacity(self.events.len() + other.events.len());
        let (mut a, mut b) = (
            self.events.into_iter().peekable(),
            other.events.into_iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => {
                    if x.at_s <= y.at_s {
                        events.push(a.next().expect("peeked"));
                    } else {
                        events.push(b.next().expect("peeked"));
                    }
                }
                (Some(_), None) => events.push(a.next().expect("peeked")),
                (None, Some(_)) => events.push(b.next().expect("peeked")),
                (None, None) => break,
            }
        }
        FaultPlan {
            events,
            policy: self.policy,
        }
    }

    /// Whether the plan injects anything at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Handshake seed unique per (node, sequence) so every re-attestation
/// drives a distinct, deterministic session transcript.
pub(crate) fn hs_seed(node_idx: usize, seq: u64) -> u64 {
    ((node_idx as u64) << 32) ^ seq
}

/// Drive one failed-then-recovered attested session setup through the
/// real `cllm_tee::session` state machine: the first response carries a
/// rogue measurement and is rejected by the verifier, the re-handshake
/// presents the golden measurement and must yield a working channel.
///
/// The serving simulator calls this on every
/// [`FaultKind::AttestationFailure`] event, so recovery is exercised
/// against the actual handshake logic rather than assumed; the time
/// cost is [`RecoveryPolicy::reattest_s`].
///
/// # Errors
///
/// Returns the [`SessionError`] if the *re*-handshake fails — which
/// would be a bug in the session layer, not an injected fault.
pub fn attested_rehandshake(seed: u64) -> Result<(), SessionError> {
    attested_rehandshake_phased(seed, &mut |_| {})
}

/// [`attested_rehandshake`] with phase observation: every
/// [`HandshakePhase`] of both attempts
/// (fail, then recover) is reported to `observe` as it happens. The
/// traced serving simulators forward these into their span sink at the
/// current simulated time; the untraced path passes a no-op observer.
///
/// # Errors
///
/// Returns the [`SessionError`] if the *re*-handshake fails — which
/// would be a bug in the session layer, not an injected fault.
pub fn attested_rehandshake_phased(
    seed: u64,
    observe: &mut dyn FnMut(HandshakePhase),
) -> Result<(), SessionError> {
    let golden = Measurement([0x5E; 32]);
    let rogue = Measurement([0xBE; 32]);
    let vseed = seed.to_be_bytes();
    let eseed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_be_bytes();

    // First attempt: the platform presents the wrong measurement — the
    // injected quote-verification failure.
    observe(HandshakePhase::Challenge);
    let (verifier, challenge) = Verifier::start(golden, b"hw-root", &vseed);
    observe(HandshakePhase::Respond);
    let (bad, _) = enclave_respond(b"hw-root", rogue, 7, &challenge, &eseed)?;
    match verifier.finish(&bad) {
        Err(SessionError::WrongEnclave) => observe(HandshakePhase::Reject),
        Ok(_) => unreachable!("rogue measurement must not verify"),
        Err(e) => return Err(e),
    }

    // Re-handshake with a fresh challenge must succeed and carry records.
    observe(HandshakePhase::Challenge);
    let (verifier, challenge) = Verifier::start(golden, b"hw-root", &eseed);
    observe(HandshakePhase::Respond);
    let (good, mut enclave_chan) = enclave_respond(b"hw-root", golden, 7, &challenge, &vseed)?;
    let mut verifier_chan = verifier.finish(&good)?;
    observe(HandshakePhase::Verify);
    let record = verifier_chan.send(b"re-release the model key");
    let opened = enclave_chan.recv(&record)?;
    debug_assert_eq!(opened, b"re-release the model key");
    observe(HandshakePhase::Channel);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tdx_rates() -> FaultRates {
        FaultRates::for_platform(TeeKind::Tdx, &SpotParams::gcp_spot()).scaled(600.0)
    }

    #[test]
    fn schedules_are_deterministic_in_seed() {
        let a = FaultPlan::seeded(&tdx_rates(), 120.0, 7);
        let b = FaultPlan::seeded(&tdx_rates(), 120.0, 7);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(&tdx_rates(), 120.0, 8);
        assert_ne!(a, c, "different seeds must shuffle the schedule");
    }

    #[test]
    fn schedule_is_time_ordered_and_in_horizon() {
        let plan = FaultPlan::seeded(&tdx_rates(), 90.0, 3);
        assert!(!plan.is_empty(), "600x-scaled TDX rates must fire in 90s");
        for w in plan.events.windows(2) {
            assert!(w[0].at_s <= w[1].at_s);
        }
        for e in &plan.events {
            assert!(e.at_s >= 0.0 && e.at_s < 90.0);
            let (lo, hi) = e.kind.outage_band_s();
            assert!(e.outage_s >= lo && e.outage_s <= hi.max(lo), "{e:?}");
        }
    }

    #[test]
    fn zero_rates_generate_nothing() {
        assert!(FaultPlan::seeded(&FaultRates::none(), 1e6, 1).is_empty());
        assert!(FaultPlan::seeded(&tdx_rates(), 0.0, 1).is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn rates_follow_platform_mechanisms() {
        let spot = SpotParams::gcp_spot();
        let bare = FaultRates::for_platform(TeeKind::BareMetal, &spot);
        assert_eq!(bare.attestation_failures_per_hr, 0.0);
        assert_eq!(bare.aex_storms_per_hr, 0.0);
        assert_eq!(bare.preemptions_per_hr, spot.preemptions_per_hr);

        let sgx = FaultRates::for_platform(TeeKind::Sgx, &spot);
        assert!(sgx.enclave_crashes_per_hr > 0.0);
        assert!(sgx.aex_storms_per_hr > 0.0);
        assert!(sgx.epc_paging_stalls_per_hr > 0.0);
        assert_eq!(sgx.td_exit_storms_per_hr, 0.0);

        let tdx = FaultRates::for_platform(TeeKind::Tdx, &spot);
        assert!(tdx.td_exit_storms_per_hr > 0.0);
        assert_eq!(tdx.aex_storms_per_hr, 0.0);

        let cgpu = FaultRates::for_platform(TeeKind::GpuCc, &spot);
        assert!(cgpu.bounce_stalls_per_hr > 0.0);
        assert!(cgpu.attestation_failures_per_hr > 0.0);
    }

    #[test]
    fn scaling_is_uniform() {
        let base = FaultRates::for_platform(TeeKind::Sgx, &SpotParams::gcp_spot());
        let scaled = base.scaled(10.0);
        for kind in FaultKind::ALL {
            assert!((scaled.rate_per_hr(kind) - 10.0 * base.rate_per_hr(kind)).abs() < 1e-12);
        }
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = RecoveryPolicy::default();
        assert!((p.backoff_s(1) - p.backoff_base_s).abs() < 1e-12);
        assert!((p.backoff_s(3) - p.backoff_base_s * 4.0).abs() < 1e-12);
        assert!(p.backoff_s(100).is_finite(), "backoff exponent is capped");
    }

    #[test]
    fn backoff_is_finite_past_the_exponent_boundary() {
        // attempt = 63 is past the exponent cap: the doubling must stop
        // at MAX_BACKOFF_EXPONENT, never overflow, and clamp to the
        // delay ceiling. Same for the absolute u32 boundary.
        let p = RecoveryPolicy::default();
        for attempt in [63, 64, u32::MAX] {
            let d = p.backoff_s(attempt);
            assert!(d.is_finite(), "attempt {attempt} gave {d}");
            assert!(
                d <= RecoveryPolicy::MAX_BACKOFF_S,
                "attempt {attempt} gave {d}"
            );
            assert_eq!(
                d,
                p.backoff_s(RecoveryPolicy::MAX_BACKOFF_EXPONENT + 1),
                "capped attempts must all share the ceiling delay"
            );
        }
        // A pathological factor cannot smuggle an infinity past the cap.
        let hot = RecoveryPolicy {
            backoff_factor: 1e300,
            ..RecoveryPolicy::default()
        };
        assert!(hot.backoff_s(63).is_finite());
        assert!(hot.backoff_s(63) <= RecoveryPolicy::MAX_BACKOFF_S);
    }

    #[test]
    fn merge_interleaves_by_time_and_keeps_left_policy() {
        let a = FaultPlan::seeded(&tdx_rates(), 60.0, 1).with_policy(RecoveryPolicy {
            max_retries: 7,
            ..RecoveryPolicy::default()
        });
        let b = FaultPlan::seeded(&tdx_rates(), 60.0, 2);
        let merged = a.clone().merge(b.clone());
        assert_eq!(merged.events.len(), a.events.len() + b.events.len());
        assert_eq!(merged.policy.max_retries, 7);
        for w in merged.events.windows(2) {
            assert!(w[0].at_s <= w[1].at_s, "merge must stay time-ordered");
        }
        // Merging the empty plan is the identity on events.
        let same = a.clone().merge(FaultPlan::none());
        assert_eq!(same.events, a.events);
    }

    #[test]
    fn rehandshake_recovers_through_the_session_layer() {
        for seed in 0..8 {
            attested_rehandshake(seed).expect("re-handshake must succeed");
        }
    }

    #[test]
    fn crash_class_is_exactly_crash_and_preemption() {
        for kind in FaultKind::ALL {
            assert_eq!(
                kind.loses_state(),
                matches!(kind, FaultKind::EnclaveCrash | FaultKind::SpotPreemption),
                "{kind:?}"
            );
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn gray_class_is_exactly_the_two_gray_kinds() {
        for kind in FaultKind::ALL {
            assert_eq!(
                kind.is_gray(),
                matches!(kind, FaultKind::DegradedThroughput | FaultKind::StuckDrain),
                "{kind:?}"
            );
            // Gray failures never destroy state — that is the point.
            assert!(!(kind.is_gray() && kind.loses_state()), "{kind:?}");
        }
    }

    #[test]
    fn platform_presets_stay_gray_free() {
        // Gray failures are opt-in: no platform preset schedules them,
        // so every pre-existing seeded schedule (and golden snapshot)
        // is byte-identical to before the kinds existed.
        for kind in [
            TeeKind::BareMetal,
            TeeKind::Vm,
            TeeKind::Tdx,
            TeeKind::SevSnp,
            TeeKind::Sgx,
            TeeKind::GpuNative,
            TeeKind::GpuCc,
        ] {
            let r = FaultRates::for_platform(kind, &SpotParams::gcp_spot());
            assert_eq!(r.degraded_windows_per_hr, 0.0, "{kind:?}");
            assert_eq!(r.stuck_drains_per_hr, 0.0, "{kind:?}");
        }
    }

    #[test]
    fn adding_gray_rates_never_perturbs_the_original_streams() {
        // Per-kind independent seed streams: turning gray rates on must
        // only *add* gray events — every original event keeps its exact
        // time and outage.
        let base = FaultPlan::seeded(&tdx_rates(), 120.0, 7);
        let with_gray = FaultPlan::seeded(
            &FaultRates {
                degraded_windows_per_hr: 240.0,
                stuck_drains_per_hr: 120.0,
                ..tdx_rates()
            },
            120.0,
            7,
        );
        let originals: Vec<&FaultEvent> = with_gray
            .events
            .iter()
            .filter(|e| !e.kind.is_gray())
            .collect();
        assert_eq!(originals.len(), base.events.len());
        for (a, b) in originals.iter().zip(&base.events) {
            assert_eq!(**a, *b);
        }
        assert!(
            with_gray.events.iter().any(|e| e.kind.is_gray()),
            "gray rates this high must fire in 120s"
        );
    }
}
