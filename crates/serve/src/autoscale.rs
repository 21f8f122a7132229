//! Attestation-aware reactive autoscaling with graceful degradation.
//!
//! The paper prices confidential inference at steady state; this module
//! answers the transient question its cost story raises: **what does a
//! TEE scale-up actually cost when a flash crowd hits?** Every node an
//! autoscaler rents must pay the attested handshake plus the
//! weight-unseal copy through the platform's protected path *before it
//! serves a single token* — on SGX that is an EPC-paged walk over the
//! whole weight footprint. A pre-attested warm pool skips the toll at a
//! steady carrying cost; the break-even between the two is the headline
//! of the `flash_crowd` experiment.
//!
//! The driver has no event loop of its own: it runs the cluster's fleet
//! loop ([`crate::cluster`]) as an elastic fleet, with the same kernel,
//! fault path, batching iteration and failover router as the
//! single-node and cluster simulators. What differs is data that loop
//! reads: each node's lifecycle, a front door of per-tier caps and
//! deadlines with an optional brownout, and a controller ticked at
//! arrivals. Together they add:
//!
//! * **a dynamic fleet** — nodes progress through
//!   `ColdStart → Attesting → Unsealing → Serving → Draining → Retired`;
//!   a cold-started node joins routing only at its ready time, a
//!   draining node takes no new work and retires when idle, and both the
//!   cold-start downtime and the drain deadline are clamped to the
//!   horizon, like every fault outage;
//! * **tiered overload protection** — per-tier queue caps and staleness
//!   deadlines ([`TieredAdmission`]):
//!   free is shed first, premium last;
//! * **retry budgets with a storm circuit** —
//!   [`RetryStormGuard`] bounds both the
//!   per-request attempts and the fleet-wide retry rate, converting
//!   metastable retry storms into bounded aborts. It replaces the
//!   recovery policy's `max_retries` cap the other simulators apply;
//! * **brownout** — [`Brownout`] degrades
//!   output-length caps before any request is shed;
//! * **billing** — rented lifetimes, warm-pool carrying cost and the
//!   base fleet are priced through [`cllm_cost::RentalBill`], yielding
//!   effective $/Mtok on *delivered* goodput.
//!
//! Everything is deterministic in the config's seeds: two runs are
//! byte-identical on any machine.

use crate::cluster::{least_loaded_eligible, run_fleet, FrontDoor, NodeSpec, TierDoor};
use crate::faults::{hs_seed, FaultEvent, FaultPlan, FaultRates};
use crate::kernel::KernelStats;
use crate::node::{clamp_to_horizon, NodeState, RetryRule, Run};
use crate::router::{
    BreakerConfig, Brownout, BrownoutConfig, RetryBudget, RetryStormGuard, TieredAdmission,
};
use crate::sim::{RequestRecord, ServingConfig, ServingNode};
use crate::slo::percentile_or_zero;
use crate::workload::Request;
use cllm_cost::{RentalBill, SpillPenalty};
use cllm_obs::TraceSink;
use cllm_tee::attestation::Measurement;
use cllm_tee::sealed::SealedBlob;
use cllm_tee::session::{enclave_respond, Verifier};
use cllm_workload::trace::{Tier, TraceRequest, TrafficModel};
use serde::{Deserialize, Serialize};

/// Template for the nodes the autoscaler rents on scale-up: identical
/// hardware, spot-class fault environment, and an hourly price.
#[derive(Debug, Clone)]
pub struct RentalSpec {
    /// The hardware + TEE each rented node serves on.
    pub node: ServingNode,
    /// Mean per-kind fault rates for each rented node's seeded stream.
    pub rates: FaultRates,
    /// Instance price, dollars/hour — accrues from rent to retirement,
    /// cold start included.
    pub price_per_hr: f64,
    /// Attested cold-start handshake time, seconds (nonce + DH + quote +
    /// HKDF against the verifier), paid before the weight unseal.
    pub attest_s: f64,
    /// Base seed; each rented node derives its fault schedule from it.
    pub seed: u64,
}

/// Reactive controller tuning. The controller runs at deterministic
/// sim-time ticks (driven by arrival dispatch, never wall clock) and
/// scales on aggregate queue backlog per serving node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Seconds between controller evaluations.
    pub control_interval_s: f64,
    /// Queued requests per serving node above which the controller rents.
    pub up_depth_per_node: f64,
    /// Queued requests per serving node below which a tick counts toward
    /// scale-down.
    pub down_depth_per_node: f64,
    /// Nodes rented per over-threshold tick.
    pub scale_up_step: usize,
    /// Maximum rented nodes alive at once (warm promotions included).
    pub max_rented: usize,
    /// Consecutive under-threshold ticks before one node is drained.
    pub scale_down_ticks: u32,
    /// Grace period a draining node gets to finish its running batch
    /// before the remainder is force-drained to the retry path, seconds.
    /// The deadline is clamped to the horizon.
    pub drain_window_s: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            control_interval_s: 5.0,
            up_depth_per_node: 8.0,
            down_depth_per_node: 1.0,
            scale_up_step: 1,
            max_rented: 8,
            scale_down_ticks: 3,
            drain_window_s: 20.0,
        }
    }
}

/// A complete autoscaling simulation configuration.
#[derive(Debug, Clone)]
pub struct AutoscaleConfig {
    /// Model, dtype, target, scheduler limits, KV policy and horizon.
    /// The embedded [`ServingConfig::arrivals`] process is **ignored** —
    /// arrivals come from [`AutoscaleConfig::traffic`].
    pub serving: ServingConfig,
    /// The generative tiered traffic the fleet faces.
    pub traffic: TrafficModel,
    /// Always-on reserved nodes (never drained, never billed as rental).
    /// Must be non-empty — the fleet needs somewhere to land retries.
    pub base_fleet: Vec<NodeSpec>,
    /// Hourly price of each base-fleet node (billed over the makespan).
    pub base_price_per_hr: f64,
    /// Template for scale-up rentals.
    pub rental: RentalSpec,
    /// Pre-attested standby nodes: promotion is instant (no handshake,
    /// no unseal), carried at [`RentalSpec::price_per_hr`] for the whole
    /// horizon whether or not they are ever promoted.
    pub warm_pool: usize,
    /// Controller tuning.
    pub controller: ControllerConfig,
    /// Per-tier queue caps, staleness deadlines and SLOs.
    pub tiers: TieredAdmission,
    /// Per-request retry budget and the global storm circuit.
    pub retry: RetryBudget,
    /// Optional brownout: degrade output length before shedding.
    pub brownout: Option<BrownoutConfig>,
    /// Circuit-breaker tuning (one breaker per node, rented included).
    pub breaker: BreakerConfig,
    /// Cost of failing a request over across platform classes.
    pub spill: SpillPenalty,
}

/// Per-tier slice of an [`AutoscaleReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct TierReport {
    /// Requests of this tier that arrived.
    pub arrivals: usize,
    /// Requests of this tier that completed.
    pub completed: usize,
    /// Requests of this tier shed (front door, tier cap, or deadline).
    pub shed: usize,
    /// Requests of this tier aborted (retry budget or storm circuit).
    pub aborted: usize,
    /// Completions that met this tier's SLO.
    pub slo_met: usize,
}

impl TierReport {
    /// Degraded SLO attainment: completions meeting the tier's SLO over
    /// *arrivals*, so sheds and aborts count as misses. `1.0` when the
    /// tier saw no traffic.
    #[must_use]
    pub fn slo_attainment(&self) -> f64 {
        if self.arrivals == 0 {
            return 1.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.slo_met as f64 / self.arrivals as f64
        }
    }
}

/// The outcome of one autoscaling simulation. Conservation holds by
/// construction: `completed + aborted + shed == arrivals`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoscaleReport {
    /// Requests the traffic model generated.
    pub arrivals: usize,
    /// Requests that completed on some node.
    pub completed: usize,
    /// Requests aborted by the retry budget or the storm circuit.
    pub aborted: usize,
    /// Requests shed: no eligible node, tier queue cap, or staleness
    /// deadline.
    pub shed: usize,
    /// Re-queue events across the fleet.
    pub retries: u64,
    /// Retries refused by the global storm circuit (each became an
    /// abort).
    pub storm_drops: u64,
    /// Failovers that crossed platform classes and paid the spill
    /// penalty.
    pub spills: u64,
    /// Scale-up decisions executed (cold starts + warm promotions).
    pub scale_ups: u64,
    /// Scale-ups served instantly from the warm pool.
    pub warm_promotions: u64,
    /// Scale-ups that paid the full attested handshake + weight unseal.
    pub cold_starts: u64,
    /// Scale-down drains initiated.
    pub scale_downs: u64,
    /// Total cold-start time paid (attest + unseal), horizon-clamped,
    /// seconds.
    pub cold_start_s: f64,
    /// Total weight-unseal time inside `cold_start_s`, seconds.
    pub unseal_s: f64,
    /// Brownout activations (0 when brownout is disabled).
    pub brownout_activations: u64,
    /// Output tokens trimmed by brownout caps.
    pub tokens_trimmed: u64,
    /// Wall time to drain the trace, seconds (max over node clocks).
    pub makespan_s: f64,
    /// Delivered tokens per second over the makespan.
    pub goodput_tps: f64,
    /// Tokens actually generated by completed requests.
    pub delivered_tokens: u64,
    /// Median time to first token, seconds (from original arrival).
    pub ttft_p50_s: f64,
    /// 99th-percentile time to first token, seconds.
    pub ttft_p99_s: f64,
    /// 99th-percentile TTFT over requests that *arrived inside a burst
    /// window* — the flash-crowd tail the autoscaler exists to protect.
    /// `0.0` when no completion arrived during a burst.
    pub ttft_p99_burst_s: f64,
    /// Per-tier outcomes, indexed free/standard/premium.
    pub tiers: [TierReport; 3],
    /// Rental bill over every rented node's clamped lifetime, dollars.
    pub rental_cost_usd: f64,
    /// Carrying cost of never-promoted warm standbys, dollars.
    pub warm_pool_cost_usd: f64,
    /// Base-fleet bill over the makespan, dollars.
    pub base_cost_usd: f64,
    /// `rental + warm pool + base`, dollars.
    pub total_cost_usd: f64,
    /// Effective dollars per million *delivered* tokens, attestation and
    /// carrying cost included. `0.0` when nothing was delivered.
    pub usd_per_mtok: f64,
    /// Per-request records (sorted by id).
    pub records: Vec<RequestRecord>,
}

/// Drive one *successful* cold-start secure boot through the real
/// attestation and sealing layers: a golden-measurement handshake must
/// verify, and a sealed weight-shard stand-in must round-trip under the
/// attested identity. The simulated *time* cost is
/// [`RentalSpec::attest_s`] plus
/// [`ServingNode::weight_unseal_time_s`]; this function is the fidelity
/// check that the boot the clock charges for actually works.
///
/// # Panics
///
/// Panics if the handshake or the unseal fails — a bug in the session
/// or sealing layer, not an injected fault.
pub fn cold_start_secure_boot(seed: u64) {
    let golden = Measurement([0x5E; 32]);
    let vseed = seed.to_be_bytes();
    let eseed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_be_bytes();
    let (verifier, challenge) = Verifier::start(golden, b"hw-root", &vseed);
    let (response, _enclave_chan) = enclave_respond(b"hw-root", golden, 7, &challenge, &eseed)
        .expect("cold-start respond must succeed");
    verifier
        .finish(&response)
        .expect("cold-start handshake must verify");
    let shard = seed.to_le_bytes();
    let blob = SealedBlob::seal(b"hw-root", &golden, "weights-shard", &shard, &vseed);
    let out = blob
        .unseal(b"hw-root", &golden)
        .expect("weight shard must unseal under the attested identity");
    assert_eq!(out, shard, "unsealed weights must match what was sealed");
}

/// Run the deterministic autoscaling simulation. A non-positive or NaN
/// base rate or horizon returns an empty report.
///
/// # Panics
///
/// Panics if the base fleet is empty, or if the base rate or the
/// horizon is infinite.
#[must_use]
pub fn simulate_autoscale(cfg: &AutoscaleConfig) -> AutoscaleReport {
    simulate_autoscale_stats(cfg).0
}

/// [`simulate_autoscale`] plus the kernel's event counters, for
/// throughput benchmarking (`serve_bench` divides
/// [`KernelStats::events`] by wall time).
///
/// # Panics
///
/// Panics if the base fleet is empty, or if the base rate or the
/// horizon is infinite.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn simulate_autoscale_stats(cfg: &AutoscaleConfig) -> (AutoscaleReport, KernelStats) {
    assert!(!cfg.base_fleet.is_empty(), "autoscale needs a base fleet");
    let horizon_s = cfg.serving.duration_s;
    let mut sink = TraceSink::disabled();

    let trace: Vec<TraceRequest> = if cfg.traffic.base_rate_per_s > 0.0 && horizon_s > 0.0 {
        cfg.traffic.generate(horizon_s)
    } else {
        Vec::new()
    };
    if trace.is_empty() {
        return (empty_report(), KernelStats::default());
    }
    let onsets = cfg.traffic.bursts.onsets(horizon_s);
    // A dense tier table: the tier-cap check scans every queued request
    // on each arrival.
    let tiers: Vec<Tier> = trace.iter().map(|r| r.tier).collect();
    // infallible: request ids are dense trace indices (0..len)
    let tier_of = |id: u64| tiers[usize::try_from(id).expect("dense id")];
    let requests: Vec<Request> = trace
        .iter()
        .map(|r| Request {
            id: r.id,
            arrival_s: r.arrival_s,
            prompt_tokens: r.prompt_tokens,
            output_tokens: r.output_tokens,
        })
        .collect();
    let total_arrivals = requests.len();
    let mut tiers_out = [TierReport::default(); 3];
    for t in &tiers {
        tiers_out[t.index()].arrivals += 1;
    }

    // The fleet: base nodes first (always ready), rentals appended by the
    // controller.
    let mut nodes: Vec<NodeState> = cfg
        .base_fleet
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let plan = spec.plan(horizon_s);
            NodeState::new(i, spec.node.clone(), plan, &cfg.serving, Some(cfg.breaker))
        })
        .collect();
    let mut door = FrontDoor {
        queue_cap: usize::MAX,
        tier_of: &tiers,
        tiers: Tier::ALL
            .iter()
            .map(|&t| TierDoor {
                queue_cap: cfg.tiers.policy(t).queue_cap,
                deadline_s: cfg.tiers.policy(t).deadline_s,
                shed: 0,
            })
            .collect(),
        brownout: cfg.brownout.map(Brownout::new),
        failover: true,
    };
    let mut ctl = Controller::new(cfg);
    let rule = RetryRule::Budget(RetryStormGuard::new(cfg.retry));
    let mut run = Run::new(&cfg.serving, cfg.spill, rule, total_arrivals, &mut sink);
    let spills = run_fleet(&mut nodes, requests, &mut door, Some(&mut ctl), &mut run);

    // Retire every node still draining (idle by construction once the
    // loop exits) and clamp never-ready rentals to the horizon. A gray
    // StuckDrain window wedges the drain: the node bills until the
    // window clears or its force-retire deadline, whichever is first.
    for n in &mut nodes {
        if n.drain_deadline_s.is_some() && n.retired_at_s.is_none() {
            n.retire_drained(n.now);
        }
    }
    for (n, &rented_at_s) in nodes[ctl.base..].iter_mut().zip(&ctl.rented_at_s) {
        if n.retired_at_s.is_none() && n.ready_at_s >= horizon_s {
            // Rented against a burst so late it never became ready: the
            // contract ends at the horizon, not at the phantom ready
            // time.
            n.retire(horizon_s.max(rented_at_s));
        }
    }

    let makespan_s = nodes.iter().map(|n| n.now).fold(0.0f64, f64::max);

    // Billing.
    let bill = RentalBill {
        price_per_hr: cfg.rental.price_per_hr,
    };
    let rental_cost_usd: f64 = nodes[ctl.base..]
        .iter()
        .zip(&ctl.rented_at_s)
        .map(|(n, &rented_at_s)| {
            bill.node_cost_usd(n.retired_at_s.unwrap_or(makespan_s) - rented_at_s)
        })
        .sum();
    let warm_pool_cost_usd = bill.warm_pool_cost_usd(ctl.warm_available, horizon_s);
    let base_bill = RentalBill {
        price_per_hr: cfg.base_price_per_hr,
    };
    let base_cost_usd = base_bill.warm_pool_cost_usd(cfg.base_fleet.len(), makespan_s);
    let total_cost_usd = rental_cost_usd + warm_pool_cost_usd + base_cost_usd;

    // Per-tier outcomes: the front door counted sheds by tier, and the
    // shared node machinery recorded the rest by id.
    for (out, tier) in tiers_out.iter_mut().zip(&door.tiers) {
        out.shed = tier.shed;
    }
    for &id in &run.aborted {
        tiers_out[tier_of(id).index()].aborted += 1;
    }
    let mut records = run.records;
    records.sort_by_key(|r| r.id);
    for r in &records {
        let tier = tier_of(r.id);
        tiers_out[tier.index()].completed += 1;
        let slo = cfg.tiers.policy(tier).slo;
        if r.ttft_s <= slo.ttft_s && r.tpot_s <= slo.tpot_s {
            tiers_out[tier.index()].slo_met += 1;
        }
    }
    let delivered_tokens: u64 = nodes.iter().map(|n| n.useful_tokens).sum();
    let completed = records.len();
    let mut ttft: Vec<f64> = records.iter().map(|r| r.ttft_s).collect();
    // infallible: latencies are differences of finite sim clocks
    ttft.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    // The burst tail is judged by *arrival* time; RequestRecord doesn't
    // carry it, so recover it from the trace by id.
    let in_burst = |t: f64| {
        onsets
            .iter()
            .any(|&o| t >= o && t < o + cfg.traffic.bursts.window_s)
    };
    let mut burst_ttft: Vec<f64> = records
        .iter()
        .filter(|r| in_burst(trace[usize::try_from(r.id).expect("dense id")].arrival_s))
        .map(|r| r.ttft_s)
        .collect();
    // infallible: latencies are differences of finite sim clocks
    burst_ttft.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));

    let usd_per_mtok = if delivered_tokens == 0 {
        0.0
    } else {
        total_cost_usd / (delivered_tokens as f64 / 1.0e6)
    };
    let report = AutoscaleReport {
        arrivals: total_arrivals,
        completed,
        aborted: run.aborted.len(),
        shed: door.tiers.iter().map(|t| t.shed).sum(),
        retries: run.retries,
        storm_drops: match &run.rule {
            RetryRule::Budget(guard) => guard.storm_drops,
            RetryRule::Cap => 0,
        },
        spills,
        scale_ups: ctl.scale_ups,
        warm_promotions: ctl.warm_promotions,
        cold_starts: ctl.cold_starts,
        scale_downs: ctl.scale_downs,
        cold_start_s: ctl.cold_start_s,
        unseal_s: ctl.unseal_s,
        brownout_activations: door.brownout.as_ref().map_or(0, |b| b.activations),
        tokens_trimmed: door.brownout.as_ref().map_or(0, |b| b.tokens_trimmed),
        makespan_s,
        goodput_tps: if completed == 0 {
            0.0
        } else {
            delivered_tokens as f64 / makespan_s.max(1e-9)
        },
        delivered_tokens,
        ttft_p50_s: percentile_or_zero(&ttft, 0.50),
        ttft_p99_s: percentile_or_zero(&ttft, 0.99),
        ttft_p99_burst_s: percentile_or_zero(&burst_ttft, 0.99),
        tiers: tiers_out,
        rental_cost_usd,
        warm_pool_cost_usd,
        base_cost_usd,
        total_cost_usd,
        usd_per_mtok,
        records,
    };
    #[cfg(debug_assertions)]
    {
        let v = crate::invariants::check_autoscale(&report);
        debug_assert!(
            v.is_empty(),
            "autoscale invariants violated: {}",
            crate::invariants::describe(&v)
        );
    }
    (report, run.stats)
}

fn empty_report() -> AutoscaleReport {
    AutoscaleReport {
        arrivals: 0,
        completed: 0,
        aborted: 0,
        shed: 0,
        retries: 0,
        storm_drops: 0,
        spills: 0,
        scale_ups: 0,
        warm_promotions: 0,
        cold_starts: 0,
        scale_downs: 0,
        cold_start_s: 0.0,
        unseal_s: 0.0,
        brownout_activations: 0,
        tokens_trimmed: 0,
        makespan_s: 0.0,
        goodput_tps: 0.0,
        delivered_tokens: 0,
        ttft_p50_s: 0.0,
        ttft_p99_s: 0.0,
        ttft_p99_burst_s: 0.0,
        tiers: [TierReport::default(); 3],
        rental_cost_usd: 0.0,
        warm_pool_cost_usd: 0.0,
        base_cost_usd: 0.0,
        total_cost_usd: 0.0,
        usd_per_mtok: 0.0,
        records: Vec::new(),
    }
}

/// The autoscaler's controller, which the fleet loop ticks at arrivals:
/// its tuning, its clock, the rentals it made and what it counted.
pub(crate) struct Controller<'a> {
    cfg: &'a AutoscaleConfig,
    /// Base-fleet size: rental `k` is node `base + k`.
    base: usize,
    /// When each rental's rent started, in rental order (`0.0` for a
    /// promoted warm standby).
    rented_at_s: Vec<f64>,
    next_tick_s: f64,
    /// Consecutive calm ticks.
    low_ticks: u32,
    /// Warm standbys not yet promoted.
    warm_available: usize,
    scale_ups: u64,
    warm_promotions: u64,
    cold_starts: u64,
    scale_downs: u64,
    /// Cold-start time charged, horizon-clamped, and its unseal part.
    cold_start_s: f64,
    unseal_s: f64,
}

impl<'a> Controller<'a> {
    /// A controller over `cfg`'s base fleet, with no rentals yet.
    pub(crate) fn new(cfg: &'a AutoscaleConfig) -> Self {
        Controller {
            cfg,
            base: cfg.base_fleet.len(),
            rented_at_s: Vec::new(),
            next_tick_s: 0.0,
            low_ticks: 0,
            warm_available: cfg.warm_pool,
            scale_ups: 0,
            warm_promotions: 0,
            cold_starts: 0,
            scale_downs: 0,
            cold_start_s: 0.0,
            unseal_s: 0.0,
        }
    }

    /// Run a controller evaluation at arrival time `t` if one is due
    /// (deterministic, sim-time driven), returning whether it ran.
    pub(crate) fn tick(
        &mut self,
        nodes: &mut Vec<NodeState>,
        t: f64,
        sink: &mut TraceSink,
    ) -> bool {
        let due = t >= self.next_tick_s;
        if due {
            self.next_tick_s = t + self.cfg.controller.control_interval_s;
            self.evaluate(nodes, t, sink);
        }
        due
    }

    /// One controller evaluation at `t`: scale up against backlog (warm
    /// promotion first, then cold rentals paying the real attested boot),
    /// scale down after sustained calm by draining the newest rental.
    #[allow(clippy::cast_precision_loss)]
    fn evaluate(&mut self, nodes: &mut Vec<NodeState>, t: f64, sink: &mut TraceSink) {
        let ctl = self.cfg.controller;
        let horizon_s = self.cfg.serving.duration_s;
        let serving = nodes.iter().filter(|n| n.eligible(t)).count().max(1);
        let queued: usize = nodes
            .iter()
            .filter(|n| n.retired_at_s.is_none())
            .map(NodeState::queued)
            .sum();
        let backlog_per_node = queued as f64 / serving as f64;
        let rented_active = nodes[self.base..]
            .iter()
            .filter(|n| n.retired_at_s.is_none() && n.drain_deadline_s.is_none())
            .count();

        if backlog_per_node > ctl.up_depth_per_node {
            self.low_ticks = 0;
            for step in 0..ctl.scale_up_step {
                if rented_active + step >= ctl.max_rented {
                    break;
                }
                nodes.push(self.rent(nodes.len(), t));
            }
        } else if backlog_per_node <= ctl.down_depth_per_node && rented_active > 0 {
            self.low_ticks += 1;
            if self.low_ticks >= ctl.scale_down_ticks {
                self.low_ticks = 0;
                self.scale_downs += 1;
                // Drain the newest ready rental: stop routing to it, move
                // its queued work to the survivors, give the running batch
                // a horizon-clamped grace window.
                if let Some(v) = (self.base..nodes.len())
                    .rev()
                    .find(|&i| nodes[i].eligible(t))
                {
                    nodes[v].drain_deadline_s = Some((t + ctl.drain_window_s).min(horizon_s));
                    for r in nodes[v].scheduler.shed(|_| true) {
                        let target = least_loaded_eligible(nodes, t);
                        nodes[target].place(r, t, sink);
                    }
                    for r in nodes[v].take_inbox() {
                        let target = least_loaded_eligible(nodes, t);
                        nodes[target].post(r, t, sink);
                    }
                    // An idle victim retires on the spot — unless a gray
                    // StuckDrain window is wedging it, in which case it
                    // bills until the window clears or the force-retire
                    // deadline, whichever comes first.
                    if nodes[v].idle() {
                        let now = t.max(nodes[v].now);
                        nodes[v].retire_drained(now);
                    }
                }
            }
        } else {
            self.low_ticks = 0;
        }
    }

    /// Rent node `idx` at `t`: a warm standby ready at once, or a cold
    /// start ready after the attested handshake and the weight unseal.
    fn rent(&mut self, idx: usize, t: f64) -> NodeState {
        let cfg = self.cfg;
        let horizon_s = cfg.serving.duration_s;
        let mut plan = FaultPlan::seeded(
            &cfg.rental.rates,
            horizon_s,
            cfg.rental.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let (ready_at_s, rented_at_s) = if self.warm_available > 0 {
            self.warm_available -= 1;
            self.warm_promotions += 1;
            // A promoted standby was attested and unsealed before the
            // horizon started; its carrying cost since t=0 is what bought
            // the instant readiness.
            (t, 0.0)
        } else {
            self.cold_starts += 1;
            cold_start_secure_boot(hs_seed(idx, 0) ^ cfg.rental.seed);
            let unseal_s = cfg.rental.node.weight_unseal_time_s(&cfg.serving);
            let ready = t + cfg.rental.attest_s + unseal_s;
            // Horizon clamp: a scale-up in the last seconds cannot charge
            // cold-start time past the end of the run.
            let charged = clamp_to_horizon(t, ready - t, horizon_s);
            self.cold_start_s += charged;
            self.unseal_s += unseal_s.min(charged);
            (ready, t)
        };
        plan.events.retain(|e: &FaultEvent| e.at_s >= ready_at_s);
        let node = cfg.rental.node.clone();
        let mut st = NodeState::new(idx, node, plan, &cfg.serving, Some(cfg.breaker));
        st.now = ready_at_s.min(horizon_s);
        st.downtime_s = clamp_to_horizon(rented_at_s, ready_at_s - rented_at_s, horizon_s);
        st.ready_at_s = ready_at_s;
        self.rented_at_s.push(rented_at_s);
        self.scale_ups += 1;
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::drain_retire_time;
    use cllm_tee::platform::CpuTeeConfig;
    use cllm_workload::trace::LognormalLen;

    fn tdx_serving_node() -> ServingNode {
        ServingNode::Cpu {
            tee: CpuTeeConfig::tdx(),
        }
    }

    /// Flash-crowd traffic with test-sized lengths so runs stay fast.
    /// Production burst cadence is ~30/hr; a 30 s test window needs a
    /// far denser schedule to see any burst at all.
    fn small_traffic(rate: f64, multiplier: f64, seed: u64) -> TrafficModel {
        let mut t = TrafficModel::flash_crowd(rate, multiplier, seed);
        t.bursts.bursts_per_hr = 360.0;
        t.bursts.window_s = 10.0;
        t.prompt = LognormalLen {
            mu_ln: 3.5,
            sigma_ln: 0.5,
            min_tokens: 16,
            max_tokens: 128,
        };
        t.output = LognormalLen {
            mu_ln: 2.5,
            sigma_ln: 0.4,
            min_tokens: 4,
            max_tokens: 32,
        };
        t
    }

    fn quiet_base(seed: u64) -> NodeSpec {
        NodeSpec::new(tdx_serving_node(), false, FaultRates::none(), seed)
    }

    fn base_cfg(traffic: TrafficModel) -> AutoscaleConfig {
        AutoscaleConfig {
            serving: ServingConfig::small_test(),
            traffic,
            base_fleet: vec![quiet_base(1)],
            base_price_per_hr: 3.0,
            rental: RentalSpec {
                node: tdx_serving_node(),
                rates: FaultRates::none(),
                price_per_hr: 4.0,
                attest_s: 0.5,
                seed: 77,
            },
            warm_pool: 0,
            controller: ControllerConfig {
                control_interval_s: 1.0,
                ..ControllerConfig::default()
            },
            tiers: TieredAdmission::default(),
            retry: RetryBudget::default(),
            brownout: None,
            breaker: BreakerConfig::default(),
            spill: SpillPenalty::cross_platform(),
        }
    }

    #[test]
    fn flash_crowd_scales_up_and_conserves() {
        let cfg = base_cfg(small_traffic(4.0, 10.0, 3));
        let r = simulate_autoscale(&cfg);
        assert!(r.arrivals > 0);
        assert_eq!(r.completed + r.aborted + r.shed, r.arrivals);
        assert!(r.scale_ups >= 1, "a 10x burst on one node must scale up");
        assert_eq!(r.cold_starts, r.scale_ups, "no warm pool: all cold");
        assert!(r.cold_start_s > 0.0 && r.unseal_s > 0.0);
        assert!(r.rental_cost_usd > 0.0);
        assert!((r.warm_pool_cost_usd - 0.0).abs() < 1e-12);
        assert!(r.total_cost_usd > r.base_cost_usd);
        let tier_arrivals: usize = r.tiers.iter().map(|t| t.arrivals).sum();
        assert_eq!(tier_arrivals, r.arrivals);
        assert!(r.usd_per_mtok > 0.0);
    }

    /// A controller tick rents, drains and retires nodes and moves
    /// queued work between them; the loop must re-place every node in
    /// its due set after one (debug builds check each choice against
    /// the reference scan). Rentals that fault while idle, and drains
    /// that hand work to idle nodes, exercise both.
    #[test]
    fn ticks_keep_the_due_set_in_step_with_the_fleet() {
        let mut scale_downs = 0;
        for seed in 0..8 {
            let mut cfg = base_cfg(small_traffic(1.0, 20.0, seed));
            cfg.base_fleet = vec![quiet_base(1), quiet_base(2)];
            cfg.rental.rates = FaultRates {
                preemptions_per_hr: 720.0,
                attestation_failures_per_hr: 360.0,
                stuck_drains_per_hr: 360.0,
                ..FaultRates::none()
            };
            cfg.controller.scale_up_step = 2;
            let (r, stats) = simulate_autoscale_stats(&cfg);
            assert_eq!(r.completed + r.aborted + r.shed, r.arrivals);
            assert!(r.scale_ups > 0 && stats.faults_applied > 0, "seed {seed}");
            scale_downs += r.scale_downs;
        }
        assert!(scale_downs > 0, "some tick drains a rental");
    }

    #[test]
    fn zero_or_nan_rate_and_horizon_return_empty_report() {
        for (rate, duration_s) in [(0.0, 30.0), (f64::NAN, 30.0), (4.0, f64::NAN), (4.0, 0.0)] {
            let mut cfg = base_cfg(small_traffic(rate, 10.0, 3));
            cfg.serving.duration_s = duration_s;
            assert_eq!(simulate_autoscale(&cfg), empty_report());
        }
    }

    #[test]
    fn autoscale_runs_are_deterministic() {
        let cfg = base_cfg(small_traffic(4.0, 10.0, 9));
        let a = simulate_autoscale(&cfg);
        let b = simulate_autoscale(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn warm_pool_skips_the_cold_start_toll() {
        let cold = simulate_autoscale(&base_cfg(small_traffic(4.0, 10.0, 3)));
        let mut warm_cfg = base_cfg(small_traffic(4.0, 10.0, 3));
        warm_cfg.warm_pool = warm_cfg.controller.max_rented;
        let warm = simulate_autoscale(&warm_cfg);
        assert!(warm.warm_promotions >= 1, "the burst must promote standbys");
        assert_eq!(warm.cold_starts, 0, "pool covers max_rented: never cold");
        assert!((warm.cold_start_s - 0.0).abs() < 1e-12);
        assert!(warm.warm_pool_cost_usd > 0.0, "standbys carry a cost");
        assert!(cold.cold_starts >= 1 && cold.cold_start_s > 0.0);
    }

    #[test]
    fn calm_traffic_on_base_fleet_never_rents() {
        let mut t = small_traffic(0.4, 1.0, 5);
        t.bursts = cllm_workload::trace::BurstModel::none();
        let r = simulate_autoscale(&base_cfg(t));
        assert!(r.arrivals > 0);
        assert_eq!(r.completed, r.arrivals, "a calm trace completes fully");
        assert_eq!(r.scale_ups + r.cold_starts + r.scale_downs, 0);
        assert!((r.rental_cost_usd + r.warm_pool_cost_usd).abs() < 1e-12);
        assert!(r.base_cost_usd > 0.0);
    }

    #[test]
    fn premium_outlives_free_under_shedding() {
        // Heavy overload on a fixed fleet (no rentals): the tier table
        // must shed free traffic before premium.
        let mut cfg = base_cfg(small_traffic(12.0, 6.0, 7));
        cfg.controller.max_rented = 0;
        cfg.tiers.policy_mut(Tier::Free).queue_cap = 8;
        let r = simulate_autoscale(&cfg);
        assert_eq!(r.completed + r.aborted + r.shed, r.arrivals);
        assert!(r.shed > 0, "overload on one node must shed");
        let frac = |t: &TierReport| {
            if t.arrivals == 0 {
                1.0
            } else {
                t.completed as f64 / t.arrivals as f64
            }
        };
        let free = &r.tiers[Tier::Free.index()];
        let premium = &r.tiers[Tier::Premium.index()];
        assert!(free.shed > 0, "free is the first tier to shed");
        assert!(
            frac(premium) >= frac(free),
            "premium completion fraction ({}) must not fall below free ({})",
            frac(premium),
            frac(free)
        );
    }

    #[test]
    fn brownout_trims_output_before_shedding() {
        let mut cfg = base_cfg(small_traffic(10.0, 8.0, 11));
        cfg.controller.max_rented = 0;
        cfg.brownout = Some(BrownoutConfig {
            enter_depth: 8,
            exit_depth: 2,
            output_cap_tokens: 8,
        });
        let r = simulate_autoscale(&cfg);
        assert!(r.brownout_activations >= 1, "overload must trip brownout");
        assert!(r.tokens_trimmed > 0, "brownout must trim output budgets");
        assert_eq!(r.completed + r.aborted + r.shed, r.arrivals);
    }

    #[test]
    fn cold_start_charge_clamps_to_horizon() {
        // Direct controller regression: a scale-up in the run's final
        // second cannot charge the full attest+unseal time, and the
        // rented node's clock parks at the horizon, not at its phantom
        // ready time.
        let cfg = base_cfg(small_traffic(4.0, 10.0, 3));
        let horizon_s = cfg.serving.duration_s;
        let boot_s = cfg.rental.attest_s + cfg.rental.node.weight_unseal_time_s(&cfg.serving);
        assert!(boot_s > 0.3, "fixture needs a boot longer than the window");
        let mut nodes = vec![NodeState::new(
            0,
            tdx_serving_node(),
            FaultPlan::seeded(&FaultRates::none(), horizon_s, 1),
            &cfg.serving,
            Some(cfg.breaker),
        )];
        let t = horizon_s - 0.5;
        for id in 0..32 {
            nodes[0].scheduler.enqueue_at(
                Request {
                    id,
                    arrival_s: t,
                    prompt_tokens: 32,
                    output_tokens: 8,
                },
                t,
            );
        }
        let mut ctl = Controller::new(&cfg);
        let mut sink = TraceSink::disabled();
        assert!(ctl.tick(&mut nodes, t, &mut sink), "a first tick is due");
        assert_eq!(ctl.cold_starts, 1);
        let cold_s = ctl.cold_start_s;
        assert!(
            cold_s <= 0.5 + 1e-12,
            "cold-start charge {cold_s} must clamp to the {} s left",
            0.5
        );
        assert!(
            cold_s < boot_s,
            "regression: unclamped charge leaked through"
        );
        let rented = &nodes[1];
        assert!(
            rented.ready_at_s > horizon_s,
            "this boot cannot finish in time"
        );
        assert!(
            rented.now <= horizon_s + 1e-12,
            "a never-ready node's clock must park at the horizon"
        );
        assert!(rented.downtime_s <= 0.5 + 1e-12);
    }

    #[test]
    fn drain_deadline_clamps_to_horizon() {
        // Direct controller regression: an absurd drain window cannot
        // push the force-drain deadline past the end of the run.
        let mut cfg = base_cfg(small_traffic(4.0, 10.0, 3));
        cfg.controller.scale_down_ticks = 1;
        cfg.controller.drain_window_s = 1.0e9;
        let horizon_s = cfg.serving.duration_s;
        let mk = |idx: usize| {
            NodeState::new(
                idx,
                tdx_serving_node(),
                FaultPlan::seeded(&FaultRates::none(), horizon_s, 1),
                &cfg.serving,
                Some(cfg.breaker),
            )
        };
        // Node 0 is the base fleet, node 1 a rental from t = 0.
        let mut nodes = vec![mk(0), mk(1)];
        let mut ctl = Controller::new(&cfg);
        ctl.rented_at_s.push(0.0);
        // Keep the rental busy so it drains instead of retiring on the
        // spot (the deadline only exists for in-flight work).
        nodes[1].scheduler.enqueue_at(
            Request {
                id: 0,
                arrival_s: 0.0,
                prompt_tokens: 32,
                output_tokens: 8,
            },
            0.0,
        );
        let _ = nodes[1]
            .scheduler
            .admit_any(&cfg.serving.model, cfg.serving.dtype, 0.0);
        let t = horizon_s - 2.0;
        let mut sink = TraceSink::disabled();
        assert!(ctl.tick(&mut nodes, t, &mut sink), "a first tick is due");
        assert_eq!(
            ctl.scale_downs, 1,
            "one calm tick at scale_down_ticks=1 must drain"
        );
        let deadline_s = nodes[1].drain_deadline_s.expect("node 1 is draining");
        assert!(
            deadline_s <= horizon_s + 1e-12,
            "regression: drain deadline {deadline_s} leaked past the horizon {horizon_s}"
        );
    }

    #[test]
    fn stuck_drain_defers_retirement_to_the_deadline() {
        // No active window: retire on the spot.
        assert!((drain_retire_time(10.0, 5.0, 20.0) - 10.0).abs() < 1e-12);
        // Window clears before the deadline: retire when it clears.
        assert!((drain_retire_time(10.0, 15.0, 20.0) - 15.0).abs() < 1e-12);
        // Window outlives the deadline: force-retire at the deadline.
        assert!((drain_retire_time(10.0, 1.0e9, 20.0) - 20.0).abs() < 1e-12);
        // Clocks never move backward, even past a stale deadline.
        assert!((drain_retire_time(25.0, 1.0e9, 20.0) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn degraded_base_fleet_slows_but_conserves() {
        let mk = |rates: FaultRates| {
            let mut t = small_traffic(0.6, 1.0, 5);
            t.bursts = cllm_workload::trace::BurstModel::none();
            let mut cfg = base_cfg(t);
            cfg.base_fleet = vec![NodeSpec::new(tdx_serving_node(), false, rates, 1)];
            cfg
        };
        let clean = simulate_autoscale(&mk(FaultRates::none()));
        let gray = simulate_autoscale(&mk(FaultRates {
            degraded_windows_per_hr: 1200.0,
            ..FaultRates::none()
        }));
        assert_eq!(gray.arrivals, clean.arrivals, "traffic is fault-blind");
        assert_eq!(gray.completed + gray.aborted + gray.shed, gray.arrivals);
        assert!(
            gray.makespan_s > clean.makespan_s,
            "dense derate windows must slow the fleet: {} vs {}",
            gray.makespan_s,
            clean.makespan_s
        );
    }

    #[test]
    fn stuck_drain_rentals_bill_through_the_wedged_drain() {
        let mk = |stuck_per_hr: f64| {
            let mut cfg = base_cfg(small_traffic(4.0, 10.0, 3));
            cfg.controller.scale_down_ticks = 1;
            cfg.rental.rates = FaultRates {
                stuck_drains_per_hr: stuck_per_hr,
                ..FaultRates::none()
            };
            cfg
        };
        let clean = simulate_autoscale(&mk(0.0));
        let stuck = simulate_autoscale(&mk(3600.0));
        assert!(
            clean.scale_downs >= 1,
            "this trace must scale down for the wedge to bite"
        );
        assert_eq!(stuck.arrivals, clean.arrivals);
        assert_eq!(stuck.completed + stuck.aborted + stuck.shed, stuck.arrivals);
        assert!(
            stuck.rental_cost_usd > clean.rental_cost_usd,
            "a wedged drain keeps renting until its deadline: {} vs {}",
            stuck.rental_cost_usd,
            clean.rental_cost_usd
        );
    }

    fn storm_cfg(retry: RetryBudget) -> AutoscaleConfig {
        let mut cfg = base_cfg(small_traffic(3.0, 1.0, 5));
        // Long decodes keep requests in flight across several crash
        // intervals, so attempts actually accumulate past the budget;
        // long prompts make every requeue pay a real prefill, which is
        // the capacity the storm burns.
        cfg.traffic.prompt = LognormalLen {
            mu_ln: 6.5,
            sigma_ln: 0.3,
            min_tokens: 512,
            max_tokens: 2048,
        };
        cfg.traffic.output = LognormalLen {
            mu_ln: 4.2,
            sigma_ln: 0.3,
            min_tokens: 48,
            max_tokens: 192,
        };
        // Patient tiers: without deadlines shedding stale victims, the
        // retry policy is the only thing standing between a crash-heavy
        // fleet and a metastable requeue storm.
        for tier in Tier::ALL {
            cfg.tiers.policy_mut(tier).deadline_s = 15.0;
            cfg.tiers.policy_mut(tier).queue_cap = usize::MAX;
        }
        // A crash-heavy fixed fleet: no rentals, so the retry policy is
        // the only lever under test.
        cfg.controller.max_rented = 0;
        // Pure state-destroying crashes: every fault drains the running
        // batch into the retry path, which is exactly the storm the
        // budget exists to bound.
        let rates = FaultRates {
            enclave_crashes_per_hr: 900.0,
            ..FaultRates::none()
        };
        cfg.base_fleet = vec![
            NodeSpec::new(tdx_serving_node(), true, rates, 21),
            NodeSpec::new(tdx_serving_node(), true, rates, 22),
        ];
        cfg.retry = retry;
        cfg
    }

    #[test]
    fn retry_budget_bounds_the_storm() {
        let budget = RetryBudget {
            per_request: 2,
            storm_window_s: 10.0,
            storm_max_retries: 16,
        };
        let budgeted = simulate_autoscale(&storm_cfg(budget));
        let unbudgeted = simulate_autoscale(&storm_cfg(RetryBudget::unbudgeted()));
        for r in [&budgeted, &unbudgeted] {
            assert_eq!(r.completed + r.aborted + r.shed, r.arrivals);
        }
        assert!(
            budgeted
                .records
                .iter()
                .all(|r| r.retries <= budget.per_request),
            "no completed request may exceed the per-request budget"
        );
        assert!(budgeted.aborted > 0, "the budget must bind in this storm");
        assert!(
            budgeted.storm_drops > 0,
            "the global circuit must trip in this storm"
        );
        assert!(
            budgeted.retries < unbudgeted.retries,
            "the budget must cut retry volume ({} vs {})",
            budgeted.retries,
            unbudgeted.retries
        );
        // Service availability: the fraction of arrivals the fleet
        // accepted and worked on (sheds are refusals). Unbounded retries
        // churn reattest + long prefills through the queues, starving
        // fresh arrivals into deadline sheds — the budget converts that
        // amplification into a few bounded aborts and keeps the front
        // door open.
        let availability = |r: &AutoscaleReport| 1.0 - r.shed as f64 / r.arrivals as f64;
        assert!(
            availability(&budgeted) > availability(&unbudgeted),
            "bounded retries must keep availability above the storm ({} vs {})",
            availability(&budgeted),
            availability(&unbudgeted)
        );
    }

    #[test]
    fn tier_caps_shed_at_the_front_door() {
        let mut cfg = base_cfg(small_traffic(12.0, 6.0, 13));
        cfg.controller.max_rented = 0;
        cfg.tiers.policy_mut(Tier::Free).queue_cap = 1;
        let r = simulate_autoscale(&cfg);
        assert!(r.tiers[Tier::Free.index()].shed > 0, "cap of 1 must shed");
        assert_eq!(r.completed + r.aborted + r.shed, r.arrivals);
    }
}
