//! Multi-node TEE serving cluster: failover router, admission control,
//! and correlated-fault survival.
//!
//! The single-node simulator ([`crate::sim`]) answers "what does one
//! faulted box look like"; this module answers the deployment question
//! the paper's cost story raises: **is a fleet of cheap spot cGPU nodes
//! with failover better than reserved CPU TEEs?** Every serving driver
//! runs the one fleet loop here: the single node is a one-node fleet,
//! and the autoscaler ([`crate::autoscale`]) an elastic fleet whose
//! controller rents, drains and retires nodes. N heterogeneous
//! [`ServingNode`]s — each with its own seeded [`FaultPlan`] — sit
//! behind a router that:
//!
//! * **bounds admission** ([`AdmissionPolicy`]): per-node queue caps and
//!   per-request deadlines introduce a third terminal state, `Rejected`,
//!   and conservation becomes
//!   `completed + aborted + rejected == arrivals`;
//! * **trips per-node circuit breakers**
//!   ([`CircuitBreaker`](crate::router::CircuitBreaker)): every fault
//!   event is an error sample, every completion a success; a tripped
//!   node takes no new work until a half-open probe completes, and
//!   closing pays a real attested re-handshake through
//!   `cllm_tee::session`;
//! * **fails requests over**: crash-class victims re-queue onto
//!   surviving nodes (bounded retry + backoff); a victim landing on the
//!   other platform class (cGPU → CPU TEE or back) is a **spill** and
//!   pays the [`SpillPenalty`] — a one-time re-quantisation plus a
//!   prefill slowdown for the dtype/layout conversion;
//! * **injects correlated faults** ([`WaveModel`]): preemption waves
//!   hit a configurable fraction of the *spot* nodes simultaneously,
//!   layered onto each node's independent Poisson streams via the
//!   order-preserving [`FaultPlan::merge`].
//!
//! Everything is deterministic in its seeds: two runs of the same
//! [`ClusterConfig`] are byte-identical on any thread count.

use crate::autoscale::Controller;
use crate::faults::{FaultEvent, FaultKind, FaultPlan, FaultRates};
use crate::kernel::KernelStats;
use crate::node::{next_step, node_scope, DueSet, Next, NodeState, RetryRule, Run};
use crate::router::{AdmissionPolicy, BreakerConfig, BreakerState, Brownout};
use crate::sim::{RequestRecord, ServingConfig, ServingNode};
use crate::slo::percentile_or_zero;
use crate::workload::Request;
use cllm_cost::SpillPenalty;
use cllm_obs::{Scope, SpanKind, Trace, TraceSink};
use cllm_workload::trace::Tier;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One node in the fleet: its hardware/TEE identity, how it is rented,
/// and its private fault environment.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// The hardware + TEE the node serves on.
    pub node: ServingNode,
    /// Whether the node is rented on spot capacity — only spot nodes are
    /// eligible victims of correlated preemption waves.
    pub spot: bool,
    /// Mean per-kind fault rates for this node's independent streams.
    pub rates: FaultRates,
    /// Seed for the node's private fault schedule.
    pub seed: u64,
    /// Hand-scheduled events (time-ordered) merged into the seeded
    /// stream — deterministic what-if injections and test fixtures.
    pub extra_events: Vec<FaultEvent>,
}

impl NodeSpec {
    /// A node with no hand-scheduled extra events.
    #[must_use]
    pub fn new(node: ServingNode, spot: bool, rates: FaultRates, seed: u64) -> Self {
        NodeSpec {
            node,
            spot,
            rates,
            seed,
            extra_events: Vec::new(),
        }
    }

    /// The node's private fault schedule: its seeded stream merged with
    /// its hand-scheduled extras.
    pub(crate) fn plan(&self, horizon_s: f64) -> FaultPlan {
        let base = FaultPlan::seeded(&self.rates, horizon_s, self.seed);
        let policy = base.policy;
        base.merge(FaultPlan {
            events: self.extra_events.clone(),
            policy,
        })
    }
}

/// Correlated preemption waves: the provider reclaims a slice of the
/// spot pool at once (capacity crunches hit zones, not single VMs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WaveModel {
    /// Mean wave arrivals per hour (Poisson).
    pub waves_per_hr: f64,
    /// Fraction of the fleet's spot nodes each wave preempts, rounded
    /// up; clamped to `[0, 1]`.
    pub frac: f64,
    /// Seed for wave times and victim selection.
    pub seed: u64,
}

impl WaveModel {
    /// No correlated waves; only the nodes' independent streams fire.
    #[must_use]
    pub fn none() -> Self {
        WaveModel {
            waves_per_hr: 0.0,
            frac: 0.0,
            seed: 0,
        }
    }

    /// Generate each spot node's share of the wave schedule: element `i`
    /// holds the [`FaultKind::SpotPreemption`] events for the fleet's
    /// `i`-th spot node (in fleet order). Wave times are Poisson; each
    /// wave picks `ceil(frac * n_spot)` distinct victims by seeded
    /// partial shuffle and samples each victim's outage log-uniformly
    /// from the preemption band.
    #[must_use]
    pub fn events_per_spot_node(&self, n_spot: usize, duration_s: f64) -> Vec<Vec<FaultEvent>> {
        let mut per_node: Vec<Vec<FaultEvent>> = vec![Vec::new(); n_spot];
        let rate_per_s = self.waves_per_hr / 3600.0;
        if rate_per_s <= 0.0 || duration_s <= 0.0 || n_spot == 0 || self.frac <= 0.0 {
            return per_node;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        #[allow(clippy::cast_possible_truncation)]
        let victims_per_wave = ((self.frac.min(1.0) * n_spot as f64).ceil() as usize).min(n_spot);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x57A6_E5EE_D000_0001);
        let (lo, hi) = FaultKind::SpotPreemption.outage_band_s();
        let mut t = 0.0f64;
        loop {
            let u: f64 = rng.random::<f64>().max(1e-12);
            t += -u.ln() / rate_per_s;
            if t >= duration_s {
                break;
            }
            // Seeded partial Fisher–Yates: the first `victims_per_wave`
            // entries are this wave's distinct victims.
            let mut ids: Vec<usize> = (0..n_spot).collect();
            for i in 0..victims_per_wave {
                let j = i + rng.random_range(0..n_spot - i);
                ids.swap(i, j);
            }
            for &v in &ids[..victims_per_wave] {
                let outage_s = (lo.ln() + rng.random::<f64>() * (hi.ln() - lo.ln())).exp();
                per_node[v].push(FaultEvent {
                    at_s: t,
                    kind: FaultKind::SpotPreemption,
                    outage_s,
                });
            }
        }
        per_node
    }
}

/// A complete cluster simulation configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Shared workload, model, scheduler limits and horizon; each node
    /// gets its own [`ContinuousBatcher`](crate::scheduler::ContinuousBatcher)
    /// with these limits.
    pub serving: ServingConfig,
    /// The fleet.
    pub nodes: Vec<NodeSpec>,
    /// Router admission bounds.
    pub admission: AdmissionPolicy,
    /// Circuit-breaker tuning (one breaker per node).
    pub breaker: BreakerConfig,
    /// Correlated preemption waves over the spot subset.
    pub wave: WaveModel,
    /// Whether crash-class victims may re-queue onto *other* nodes. With
    /// failover off they retry only on their origin node, like N
    /// independent single-node deployments behind one arrival stream.
    pub failover: bool,
    /// Cost of failing a request over across platform classes
    /// (cGPU ↔ CPU TEE).
    pub spill: SpillPenalty,
}

/// Per-node slice of a [`ClusterReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeReport {
    /// Requests this node completed.
    pub completed: usize,
    /// Seconds the node was unavailable (outages + re-attestation).
    pub downtime_s: f64,
    /// `1 - downtime / cluster makespan`, clamped to `[0, 1]`.
    pub availability: f64,
    /// Times the node's breaker tripped open.
    pub breaker_trips: u64,
    /// Times a half-open probe closed the breaker (each paid a
    /// re-attestation toll).
    pub breaker_closes: u64,
    /// Breaker position when the simulation drained.
    pub breaker_final: BreakerState,
    /// Deepest this node's admission queue got.
    pub queue_depth_peak: usize,
}

/// The outcome of one cluster simulation. Conservation holds by
/// construction: `completed + aborted + rejected == arrivals`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Requests that arrived at the router.
    pub arrivals: usize,
    /// Requests that completed on some node.
    pub completed: usize,
    /// Requests abandoned after exhausting the retry budget.
    pub aborted: usize,
    /// Requests the router shed: no accepting node at arrival, or a
    /// queued request passed its deadline.
    pub rejected: usize,
    /// Re-queue events across the fleet.
    pub retries: u64,
    /// Failovers that crossed platform classes and paid the
    /// [`SpillPenalty`].
    pub spills: u64,
    /// Sequences evicted on KV page-pool pressure across the fleet
    /// (zero under the conservative reservation policy).
    pub preemptions: u64,
    /// KV bytes paged out of protected memory by swap-policy evictions.
    pub swap_out_bytes: f64,
    /// KV bytes paged back into protected memory on readmission.
    pub swap_in_bytes: f64,
    /// Mean per-node availability over the cluster makespan.
    pub availability: f64,
    /// Wall time to drain the trace, seconds (max over node clocks).
    pub makespan_s: f64,
    /// Generated tokens per second over the makespan.
    pub goodput_tps: f64,
    /// Median time to first token, seconds (from original arrival, so
    /// failed-over requests carry their full story).
    pub ttft_p50_s: f64,
    /// 99th-percentile time to first token, seconds — the tail the
    /// admission controller and breakers exist to protect.
    pub ttft_p99_s: f64,
    /// Per-node reports, in fleet order.
    pub nodes: Vec<NodeReport>,
    /// Per-request records (sorted by id).
    pub records: Vec<RequestRecord>,
}

/// Build the fleet's live node states: every node runs its own
/// [`NodeSpec::plan`], and spot nodes additionally take their slice of
/// the correlated wave schedule (in fleet order).
pub(crate) fn build_nodes(cfg: &ClusterConfig, horizon_s: f64) -> Vec<NodeState> {
    let n_spot = cfg.nodes.iter().filter(|s| s.spot).count();
    let mut wave_events = cfg.wave.events_per_spot_node(n_spot, horizon_s).into_iter();
    cfg.nodes
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut plan = spec.plan(horizon_s);
            if spec.spot {
                let policy = plan.policy;
                // infallible: the wave schedule holds one slice per spot node
                let events = wave_events.next().expect("one wave slice per spot node");
                plan = plan.merge(FaultPlan { events, policy });
            }
            NodeState::new(i, spec.node.clone(), plan, &cfg.serving, Some(cfg.breaker))
        })
        .collect()
}

/// Run the deterministic multi-node serving simulation.
///
/// Time advances node-locally: each node has its own clock, and the loop
/// repeatedly either (a) dispatches the globally next arrival/retry to a
/// node chosen by the router, or (b) opens the boundary of the node due
/// earliest and runs one batching iteration there (ties broken by node
/// id) — whichever is earlier. A busy node is due at its clock; an idle
/// node meets its next fault at the fault's own time. A boundary that
/// applies faults ends there, and a retry waits in its node's inbox
/// until that node's next boundary. Under these rules a one-node cluster
/// with unbounded admission reproduces the single-node simulator's
/// records, faults included, as long as its breaker never trips.
///
/// A non-positive or NaN arrival rate or horizon returns an empty report.
/// Fresh arrivals that no node accepts (breaker open or queue at cap)
/// are `rejected`; queued requests past the admission deadline are shed
/// as `rejected` at the next boundary. Retries are always placeable —
/// with failover they fall back to the least-loaded node even past
/// breakers and caps (shedding, not starving, bounds the system), and
/// without failover they return to their origin node.
///
/// # Panics
///
/// Panics if the fleet is empty, or if the arrival rate or the horizon
/// is infinite.
#[must_use]
pub fn simulate_cluster(cfg: &ClusterConfig) -> ClusterReport {
    simulate_cluster_stats(cfg).0
}

/// [`simulate_cluster`] plus the kernel's event counters — arrivals
/// routed, retries delivered, faults applied, admissions, decode steps,
/// completions and rejections — for throughput benchmarking
/// (`serve_scale` divides `KernelStats::events` by wall time).
///
/// # Panics
///
/// Panics if the fleet is empty, or if the arrival rate or the horizon
/// is infinite.
#[must_use]
pub fn simulate_cluster_stats(cfg: &ClusterConfig) -> (ClusterReport, KernelStats) {
    run_cluster(cfg, &mut TraceSink::disabled())
}

/// Traced twin of [`simulate_cluster`]: byte-identical report (emission
/// only reads node clocks), plus the recorded single-lane [`Trace`] —
/// per-node busy/idle/outage spans tiling each node's timeline out to
/// the cluster makespan, per-request chains across failovers, and
/// events for routing decisions, breaker transitions, failover
/// re-queues, spills, and handshake phases (a one-node fleet routes
/// nothing, so it records no `route` or `failover` event).
///
/// # Panics
///
/// Panics if the fleet is empty, or if the arrival rate or the horizon
/// is infinite.
#[must_use]
pub fn simulate_cluster_traced(cfg: &ClusterConfig) -> (ClusterReport, Trace) {
    let mut sink = TraceSink::new();
    let (report, _) = run_cluster(cfg, &mut sink);
    (report, sink.finish())
}

fn run_cluster(cfg: &ClusterConfig, sink: &mut TraceSink) -> (ClusterReport, KernelStats) {
    assert!(!cfg.nodes.is_empty(), "cluster needs at least one node");
    let trace = cfg.serving.arrival_trace();
    if trace.is_empty() {
        // An empty run reads no fault schedule (and a NaN horizon has none).
        let report = drain_report(build_nodes(cfg, 0.0), 0, 0, 0, 0, 0, Vec::new());
        return (report, KernelStats::default());
    }
    let mut nodes = build_nodes(cfg, cfg.serving.duration_s);
    let total_arrivals = trace.len();
    let mut run = Run::new(
        &cfg.serving,
        cfg.spill,
        RetryRule::Cap,
        total_arrivals,
        sink,
    );
    let mut door = FrontDoor::fixed(cfg.admission, cfg.failover);
    let spills = run_fleet(&mut nodes, trace, &mut door, None, &mut run);
    let aborted = run.aborted.len();
    let report = drain_report(
        nodes,
        total_arrivals,
        door.tiers[0].shed,
        aborted,
        run.retries,
        spills,
        run.records,
    );
    (report, run.stats)
}

/// The router's rules as data the fleet loop reads: where a fresh
/// arrival may go, when queued work is too stale to keep, and where a
/// retry goes. A fixed fleet caps each node's queue and has one uncapped
/// tier at its admission deadline; the autoscaler caps no node's queue
/// but each tier fleet-wide, and may brown out.
pub(crate) struct FrontDoor<'a> {
    /// Most requests a node may have waiting and still take a fresh
    /// arrival (`usize::MAX`: no cap).
    pub(crate) queue_cap: usize,
    /// Each request's tier, by id; empty when the fleet has one tier.
    pub(crate) tier_of: &'a [Tier],
    /// The tiers, by [`Tier::index`].
    pub(crate) tiers: Vec<TierDoor>,
    /// Output-length degradation before shedding.
    pub(crate) brownout: Option<Brownout>,
    /// Whether a retry may land on another node; without failover it
    /// returns to the node it lost.
    pub(crate) failover: bool,
}

/// One admission tier at the front door.
pub(crate) struct TierDoor {
    /// Requests of the tier waiting fleet-wide at which a fresh one is
    /// shed (`usize::MAX`: no cap).
    pub(crate) queue_cap: usize,
    /// Seconds from arrival after which a waiting request of the tier
    /// is shed.
    pub(crate) deadline_s: f64,
    /// Requests of the tier shed, at the door or past the deadline.
    pub(crate) shed: usize,
}

impl FrontDoor<'_> {
    /// A fixed fleet's door: `admission`'s per-node queue cap and one
    /// uncapped tier at its deadline, with no brownout.
    pub(crate) fn fixed(admission: AdmissionPolicy, failover: bool) -> Self {
        FrontDoor {
            queue_cap: admission.queue_cap,
            tier_of: &[],
            tiers: vec![TierDoor {
                queue_cap: usize::MAX,
                deadline_s: admission.deadline_s,
                shed: 0,
            }],
            brownout: None,
            failover,
        }
    }

    /// Request `id`'s tier index.
    fn tier(&self, id: u64) -> usize {
        usize::try_from(id)
            .ok()
            .and_then(|i| self.tier_of.get(i))
            .map_or(0, |t| t.index())
    }

    /// Whether tier `tier` already has its cap of requests waiting
    /// across the fleet.
    fn tier_full(&self, tier: usize, nodes: &[NodeState]) -> bool {
        let cap = self.tiers[tier].queue_cap;
        cap < usize::MAX
            && nodes
                .iter()
                .filter(|n| n.retired_at_s.is_none())
                .flat_map(NodeState::queued_requests)
                .filter(|q| self.tier(q.id) == tier)
                .count()
                >= cap
    }
}

/// The fleet loop: serve `trace` on `nodes` behind `door` until nothing
/// is left anywhere, returning the failovers that spilled across
/// platform classes; each tier counts its sheds.
///
/// Each step is the [`DueSet`]'s choice:
///
/// * route the next arrival, after the controller's tick when one is due
///   (it may rent, drain and retire nodes), the brownout and the tier
///   cap, to the least-loaded open node, or shed it;
/// * route the next retry to the least-loaded open node, else the
///   least-loaded eligible one, or back to its origin without failover;
///   it waits in that node's inbox for the next boundary;
/// * or open the earliest due node's boundary: a draining node past its
///   deadline force-drains its batch and retires once idle, the tiers'
///   deadlines shed what waited too long, and one batch runs.
///
/// An event touches at most one node, which alone is re-placed in the
/// due set, and a controller tick re-places every node. The single-node
/// simulator is this loop over one node with no breaker, unbounded
/// admission and no spill penalty. A fleet of one has no routing choice,
/// so it records no `route` or `failover` event.
pub(crate) fn run_fleet(
    nodes: &mut Vec<NodeState>,
    trace: Vec<Request>,
    door: &mut FrontDoor,
    mut controller: Option<&mut Controller>,
    run: &mut Run,
) -> u64 {
    let mut pending: VecDeque<Request> = trace.into();
    let mut spills = 0u64;
    // With every deadline infinite nothing is ever stale, so the queues
    // are not rebuilt at each boundary.
    let sheds_stale = door.tiers.iter().any(|t| t.deadline_s.is_finite());
    let mut due = DueSet::new(nodes.iter());

    loop {
        let t_arrival = pending.front().map(|r| r.arrival_s);
        let t_retry = run.retry_queue.peek_time();
        let next = due.next(t_arrival, t_retry);
        debug_assert_eq!(
            next,
            next_step(t_arrival, t_retry, nodes.iter()),
            "the due set must choose what the scan chooses"
        );
        let Some(next) = next else { break };
        // The node the event touched, if any.
        let touched = match next {
            Next::Arrival => {
                let mut r = pending.pop_front().expect("arrival checked");
                run.stats.arrivals += 1;
                let t = r.arrival_s;
                if let Some(c) = controller.as_deref_mut() {
                    if c.tick(nodes, t, run.sink) {
                        due.sync(nodes.iter());
                    }
                }
                // Brownout: degrade output length before shedding.
                if let Some(b) = door.brownout.as_mut() {
                    let depth = nodes
                        .iter()
                        .filter(|n| n.retired_at_s.is_none())
                        .map(NodeState::queued)
                        .sum();
                    if b.observe_depth(depth) {
                        r.output_tokens = b.cap_output(r.output_tokens);
                    }
                }
                let tier = door.tier(r.id);
                let target = if door.tier_full(tier, nodes) {
                    None
                } else {
                    least_loaded_open(nodes, door.queue_cap, t, run.sink)
                };
                if let Some(i) = target {
                    if run.sink.is_enabled() {
                        run.slab.set_cursor(r.id, t);
                        if nodes.len() > 1 {
                            run.sink
                                .event(node_scope(i), "route", t, format!("req {}", r.id));
                        }
                    }
                    nodes[i].place(r, t, run.sink);
                } else {
                    door.tiers[tier].shed += 1; // load shed at the front door
                    run.stats.rejections += 1;
                    run.sink
                        .event(Scope::Request(r.id), "reject", t, String::new());
                }
                target
            }
            Next::Retry => {
                let (t, e) = run.retry_queue.pop().expect("retry checked");
                let id = e.request.id;
                run.stats.retries_delivered += 1;
                let target = if door.failover {
                    // Retries are always placeable: if every breaker is
                    // open / every queue full, fall back to the least
                    // loaded eligible node anyway — the deadline shed,
                    // not the router, is what bounds a hopeless request.
                    least_loaded_open(nodes, door.queue_cap, t, run.sink)
                        .unwrap_or_else(|| least_loaded_eligible(nodes, t))
                } else {
                    e.origin
                };
                if nodes[target].is_gpu() != e.origin_gpu {
                    spills += 1;
                    run.slab.mark_spilled(id);
                    let dir = if e.origin_gpu {
                        "cgpu->cpu"
                    } else {
                        "cpu->cgpu"
                    };
                    run.sink
                        .event_fmt(node_scope(target), "spill", t, || format!("req {id} {dir}"));
                }
                if nodes.len() > 1 {
                    run.sink.event_fmt(node_scope(target), "failover", t, || {
                        format!("req {id} from node {}", e.origin)
                    });
                }
                nodes[target].post(e.request, t, run.sink);
                Some(target)
            }
            Next::Advance(i) => {
                advance(&mut nodes[i], door, sheds_stale, run);
                Some(i)
            }
        };
        if let Some(i) = touched {
            due.update(i, &nodes[i]);
        }
    }

    // Pad every node's timeline with trailing idle out to the fleet
    // makespan, so per-node accounting sums to the same makespan the
    // report publishes (a drained node really is idle at the end).
    if run.sink.is_enabled() {
        let makespan_s = nodes.iter().map(|n| n.now).fold(0.0f64, f64::max);
        for n in nodes.iter() {
            run.sink
                .span(node_scope(n.idx), SpanKind::Idle, n.now, makespan_s);
        }
    }
    spills
}

/// Open node `n`'s boundary and run one batch there. A draining node
/// past its deadline force-drains its running batch to the retry path
/// first and retires once idle; a boundary that applied faults ends
/// after those drain checks (what arrived during the outage queues
/// first); and the tiers' deadlines shed what waited too long.
fn advance(n: &mut NodeState, door: &mut FrontDoor, sheds_stale: bool, run: &mut Run) {
    let open = n.open_boundary(run);
    if let Some(deadline_s) = n.drain_deadline_s {
        if n.now >= deadline_s && !n.scheduler.running().is_empty() {
            let now = n.now;
            n.requeue_or_abort(now, run);
        }
        // A gray StuckDrain window wedges the scale-down: the node keeps
        // renting (billed until it actually retires) without serving.
        // The deadline is horizon-clamped, so the billed tail is bounded.
        if n.idle() {
            n.retire_drained(n.now);
            return;
        }
    }
    if !open {
        return;
    }
    if sheds_stale {
        let now = n.now;
        let shed = n
            .scheduler
            .shed(|r| now - r.arrival_s > door.tiers[door.tier(r.id)].deadline_s);
        run.stats.rejections += shed.len() as u64;
        for r in &shed {
            let tier = door.tier(r.id);
            door.tiers[tier].shed += 1;
            run.end_chain(r.id, SpanKind::QueueWait, now);
            run.sink
                .event(Scope::Request(r.id), "shed", now, String::new());
        }
    }
    n.run_batch(run);
    // A drained node retires the moment it runs out of work, so no idle
    // fault can push its clock, and its bill, on.
    if n.drain_deadline_s.is_some() && n.idle() {
        n.retire_drained(n.now);
    }
}

/// The least-loaded node the router may send new work to at `t` —
/// eligible, queue under the cap and breaker accepting — ties to the
/// lowest index. Every eligible node under the cap is asked whether its
/// breaker accepts, in index order.
fn least_loaded_open(
    nodes: &mut [NodeState],
    queue_cap: usize,
    t: f64,
    sink: &mut TraceSink,
) -> Option<usize> {
    let mut least: Option<(usize, usize)> = None;
    for (i, n) in nodes.iter_mut().enumerate() {
        if n.eligible(t) && n.queued() < queue_cap && n.accepts(t, sink) {
            let depth = n.depth();
            if least.is_none_or(|(_, least)| depth < least) {
                least = Some((i, depth));
            }
        }
    }
    least.map(|(i, _)| i)
}

/// The least-loaded node eligible at `t`, past breakers and caps, ties
/// to the lowest index.
pub(crate) fn least_loaded_eligible(nodes: &[NodeState], t: f64) -> usize {
    let (i, _) = nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.eligible(t))
        .min_by_key(|(i, n)| (n.depth(), *i))
        // infallible: a fixed fleet is non-empty and never drains, and an elastic one keeps its base fleet
        .expect("a fleet always has an eligible node");
    i
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn drain_report(
    nodes: Vec<NodeState>,
    arrivals: usize,
    rejected: usize,
    aborted: usize,
    retries: u64,
    spills: u64,
    mut records: Vec<RequestRecord>,
) -> ClusterReport {
    records.sort_by_key(|r| r.id);
    let makespan_s = nodes.iter().map(|n| n.now).fold(0.0f64, f64::max);
    let useful_tokens: u64 = nodes.iter().map(|n| n.useful_tokens).sum();
    let preemptions: u64 = nodes.iter().map(|n| n.preemptions).sum();
    let swap_out_bytes: f64 = nodes.iter().map(|n| n.swap_out_bytes).sum();
    let swap_in_bytes: f64 = nodes.iter().map(|n| n.swap_in_bytes).sum();
    let node_reports: Vec<NodeReport> = nodes
        .iter()
        .map(|n| {
            let availability = if makespan_s > 0.0 {
                (1.0 - n.downtime_s / makespan_s).clamp(0.0, 1.0)
            } else {
                1.0
            };
            // infallible: build_nodes gives every cluster node a breaker
            let breaker = n.breaker.as_ref().expect("cluster nodes carry a breaker");
            NodeReport {
                completed: n.completed,
                downtime_s: n.downtime_s,
                availability,
                breaker_trips: breaker.trips,
                breaker_closes: breaker.closes,
                breaker_final: breaker.state(),
                queue_depth_peak: n.scheduler.queue_stats().depth_peak,
            }
        })
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let availability = if node_reports.is_empty() {
        1.0
    } else {
        node_reports.iter().map(|n| n.availability).sum::<f64>() / node_reports.len() as f64
    };
    // Sort the TTFT samples once; both percentiles read the same slice.
    let mut ttft: Vec<f64> = records.iter().map(|r| r.ttft_s).collect();
    // infallible: latencies are differences of finite sim clocks
    ttft.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let completed = records.len();
    #[allow(clippy::cast_precision_loss)]
    let report = ClusterReport {
        arrivals,
        completed,
        aborted,
        rejected,
        retries,
        spills,
        preemptions,
        swap_out_bytes,
        swap_in_bytes,
        availability,
        makespan_s,
        goodput_tps: if completed == 0 {
            0.0
        } else {
            useful_tokens as f64 / makespan_s.max(1e-9)
        },
        ttft_p50_s: percentile_or_zero(&ttft, 0.50),
        ttft_p99_s: percentile_or_zero(&ttft, 0.99),
        nodes: node_reports,
        records,
    };
    #[cfg(debug_assertions)]
    {
        let v = crate::invariants::check_cluster(&report);
        debug_assert!(
            v.is_empty(),
            "cluster invariants violated: {}",
            crate::invariants::describe(&v)
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cllm_cost::SpotParams;
    use cllm_tee::platform::{CpuTeeConfig, GpuTeeConfig, TeeKind};
    use std::collections::HashMap;

    fn tdx_node(seed: u64, spot: bool) -> NodeSpec {
        let spot_params = if spot {
            SpotParams::gcp_spot()
        } else {
            SpotParams::reserved()
        };
        NodeSpec::new(
            ServingNode::Cpu {
                tee: CpuTeeConfig::tdx(),
            },
            spot,
            FaultRates::for_platform(TeeKind::Tdx, &spot_params).scaled(600.0),
            seed,
        )
    }

    fn cgpu_node(seed: u64) -> NodeSpec {
        NodeSpec::new(
            ServingNode::Gpu {
                gpu: cllm_hw::presets::h100_nvl(),
                tee: GpuTeeConfig::confidential(),
            },
            true,
            FaultRates::for_platform(TeeKind::GpuCc, &SpotParams::azure_spot_gpu()).scaled(600.0),
            seed,
        )
    }

    fn small_cluster(nodes: Vec<NodeSpec>, wave: WaveModel, failover: bool) -> ClusterConfig {
        ClusterConfig {
            serving: ServingConfig::small_test(),
            nodes,
            admission: AdmissionPolicy::default(),
            breaker: BreakerConfig::default(),
            wave,
            failover,
            spill: SpillPenalty::cross_platform(),
        }
    }

    fn quiet_node(seed: u64) -> NodeSpec {
        NodeSpec {
            rates: FaultRates::none(),
            ..tdx_node(seed, false)
        }
    }

    #[test]
    fn fault_free_cluster_completes_everything() {
        let cfg = small_cluster(vec![quiet_node(1), quiet_node(2)], WaveModel::none(), true);
        let report = simulate_cluster(&cfg);
        assert!(report.arrivals > 0);
        assert_eq!(report.completed, report.arrivals);
        assert_eq!(report.rejected + report.aborted, 0);
        assert_eq!(report.retries + report.spills, 0);
        assert!((report.availability - 1.0).abs() < 1e-12);
        assert!(report.goodput_tps > 0.0);
        // Both nodes took work: least-loaded routing spreads the trace.
        assert!(report.nodes.iter().all(|n| n.completed > 0));
    }

    #[test]
    fn cluster_conserves_requests_under_faults_and_waves() {
        let wave = WaveModel {
            waves_per_hr: 120.0,
            frac: 0.75,
            seed: 5,
        };
        for failover in [false, true] {
            let cfg = small_cluster(
                vec![cgpu_node(1), cgpu_node(2), tdx_node(3, true), quiet_node(4)],
                wave,
                failover,
            );
            let r = simulate_cluster(&cfg);
            assert_eq!(
                r.completed + r.aborted + r.rejected,
                r.arrivals,
                "conservation violated (failover={failover})"
            );
            assert!(r.makespan_s.is_finite() && r.makespan_s > 0.0);
        }
    }

    #[test]
    fn cluster_runs_are_deterministic() {
        let wave = WaveModel {
            waves_per_hr: 90.0,
            frac: 0.5,
            seed: 9,
        };
        let cfg = small_cluster(vec![cgpu_node(1), tdx_node(2, false)], wave, true);
        let a = simulate_cluster(&cfg);
        let b = simulate_cluster(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn single_quiet_node_matches_single_node_simulator() {
        // One node under unbounded admission is the single-node
        // simulator with a router in front: fault-free, and under one
        // 2 s preemption placed anywhere from busy to idle stretches.
        let placements = (0..8).map(|k| {
            vec![FaultEvent {
                at_s: 1.5 + 3.5 * f64::from(k),
                kind: FaultKind::SpotPreemption,
                outage_s: 2.0,
            }]
        });
        for events in std::iter::once(Vec::new()).chain(placements) {
            let mut node = quiet_node(1);
            node.extra_events = events;
            let mut cfg = small_cluster(vec![node], WaveModel::none(), true);
            cfg.admission = AdmissionPolicy::unbounded();
            let cluster = simulate_cluster(&cfg);
            let plan = cfg.nodes[0].plan(cfg.serving.duration_s);
            let single =
                crate::sim::simulate_serving_faulted(&cfg.serving, &cfg.nodes[0].node, &plan);
            assert_eq!(cluster.records, single.records, "{:?}", plan.events);
            assert_eq!(cluster.completed, single.completed);
            assert_eq!(cluster.nodes[0].downtime_s, plan.events.len() as f64 * 2.0);
        }
    }

    #[test]
    fn idle_node_meets_its_fault_at_the_fault_time() {
        // A preemption in the middle of node 1's longest idle stretch of
        // a fault-free run: everything before it runs as before, so the
        // node is idle when it fires, and the outage opens at the
        // fault's own time, not when the next dispatch wakes the node.
        let mut cfg = small_cluster(vec![quiet_node(1), quiet_node(2)], WaveModel::none(), true);
        let node1_spans = |trace: &Trace, kind: SpanKind| -> Vec<(f64, f64)> {
            trace
                .spans
                .iter()
                .filter(|s| s.scope == Scope::Node(1) && s.kind == kind)
                .map(|s| (s.start_s, s.end_s))
                .collect()
        };
        let (_, clean) = simulate_cluster_traced(&cfg);
        let (from, to) = node1_spans(&clean, SpanKind::Idle)
            .into_iter()
            .filter(|&(_, end)| end < cfg.serving.duration_s)
            .max_by(|a, b| (a.1 - a.0).total_cmp(&(b.1 - b.0)))
            .expect("node 1 idles between requests");
        let at_s = (from + to) / 2.0;
        cfg.nodes[1].extra_events = vec![FaultEvent {
            at_s,
            kind: FaultKind::SpotPreemption,
            outage_s: 2.0,
        }];
        let (report, trace) = simulate_cluster_traced(&cfg);
        assert_eq!(node1_spans(&trace, SpanKind::Outage), [(at_s, at_s + 2.0)]);
        assert_eq!(report.nodes[1].downtime_s, 2.0);
    }

    #[test]
    fn degenerate_rate_or_horizon_returns_empty_report() {
        // Faulty spot nodes under waves: a NaN horizon must not reach the
        // fault-schedule generators, which would never terminate.
        let wave = WaveModel {
            waves_per_hr: 120.0,
            frac: 0.5,
            seed: 5,
        };
        let mk = |rate: f64, duration_s: f64| {
            let mut cfg = small_cluster(vec![cgpu_node(1), tdx_node(2, true)], wave, true);
            cfg.serving.arrivals.rate_per_s = rate;
            cfg.serving.duration_s = duration_s;
            simulate_cluster(&cfg)
        };
        let empty = mk(0.0, 30.0);
        assert_eq!(empty.arrivals, 0);
        assert_eq!(empty.nodes.len(), 2);
        assert_eq!(mk(f64::NAN, 30.0), empty);
        assert_eq!(mk(1.0, f64::NAN), empty);
        assert_eq!(mk(1.0, -1.0), empty);
    }

    #[test]
    fn overload_with_tight_admission_sheds_load() {
        let mut cfg = small_cluster(vec![quiet_node(1)], WaveModel::none(), true);
        cfg.serving.arrivals.rate_per_s = 12.0;
        cfg.admission = AdmissionPolicy {
            queue_cap: 2,
            deadline_s: 5.0,
        };
        let r = simulate_cluster(&cfg);
        assert!(r.rejected > 0, "overload past a cap of 2 must shed");
        assert_eq!(r.completed + r.aborted + r.rejected, r.arrivals);
        assert!(
            r.ttft_p99_s <= 5.0 + 30.0,
            "deadline shedding bounds the wait tail"
        );
    }

    #[test]
    fn waves_hit_only_spot_nodes() {
        // Quiet base rates + crash-only waves: every trip and all
        // downtime must land on the spot subset.
        let wave = WaveModel {
            waves_per_hr: 240.0,
            frac: 1.0,
            seed: 3,
        };
        let spot = NodeSpec {
            rates: FaultRates::none(),
            ..tdx_node(1, true)
        };
        let cfg = small_cluster(vec![spot, quiet_node(2)], wave, true);
        let r = simulate_cluster(&cfg);
        assert!(
            r.nodes[0].downtime_s > 0.0,
            "full-fraction waves must preempt the spot node"
        );
        assert_eq!(r.nodes[1].downtime_s, 0.0, "reserved node rides it out");
        assert!(r.nodes[1].breaker_trips == 0);
        assert_eq!(r.completed + r.aborted + r.rejected, r.arrivals);
    }

    #[test]
    fn failover_spills_cross_platform_and_pays_for_it() {
        // Two cGPU nodes under a dense, hand-scheduled preemption burst
        // plus one healthy CPU node. Long outputs keep requests resident
        // across crash times, so victims must exist; with the cGPU
        // breakers tripped, retries land on the CPU node — a spill.
        let crashes: Vec<FaultEvent> = (0..40)
            .map(|k| FaultEvent {
                at_s: 0.5 + 0.5 * f64::from(k),
                kind: FaultKind::SpotPreemption,
                outage_s: 0.5,
            })
            .collect();
        let mut cgpu_a = cgpu_node(1);
        cgpu_a.rates = FaultRates::none();
        cgpu_a.extra_events = crashes.clone();
        let mut cgpu_b = cgpu_node(2);
        cgpu_b.rates = FaultRates::none();
        cgpu_b.extra_events = crashes;
        let mut cfg = small_cluster(vec![cgpu_a, cgpu_b, quiet_node(3)], WaveModel::none(), true);
        cfg.serving.arrivals.rate_per_s = 4.0;
        cfg.serving.arrivals.prompt_range = (256, 512);
        cfg.serving.arrivals.output_range = (256, 512);
        let with = simulate_cluster(&cfg);
        assert!(with.retries > 0, "crashes must displace running requests");
        assert!(
            with.spills > 0,
            "cGPU victims must spill to the CPU node under failover"
        );
        cfg.failover = false;
        let without = simulate_cluster(&cfg);
        assert_eq!(without.spills, 0, "no failover, no cross-platform spill");
    }

    #[test]
    fn wave_schedule_is_deterministic_and_spot_scoped() {
        let wave = WaveModel {
            waves_per_hr: 60.0,
            frac: 0.5,
            seed: 11,
        };
        let a = wave.events_per_spot_node(4, 600.0);
        let b = wave.events_per_spot_node(4, 600.0);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        // frac 0.5 of 4 -> 2 victims per wave.
        let total: usize = a.iter().map(Vec::len).sum();
        let waves = total / 2;
        assert!(waves > 0, "60/hr over 600s must produce waves");
        assert_eq!(total, waves * 2);
        for events in &a {
            for w in events.windows(2) {
                assert!(w[0].at_s <= w[1].at_s);
            }
            for e in events {
                assert_eq!(e.kind, FaultKind::SpotPreemption);
                let (lo, hi) = FaultKind::SpotPreemption.outage_band_s();
                assert!(e.outage_s >= lo && e.outage_s <= hi);
            }
        }
        assert!(WaveModel::none().events_per_spot_node(4, 600.0) == vec![Vec::new(); 4]);
    }

    #[test]
    fn breaker_recloses_after_early_fault_burst() {
        // All faults land in the first three seconds; the rest of the
        // trace is clean, so the tripped breaker must end Closed
        // (liveness: an open breaker cannot absorb the healthy tail).
        let mut burst = quiet_node(1);
        burst.extra_events = (0..4)
            .map(|k| FaultEvent {
                at_s: 1.0 + 0.5 * f64::from(k),
                kind: FaultKind::EnclaveCrash,
                outage_s: 1.0,
            })
            .collect();
        let mut cfg = small_cluster(vec![burst, quiet_node(2)], WaveModel::none(), true);
        cfg.serving.arrivals.rate_per_s = 2.0; // healthy tail of traffic
        let r = simulate_cluster(&cfg);
        assert!(
            r.nodes[0].breaker_trips > 0,
            "four crashes in the window must trip"
        );
        for (i, n) in r.nodes.iter().enumerate() {
            assert_eq!(
                n.breaker_final,
                BreakerState::Closed,
                "node {i} breaker stuck ({} trips, {} closes)",
                n.breaker_trips,
                n.breaker_closes
            );
            // A burst event landing mid-probe re-opens the breaker, so
            // trips may exceed closes; ending Closed still requires the
            // final probe to have closed.
            assert!(n.breaker_trips >= n.breaker_closes);
        }
        assert!(r.nodes[0].breaker_closes >= 1);
        assert_eq!(r.completed + r.aborted + r.rejected, r.arrivals);
    }

    fn faulty_cluster() -> ClusterConfig {
        small_cluster(
            vec![tdx_node(11, true), cgpu_node(12), quiet_node(13)],
            WaveModel::none(),
            true,
        )
    }

    #[test]
    fn near_horizon_attestation_failure_is_clamped() {
        // Regression: the node-level attestation branch charged the full
        // re-handshake toll even when the failure fired just before the
        // horizon. A single hand-scheduled failure 0.05 s before the end
        // must charge at most 0.05 s of downtime.
        let horizon = ServingConfig::small_test().duration_s;
        let mut node = quiet_node(1);
        node.extra_events = vec![FaultEvent {
            at_s: horizon - 0.05,
            kind: FaultKind::AttestationFailure,
            outage_s: 0.0,
        }];
        let cfg = small_cluster(vec![node], WaveModel::none(), true);
        let r = simulate_cluster(&cfg);
        assert!(
            r.nodes[0].downtime_s <= 0.05 + 1e-9,
            "near-horizon attestation failure charged {} s, clamp allows 0.05 s",
            r.nodes[0].downtime_s
        );
        assert_eq!(r.completed + r.aborted + r.rejected, r.arrivals);

        // Baseline: the same failure mid-trace charges the whole toll.
        let mut mid = quiet_node(1);
        mid.extra_events = vec![FaultEvent {
            at_s: 5.0,
            kind: FaultKind::AttestationFailure,
            outage_s: 0.0,
        }];
        let cfg = small_cluster(vec![mid], WaveModel::none(), true);
        let toll = FaultPlan::none().policy.reattest_s;
        let r = simulate_cluster(&cfg);
        assert!(
            (r.nodes[0].downtime_s - toll).abs() < 1e-9,
            "mid-trace failure charges the whole toll, got {}",
            r.nodes[0].downtime_s
        );
    }

    #[test]
    fn traced_cluster_matches_untraced_report() {
        let cfg = faulty_cluster();
        let baseline = simulate_cluster(&cfg);
        let (traced, trace) = simulate_cluster_traced(&cfg);
        assert_eq!(baseline, traced, "tracing must be a pure observer");
        assert!(!trace.is_empty());
    }

    #[test]
    fn cluster_trace_conserves_time() {
        let cfg = faulty_cluster();
        let (report, trace) = simulate_cluster_traced(&cfg);
        let check = cllm_obs::check(&trace, 1e-6);
        assert!(check.ok(), "conservation failed: {:?}", check.errors);

        let totals = cllm_obs::node_totals(&trace);
        assert_eq!(totals.len(), cfg.nodes.len());
        for (i, t) in totals.iter().enumerate() {
            assert!(
                (t.makespan_s - report.makespan_s).abs() < 1e-9,
                "node {i} extent {} != cluster makespan {}",
                t.makespan_s,
                report.makespan_s
            );
            assert!(
                (t.outage_s - report.nodes[i].downtime_s).abs() < 1e-6,
                "node {i} outage {} != downtime {}",
                t.outage_s,
                report.nodes[i].downtime_s
            );
        }

        let chains = cllm_obs::request_chains(&trace);
        let by_id: HashMap<u64, f64> = chains.iter().map(|c| (c.id, c.total_s)).collect();
        for rec in &report.records {
            let total = by_id.get(&rec.id).copied().unwrap_or(0.0);
            assert!(
                (total - rec.e2e_s).abs() < 1e-6,
                "request {} chain {} != e2e {}",
                rec.id,
                total,
                rec.e2e_s
            );
        }
    }

    #[test]
    fn cluster_trace_records_routing_decisions() {
        let cfg = faulty_cluster();
        let (report, trace) = simulate_cluster_traced(&cfg);
        let routes = trace.events.iter().filter(|e| e.name == "route").count();
        assert!(routes > 0, "router must emit route events");
        if report.retries > 0 {
            let failovers = trace.events.iter().filter(|e| e.name == "failover").count();
            assert_eq!(failovers as u64, report.retries);
        }
        if report.spills > 0 {
            let spills = trace.events.iter().filter(|e| e.name == "spill").count();
            assert_eq!(spills as u64, report.spills);
        }
        if report.nodes.iter().any(|n| n.breaker_trips > 0) {
            assert!(trace.events.iter().any(|e| e.name == "breaker-open"));
        }
    }
}
