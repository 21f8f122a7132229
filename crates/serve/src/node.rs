//! One serving node's live state and the per-node machinery every
//! serving driver shares.
//!
//! One loop drives nodes: the fleet loop in `cluster`, which the
//! single-node simulator `sim` runs as a one-node fleet and `autoscale`
//! as an elastic fleet. What happens *on* a node, and when a node acts,
//! lives only here:
//!
//! * the fault path ([`NodeState::apply_due_faults`]): horizon-clamped
//!   outages, gray windows, the attested re-handshake after a rejected
//!   quote, and crash victims handed to the retry rule;
//! * victim requeue-or-abort ([`NodeState::requeue_or_abort`]) under one
//!   [`RetryRule`];
//! * the batch boundary ([`NodeState::open_boundary`]) and one batching
//!   iteration ([`NodeState::run_batch`]), whose prefill and decode
//!   prices come from the run's per-node price tables ([`Run`]);
//! * the node's place in an elastic fleet ([`NodeState::eligible`]): a
//!   rental's ready time, a drain with its force-drain deadline, and
//!   retirement, which a fixed fleet's nodes never reach;
//! * the horizon clamp ([`clamp_to_horizon`]);
//! * the dispatch-or-advance choice ([`DueSet`], with [`next_step`]'s
//!   scan as its reference).
//!
//! Three boundary rules make a one-node fleet the single node:
//!
//! 1. **Idle faults are events.** An idle node's next fault is due at
//!    the node's clock once it is already due, or at its own time when
//!    it comes strictly before the next dispatch ([`DueSet::next`]).
//! 2. **A fault ends the boundary.** A boundary that applies faults ends
//!    there, so arrivals that came during the outage join the queue
//!    before the next batch.
//! 3. **Retries wait in an inbox.** A routed retry waits in the node's
//!    inbox ([`NodeState::post`]) and joins the queue at the node's next
//!    boundary, after the arrivals; its wait clock and `Backoff`
//!    hand-off start there.
//!
//! `legacy` keeps its own copies of the fault, batching and dispatch
//! logic as the independent oracle the property tests compare these
//! against, so a new fault kind touches [`NodeState::apply_due_faults`]
//! plus the oracle.

use crate::faults::{
    attested_rehandshake_phased, hs_seed, FaultEvent, FaultKind, FaultPlan, RecoveryPolicy,
    DEGRADED_THROUGHPUT_FACTOR,
};
use crate::kernel::{EventQueue, KernelStats, RequestSlab};
use crate::router::{BreakerConfig, BreakerState, CircuitBreaker, RetryStormGuard};
use crate::scheduler::{Admission, ContinuousBatcher};
use crate::sim::{RequestRecord, ServingConfig, ServingNode};
use crate::workload::Request;
use cllm_cost::SpillPenalty;
use cllm_obs::{Scope, SpanKind, TraceSink};
use cllm_workload::kv;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Trace scope for the fleet's `i`-th node (a single node is node 0).
pub(crate) fn node_scope(i: usize) -> Scope {
    Scope::Node(u32::try_from(i).unwrap_or(u32::MAX))
}

/// The part of a `len_s` window opened at `at_s` that lies before the
/// arrival horizon. Outages, gray windows, re-handshake tolls and cold
/// starts all take this clamp: past the last instant the trace could
/// still demand service, unavailable time would only inflate the
/// makespan with downtime no request ever observed.
pub(crate) fn clamp_to_horizon(at_s: f64, len_s: f64, horizon_s: f64) -> f64 {
    len_s.min((horizon_s - at_s).max(0.0))
}

/// A crash victim waiting out its backoff before re-routing. Its
/// eligibility instant is the entry's time in the kernel event queue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Retry {
    pub(crate) request: Request,
    pub(crate) origin: usize,
    pub(crate) origin_gpu: bool,
}

/// Whether a request that lost its node — to a crash-class fault, or to
/// an autoscaler force-drain — re-queues or is aborted. Each loss bumps
/// the request's attempt count `a` (the first loss makes it 1) before
/// the rule is asked.
pub(crate) enum RetryRule {
    /// The single-node and cluster rule: re-queue while `a` is at most
    /// the node's [`RecoveryPolicy::max_retries`].
    Cap,
    /// The autoscaler's budget rule: re-queue while `a` is at most
    /// `RetryBudget::per_request` *and* the storm circuit has admitted
    /// fewer than `storm_max_retries` retries fleet-wide within the last
    /// `storm_window_s` (a refusal there counts a storm drop). It never
    /// reads `max_retries`: a budget above that cap allows more retries,
    /// and under `RetryBudget::unbudgeted` they are unbounded.
    Budget(RetryStormGuard),
}

impl RetryRule {
    fn admits(&mut self, policy: &RecoveryPolicy, now_s: f64, attempt: u32) -> bool {
        match self {
            RetryRule::Cap => attempt <= policy.max_retries,
            RetryRule::Budget(guard) => guard.admit_retry(now_s, attempt - 1),
        }
    }
}

/// One simulation run's constants and the bookkeeping every node of the
/// run writes to.
pub(crate) struct Run<'a> {
    serving: &'a ServingConfig,
    pub(crate) sink: &'a mut TraceSink,
    /// Cost of a cross-platform failover ([`SpillPenalty::none`] when
    /// nothing can spill).
    spill: SpillPenalty,
    /// KV bytes per token of context and per page, for swap and
    /// page-pressure pricing.
    per_token_bytes: f64,
    block_bytes: f64,
    pub(crate) rule: RetryRule,
    /// Per-request attempts, trace cursors and pending-spill flags.
    pub(crate) slab: RequestSlab,
    /// Crash victims waiting out their backoff, keyed by request id so
    /// same-instant retries pop in id order.
    pub(crate) retry_queue: EventQueue<Retry>,
    pub(crate) records: Vec<RequestRecord>,
    /// Re-queue events.
    pub(crate) retries: u64,
    /// Ids of the requests the retry rule aborted.
    pub(crate) aborted: Vec<u64>,
    pub(crate) stats: KernelStats,
    /// One price table per distinct [`ServingNode`] of the run, in the
    /// order the nodes first priced a step.
    prices: Vec<PriceTable>,
}

/// The roofline prices one [`ServingNode`] has paid so far in a run,
/// keyed by `(batch, mean context)` for a decode step and by prompt
/// tokens for a prefill. The roofline is a pure function of the node,
/// the run's config and the shape, so an entry is exactly the direct
/// call's result: a fleet visits a few hundred step shapes, so nearly
/// every step is a lookup.
struct PriceTable {
    node: ServingNode,
    decode: HashMap<(u64, u64), f64, BuildHasherDefault<ShapeHasher>>,
    prefill: HashMap<u64, f64, BuildHasherDefault<ShapeHasher>>,
}

/// A multiply-rotate hash for the price tables' keys. They are step
/// shapes the simulator made itself, so SipHash's flood resistance buys
/// nothing, and SipHash cost the fleet benchmark a tenth of its rate.
#[derive(Default)]
struct ShapeHasher(u64);

impl Hasher for ShapeHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl<'a> Run<'a> {
    pub(crate) fn new(
        serving: &'a ServingConfig,
        spill: SpillPenalty,
        rule: RetryRule,
        arrivals: usize,
        sink: &'a mut TraceSink,
    ) -> Self {
        let per_token_bytes = kv::kv_bytes_per_sequence(&serving.model, 1, serving.dtype);
        Run {
            serving,
            sink,
            spill,
            per_token_bytes,
            block_bytes: per_token_bytes * serving.kv.block_tokens as f64,
            rule,
            slab: RequestSlab::new(arrivals),
            retry_queue: EventQueue::new(),
            records: Vec::with_capacity(arrivals),
            retries: 0,
            aborted: Vec::new(),
            stats: KernelStats::default(),
            prices: Vec::new(),
        }
    }

    /// The index of `node`'s price table, opening one for a node no
    /// equal node has priced before.
    fn intern(&mut self, node: &ServingNode) -> usize {
        if let Some(i) = self.prices.iter().position(|t| t.node == *node) {
            return i;
        }
        self.prices.push(PriceTable {
            node: node.clone(),
            decode: HashMap::default(),
            prefill: HashMap::default(),
        });
        self.prices.len() - 1
    }

    /// [`ServingNode::prefill_time_s`] of table `table`'s node.
    fn prefill_time_s(&mut self, table: usize, prompt_tokens: u64) -> f64 {
        let serving = self.serving;
        let PriceTable { node, prefill, .. } = &mut self.prices[table];
        *prefill
            .entry(prompt_tokens)
            .or_insert_with(|| node.prefill_time_s(serving, prompt_tokens))
    }

    /// [`ServingNode::decode_step_time_s`] of table `table`'s node.
    fn decode_step_time_s(&mut self, table: usize, batch: u64, context: u64) -> f64 {
        let serving = self.serving;
        let PriceTable { node, decode, .. } = &mut self.prices[table];
        *decode
            .entry((batch, context))
            .or_insert_with(|| node.decode_step_time_s(serving, batch, context))
    }

    /// On a traced run, close request `id`'s open span as `kind` at
    /// `at_s` and open its next span there.
    pub(crate) fn handoff(&mut self, id: u64, kind: SpanKind, at_s: f64) {
        if self.sink.is_enabled() {
            if let Some(c) = self.slab.cursor(id) {
                self.sink.span(Scope::Request(id), kind, c, at_s);
                self.slab.set_cursor(id, at_s);
            }
        }
    }

    /// On a traced run, close request `id`'s open span as `kind` at
    /// `at_s`, ending its chain.
    pub(crate) fn end_chain(&mut self, id: u64, kind: SpanKind, at_s: f64) {
        if self.sink.is_enabled() {
            if let Some(c) = self.slab.take_cursor(id) {
                self.sink.span(Scope::Request(id), kind, c, at_s);
            }
        }
    }
}

/// Live state of one serving node.
pub(crate) struct NodeState {
    /// Fleet position: the node's trace scope and handshake seeds.
    pub(crate) idx: usize,
    pub(crate) node: ServingNode,
    /// The run's price table for `node`, interned at the first step.
    prices: Option<usize>,
    pub(crate) scheduler: ContinuousBatcher,
    /// The router's circuit breaker; `None` on the single-node
    /// simulator, which has no router to read it.
    pub(crate) breaker: Option<CircuitBreaker>,
    /// Breaker state the trace last saw.
    breaker_seen: BreakerState,
    pub(crate) plan: FaultPlan,
    /// Index of the next unapplied event in `plan.events`.
    pub(crate) next_event: usize,
    /// Routed retries waiting for the node's next boundary.
    inbox: Vec<Request>,
    pub(crate) now: f64,
    pub(crate) downtime_s: f64,
    pub(crate) handshake_seq: u64,
    pub(crate) useful_tokens: u64,
    pub(crate) completed: usize,
    /// Protected KV residency budget (weights already subtracted);
    /// resident pages past it price the per-step stall.
    kv_budget_bytes: f64,
    /// Sequences evicted on page-pool pressure.
    pub(crate) preemptions: u64,
    /// KV bytes paged out (swap policy) and back in on readmission.
    pub(crate) swap_out_bytes: f64,
    pub(crate) swap_in_bytes: f64,
    /// End of the latest gray [`FaultKind::DegradedThroughput`] window:
    /// decode steps starting before it are derated.
    pub(crate) derate_until_s: f64,
    /// End of the latest gray [`FaultKind::StuckDrain`] window. Only an
    /// elastic fleet has drains to wedge; elsewhere it is recorded and
    /// never read.
    pub(crate) stuck_until_s: f64,
    /// When the node may first take work: a rental's cold start ends
    /// here (`0.0` for every other node).
    pub(crate) ready_at_s: f64,
    /// A draining node's force-drain deadline: it takes no new work and
    /// retires once idle (`None`: not draining).
    pub(crate) drain_deadline_s: Option<f64>,
    /// When the node left the fleet (`None`: still in it).
    pub(crate) retired_at_s: Option<f64>,
}

impl NodeState {
    /// A fresh node at `t = 0` running `plan` on `serving`'s scheduler
    /// limits, with a breaker iff `breaker` is given.
    pub(crate) fn new(
        idx: usize,
        node: ServingNode,
        plan: FaultPlan,
        serving: &ServingConfig,
        breaker: Option<BreakerConfig>,
    ) -> Self {
        NodeState {
            idx,
            kv_budget_bytes: node.kv_residency_budget_bytes(serving),
            node,
            prices: None,
            scheduler: ContinuousBatcher::configured(serving.limits, serving.kv),
            breaker: breaker.map(CircuitBreaker::new),
            breaker_seen: BreakerState::Closed,
            plan,
            next_event: 0,
            inbox: Vec::new(),
            now: 0.0,
            downtime_s: 0.0,
            handshake_seq: 0,
            useful_tokens: 0,
            completed: 0,
            preemptions: 0,
            swap_out_bytes: 0.0,
            swap_in_bytes: 0.0,
            derate_until_s: 0.0,
            stuck_until_s: 0.0,
            ready_at_s: 0.0,
            drain_deadline_s: None,
            retired_at_s: None,
        }
    }

    /// Whether the router may consider the node at `t`: ready, not
    /// draining and not retired.
    pub(crate) fn eligible(&self, t: f64) -> bool {
        self.retired_at_s.is_none() && self.drain_deadline_s.is_none() && self.ready_at_s <= t
    }

    /// Whether the node has no work: nothing queued, resident or waiting
    /// in its inbox.
    pub(crate) fn idle(&self) -> bool {
        self.scheduler.idle() && self.inbox.is_empty()
    }

    /// Requests waiting for admission: the queue plus the inbox.
    pub(crate) fn queued(&self) -> usize {
        self.scheduler.queued() + self.inbox.len()
    }

    /// The waiting requests, queue first, then the inbox.
    pub(crate) fn queued_requests(&self) -> impl Iterator<Item = &Request> + '_ {
        self.scheduler.queued_requests().chain(&self.inbox)
    }

    pub(crate) fn depth(&self) -> usize {
        self.queued() + self.scheduler.running().len()
    }

    pub(crate) fn is_gpu(&self) -> bool {
        matches!(self.node, ServingNode::Gpu { .. })
    }

    /// When the next unapplied fault fires.
    pub(crate) fn next_fault_s(&self) -> Option<f64> {
        self.plan.events.get(self.next_event).map(|e| e.at_s)
    }

    /// Whether the router may send new work here at `t` (always, without
    /// a breaker). An open breaker past its cooloff turns half-open.
    pub(crate) fn accepts(&mut self, t: f64, sink: &mut TraceSink) -> bool {
        let open = self.breaker.as_mut().is_none_or(|b| b.accepts(t));
        self.note_breaker(t, sink);
        open
    }

    /// Emit a breaker-transition event iff the state changed since the
    /// trace last looked.
    fn note_breaker(&mut self, t: f64, sink: &mut TraceSink) {
        let Some(state) = self.breaker.as_ref().map(CircuitBreaker::state) else {
            return;
        };
        if self.breaker_seen != state {
            self.breaker_seen = state;
            let name = match state {
                BreakerState::Closed => "breaker-close",
                BreakerState::Open => "breaker-open",
                BreakerState::HalfOpen => "breaker-halfopen",
            };
            sink.event(node_scope(self.idx), name, t, String::new());
        }
    }

    /// Move an idle node's clock forward to `t`, as idle time (clocks
    /// never run backward, and a node with work keeps its own).
    fn wake(&mut self, t: f64, sink: &mut TraceSink) {
        if self.idle() && t > self.now {
            sink.span(node_scope(self.idx), SpanKind::Idle, self.now, t);
            self.now = t;
        }
    }

    /// Route a fresh arrival here at `t`: it joins the queue at once,
    /// waking an idle node to the dispatch time.
    pub(crate) fn place(&mut self, request: Request, t: f64, sink: &mut TraceSink) {
        self.wake(t, sink);
        self.scheduler.enqueue_at(request, t);
    }

    /// Route a retry here at `t`: it waits in the inbox for the node's
    /// next boundary, waking an idle node to the dispatch time.
    pub(crate) fn post(&mut self, request: Request, t: f64, sink: &mut TraceSink) {
        self.wake(t, sink);
        self.inbox.push(request);
    }

    /// Hand the inbox back to the router: the node is leaving routing.
    pub(crate) fn take_inbox(&mut self) -> Vec<Request> {
        std::mem::take(&mut self.inbox)
    }

    /// Leave the fleet at `at_s`: rent stops there, and the node takes
    /// no further faults.
    pub(crate) fn retire(&mut self, at_s: f64) {
        self.retired_at_s = Some(at_s);
        self.next_event = self.plan.events.len();
    }

    /// A draining node out of work at `now` leaves the fleet, when its
    /// gray `StuckDrain` window (if any) or its force-drain deadline
    /// allows ([`drain_retire_time`]).
    pub(crate) fn retire_drained(&mut self, now: f64) {
        // infallible: only a draining node retires drained
        let deadline_s = self.drain_deadline_s.expect("a draining node");
        self.retire(drain_retire_time(now, self.stuck_until_s, deadline_s));
    }

    /// Open a batch boundary at the node clock. An idle node is here only
    /// for its next fault ([`DueSet`]), so it first idles up to it.
    /// Every due fault then applies, and a boundary that applied one ends
    /// there (`false`): arrivals that came during the outage join the
    /// queue before the next batch. Otherwise the inbox joins the queue
    /// after the arrivals, each retry's wait clock and `Backoff` hand-off
    /// starting now, and the boundary goes on to a batch (`true`).
    pub(crate) fn open_boundary(&mut self, run: &mut Run) -> bool {
        if self.idle() {
            if let Some(t) = self.next_fault_s() {
                self.wake(t, run.sink);
            }
        }
        if self.apply_due_faults(run) {
            return false;
        }
        for request in self.inbox.drain(..) {
            run.handoff(request.id, SpanKind::Backoff, self.now);
            self.scheduler.enqueue_at(request, self.now);
        }
        true
    }

    /// Apply every fault due by the node clock, oldest first (each
    /// outage advances the clock, which can make the next one due).
    /// Returns whether any applied.
    fn apply_due_faults(&mut self, run: &mut Run) -> bool {
        let first = self.next_event;
        while let Some(&ev) = self
            .plan
            .events
            .get(self.next_event)
            .filter(|e| e.at_s <= self.now)
        {
            self.next_event += 1;
            run.stats.faults_applied += 1;
            self.apply_fault(&ev, run);
        }
        self.next_event > first
    }

    /// Apply one fault event at an iteration boundary.
    ///
    /// * **gray** — no breaker error, no downtime, no outage span: the
    ///   event only extends its horizon-clamped window;
    /// * every other kind is a breaker error sample and holds the node
    ///   for a horizon-clamped outage;
    /// * **attestation failure** — a fail-then-recover handshake runs
    ///   through the real `cllm_tee::session` machinery, and the outage
    ///   is the policy's re-handshake toll;
    /// * **crash-class** — the resident batch goes to the retry rule,
    ///   eligible after the outage plus backoff.
    fn apply_fault(&mut self, ev: &FaultEvent, run: &mut Run) {
        let horizon_s = run.serving.duration_s;
        if ev.kind.is_gray() {
            let until = match ev.kind {
                FaultKind::DegradedThroughput => &mut self.derate_until_s,
                FaultKind::StuckDrain => &mut self.stuck_until_s,
                _ => unreachable!("is_gray covers exactly the two gray kinds"),
            };
            *until = until.max(ev.at_s + clamp_to_horizon(ev.at_s, ev.outage_s, horizon_s));
            run.sink
                .event_fmt(node_scope(self.idx), "gray", self.now, || {
                    ev.kind.label().to_string()
                });
            return;
        }
        if let Some(breaker) = self.breaker.as_mut() {
            breaker.record_error(self.now);
        }
        self.note_breaker(self.now, run.sink);
        let outage_s = if ev.kind == FaultKind::AttestationFailure {
            self.rehandshake(run.sink);
            clamp_to_horizon(ev.at_s, self.plan.policy.reattest_s, horizon_s)
        } else {
            let outage_s = clamp_to_horizon(ev.at_s, ev.outage_s, horizon_s);
            if ev.kind.loses_state() {
                self.requeue_or_abort(ev.at_s + outage_s, run);
            }
            outage_s
        };
        let t0 = self.now;
        self.now += outage_s;
        self.downtime_s += outage_s;
        run.sink.span_labeled(
            node_scope(self.idx),
            SpanKind::Outage,
            t0,
            self.now,
            Some(ev.kind.label()),
        );
    }

    /// Drive a fail-then-recover attested handshake through the real
    /// session layer, tracing its phases at the node clock.
    fn rehandshake(&mut self, sink: &mut TraceSink) {
        self.handshake_seq += 1;
        let (scope, t0) = (node_scope(self.idx), self.now);
        attested_rehandshake_phased(hs_seed(self.idx, self.handshake_seq), &mut |phase| {
            sink.event_fmt(scope, "handshake", t0, || phase.label().to_string());
        })
        // infallible: simulated attestation over an in-process channel cannot fail; crashes charge recovery time, not handshake errors
        .expect("re-handshake must recover the session");
    }

    /// Every resident request (running or swapped out) lost its KV: hand
    /// each to the retry rule, which either re-queues it to become
    /// eligible at `eligible_from_s` plus its backoff, or aborts it.
    pub(crate) fn requeue_or_abort(&mut self, eligible_from_s: f64, run: &mut Run) {
        let origin_gpu = self.is_gpu();
        for victim in self.scheduler.drain_running() {
            let id = victim.request.id;
            let a = run.slab.bump_attempts(id);
            if run.rule.admits(&self.plan.policy, self.now, a) {
                run.retries += 1;
                run.handoff(id, SpanKind::DecodeLost, self.now);
                run.sink
                    .event_fmt(Scope::Request(id), "requeue", self.now, || {
                        format!("attempt {a}")
                    });
                run.retry_queue.push_keyed(
                    eligible_from_s + self.plan.policy.backoff_s(a),
                    id,
                    Retry {
                        request: victim.request,
                        origin: self.idx,
                        origin_gpu,
                    },
                );
            } else {
                run.aborted.push(id);
                run.end_chain(id, SpanKind::DecodeLost, self.now);
                run.sink
                    .event(Scope::Request(id), "abort", self.now, String::new());
            }
        }
    }

    /// Hold the node for `dur_s`, as one span on the node and one on the
    /// request it is spent for.
    fn charge(&mut self, sink: &mut TraceSink, request: Scope, kind: SpanKind, dur_s: f64) {
        let t0 = self.now;
        self.now += dur_s;
        sink.span(node_scope(self.idx), kind, t0, self.now);
        sink.span(request, kind, t0, self.now);
    }

    /// One batching iteration at the node clock:
    ///
    /// 1. admit and prefill — a retried victim re-attests first, a
    ///    spilled one re-quantises and prefills slower on the foreign
    ///    platform class, and a swapped-out sequence resumes with its
    ///    progress after a swap-in instead of a prefill;
    /// 2. on page-pool pressure evict from the batch tail (recompute
    ///    victims re-queue locally, swap victims page out through the
    ///    node's priced path);
    /// 3. step the whole batch once at its mean context, stalled while
    ///    resident KV overflows the protected budget and derated inside
    ///    a gray window;
    /// 4. record completions; one that closes a half-open breaker pays
    ///    the attested re-handshake before full traffic returns.
    pub(crate) fn run_batch(&mut self, run: &mut Run) {
        let traced = run.sink.is_enabled();
        let serving = run.serving;
        let prices = *self.prices.get_or_insert_with(|| run.intern(&self.node));
        for adm in self
            .scheduler
            .admit_any(&serving.model, serving.dtype, self.now)
        {
            match adm {
                Admission::Fresh(r) => {
                    run.stats.admissions += 1;
                    let scope = Scope::Request(r.id);
                    run.handoff(r.id, SpanKind::QueueWait, self.now);
                    if run.slab.attempts(r.id) > 0 {
                        let toll = self.plan.policy.reattest_s;
                        self.charge(run.sink, scope, SpanKind::Reattest, toll);
                    }
                    let mut t_prefill = run.prefill_time_s(prices, r.prompt_tokens);
                    if run.slab.take_spilled(r.id) {
                        self.charge(run.sink, scope, SpanKind::Requant, run.spill.requant_s);
                        t_prefill *= run.spill.prefill_factor;
                    }
                    self.charge(run.sink, scope, SpanKind::Prefill, t_prefill);
                    if traced {
                        run.slab.set_cursor(r.id, self.now);
                    }
                    self.scheduler.start(r, self.now);
                }
                Admission::Resumed {
                    request,
                    swap_in_tokens,
                } => {
                    run.stats.swap_ins += 1;
                    let bytes = swap_in_tokens as f64 * run.per_token_bytes;
                    self.swap_in_bytes += bytes;
                    let scope = Scope::Request(request.id);
                    run.handoff(request.id, SpanKind::Preempted, self.now);
                    let t_swap = self.node.kv_swap_time_s(bytes);
                    self.charge(run.sink, scope, SpanKind::SwapIn, t_swap);
                    if traced {
                        run.slab.set_cursor(request.id, self.now);
                    }
                }
            }
        }
        if self.scheduler.running().is_empty() {
            return;
        }

        let prep = self.scheduler.prepare_step(self.now);
        for victim in &prep.preempted_recompute {
            run.stats.preemptions += 1;
            self.preemptions += 1;
            run.handoff(victim.id, SpanKind::DecodeLost, self.now);
        }
        for victim in &prep.preempted_swap {
            run.stats.preemptions += 1;
            run.stats.swap_outs += 1;
            self.preemptions += 1;
            let bytes = victim.context() as f64 * run.per_token_bytes;
            self.swap_out_bytes += bytes;
            let id = victim.request.id;
            run.handoff(id, SpanKind::Decode, self.now);
            let t_swap = self.node.kv_swap_time_s(bytes);
            self.charge(run.sink, Scope::Request(id), SpanKind::SwapOut, t_swap);
            if traced {
                run.slab.set_cursor(id, self.now);
            }
        }

        let batch = self.scheduler.running().len() as u64;
        let context: u64 = self.scheduler.running().iter().map(|a| a.context()).sum();
        let mean_context = (context as f64 / batch as f64).round() as u64;
        let mut t_step = run.decode_step_time_s(prices, batch, mean_context);
        if prep.resident_pages > 0 {
            let excess = prep.resident_pages as f64 * run.block_bytes - self.kv_budget_bytes;
            if excess > 0.0 {
                t_step += self.node.kv_pressure_stall_s(excess);
            }
        }
        if self.now < self.derate_until_s {
            t_step *= DEGRADED_THROUGHPUT_FACTOR;
        }
        let t0 = self.now;
        self.now += t_step;
        run.stats.decode_steps += 1;
        run.sink
            .span(node_scope(self.idx), SpanKind::Decode, t0, self.now);

        for fin in self.scheduler.step() {
            let (id, arrival_s) = (fin.request.id, fin.request.arrival_s);
            let steps = fin.request.output_tokens.saturating_sub(1).max(1);
            self.useful_tokens += fin.request.output_tokens;
            self.completed += 1;
            run.stats.completions += 1;
            run.end_chain(id, SpanKind::Decode, self.now);
            run.records.push(RequestRecord {
                id,
                ttft_s: fin.first_token_s - arrival_s,
                tpot_s: (self.now - fin.first_token_s) / steps as f64,
                e2e_s: self.now - arrival_s,
                retries: run.slab.attempts(id),
            });
            if self
                .breaker
                .as_mut()
                .is_some_and(CircuitBreaker::record_success)
            {
                let t0 = self.now;
                self.rehandshake(run.sink);
                self.now += self.plan.policy.reattest_s;
                self.downtime_s += self.plan.policy.reattest_s;
                let scope = node_scope(self.idx);
                let label = Some("breaker-close");
                run.sink
                    .span_labeled(scope, SpanKind::Outage, t0, self.now, label);
                self.note_breaker(self.now, run.sink);
            }
        }
    }
}

/// When a draining node goes idle at `now`, the time at which it can
/// actually retire: immediately when no stuck-drain window is active,
/// at the window's end if the window clears before the drain deadline,
/// or force-retired at the deadline when the drain stays wedged past
/// it. Never earlier than `now`, so clocks only move forward.
pub(crate) fn drain_retire_time(now: f64, stuck_until_s: f64, deadline_s: f64) -> f64 {
    if now >= stuck_until_s {
        now
    } else {
        stuck_until_s.min(deadline_s).max(now)
    }
}

/// What the fleet loop does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Next {
    /// Route the next arrival.
    Arrival,
    /// Re-route the earliest retry.
    Retry,
    /// Run one batching iteration on this node.
    Advance(usize),
}

/// The next dispatch and its time: an arrival wins a tie with a retry.
fn next_dispatch(t_arrival: Option<f64>, t_retry: Option<f64>) -> Option<(f64, Next)> {
    match (t_arrival, t_retry) {
        (Some(a), Some(r)) if r < a => Some((r, Next::Retry)),
        (Some(a), _) => Some((a, Next::Arrival)),
        (None, r) => r.map(|r| (r, Next::Retry)),
    }
}

/// The dispatch goes first unless the earliest due node, `(index,
/// time)`, is due strictly before it.
fn dispatch_or_advance(dispatch: Option<(f64, Next)>, due: Option<(usize, f64)>) -> Option<Next> {
    match (dispatch, due) {
        (Some((t, next)), Some((_, at))) if t <= at => Some(next),
        (_, Some((i, _))) => Some(Next::Advance(i)),
        (dispatch, None) => dispatch.map(|(_, next)| next),
    }
}

/// Whether `a` is strictly less than `b`.
fn less(a: f64, b: f64) -> bool {
    // infallible: sim clocks are sums of finite step times; the non-finite invariant would trip first
    a.partial_cmp(&b).expect("finite clocks").is_lt()
}

/// The dispatch-or-advance choice by a scan over every node: the
/// reference [`DueSet::next`] must agree with, which the fleet loop
/// checks after every event in debug builds. A node with work is due at
/// its clock. An idle node is due only for its next fault (rule 1): at
/// its clock once the fault is already due, or at the fault's own time
/// when that comes strictly before the next dispatch. After the last
/// dispatch an idle node's future faults stay unapplied, as nothing
/// could observe them. The next dispatch (an arrival wins a tie with a
/// retry) goes first unless a node is due strictly earlier; the earliest
/// due node advances (the lower index wins a tie). `None` once nothing
/// is left anywhere.
pub(crate) fn next_step<'a>(
    t_arrival: Option<f64>,
    t_retry: Option<f64>,
    nodes: impl Iterator<Item = &'a NodeState>,
) -> Option<Next> {
    let dispatch = next_dispatch(t_arrival, t_retry);
    let t_dispatch = dispatch.map(|(t, _)| t);
    let mut due: Option<(usize, f64)> = None;
    for (i, n) in nodes.enumerate() {
        let at = if !n.idle() {
            n.now
        } else {
            match n.next_fault_s() {
                Some(f) if f <= n.now => n.now,
                Some(f) if t_dispatch.is_some_and(|d| f < d) => f,
                _ => continue,
            }
        };
        if due.is_none_or(|(_, t)| less(at, t)) {
            due = Some((i, at));
        }
    }
    dispatch_or_advance(dispatch, due)
}

/// The nodes the fleet loop may advance, kept so that [`DueSet::next`]
/// makes [`next_step`]'s choice without scanning the fleet. Two min-trees
/// over node indices hold every node that can be due (rule 1):
///
/// * `at_clock` — nodes with work, and idle nodes whose next fault is
///   already due, keyed by the node clock;
/// * `at_fault` — idle nodes whose next fault lies ahead, keyed by the
///   fault's time; the earliest counts only when it comes strictly
///   before the next dispatch.
///
/// An idle node with no fault left is in neither. Only a node's clock,
/// its work and its fault cursor place it, so the loop calls
/// [`DueSet::update`] for each node an event touched, and
/// [`DueSet::sync`] after a step that may have touched many.
pub(crate) struct DueSet {
    at_clock: MinTree,
    at_fault: MinTree,
}

impl DueSet {
    /// The due set of a fleet whose `i`-th node is the iterator's `i`-th.
    pub(crate) fn new<'a>(nodes: impl Iterator<Item = &'a NodeState>) -> Self {
        let mut due = DueSet {
            at_clock: MinTree::default(),
            at_fault: MinTree::default(),
        };
        due.sync(nodes);
        due
    }

    /// Re-place every node, growing the trees for appended nodes.
    pub(crate) fn sync<'a>(&mut self, nodes: impl Iterator<Item = &'a NodeState>) {
        for (i, n) in nodes.enumerate() {
            self.update(i, n);
        }
    }

    /// Re-place node `i` after an event touched it.
    pub(crate) fn update(&mut self, i: usize, n: &NodeState) {
        let (clock, fault) = match n.next_fault_s() {
            _ if !n.idle() => (Some(n.now), None),
            Some(f) if f <= n.now => (Some(n.now), None),
            fault => (None, fault),
        };
        self.at_clock.set(i, clock);
        self.at_fault.set(i, fault);
    }

    /// [`next_step`]'s choice, read from the two roots: the earliest
    /// `(time, index)` among the clock keys and the earliest fault, if
    /// that comes before the next dispatch.
    pub(crate) fn next(&self, t_arrival: Option<f64>, t_retry: Option<f64>) -> Option<Next> {
        let dispatch = next_dispatch(t_arrival, t_retry);
        let mut due = self.at_clock.min();
        if let (Some((i, f)), Some((t, _))) = (self.at_fault.min(), dispatch) {
            let earlier = |(j, at): (usize, f64)| less(f, at) || (f == at && i < j);
            if less(f, t) && due.is_none_or(earlier) {
                due = Some((i, f));
            }
        }
        dispatch_or_advance(dispatch, due)
    }
}

/// A tournament tree over indices `0..`: each slot holds the smallest
/// key below it with its index (the lower index wins a tie), so the
/// minimum is read at the root and a key changes in `O(log N)`.
#[derive(Default)]
struct MinTree {
    /// `(index, key)` slots: `slots[1]` is the root, `slots[2k]` and
    /// `slots[2k + 1]` are the children of `slots[k]`, and index `i`'s
    /// leaf is `slots[cap + i]`, `cap` a power of two (`None`: no key).
    slots: Vec<Option<(usize, f64)>>,
}

impl MinTree {
    fn cap(&self) -> usize {
        self.slots.len() / 2
    }

    /// Set (or clear) index `i`'s key, growing the leaves to the next
    /// power of two past `i` when needed.
    fn set(&mut self, i: usize, key: Option<f64>) {
        if i >= self.cap() {
            self.grow(i + 1);
        }
        let mut k = self.cap() + i;
        let mut slot = key.map(|key| (i, key));
        // Stop at the first slot that keeps its entry: nothing above it
        // changes either.
        while self.slots[k] != slot {
            self.slots[k] = slot;
            if k == 1 {
                break;
            }
            k /= 2;
            slot = min_slot(self.slots[2 * k], self.slots[2 * k + 1]);
        }
    }

    fn grow(&mut self, n: usize) {
        let (old, cap) = (self.cap(), n.next_power_of_two());
        let mut slots = vec![None; 2 * cap];
        slots[cap..cap + old].copy_from_slice(&self.slots[old..]);
        for k in (1..cap).rev() {
            slots[k] = min_slot(slots[2 * k], slots[2 * k + 1]);
        }
        self.slots = slots;
    }

    /// The smallest key's `(index, key)`.
    fn min(&self) -> Option<(usize, f64)> {
        self.slots.get(1).copied().flatten()
    }
}

/// The smaller of a left and a right slot (the left wins a tie: its
/// indices are the lower).
fn min_slot(l: Option<(usize, f64)>, r: Option<(usize, f64)>) -> Option<(usize, f64)> {
    match (l, r) {
        (Some(a), Some(b)) if less(b.1, a.1) => Some(b),
        (Some(a), _) => Some(a),
        (None, r) => r,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{build_nodes, run_fleet, ClusterConfig, FrontDoor, NodeSpec, WaveModel};
    use crate::router::AdmissionPolicy;
    use crate::workload::ArrivalProcess;
    use cllm_tee::platform::{CpuTeeConfig, TeeKind};
    use proptest::prelude::*;

    #[test]
    fn an_idle_node_is_due_only_for_a_fault_before_the_next_dispatch() {
        let cfg = ServingConfig::small_test();
        let plan = FaultPlan {
            events: vec![FaultEvent {
                at_s: 5.0,
                kind: FaultKind::SpotPreemption,
                outage_s: 1.0,
            }],
            policy: RecoveryPolicy::default(),
        };
        let mut n = NodeState::new(0, ServingNode::preset(TeeKind::Tdx), plan, &cfg, None);
        let mut due = DueSet::new(std::iter::once(&n));
        let step = |t_arrival: Option<f64>, due: &DueSet, n: &NodeState| {
            let next = due.next(t_arrival, None);
            assert_eq!(next, next_step(t_arrival, None, std::iter::once(n)));
            next
        };
        assert!(matches!(step(Some(6.0), &due, &n), Some(Next::Advance(0))));
        assert!(
            matches!(step(Some(5.0), &due, &n), Some(Next::Arrival)),
            "a dispatch wins a tie with the fault"
        );
        assert!(
            step(None, &due, &n).is_none(),
            "after the last dispatch a future fault stays unapplied"
        );
        n.now = 5.0;
        due.update(0, &n);
        assert!(
            matches!(step(None, &due, &n), Some(Next::Advance(0))),
            "an already-due fault is an event"
        );
        n.retire(5.0);
        due.update(0, &n);
        assert!(
            matches!(step(Some(6.0), &due, &n), Some(Next::Arrival)),
            "a retired node takes no further faults"
        );
    }

    /// Node `i` of a random fleet, from `(clock, shape, lead)`: the clock
    /// on a half-second grid, so clocks, faults and dispatches tie often,
    /// and the shape 0 with work, 1 idle with no fault, 2 idle with its
    /// fault `lead` half-seconds overdue (0: due right now), 3 idle with
    /// its fault `lead + 1` half-seconds ahead.
    fn fleet_node(i: usize, (clock, shape, lead): (u8, u8, u8), cfg: &ServingConfig) -> NodeState {
        let now = f64::from(clock) * 0.5;
        let lead = f64::from(lead) * 0.5;
        let fault_at = match shape {
            2 => Some(now - lead),
            3 => Some(now + lead + 0.5),
            _ => None,
        };
        let events = fault_at
            .map(|at_s| FaultEvent {
                at_s,
                kind: FaultKind::SpotPreemption,
                outage_s: 1.0,
            })
            .into_iter()
            .collect();
        let plan = FaultPlan {
            events,
            policy: RecoveryPolicy::default(),
        };
        let mut n = NodeState::new(i, ServingNode::preset(TeeKind::Tdx), plan, cfg, None);
        n.now = now;
        if shape == 0 {
            n.inbox.push(Request {
                id: i as u64,
                arrival_s: now,
                prompt_tokens: 8,
                output_tokens: 8,
            });
        }
        n
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random fleets of 1–70 nodes (mostly not a power of two) under
        /// no dispatch, an arrival or a retry alone, a tied pair or any
        /// pair: the due set chooses what the scan chooses when built,
        /// after each node it re-places, and after growing by `sync`.
        #[test]
        fn due_set_chooses_what_the_scan_chooses(
            shapes in collection::vec((0u8..16, 0u8..4, 0u8..6), 1..71),
            dispatch in (0u8..5, 0u8..20, 0u8..20),
            edits in collection::vec((0usize..70, (0u8..16, 0u8..4, 0u8..6)), 0..24),
            built in 0usize..70,
        ) {
            let cfg = ServingConfig::small_test();
            let (kind, a, r) = dispatch;
            let (a, r) = (f64::from(a) * 0.5, f64::from(r) * 0.5);
            let (t_arrival, t_retry) = match kind {
                0 => (None, None),
                1 => (Some(a), None),
                2 => (None, Some(r)),
                3 => (Some(a), Some(a)),
                _ => (Some(a), Some(r)),
            };
            let mut nodes: Vec<NodeState> = shapes
                .iter()
                .enumerate()
                .map(|(i, &shape)| fleet_node(i, shape, &cfg))
                .collect();
            let scan = |nodes: &[NodeState]| next_step(t_arrival, t_retry, nodes.iter());

            let mut due = DueSet::new(nodes.iter());
            prop_assert_eq!(due.next(t_arrival, t_retry), scan(&nodes));
            for (i, shape) in edits {
                let i = i % nodes.len();
                nodes[i] = fleet_node(i, shape, &cfg);
                due.update(i, &nodes[i]);
                prop_assert_eq!(due.next(t_arrival, t_retry), scan(&nodes), "after node {}", i);
            }

            let mut grown = DueSet::new(nodes[..=built % nodes.len()].iter());
            grown.sync(nodes.iter());
            prop_assert_eq!(grown.next(t_arrival, t_retry), scan(&nodes));
        }
    }

    /// The serve_scale experiment's smoke fleet: 48 spot cGPUs and 16
    /// reserved TDX sockets behind the failover router, faults at ten
    /// times their rental rates, 400 chat arrivals/s for 30 s.
    fn serve_scale_smoke() -> ClusterConfig {
        let shape = std::iter::repeat_n((TeeKind::GpuCc, true), 48)
            .chain(std::iter::repeat_n((TeeKind::Tdx, false), 16));
        ClusterConfig {
            serving: ServingConfig {
                arrivals: ArrivalProcess {
                    rate_per_s: 400.0,
                    prompt_range: (32, 128),
                    output_range: (8, 32),
                    seed: 42,
                },
                duration_s: 30.0,
                ..ServingConfig::small_test()
            },
            nodes: shape
                .zip(0u64..)
                .map(|((kind, spot), i)| NodeSpec::preset(kind, spot, 10.0, 0x5CA1E + i))
                .collect(),
            admission: AdmissionPolicy::unbounded(),
            breaker: BreakerConfig::default(),
            wave: WaveModel {
                waves_per_hr: 14.0,
                frac: 0.25,
                seed: 0x5CA1E,
            },
            failover: true,
            spill: SpillPenalty::cross_platform(),
        }
    }

    #[test]
    fn price_tables_hold_the_direct_price_of_every_smoke_fleet_shape() {
        let cfg = serve_scale_smoke();
        let mut nodes = build_nodes(&cfg, cfg.serving.duration_s);
        let trace = cfg.serving.arrival_trace();
        let mut sink = TraceSink::disabled();
        let mut run = Run::new(
            &cfg.serving,
            cfg.spill,
            RetryRule::Cap,
            trace.len(),
            &mut sink,
        );
        let mut door = FrontDoor::fixed(cfg.admission, cfg.failover);
        run_fleet(&mut nodes, trace, &mut door, None, &mut run);

        assert_eq!(run.prices.len(), 2, "one table each for cGPU and TDX");
        for n in &nodes {
            let table = n.prices.expect("every node ran a batch");
            assert_eq!(run.prices[table].node, n.node);
        }
        for table in &run.prices {
            assert!(table.decode.len() > 10 && table.prefill.len() > 10);
            for (&(batch, context), &price) in &table.decode {
                let direct = table.node.decode_step_time_s(&cfg.serving, batch, context);
                assert_eq!(
                    price.to_bits(),
                    direct.to_bits(),
                    "decode {batch} x {context}"
                );
            }
            for (&prompt, &price) in &table.prefill {
                let direct = table.node.prefill_time_s(&cfg.serving, prompt);
                assert_eq!(price.to_bits(), direct.to_bits(), "prefill {prompt}");
            }
        }
    }

    #[test]
    fn a_tdx_node_never_shares_prices_with_a_small_epc_sgx_node() {
        let cfg = ServingConfig::small_test();
        let mut small = CpuTeeConfig::sgx();
        if let Some(sgx) = small.sgx.as_mut() {
            sgx.epc_bytes = cfg.model.weight_bytes(cfg.dtype) + 0.75 * cllm_hw::GIB;
        }
        let nodes = [
            ServingNode::preset(TeeKind::Tdx),
            ServingNode::preset(TeeKind::Sgx),
            ServingNode::Cpu { tee: small },
        ];
        let mut sink = TraceSink::disabled();
        let mut run = Run::new(&cfg, SpillPenalty::none(), RetryRule::Cap, 0, &mut sink);
        let tables: Vec<usize> = nodes.iter().chain(&nodes).map(|n| run.intern(n)).collect();
        assert_eq!(tables, [0, 1, 2, 0, 1, 2]);

        let mut small_epc_pages = false;
        for batch in [1, 8, 64] {
            for context in [128, 4096, 32_768] {
                let price: Vec<f64> = (0..3)
                    .map(|t| run.decode_step_time_s(t, batch, context))
                    .collect();
                for (node, p) in nodes.iter().zip(&price) {
                    let direct = node.decode_step_time_s(&cfg, batch, context);
                    assert_eq!(p.to_bits(), direct.to_bits(), "{batch} x {context}");
                }
                assert_ne!(
                    price[0], price[2],
                    "TDX and small-EPC SGX at {batch} x {context}"
                );
                small_epc_pages |= price[2] > price[1];
            }
        }
        assert!(small_epc_pages, "the small EPC pages at some shape");
        for prompt in [32, 1024] {
            for (t, node) in nodes.iter().enumerate() {
                let direct = node.prefill_time_s(&cfg, prompt);
                assert_eq!(run.prefill_time_s(t, prompt).to_bits(), direct.to_bits());
            }
        }
    }
}
