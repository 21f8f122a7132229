//! One serving node's live state and the per-node machinery every
//! serving driver shares.
//!
//! The single-node simulator (`sim`), the fixed fleet (`cluster`) and
//! the autoscaler (`autoscale`) keep their own arrival, routing and
//! control loops, because those rules really differ. What happens *on*
//! a node is the same in all three, and lives only here:
//!
//! * the fault path ([`NodeState::apply_due_faults`]): horizon-clamped
//!   outages, gray windows, the attested re-handshake after a rejected
//!   quote, and crash victims handed to the retry rule;
//! * victim requeue-or-abort ([`NodeState::requeue_or_abort`]) under one
//!   [`RetryRule`];
//! * one batching iteration ([`NodeState::run_batch`]);
//! * the horizon clamp ([`clamp_to_horizon`]);
//! * the fleet drivers' dispatch-or-advance choice ([`next_step`]).
//!
//! `legacy` keeps its own copies of the fault and batching logic as the
//! independent oracle the property tests compare these against, so a
//! new fault kind touches [`NodeState::apply_due_faults`] plus the oracle.

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
        }
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
    pub(crate) scheduler: ContinuousBatcher,
    /// The router's circuit breaker; `None` on the single-node
    /// simulator, which has no router to read it.
    pub(crate) breaker: Option<CircuitBreaker>,
    /// Breaker state the trace last saw.
    breaker_seen: BreakerState,
    pub(crate) plan: FaultPlan,
    /// Index of the next unapplied event in `plan.events`.
    pub(crate) next_event: usize,
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
    /// End of the latest gray [`FaultKind::StuckDrain`] window. Only the
    /// autoscaler has drains to wedge; elsewhere it is recorded and
    /// never read.
    pub(crate) stuck_until_s: f64,
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
            scheduler: ContinuousBatcher::configured(serving.limits, serving.kv),
            breaker: breaker.map(CircuitBreaker::new),
            breaker_seen: BreakerState::Closed,
            plan,
            next_event: 0,
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
        }
    }

    pub(crate) fn depth(&self) -> usize {
        self.scheduler.queued() + self.scheduler.running().len()
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

    /// Route `request` here at `t`, waking an idle node's clock forward
    /// to the dispatch time (clocks never run backward).
    pub(crate) fn place(&mut self, request: Request, t: f64, sink: &mut TraceSink) {
        if self.scheduler.idle() && t > self.now {
            sink.span(node_scope(self.idx), SpanKind::Idle, self.now, t);
            self.now = t;
        }
        self.scheduler.enqueue_at(request, t);
    }

    /// Apply every fault due by the node clock, oldest first (each
    /// outage advances the clock, which can make the next one due).
    pub(crate) fn apply_due_faults(&mut self, run: &mut Run) {
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
                    let mut t_prefill = self.node.prefill_time_s(serving, r.prompt_tokens);
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
        let mut t_step = self.node.decode_step_time_s(serving, batch, mean_context);
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

/// What a fleet driver does next.
pub(crate) enum Next {
    /// Route the next arrival.
    Arrival,
    /// Re-route the earliest retry.
    Retry,
    /// Run one batching iteration on this node.
    Advance(usize),
}

/// The fleet drivers' dispatch-or-advance choice: the earlier of the
/// next dispatch (an arrival wins a tie with a retry) and the runnable
/// node with the smallest clock (the lower index wins a tie). A dispatch
/// wins a tie with a node clock. `None` once nothing is left anywhere.
pub(crate) fn next_step<'a>(
    t_arrival: Option<f64>,
    t_retry: Option<f64>,
    nodes: impl Iterator<Item = &'a NodeState>,
) -> Option<Next> {
    let dispatch = match (t_arrival, t_retry) {
        (Some(a), Some(r)) if r < a => Some((r, Next::Retry)),
        (Some(a), _) => Some((a, Next::Arrival)),
        (None, r) => r.map(|r| (r, Next::Retry)),
    };
    let runnable = nodes
        .enumerate()
        .filter(|(_, n)| !n.scheduler.idle())
        .min_by(|(i, a), (j, b)| {
            a.now
                .partial_cmp(&b.now)
                // infallible: sim clocks are sums of finite step times; the non-finite invariant would trip first
                .expect("finite clocks")
                .then(i.cmp(j))
        })
        .map(|(i, n)| (i, n.now));
    match (dispatch, runnable) {
        (Some((t, next)), Some((_, now))) if t <= now => Some(next),
        (_, Some((i, _))) => Some(Next::Advance(i)),
        (dispatch, None) => dispatch.map(|(_, next)| next),
    }
}
