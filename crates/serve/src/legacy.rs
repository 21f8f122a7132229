//! Pre-kernel reference event loops, kept as oracles.
//!
//! These are the hand-rolled loops `sim` and `cluster` ran before the
//! [`crate::kernel`] refactor, preserved verbatim apart from four
//! deliberate deltas:
//!
//! * the attestation-failure horizon clamp bugfix is applied here too,
//!   so property tests compare kernel-backed runs against the *intended*
//!   legacy semantics rather than the bug;
//! * trace emission is stripped (the untraced twins never recorded
//!   anything, so the float arithmetic is unchanged);
//! * the degenerate-config guard is the drivers' own arrival-trace
//!   helper, which also treats a NaN rate or horizon as empty;
//! * the cluster loop follows the three boundary rules that make a
//!   one-node fleet the single-node loop: an idle node's next fault is
//!   an event (at the node's clock once due, or at its own time when it
//!   comes strictly before the next dispatch), a boundary that applies
//!   faults ends there, and a routed retry waits in a per-node inbox
//!   until that node's next boundary, joining the queue after the
//!   arrivals with its wait clock starting there. The inbox counts as
//!   queued work for routing and the queue cap.
//!
//! Per-request state lives in `HashMap`s/`HashSet`s and pending retries
//! in a flat `Vec` re-scanned with `min_by` per delivery — the exact
//! O(n²) shapes the kernel replaced. Property tests
//! (`prop_faults.rs`/`prop_cluster.rs`) assert the kernel-backed
//! simulators produce **equal reports** across random fault plans,
//! fleets and seeds; these loops exist only for that proof and must not
//! grow features.
//!
//! They are the independent copy of the per-node logic that the
//! crate-internal `node` module owns for every driver. They build their
//! fleet and report through `cluster::build_nodes` and
//! `cluster::drain_report` and use `NodeState` fields as plain data, but
//! never call `node`'s fault path, retry rule, batching iteration,
//! horizon clamp or dispatch choice. A new fault kind therefore changes
//! `node` and this file, and the property tests compare the two.

use crate::cluster::{build_nodes, drain_report, ClusterConfig, ClusterReport};
use crate::faults::{attested_rehandshake_phased, hs_seed, FaultEvent, FaultKind, FaultPlan};
use crate::node::NodeState;
use crate::router::CircuitBreaker;
use crate::scheduler::ContinuousBatcher;
use crate::sim::{build_report, empty_report, RequestRecord, ServingConfig, ServingNode};
use crate::slo::ServingReport;
use crate::workload::Request;
use std::collections::{HashMap, HashSet, VecDeque};

/// A crash victim waiting out its backoff (single-node loop).
#[derive(Debug, Clone, Copy)]
struct RetryEntry {
    request: Request,
    eligible_s: f64,
}

/// The pre-kernel single-node serving loop (clamp fix applied).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn simulate_serving_faulted(
    cfg: &ServingConfig,
    node: &ServingNode,
    plan: &FaultPlan,
) -> ServingReport {
    let trace = cfg.arrival_trace();
    if trace.is_empty() {
        return empty_report();
    }
    let mut pending: VecDeque<Request> = trace.iter().copied().collect();
    let total_arrivals = pending.len();
    let mut scheduler = ContinuousBatcher::new(cfg.limits);
    let mut retry_queue: Vec<RetryEntry> = Vec::new();
    let mut attempts_of: HashMap<u64, u32> = HashMap::new();
    let mut now = 0.0f64;
    let mut records: Vec<RequestRecord> = Vec::with_capacity(total_arrivals);
    let mut useful_tokens = 0u64;
    let mut retries = 0u64;
    let mut aborted = 0usize;
    let mut downtime_s = 0.0f64;
    let mut next_event = 0usize;
    let mut handshake_seq = 0u64;
    let mut derate_until_s = 0.0f64;

    loop {
        // Apply faults that have fired by `now`, oldest first.
        while plan.events.get(next_event).is_some_and(|e| e.at_s <= now) {
            let ev = plan.events[next_event];
            next_event += 1;
            handshake_seq += 1;
            apply_fault(
                &ev,
                plan,
                cfg.duration_s,
                handshake_seq,
                &mut scheduler,
                &mut retry_queue,
                &mut attempts_of,
                &mut now,
                &mut downtime_s,
                &mut derate_until_s,
                &mut retries,
                &mut aborted,
            );
        }

        // Deliver arrivals that have happened by `now`.
        while pending.front().is_some_and(|r| r.arrival_s <= now) {
            let r = pending.pop_front().expect("front checked");
            scheduler.enqueue(r);
        }
        // Deliver retried requests whose backoff has elapsed, re-scanning
        // the whole queue per delivery for the (eligibility, id) minimum.
        loop {
            let due = retry_queue
                .iter()
                .enumerate()
                .filter(|(_, e)| e.eligible_s <= now)
                .min_by(|(_, a), (_, b)| {
                    a.eligible_s
                        .partial_cmp(&b.eligible_s)
                        // infallible: eligibility times are finite backoff sums
                        .expect("finite eligibility")
                        .then(a.request.id.cmp(&b.request.id))
                })
                .map(|(i, _)| i);
            let Some(i) = due else { break };
            let e = retry_queue.swap_remove(i);
            scheduler.enqueue_at(e.request, now);
        }

        // If nothing is runnable, jump to the next thing that can happen.
        if scheduler.idle() {
            let mut target = f64::INFINITY;
            if let Some(next) = pending.front() {
                target = target.min(next.arrival_s);
            }
            for e in &retry_queue {
                target = target.min(e.eligible_s);
            }
            if !target.is_finite() {
                break; // no work left anywhere
            }
            match plan.events.get(next_event) {
                Some(e) if e.at_s < target => now = e.at_s,
                _ => now = target,
            }
            continue;
        }

        // Admission + prefill at the iteration boundary.
        let admitted = scheduler.admit(&cfg.model, cfg.dtype, now);
        for r in admitted {
            if attempts_of.get(&r.id).copied().unwrap_or(0) > 0 {
                now += plan.policy.reattest_s;
            }
            let t_prefill = node.prefill_time_s(cfg, r.prompt_tokens);
            now += t_prefill;
            scheduler.start(r, now);
        }

        if scheduler.running().is_empty() {
            continue;
        }

        // One decode iteration for the whole running batch.
        let batch = scheduler.running().len() as u64;
        #[allow(clippy::cast_precision_loss)]
        let mean_context = (scheduler.running().iter().map(|a| a.context()).sum::<u64>() as f64
            / batch as f64)
            .round() as u64;
        let mut t_step = node.decode_step_time_s(cfg, batch, mean_context);
        if now < derate_until_s {
            t_step *= crate::faults::DEGRADED_THROUGHPUT_FACTOR;
        }
        now += t_step;

        for fin in scheduler.step() {
            let ttft = fin.first_token_s - fin.request.arrival_s;
            let decode_span = now - fin.first_token_s;
            #[allow(clippy::cast_precision_loss)]
            let tpot = decode_span / (fin.request.output_tokens.saturating_sub(1).max(1)) as f64;
            useful_tokens += fin.request.output_tokens;
            records.push(RequestRecord {
                id: fin.request.id,
                ttft_s: ttft,
                tpot_s: tpot,
                e2e_s: now - fin.request.arrival_s,
                retries: attempts_of.get(&fin.request.id).copied().unwrap_or(0),
            });
        }
    }

    build_report(
        total_arrivals,
        useful_tokens,
        now,
        records,
        retries,
        aborted,
        downtime_s,
        scheduler.queue_stats(),
        0,
        0.0,
        0.0,
    )
}

#[allow(clippy::too_many_arguments)]
fn apply_fault(
    ev: &FaultEvent,
    plan: &FaultPlan,
    horizon_s: f64,
    handshake_seq: u64,
    scheduler: &mut ContinuousBatcher,
    retry_queue: &mut Vec<RetryEntry>,
    attempts_of: &mut HashMap<u64, u32>,
    now: &mut f64,
    downtime_s: &mut f64,
    derate_until_s: &mut f64,
    retries: &mut u64,
    aborted: &mut usize,
) {
    if ev.kind.is_gray() {
        // Gray semantics mirrored from the kernel loop: no downtime,
        // no state loss, only the horizon-clamped derate window.
        if ev.kind == FaultKind::DegradedThroughput {
            let window_s = ev.outage_s.min((horizon_s - ev.at_s).max(0.0));
            *derate_until_s = derate_until_s.max(ev.at_s + window_s);
        }
        return;
    }
    if ev.kind == FaultKind::AttestationFailure {
        attested_rehandshake_phased(handshake_seq, &mut |_| {})
            // infallible: simulated attestation over an in-process channel cannot fail; crashes charge recovery time, not handshake errors
            .expect("re-handshake must recover the session");
        // Clamp fix applied: identical to every other outage.
        let outage_s = plan.policy.reattest_s.min((horizon_s - ev.at_s).max(0.0));
        *now += outage_s;
        *downtime_s += outage_s;
        return;
    }
    let outage_s = ev.outage_s.min((horizon_s - ev.at_s).max(0.0));
    if ev.kind.loses_state() {
        for victim in scheduler.drain_running() {
            let id = victim.request.id;
            let a = attempts_of.entry(id).or_insert(0);
            *a += 1;
            if *a > plan.policy.max_retries {
                *aborted += 1;
            } else {
                *retries += 1;
                retry_queue.push(RetryEntry {
                    request: victim.request,
                    eligible_s: ev.at_s + outage_s + plan.policy.backoff_s(*a),
                });
            }
        }
    }
    *now += outage_s;
    *downtime_s += outage_s;
}

/// A crash victim waiting out its backoff (cluster loop).
#[derive(Debug, Clone, Copy)]
struct ClusterRetryEntry {
    request: Request,
    eligible_s: f64,
    origin: usize,
    origin_gpu: bool,
}

/// The pre-kernel cluster loop (clamp fix applied).
///
/// # Panics
///
/// Panics if the fleet is empty.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn simulate_cluster(cfg: &ClusterConfig) -> ClusterReport {
    assert!(!cfg.nodes.is_empty(), "cluster needs at least one node");
    let horizon_s = cfg.serving.duration_s;
    let trace = cfg.serving.arrival_trace();
    if trace.is_empty() {
        return drain_report(build_nodes(cfg, 0.0), 0, 0, 0, 0, 0, Vec::new());
    }
    let mut nodes = build_nodes(cfg, horizon_s);
    // Routed retries waiting for their node's next boundary.
    let mut inbox: Vec<Vec<Request>> = vec![Vec::new(); nodes.len()];

    let mut pending: VecDeque<Request> = trace.iter().copied().collect();
    let total_arrivals = pending.len();
    let mut retry_queue: Vec<ClusterRetryEntry> = Vec::new();
    let mut attempts_of: HashMap<u64, u32> = HashMap::new();
    let mut spilled: HashSet<u64> = HashSet::new();
    let mut records: Vec<RequestRecord> = Vec::with_capacity(total_arrivals);
    let mut rejected = 0usize;
    let mut aborted = 0usize;
    let mut retries = 0u64;
    let mut spills = 0u64;

    loop {
        let t_arrival = pending.front().map(|r| r.arrival_s);
        let next_retry = retry_queue
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.eligible_s
                    .partial_cmp(&b.eligible_s)
                    // infallible: eligibility times are finite backoff sums
                    .expect("finite eligibility")
                    .then(a.request.id.cmp(&b.request.id))
            })
            .map(|(i, e)| (i, e.eligible_s));
        let t_dispatch = match (t_arrival, next_retry) {
            (Some(a), Some((_, r))) => Some(a.min(r)),
            (Some(a), None) => Some(a),
            (None, Some((_, r))) => Some(r),
            (None, None) => None,
        };

        // A node with work is due at its clock; an idle one only for its
        // next fault, at its clock once due or at the fault's time when
        // that is strictly before the next dispatch.
        let runnable = nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| {
                if !n.scheduler.idle() || !inbox[i].is_empty() {
                    return Some((i, n.now));
                }
                let fault_s = n.plan.events.get(n.next_event)?.at_s;
                if fault_s <= n.now {
                    Some((i, n.now))
                } else if t_dispatch.is_some_and(|t| fault_s < t) {
                    Some((i, fault_s))
                } else {
                    None
                }
            })
            .min_by(|(i, a), (j, b)| {
                a.partial_cmp(b)
                    // infallible: sim clocks are sums of finite step times
                    .expect("finite clocks")
                    .then(i.cmp(j))
            });

        let do_dispatch = match (t_dispatch, runnable) {
            (None, None) => break,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(t), Some((_, node_now))) => t <= node_now,
        };

        if do_dispatch {
            let arrival_first = match (t_arrival, next_retry) {
                (Some(a), Some((_, r))) => a <= r,
                (Some(_), None) => true,
                _ => false,
            };
            if arrival_first {
                let r = pending.pop_front().expect("arrival checked");
                let t = r.arrival_s;
                let candidates = open_candidates(&mut nodes, &inbox, cfg.admission.queue_cap, t);
                match crate::router::route_least_loaded(&candidates) {
                    Some(i) => {
                        wake(&mut nodes[i], &inbox[i], t);
                        nodes[i].scheduler.enqueue_at(r, t);
                    }
                    None => rejected += 1,
                }
            } else {
                let (idx, t) = next_retry.expect("retry checked");
                let e = retry_queue.swap_remove(idx);
                let target = if cfg.failover {
                    let candidates =
                        open_candidates(&mut nodes, &inbox, cfg.admission.queue_cap, t);
                    crate::router::route_least_loaded(&candidates).unwrap_or_else(|| {
                        let all: Vec<(usize, usize)> = nodes
                            .iter()
                            .enumerate()
                            .map(|(i, n)| (i, depth(n, &inbox[i])))
                            .collect();
                        // infallible: the fleet is non-empty by construction, so least-loaded always resolves
                        crate::router::route_least_loaded(&all).expect("fleet is non-empty")
                    })
                } else {
                    e.origin
                };
                if is_gpu(&nodes[target]) != e.origin_gpu {
                    spills += 1;
                    spilled.insert(e.request.id);
                }
                wake(&mut nodes[target], &inbox[target], t);
                inbox[target].push(e.request);
            }
            continue;
        }

        // infallible: the advance branch is only taken when `runnable` is Some
        let (i, due_s) = runnable.expect("advance branch requires a runnable node");
        let n = &mut nodes[i];
        // An idle node is here for its next fault: it idles up to it.
        n.now = n.now.max(due_s);

        let first_event = n.next_event;
        while n
            .plan
            .events
            .get(n.next_event)
            .is_some_and(|e| e.at_s <= n.now)
        {
            let ev = n.plan.events[n.next_event];
            n.next_event += 1;
            if ev.kind.is_gray() {
                // Gray semantics mirrored from the kernel loop: no
                // breaker error, no downtime; only the window state.
                let window_s = ev.outage_s.min((horizon_s - ev.at_s).max(0.0));
                match ev.kind {
                    FaultKind::DegradedThroughput => {
                        n.derate_until_s = n.derate_until_s.max(ev.at_s + window_s);
                    }
                    FaultKind::StuckDrain => {
                        n.stuck_until_s = n.stuck_until_s.max(ev.at_s + window_s);
                    }
                    _ => unreachable!("is_gray covers exactly the two gray kinds"),
                }
                continue;
            }
            let now = n.now;
            breaker(n).record_error(now);
            if ev.kind == FaultKind::AttestationFailure {
                n.handshake_seq += 1;
                attested_rehandshake_phased(hs_seed(i, n.handshake_seq), &mut |_| {})
                    // infallible: simulated attestation over an in-process channel cannot fail
                    .expect("re-handshake must recover the session");
                // Clamp fix applied: identical to every other outage.
                let outage_s = n.plan.policy.reattest_s.min((horizon_s - ev.at_s).max(0.0));
                n.now += outage_s;
                n.downtime_s += outage_s;
                continue;
            }
            let outage_s = ev.outage_s.min((horizon_s - ev.at_s).max(0.0));
            if ev.kind.loses_state() {
                let origin_gpu = is_gpu(n);
                for victim in n.scheduler.drain_running() {
                    let id = victim.request.id;
                    let a = attempts_of.entry(id).or_insert(0);
                    *a += 1;
                    if *a > n.plan.policy.max_retries {
                        aborted += 1;
                    } else {
                        retries += 1;
                        retry_queue.push(ClusterRetryEntry {
                            request: victim.request,
                            eligible_s: ev.at_s + outage_s + n.plan.policy.backoff_s(*a),
                            origin: i,
                            origin_gpu,
                        });
                    }
                }
            }
            n.now += outage_s;
            n.downtime_s += outage_s;
        }
        // A boundary that applied faults ends there: what arrived during
        // the outage joins the queue before the next batch.
        if n.next_event > first_event {
            continue;
        }
        // The inbox joins the queue after the arrivals; each retry's wait
        // starts now.
        for r in inbox[i].drain(..) {
            n.scheduler.enqueue_at(r, n.now);
        }

        if cfg.admission.deadline_s.is_finite() {
            let now = n.now;
            let deadline_s = cfg.admission.deadline_s;
            let shed = n.scheduler.shed(|r| now - r.arrival_s > deadline_s);
            rejected += shed.len();
        }

        let admitted = n
            .scheduler
            .admit(&cfg.serving.model, cfg.serving.dtype, n.now);
        for r in admitted {
            if attempts_of.get(&r.id).copied().unwrap_or(0) > 0 {
                n.now += n.plan.policy.reattest_s;
            }
            let mut t_prefill = n.node.prefill_time_s(&cfg.serving, r.prompt_tokens);
            if spilled.remove(&r.id) {
                n.now += cfg.spill.requant_s;
                t_prefill *= cfg.spill.prefill_factor;
            }
            n.now += t_prefill;
            n.scheduler.start(r, n.now);
        }

        if n.scheduler.running().is_empty() {
            continue;
        }

        let batch = n.scheduler.running().len() as u64;
        #[allow(clippy::cast_precision_loss)]
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let mean_context = (n
            .scheduler
            .running()
            .iter()
            .map(|a| a.context())
            .sum::<u64>() as f64
            / batch as f64)
            .round() as u64;
        let mut t_step = n.node.decode_step_time_s(&cfg.serving, batch, mean_context);
        if n.now < n.derate_until_s {
            t_step *= crate::faults::DEGRADED_THROUGHPUT_FACTOR;
        }
        n.now += t_step;

        for fin in n.scheduler.step() {
            let ttft = fin.first_token_s - fin.request.arrival_s;
            let decode_span = n.now - fin.first_token_s;
            #[allow(clippy::cast_precision_loss)]
            let tpot = decode_span / (fin.request.output_tokens.saturating_sub(1).max(1)) as f64;
            n.useful_tokens += fin.request.output_tokens;
            n.completed += 1;
            records.push(RequestRecord {
                id: fin.request.id,
                ttft_s: ttft,
                tpot_s: tpot,
                e2e_s: n.now - fin.request.arrival_s,
                retries: attempts_of.get(&fin.request.id).copied().unwrap_or(0),
            });
            if breaker(n).record_success() {
                n.handshake_seq += 1;
                attested_rehandshake_phased(hs_seed(i, n.handshake_seq), &mut |_| {})
                    // infallible: simulated attestation over an in-process channel cannot fail
                    .expect("re-handshake must recover the session");
                n.now += n.plan.policy.reattest_s;
                n.downtime_s += n.plan.policy.reattest_s;
            }
        }
    }

    drain_report(
        nodes,
        total_arrivals,
        rejected,
        aborted,
        retries,
        spills,
        records,
    )
}

/// The breaker every cluster node carries.
fn breaker(n: &mut NodeState) -> &mut CircuitBreaker {
    // infallible: build_nodes gives every cluster node a breaker
    n.breaker.as_mut().expect("cluster nodes carry a breaker")
}

/// Queued (inbox included) plus running requests.
fn depth(n: &NodeState, inbox: &[Request]) -> usize {
    n.scheduler.queued() + inbox.len() + n.scheduler.running().len()
}

/// The nodes under the queue cap (inbox included) whose breaker accepts
/// new work at `t`, with their depths.
fn open_candidates(
    nodes: &mut [NodeState],
    inbox: &[Vec<Request>],
    queue_cap: usize,
    t: f64,
) -> Vec<(usize, usize)> {
    let mut candidates = Vec::with_capacity(nodes.len());
    for (i, n) in nodes.iter_mut().enumerate() {
        if n.scheduler.queued() + inbox[i].len() < queue_cap && breaker(n).accepts(t) {
            candidates.push((i, depth(n, &inbox[i])));
        }
    }
    candidates
}

fn is_gpu(n: &NodeState) -> bool {
    matches!(n.node, ServingNode::Gpu { .. })
}

/// Wake an idle node (no queue, batch or inbox) forward to the dispatch
/// time `t`.
fn wake(n: &mut NodeState, inbox: &[Request], t: f64) {
    if n.scheduler.idle() && inbox.is_empty() && t > n.now {
        n.now = t;
    }
}
