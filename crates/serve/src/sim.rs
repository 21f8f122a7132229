//! The serving event loop.
//!
//! Time advances iteration by iteration: at each boundary the scheduler
//! admits waiting requests (charging their prefill), then the whole batch
//! performs one decode step priced by the calibrated `cllm-perf` roofline
//! under the chosen TEE. Per-request records capture time to first token
//! (TTFT) and time per output token (TPOT).
//!
//! # Faults and recovery
//!
//! [`simulate_serving_faulted`] additionally consumes a
//! [`FaultPlan`]: stall-class events freeze the
//! node for their outage window, crash-class events destroy the running
//! batch's KV caches (victims re-queue under bounded retry with
//! exponential backoff, paying a fresh attested handshake on
//! re-admission, and are aborted once the retry budget is spent), and
//! attestation failures drive a real fail-then-recover handshake through
//! `cllm_tee::session`. An **empty plan takes no fault branch**:
//! [`simulate_serving`] delegates to the faulted simulator with
//! [`FaultPlan::none`] and is
//! byte-identical to the historic fault-free loop.

use crate::faults::FaultPlan;
use crate::kernel::KernelStats;
use crate::node::{node_scope, NodeState, RetryRule, Run};
use crate::scheduler::{KvConfig, QueueStats, SchedulerLimits};
use crate::slo::{sorted_percentile, ServingReport};
use crate::workload::{ArrivalProcess, Request};
use cllm_cost::SpillPenalty;
use cllm_hw::{DType, GpuModel};
use cllm_obs::{SpanKind, Trace, TraceSink};
use cllm_perf::CpuTarget;
use cllm_tee::platform::{CpuTeeConfig, GpuTeeConfig};
use cllm_workload::{zoo, ModelConfig};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One completed request's timing record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// Request id.
    pub id: u64,
    /// Time to first token (queueing + prefill), seconds. For retried
    /// requests this spans every failed attempt: the clock starts at the
    /// original arrival.
    pub ttft_s: f64,
    /// Mean time per output token after the first, seconds.
    pub tpot_s: f64,
    /// End-to-end completion time, seconds.
    pub e2e_s: f64,
    /// Times this request was re-queued after losing its node.
    pub retries: u32,
}

/// Serving-simulation configuration.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Workload model whose costs are simulated.
    pub model: ModelConfig,
    /// Data type.
    pub dtype: DType,
    /// Execution target (used by CPU nodes; GPU nodes carry their own
    /// hardware model).
    pub target: CpuTarget,
    /// Scheduler limits.
    pub limits: SchedulerLimits,
    /// KV-memory policy (conservative reservation, paged-recompute or
    /// paged-swap) and page size.
    pub kv: KvConfig,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// Trace horizon, seconds of arrivals.
    pub duration_s: f64,
}

impl ServingConfig {
    /// A small, fast configuration for tests: Llama2-7B shapes at a light
    /// load on one EMR2 socket.
    #[must_use]
    pub fn small_test() -> Self {
        ServingConfig {
            model: zoo::llama2_7b(),
            dtype: DType::Bf16,
            target: CpuTarget::emr2_single_socket(),
            limits: SchedulerLimits {
                max_batch: 16,
                kv_budget_bytes: 64.0 * cllm_hw::GIB,
            },
            kv: KvConfig::default(),
            arrivals: ArrivalProcess {
                rate_per_s: 1.0,
                prompt_range: (32, 256),
                output_range: (8, 64),
                seed: 11,
            },
            duration_s: 30.0,
        }
    }

    /// A production-like configuration (heavier load, chat shapes).
    #[must_use]
    pub fn chat_production(rate_per_s: f64) -> Self {
        ServingConfig {
            arrivals: ArrivalProcess::chat(rate_per_s, 42),
            duration_s: 120.0,
            ..Self::small_test()
        }
    }

    /// The arrival trace over the horizon, or none when the rate or the
    /// horizon is not positive (NaN included): the degenerate configs
    /// the drivers answer with an empty report.
    pub(crate) fn arrival_trace(&self) -> Vec<Request> {
        if self.arrivals.rate_per_s > 0.0 && self.duration_s > 0.0 {
            self.arrivals.trace(self.duration_s)
        } else {
            Vec::new()
        }
    }
}

/// The hardware a serving simulation runs on: per-step prefill and
/// decode prices come from the matching `cllm-perf` roofline, so every
/// TEE mechanism shapes the tail on CPUs and cGPUs alike.
#[derive(Debug, Clone)]
pub enum ServingNode {
    /// A CPU deployment; steps are priced on the config's
    /// [`ServingConfig::target`].
    Cpu {
        /// CPU TEE platform (bare metal, VM, TDX, SEV-SNP, SGX).
        tee: CpuTeeConfig,
    },
    /// A GPU deployment; the config's CPU target is ignored.
    Gpu {
        /// GPU hardware model.
        gpu: GpuModel,
        /// GPU TEE mode (native or confidential).
        tee: GpuTeeConfig,
    },
}

impl ServingNode {
    /// Prefill time for one request of `prompt_tokens` on this node.
    #[must_use]
    pub fn prefill_time_s(&self, cfg: &ServingConfig, prompt_tokens: u64) -> f64 {
        match self {
            ServingNode::Cpu { tee } => {
                cllm_perf::prefill_time_s(&cfg.model, cfg.dtype, &cfg.target, tee, 1, prompt_tokens)
            }
            ServingNode::Gpu { gpu, tee } => {
                cllm_perf::gpu_prefill_time_s(&cfg.model, cfg.dtype, gpu, tee, 1, prompt_tokens)
            }
        }
    }

    /// One decode iteration for `batch` sequences at `context` tokens.
    #[must_use]
    pub fn decode_step_time_s(&self, cfg: &ServingConfig, batch: u64, context: u64) -> f64 {
        match self {
            ServingNode::Cpu { tee } => cllm_perf::decode_step_time_s(
                &cfg.model,
                cfg.dtype,
                &cfg.target,
                tee,
                batch,
                context,
            ),
            ServingNode::Gpu { gpu, tee } => {
                cllm_perf::gpu_decode_step_time_s(&cfg.model, cfg.dtype, gpu, tee, batch, context)
            }
        }
    }

    /// Bytes of KV that can stay resident in protected memory without
    /// per-step paging stalls. SGX nodes get the EPC minus the streamed
    /// weights; other CPU TEEs encrypt all of DRAM (no residency cliff),
    /// so their budget is unbounded. GPU nodes get the HBM left after
    /// the weights.
    #[must_use]
    pub fn kv_residency_budget_bytes(&self, cfg: &ServingConfig) -> f64 {
        match self {
            ServingNode::Cpu { tee } => tee.sgx.map_or(f64::INFINITY, |sgx| {
                (sgx.epc_bytes - cfg.model.weight_bytes(cfg.dtype)).max(0.0)
            }),
            ServingNode::Gpu { gpu, .. } => {
                cllm_perf::gpu_kv_budget_bytes(&cfg.model, cfg.dtype, gpu)
            }
        }
    }

    /// Time to swap `bytes` of KV in or out of protected memory on this
    /// node (EPC paging on SGX, MEE-derated copy on other CPUs, the
    /// bounce-buffered host link on GPUs).
    #[must_use]
    pub fn kv_swap_time_s(&self, bytes: f64) -> f64 {
        match self {
            ServingNode::Cpu { tee } => cllm_perf::kv_swap_time_s(tee, bytes),
            ServingNode::Gpu { gpu, tee } => cllm_perf::gpu_kv_swap_time_s(gpu, tee, bytes),
        }
    }

    /// Time for a cold-started node to unseal and load the model weights
    /// into protected memory before it can serve a single token: the
    /// full weight footprint moved through the platform's protected-copy
    /// path (EPC paging on SGX — the mechanism that makes SGX cold
    /// starts brutal — an MEE-derated DRAM copy on other CPU TEEs, the
    /// encrypted PCIe bounce buffer on cGPUs). Paid once per scale-up
    /// after the attested handshake, before the node joins routing.
    #[must_use]
    pub fn weight_unseal_time_s(&self, cfg: &ServingConfig) -> f64 {
        self.kv_swap_time_s(cfg.model.weight_bytes(cfg.dtype))
    }

    /// Per-decode-step stall when `excess_bytes` of resident KV overflow
    /// [`ServingNode::kv_residency_budget_bytes`].
    #[must_use]
    pub fn kv_pressure_stall_s(&self, excess_bytes: f64) -> f64 {
        match self {
            ServingNode::Cpu { tee } => cllm_perf::kv_pressure_stall_s(tee, excess_bytes),
            ServingNode::Gpu { gpu, tee } => {
                cllm_perf::gpu_kv_pressure_stall_s(gpu, tee, excess_bytes)
            }
        }
    }
}

/// Run the discrete-event serving simulation under `tee` with no faults.
///
/// Degenerate configurations (a non-positive or NaN arrival rate or
/// horizon, or a trace that happens to contain no arrivals) return an
/// empty, NaN-free [`ServingReport`] instead of panicking.
///
/// # Panics
///
/// Panics if the arrival rate or the horizon is infinite.
#[must_use]
pub fn simulate_serving(cfg: &ServingConfig, tee: &CpuTeeConfig) -> ServingReport {
    simulate_serving_faulted(
        cfg,
        &ServingNode::Cpu { tee: tee.clone() },
        &FaultPlan::none(),
    )
}

/// Run the discrete-event serving simulation on `node` under `plan`.
///
/// The loop applies every scheduled [`FaultEvent`](crate::faults::FaultEvent)
/// at the first iteration boundary at or after its timestamp (outages
/// serialize with compute, which is how a single-node deployment
/// experiences them):
///
/// * **stall-class** — the clock and downtime advance by the outage;
/// * **crash-class** — the running batch is drained; each victim either
///   re-queues (attempt count below
///   [`RecoveryPolicy::max_retries`](crate::faults::RecoveryPolicy),
///   eligible after the outage plus exponential backoff) or is aborted;
/// * **attestation failure** — a fail-then-recover handshake runs through
///   the real `cllm_tee::session` machinery and the node pays
///   [`RecoveryPolicy::reattest_s`](crate::faults::RecoveryPolicy).
///
/// Re-admitted victims pay a fresh attested handshake before their
/// (repeated) prefill. The report satisfies the conservation invariant
/// `completed + aborted == arrivals`.
#[must_use]
pub fn simulate_serving_faulted(
    cfg: &ServingConfig,
    node: &ServingNode,
    plan: &FaultPlan,
) -> ServingReport {
    simulate_serving_faulted_stats(cfg, node, plan).0
}

/// [`simulate_serving_faulted`] plus the kernel's event counters: the
/// report is byte-identical, and the [`KernelStats`] sum is the exact
/// number of discrete events the kernel processed (the numerator of the
/// events/sec throughput `serve_scale` benchmarks).
#[must_use]
pub fn simulate_serving_faulted_stats(
    cfg: &ServingConfig,
    node: &ServingNode,
    plan: &FaultPlan,
) -> (ServingReport, KernelStats) {
    run_faulted(cfg, node, plan, &mut TraceSink::disabled())
}

/// Traced twin of [`simulate_serving_faulted`]: byte-identical report
/// (span emission only *reads* the simulated clock; it never changes the
/// float arithmetic or branch structure), plus the recorded single-lane
/// [`Trace`].
///
/// The trace tiles the node's timeline — every clock advance emits
/// exactly one node-scoped span, so `busy + idle + outage == makespan`
/// holds by construction — and chains each request's spans gaplessly
/// from arrival to final token (or abort), so the per-request span sum
/// equals its end-to-end latency.
#[must_use]
pub fn simulate_serving_traced(
    cfg: &ServingConfig,
    node: &ServingNode,
    plan: &FaultPlan,
) -> (ServingReport, Trace) {
    let mut sink = TraceSink::new();
    let (report, _) = run_faulted(cfg, node, plan, &mut sink);
    (report, sink.finish())
}

fn run_faulted(
    cfg: &ServingConfig,
    node: &ServingNode,
    plan: &FaultPlan,
    sink: &mut TraceSink,
) -> (ServingReport, KernelStats) {
    let trace = cfg.arrival_trace();
    if trace.is_empty() {
        return (empty_report(), KernelStats::default());
    }
    let total_arrivals = trace.len();
    let mut pending: VecDeque<Request> = trace.into();
    // No router reads a breaker here, and nothing can spill.
    let mut n = NodeState::new(0, node.clone(), plan.clone(), cfg, None);
    let mut run = Run::new(
        cfg,
        SpillPenalty::none(),
        RetryRule::Cap,
        total_arrivals,
        sink,
    );

    loop {
        n.apply_due_faults(&mut run);

        // Deliver arrivals that have happened by the node clock.
        while pending.front().is_some_and(|r| r.arrival_s <= n.now) {
            let r = pending.pop_front().expect("front checked");
            run.stats.arrivals += 1;
            if run.sink.is_enabled() {
                run.slab.set_cursor(r.id, r.arrival_s);
            }
            n.scheduler.enqueue(r);
        }
        // Deliver retried requests whose backoff has elapsed, in
        // (eligibility, id) order. A retry's queue-wait clock starts at
        // re-delivery; the spent time is already in its TTFT.
        while let Some(retry) = run.retry_queue.pop_due(n.now) {
            run.stats.retries_delivered += 1;
            run.handoff(retry.request.id, SpanKind::Backoff, n.now);
            n.scheduler.enqueue_at(retry.request, n.now);
        }

        // If nothing is runnable, jump to the next thing that can happen:
        // an arrival, a retry becoming eligible, or a fault firing first.
        // An idle single node takes its next fault while idle; a fleet
        // node only meets it once work wakes it.
        if n.scheduler.idle() {
            let next_work = pending.front().map(|r| r.arrival_s);
            let Some(target) = next_work
                .into_iter()
                .chain(run.retry_queue.peek_time())
                .reduce(f64::min)
            else {
                break; // no work left anywhere
            };
            let idle_from = n.now;
            n.now = match n.next_fault_s() {
                Some(t) if t < target => t,
                _ => target,
            };
            run.sink
                .span(node_scope(0), SpanKind::Idle, idle_from, n.now);
            continue;
        }
        n.run_batch(&mut run);
    }

    let report = build_report(
        total_arrivals,
        n.useful_tokens,
        n.now,
        run.records,
        run.retries,
        run.aborted.len(),
        n.downtime_s,
        n.scheduler.queue_stats(),
        n.preemptions,
        n.swap_out_bytes,
        n.swap_in_bytes,
    );
    (report, run.stats)
}

/// The report of a run with no arrivals.
pub(crate) fn empty_report() -> ServingReport {
    build_report(
        0,
        0,
        0.0,
        Vec::new(),
        0,
        0,
        0.0,
        &QueueStats::default(),
        0,
        0.0,
        0.0,
    )
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn build_report(
    arrivals: usize,
    useful_tokens: u64,
    makespan_s: f64,
    mut records: Vec<RequestRecord>,
    retries: u64,
    aborted: usize,
    downtime_s: f64,
    queue: &QueueStats,
    preemptions: u64,
    swap_out_bytes: f64,
    swap_in_bytes: f64,
) -> ServingReport {
    records.sort_by_key(|a| a.id);
    // The queue-wait mean uses the batcher's running sum, accumulated in
    // admission order — bit-identical to summing an unsorted full vector,
    // and immune to the sample cap bounding the percentile buffer below.
    #[allow(clippy::cast_precision_loss)]
    let queue_wait_mean_s = if queue.wait_count() == 0 {
        0.0
    } else {
        queue.wait_sum_s() / queue.wait_count() as f64
    };
    // Sort each latency vector exactly once; every percentile then reads
    // the sorted slice (the old helper cloned and re-sorted per call —
    // five sorts over three vectors per report).
    // infallible: latencies are differences of finite sim clocks
    let sort = |v: &mut Vec<f64>| v.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let mut waits = queue.wait_samples().to_vec();
    sort(&mut waits);
    let mut ttft: Vec<f64> = records.iter().map(|r| r.ttft_s).collect();
    sort(&mut ttft);
    let mut tpot: Vec<f64> = records.iter().map(|r| r.tpot_s).collect();
    sort(&mut tpot);
    let availability = if makespan_s > 0.0 {
        (1.0 - downtime_s / makespan_s).clamp(0.0, 1.0)
    } else {
        1.0
    };
    #[allow(clippy::cast_precision_loss)]
    let report = ServingReport {
        arrivals,
        completed: records.len(),
        retries,
        aborted,
        availability,
        makespan_s,
        goodput_tps: if records.is_empty() {
            0.0
        } else {
            useful_tokens as f64 / makespan_s.max(1e-9)
        },
        queue_depth_peak: queue.depth_peak,
        queue_wait_mean_s,
        queue_wait_p99_s: if waits.is_empty() {
            0.0
        } else {
            sorted_percentile(&waits, 0.99)
        },
        ttft_p50_s: if ttft.is_empty() {
            0.0
        } else {
            sorted_percentile(&ttft, 0.50)
        },
        ttft_p95_s: if ttft.is_empty() {
            0.0
        } else {
            sorted_percentile(&ttft, 0.95)
        },
        tpot_p50_s: if tpot.is_empty() {
            0.0
        } else {
            sorted_percentile(&tpot, 0.50)
        },
        tpot_p95_s: if tpot.is_empty() {
            0.0
        } else {
            sorted_percentile(&tpot, 0.95)
        },
        preemptions,
        swap_out_bytes,
        swap_in_bytes,
        records,
    };
    #[cfg(debug_assertions)]
    {
        let v = crate::invariants::check_serving(&report);
        debug_assert!(
            v.is_empty(),
            "serving invariants violated: {}",
            crate::invariants::describe(&v)
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, FaultRates, RecoveryPolicy};
    use cllm_cost::SpotParams;
    use cllm_tee::platform::TeeKind;

    #[test]
    fn completes_all_requests() {
        let cfg = ServingConfig::small_test();
        let report = simulate_serving(&cfg, &CpuTeeConfig::bare_metal());
        assert_eq!(report.completed, report.arrivals);
        assert!(report.goodput_tps > 0.0);
        assert_eq!(report.retries, 0);
        assert_eq!(report.aborted, 0);
        assert!((report.availability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic() {
        let cfg = ServingConfig::small_test();
        let a = simulate_serving(&cfg, &CpuTeeConfig::tdx());
        let b = simulate_serving(&cfg, &CpuTeeConfig::tdx());
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn tee_raises_tail_latencies() {
        let cfg = ServingConfig::small_test();
        let bare = simulate_serving(&cfg, &CpuTeeConfig::bare_metal());
        let tdx = simulate_serving(&cfg, &CpuTeeConfig::tdx());
        assert!(tdx.tpot_p50_s > bare.tpot_p50_s);
        assert!(tdx.ttft_p95_s >= bare.ttft_p95_s * 0.99);
        // The online overhead stays in the same regime as offline.
        let overhead = tdx.tpot_p50_s / bare.tpot_p50_s - 1.0;
        assert!(overhead < 0.30, "online TDX overhead {overhead}");
    }

    #[test]
    fn overload_grows_queueing_delay() {
        let light = simulate_serving(
            &ServingConfig {
                arrivals: ArrivalProcess {
                    rate_per_s: 0.3,
                    ..ServingConfig::small_test().arrivals
                },
                ..ServingConfig::small_test()
            },
            &CpuTeeConfig::tdx(),
        );
        let heavy = simulate_serving(
            &ServingConfig {
                arrivals: ArrivalProcess {
                    rate_per_s: 12.0,
                    ..ServingConfig::small_test().arrivals
                },
                ..ServingConfig::small_test()
            },
            &CpuTeeConfig::tdx(),
        );
        assert!(
            heavy.ttft_p95_s > 2.0 * light.ttft_p95_s,
            "heavy {} vs light {}",
            heavy.ttft_p95_s,
            light.ttft_p95_s
        );
    }

    #[test]
    fn ttft_exceeds_prefill_floor() {
        let cfg = ServingConfig::small_test();
        let report = simulate_serving(&cfg, &CpuTeeConfig::bare_metal());
        // TTFT includes at least the request's own prefill time.
        assert!(report.ttft_p50_s > 0.0);
        assert!(report.records.iter().all(|r| r.ttft_s > 0.0));
        assert!(report.records.iter().all(|r| r.e2e_s >= r.ttft_s));
    }

    #[test]
    fn batching_improves_goodput() {
        let mut solo = ServingConfig::small_test();
        solo.limits.max_batch = 1;
        let batched = ServingConfig::small_test();
        let s = simulate_serving(&solo, &CpuTeeConfig::tdx());
        let b = simulate_serving(&batched, &CpuTeeConfig::tdx());
        assert!(
            b.goodput_tps > s.goodput_tps,
            "batched {} !> solo {}",
            b.goodput_tps,
            s.goodput_tps
        );
    }

    #[test]
    fn zero_rate_returns_empty_report() {
        let cfg = ServingConfig {
            arrivals: ArrivalProcess {
                rate_per_s: 0.0,
                ..ServingConfig::small_test().arrivals
            },
            ..ServingConfig::small_test()
        };
        let report = simulate_serving(&cfg, &CpuTeeConfig::tdx());
        assert_eq!(report.arrivals, 0);
        assert_eq!(report.completed, 0);
        assert_eq!(report.aborted, 0);
        assert!(report.records.is_empty());
        // Every field is finite — no NaN leaks into downstream tables.
        for v in [
            report.makespan_s,
            report.goodput_tps,
            report.ttft_p50_s,
            report.ttft_p95_s,
            report.tpot_p50_s,
            report.tpot_p95_s,
            report.availability,
        ] {
            assert!(v.is_finite(), "non-finite field {v}");
        }
    }

    #[test]
    fn zero_duration_returns_empty_report() {
        let cfg = ServingConfig {
            duration_s: 0.0,
            ..ServingConfig::small_test()
        };
        let report = simulate_serving(&cfg, &CpuTeeConfig::bare_metal());
        assert_eq!(report.arrivals, 0);
        assert_eq!(report.completed, 0);
        assert!(report.goodput_tps.is_finite());
    }

    #[test]
    fn nan_rate_or_horizon_returns_empty_report() {
        let mut nan_rate = ServingConfig::small_test();
        nan_rate.arrivals.rate_per_s = f64::NAN;
        let nan_horizon = ServingConfig {
            duration_s: f64::NAN,
            ..ServingConfig::small_test()
        };
        let empty = simulate_serving(
            &ServingConfig {
                duration_s: 0.0,
                ..ServingConfig::small_test()
            },
            &CpuTeeConfig::tdx(),
        );
        for cfg in [nan_rate, nan_horizon] {
            assert_eq!(simulate_serving(&cfg, &CpuTeeConfig::tdx()), empty);
        }
    }

    fn faulted_small(kind: TeeKind, seed: u64) -> ServingReport {
        let cfg = ServingConfig::small_test();
        let rates = FaultRates::for_platform(kind, &SpotParams::gcp_spot()).scaled(600.0);
        let plan = FaultPlan::seeded(&rates, cfg.duration_s, seed);
        simulate_serving_faulted(
            &cfg,
            &ServingNode::Cpu {
                tee: CpuTeeConfig::tdx(),
            },
            &plan,
        )
    }

    #[test]
    fn empty_plan_matches_fault_free_simulator() {
        let cfg = ServingConfig::small_test();
        let direct = simulate_serving(&cfg, &CpuTeeConfig::tdx());
        let via_node = simulate_serving_faulted(
            &cfg,
            &ServingNode::Cpu {
                tee: CpuTeeConfig::tdx(),
            },
            &FaultPlan::none(),
        );
        assert_eq!(direct, via_node);
    }

    #[test]
    fn faults_conserve_requests() {
        for seed in [1, 7, 23] {
            let report = faulted_small(TeeKind::Tdx, seed);
            assert_eq!(
                report.completed + report.aborted,
                report.arrivals,
                "conservation violated at seed {seed}"
            );
        }
    }

    #[test]
    fn faults_degrade_availability_and_tails() {
        let clean = faulted_small(TeeKind::BareMetal, 5); // preemptions only
        let faulted = faulted_small(TeeKind::Sgx, 5);
        assert!(faulted.availability < 1.0, "faults must cost downtime");
        assert!(
            faulted.retries > 0 || faulted.downtime_like() > 0.0,
            "600x SGX rates must fire"
        );
        assert!(faulted.makespan_s >= clean.makespan_s * 0.5);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let a = faulted_small(TeeKind::Sgx, 9);
        let b = faulted_small(TeeKind::Sgx, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn retry_budget_bounds_attempts() {
        // With a zero retry budget, any request resident at a crash is
        // aborted. Scan seeds so a crash is guaranteed to land mid-flight
        // at least once; conservation must hold at every seed.
        let cfg = ServingConfig::small_test();
        let rates =
            FaultRates::for_platform(TeeKind::Sgx, &SpotParams::azure_spot_gpu()).scaled(2_000.0);
        let mut saw_abort = false;
        for seed in 0..16 {
            let plan =
                FaultPlan::seeded(&rates, cfg.duration_s, seed).with_policy(RecoveryPolicy {
                    max_retries: 0,
                    ..RecoveryPolicy::default()
                });
            let report = simulate_serving_faulted(
                &cfg,
                &ServingNode::Cpu {
                    tee: CpuTeeConfig::sgx(),
                },
                &plan,
            );
            assert_eq!(report.completed + report.aborted, report.arrivals);
            assert!(report.records.iter().all(|r| r.retries == 0));
            saw_abort |= report.aborted > 0;
        }
        assert!(saw_abort, "no seed produced a mid-flight crash abort");
    }

    impl ServingReport {
        /// Test helper: downtime implied by availability.
        fn downtime_like(&self) -> f64 {
            (1.0 - self.availability) * self.makespan_s
        }
    }

    #[test]
    fn traced_run_matches_untraced_report() {
        let cfg = ServingConfig::small_test();
        let rates = FaultRates::for_platform(TeeKind::Sgx, &SpotParams::gcp_spot()).scaled(600.0);
        let plan = FaultPlan::seeded(&rates, cfg.duration_s, 13);
        let node = ServingNode::Cpu {
            tee: CpuTeeConfig::sgx(),
        };
        let untraced = simulate_serving_faulted(&cfg, &node, &plan);
        let (traced, trace) = simulate_serving_traced(&cfg, &node, &plan);
        assert_eq!(untraced, traced, "tracing must not perturb the simulation");
        assert!(!trace.is_empty());
    }

    #[test]
    fn trace_conserves_time_and_latency() {
        let cfg = ServingConfig::small_test();
        let rates = FaultRates::for_platform(TeeKind::Sgx, &SpotParams::gcp_spot()).scaled(600.0);
        let plan = FaultPlan::seeded(&rates, cfg.duration_s, 13);
        let node = ServingNode::Cpu {
            tee: CpuTeeConfig::sgx(),
        };
        let (report, trace) = simulate_serving_traced(&cfg, &node, &plan);
        let check = cllm_obs::check(&trace, 1e-6);
        assert!(check.ok(), "conservation violated: {:?}", check.errors);

        // Node accounting matches the report exactly: one node, whose
        // makespan and outage time are what the report computed.
        let totals = cllm_obs::node_totals(&trace);
        assert_eq!(totals.len(), 1);
        assert!((totals[0].makespan_s - report.makespan_s).abs() < 1e-9);
        let downtime = (1.0 - report.availability) * report.makespan_s;
        assert!(
            (totals[0].outage_s - downtime).abs() < 1e-6,
            "outage {} vs downtime {}",
            totals[0].outage_s,
            downtime
        );

        // Every completed request's span chain sums to its recorded
        // end-to-end latency.
        let chains = cllm_obs::request_chains(&trace);
        for r in &report.records {
            let chain = chains
                .iter()
                .find(|c| c.id == r.id)
                .expect("completed request must be traced");
            assert!(
                (chain.total_s - r.e2e_s).abs() < 1e-6,
                "request {}: chain {} vs e2e {}",
                r.id,
                chain.total_s,
                r.e2e_s
            );
        }
    }

    #[test]
    fn attestation_faults_emit_handshake_phases() {
        use crate::faults::{FaultEvent, FaultKind, RecoveryPolicy};
        let cfg = ServingConfig::small_test();
        let plan = FaultPlan {
            events: vec![FaultEvent {
                at_s: 5.0,
                kind: FaultKind::AttestationFailure,
                outage_s: 0.0,
            }],
            policy: RecoveryPolicy::default(),
        };
        let node = ServingNode::Cpu {
            tee: CpuTeeConfig::tdx(),
        };
        let (_, trace) = simulate_serving_traced(&cfg, &node, &plan);
        let phases: Vec<&str> = trace
            .events
            .iter()
            .filter(|e| e.name == "handshake")
            .map(|e| e.detail.as_str())
            .collect();
        assert_eq!(
            phases,
            [
                "challenge",
                "respond",
                "reject",
                "challenge",
                "respond",
                "verify",
                "channel"
            ],
            "fail-then-recover handshake must surface both attempts"
        );
    }

    #[test]
    fn degraded_throughput_slows_decode_without_downtime() {
        use crate::faults::{FaultEvent, FaultKind, RecoveryPolicy};
        let cfg = ServingConfig::small_test();
        let node = ServingNode::Cpu {
            tee: CpuTeeConfig::tdx(),
        };
        let clean = simulate_serving_faulted(&cfg, &node, &FaultPlan::none());
        let plan = FaultPlan {
            events: vec![FaultEvent {
                at_s: 1.0,
                kind: FaultKind::DegradedThroughput,
                outage_s: 25.0,
            }],
            policy: RecoveryPolicy::default(),
        };
        let gray = simulate_serving_faulted(&cfg, &node, &plan);
        assert_eq!(gray.arrivals, clean.arrivals, "traffic is fault-blind");
        assert_eq!(gray.completed + gray.aborted, gray.arrivals);
        assert!(
            (gray.availability - 1.0).abs() < 1e-12,
            "a gray window charges no downtime (availability {})",
            gray.availability
        );
        // Light load lets idle jumps absorb wall-clock delay, so the
        // derate shows up in per-token decode latency, not makespan.
        assert!(
            gray.tpot_p95_s > clean.tpot_p95_s,
            "a 25 s derate window must slow decode: tpot p95 {} vs {}",
            gray.tpot_p95_s,
            clean.tpot_p95_s
        );
    }

    #[test]
    fn degraded_window_clamps_to_horizon() {
        // Mirror of the reattest_s clamp regression: an absurd window
        // length firing just before the end of the run must behave
        // exactly like one that ends at the horizon — the derate tail
        // cannot leak into the post-horizon drain.
        use crate::faults::{FaultEvent, FaultKind, RecoveryPolicy};
        let cfg = ServingConfig::small_test();
        let node = ServingNode::Cpu {
            tee: CpuTeeConfig::tdx(),
        };
        let mk = |outage_s: f64| FaultPlan {
            events: vec![FaultEvent {
                at_s: cfg.duration_s - 0.5,
                kind: FaultKind::DegradedThroughput,
                outage_s,
            }],
            policy: RecoveryPolicy::default(),
        };
        let absurd = simulate_serving_faulted(&cfg, &node, &mk(1.0e9));
        let exact = simulate_serving_faulted(&cfg, &node, &mk(0.5));
        assert_eq!(
            absurd, exact,
            "a 1e9 s window at t=29.5 must clamp to the horizon"
        );
    }

    #[test]
    fn stuck_drain_is_inert_for_a_single_node() {
        // A fixed single node has no scale-down to wedge: StuckDrain
        // events are recorded for the trace but must not perturb the
        // report in any field.
        use crate::faults::{FaultEvent, FaultKind, RecoveryPolicy};
        let cfg = ServingConfig::small_test();
        let node = ServingNode::Cpu {
            tee: CpuTeeConfig::tdx(),
        };
        let plan = FaultPlan {
            events: vec![
                FaultEvent {
                    at_s: 2.0,
                    kind: FaultKind::StuckDrain,
                    outage_s: 40.0,
                },
                FaultEvent {
                    at_s: cfg.duration_s - 0.1,
                    kind: FaultKind::StuckDrain,
                    outage_s: 1.0e9,
                },
            ],
            policy: RecoveryPolicy::default(),
        };
        let clean = simulate_serving_faulted(&cfg, &node, &FaultPlan::none());
        let stuck = simulate_serving_faulted(&cfg, &node, &plan);
        assert_eq!(stuck, clean);
    }

    #[test]
    fn queue_stats_surface_without_faults() {
        // Heavy load queues requests even in a fault-free run; the report
        // must expose depth and wait statistics for shedding decisions.
        let cfg = ServingConfig {
            arrivals: ArrivalProcess {
                rate_per_s: 12.0,
                ..ServingConfig::small_test().arrivals
            },
            ..ServingConfig::small_test()
        };
        let report = simulate_serving(&cfg, &CpuTeeConfig::tdx());
        assert!(report.queue_depth_peak > 1, "overload must queue");
        assert!(report.queue_wait_mean_s > 0.0);
        assert!(report.queue_wait_p99_s >= report.queue_wait_mean_s);
        // Light load keeps the fields finite and small but present.
        let light = simulate_serving(&ServingConfig::small_test(), &CpuTeeConfig::tdx());
        assert!(light.queue_wait_mean_s.is_finite());
        assert!(light.queue_depth_peak >= 1);
    }

    #[test]
    fn outage_past_horizon_is_clamped() {
        // A preemption at 29 s whose raw outage runs 1000 s past the 30 s
        // horizon must charge only one second of downtime: availability
        // stays pinned at <= 1.0 by construction and the makespan is not
        // inflated by unavailable time no request could observe.
        use crate::faults::{FaultEvent, FaultKind, RecoveryPolicy};
        let cfg = ServingConfig::small_test();
        let plan = FaultPlan {
            events: vec![FaultEvent {
                at_s: 29.0,
                kind: FaultKind::SpotPreemption,
                outage_s: 1000.0,
            }],
            policy: RecoveryPolicy::default(),
        };
        let node = ServingNode::Cpu {
            tee: CpuTeeConfig::tdx(),
        };
        let report = simulate_serving_faulted(&cfg, &node, &plan);
        assert_eq!(report.completed + report.aborted, report.arrivals);
        assert!(
            report.makespan_s < 100.0,
            "makespan {} carries over-horizon downtime",
            report.makespan_s
        );
        assert!(report.availability <= 1.0);
        assert!(
            report.availability > 0.9,
            "availability {} charged beyond the horizon",
            report.availability
        );
    }

    #[test]
    fn attestation_outage_past_horizon_is_clamped() {
        // Regression: an attestation failure charged the full 0.35 s
        // re-handshake toll even when it fired within the last fraction
        // of a second of the horizon — the one fault kind exempted from
        // the clamp every other kind gets. A failure 0.1 s before the
        // 30 s horizon must charge at most 0.1 s of downtime.
        use crate::faults::{FaultEvent, FaultKind, RecoveryPolicy};
        let cfg = ServingConfig::small_test();
        let policy = RecoveryPolicy::default();
        assert!(policy.reattest_s > 0.1, "toll must overhang for the test");
        let node = ServingNode::Cpu {
            tee: CpuTeeConfig::tdx(),
        };
        let event_at = |at_s: f64| FaultPlan {
            events: vec![FaultEvent {
                at_s,
                kind: FaultKind::AttestationFailure,
                outage_s: 0.0,
            }],
            policy,
        };
        // Baseline: the same failure mid-trace charges the full toll.
        let mid = simulate_serving_faulted(&cfg, &node, &event_at(5.0));
        let mid_downtime = (1.0 - mid.availability) * mid.makespan_s;
        assert!(
            (mid_downtime - policy.reattest_s).abs() < 1e-9,
            "mid-trace failure charges the whole toll, got {mid_downtime}"
        );
        let late = simulate_serving_faulted(&cfg, &node, &event_at(cfg.duration_s - 0.1));
        let late_downtime = (1.0 - late.availability) * late.makespan_s;
        assert!(
            late_downtime <= 0.1 + 1e-9,
            "near-horizon failure charged {late_downtime} s, clamp allows 0.1 s"
        );
        assert_eq!(late.completed + late.aborted, late.arrivals);
    }

    #[test]
    fn retry_delivery_order_is_eligibility_then_id() {
        // One crash displaces the whole running batch at once: every
        // victim shares the same outage and (first-attempt) backoff, so
        // all become eligible at the same instant and must re-enter the
        // queue in request-id order. FIFO admission then prefils them
        // sequentially, so among the retried victims first tokens (and
        // TTFTs measured from a shared history) rank by id.
        use crate::faults::{FaultEvent, FaultKind, RecoveryPolicy};
        let cfg = ServingConfig {
            arrivals: ArrivalProcess {
                rate_per_s: 3.0,
                ..ServingConfig::small_test().arrivals
            },
            ..ServingConfig::small_test()
        };
        let plan = FaultPlan {
            events: vec![FaultEvent {
                at_s: 10.0,
                kind: FaultKind::EnclaveCrash,
                outage_s: 1.0,
            }],
            policy: RecoveryPolicy::default(),
        };
        let node = ServingNode::Cpu {
            tee: CpuTeeConfig::tdx(),
        };
        let report = simulate_serving_faulted(&cfg, &node, &plan);
        assert!(report.retries >= 2, "crash must displace a real batch");
        let victims: Vec<&RequestRecord> =
            report.records.iter().filter(|r| r.retries == 1).collect();
        assert!(victims.len() >= 2);
        // Records are id-sorted. Same-eligibility victims re-enter the
        // FIFO queue in id order, so their first tokens after the crash
        // arrive in id order too: TTFT must be non-decreasing across the
        // retried cohort.
        for w in victims.windows(2) {
            assert!(
                w[0].ttft_s <= w[1].ttft_s + 1e-12,
                "victim {} got its first token after victim {}: delivery order broke id ordering",
                w[0].id,
                w[1].id
            );
        }
    }
}
