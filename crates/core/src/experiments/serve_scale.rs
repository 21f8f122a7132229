//! Scale extension: push the unified discrete-event kernel to the
//! million-request regime the paper's saturation insights live in.
//!
//! The paper's core claim (Insights 2–3) is that TEE overhead shrinks
//! toward negligible as batch and load grow — which can only be
//! stress-tested at request volumes a hand-rolled O(n²) event loop
//! cannot reach. This experiment drives `cllm_serve::cluster` (now a
//! thin driver over [`cllm_serve::kernel`]) across a 64-node fleet —
//! 48 confidential-GPU spot nodes and 16 reserved TDX sockets — at two
//! scales:
//!
//! * **smoke** — ~12k requests over a 30 s horizon. Deterministic and
//!   fast enough for the golden table: the row pins arrivals, terminal
//!   states, kernel event counts and simulated goodput byte-for-byte.
//! * **full** — 1M+ requests over a 520 s horizon. Exercised by the
//!   `serve_bench` binary (not the golden table — wall-clock throughput
//!   belongs in `BENCH_serve.json`, which records events/sec against a
//!   pinned floor so later PRs show their perf delta).
//!
//! Only simulated-time quantities appear in the table; wall time never
//! does, so the golden stays machine-independent.

use super::{Column, ExperimentResult, Unit, Value};
use cllm_cost::SpillPenalty;
use cllm_serve::autoscale::{
    simulate_autoscale_stats, AutoscaleConfig, AutoscaleReport, ControllerConfig, RentalSpec,
};
use cllm_serve::cluster::{
    simulate_cluster_stats, ClusterConfig, ClusterReport, NodeSpec, WaveModel,
};
use cllm_serve::faults::FaultRates;
use cllm_serve::kernel::KernelStats;
use cllm_serve::router::{
    AdmissionPolicy, BreakerConfig, BrownoutConfig, RetryBudget, TieredAdmission,
};
use cllm_serve::scheduler::{KvConfig, KvPolicy};
use cllm_serve::sim::{ServingConfig, ServingNode};
use cllm_serve::workload::ArrivalProcess;
use cllm_tee::platform::TeeKind;
use cllm_workload::trace::TrafficModel;

/// Fixed seed for node fault schedules and the wave model.
const SCHEDULE_SEED: u64 = 0x5CA1E;

/// Light fault acceleration: enough that crash-retry paths run at scale,
/// not so much that faults dominate the event mix.
const RATE_SCALE: f64 = 10.0;

/// The fleet: 48 cGPU spot nodes + 16 reserved TDX sockets.
pub const GPU_NODES: usize = 48;
/// Reserved TDX share of the fleet.
pub const CPU_NODES: usize = 16;

/// The two operating points of the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~12k requests / 30 s — golden table and CI smoke.
    Smoke,
    /// 1M+ requests / 520 s — `serve_bench` and `BENCH_serve.json`.
    Full,
}

impl Scale {
    /// Identifier used in tables and BENCH_serve.json.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Full => "full",
        }
    }

    /// Mean request arrivals per second at this scale.
    #[must_use]
    pub fn rate_per_s(self) -> f64 {
        match self {
            Scale::Smoke => 400.0,
            Scale::Full => 2000.0,
        }
    }

    /// Arrival horizon, seconds.
    #[must_use]
    pub fn duration_s(self) -> f64 {
        match self {
            Scale::Smoke => 30.0,
            Scale::Full => 520.0,
        }
    }
}

/// The 64-node cluster configuration at `scale`.
///
/// Admission is unbounded: the point is raw kernel throughput, and every
/// arrival must reach a terminal state the conservation invariant can
/// check (`completed + aborted == arrivals`, zero rejections).
#[must_use]
pub fn config(scale: Scale) -> ClusterConfig {
    let shape = std::iter::repeat_n((TeeKind::GpuCc, true), GPU_NODES)
        .chain(std::iter::repeat_n((TeeKind::Tdx, false), CPU_NODES));
    let nodes = shape
        .zip(0u64..)
        .map(|((kind, spot), i)| {
            NodeSpec::preset(kind, spot, RATE_SCALE, SCHEDULE_SEED.wrapping_add(i))
        })
        .collect();
    ClusterConfig {
        serving: ServingConfig {
            arrivals: ArrivalProcess {
                rate_per_s: scale.rate_per_s(),
                prompt_range: (32, 128),
                output_range: (8, 32),
                seed: 42,
            },
            duration_s: scale.duration_s(),
            ..ServingConfig::small_test()
        },
        nodes,
        admission: AdmissionPolicy::unbounded(),
        breaker: BreakerConfig::default(),
        wave: WaveModel {
            waves_per_hr: 14.0,
            frac: 0.25,
            seed: SCHEDULE_SEED,
        },
        failover: true,
        spill: SpillPenalty::cross_platform(),
    }
}

/// Run the cluster at `scale`, returning the report and the kernel's
/// event counters (the events/sec numerator `serve_bench` times).
#[must_use]
pub fn report(scale: Scale) -> (ClusterReport, KernelStats) {
    simulate_cluster_stats(&config(scale))
}

/// Per-node KV page-pool arena of the paged operating point, bytes.
/// Under one full prompt+output extent at the bench's short chat shapes
/// — small enough that any two concurrent sequences overflow it, so the
/// timed run pays the allocator, eviction and readmission paths
/// continually, not just admission.
pub const PAGED_POOL_BYTES: f64 = 0.0625 * cllm_hw::GIB;

/// The same fleet with every node on the paged-recompute KV policy and
/// a deliberately small page pool (see [`PAGED_POOL_BYTES`]) — the
/// configuration behind the `paged_*` rows of `BENCH_serve.json`.
#[must_use]
pub fn paged_config(scale: Scale) -> ClusterConfig {
    let mut cfg = config(scale);
    cfg.serving.limits.kv_budget_bytes = PAGED_POOL_BYTES;
    cfg.serving.kv = KvConfig {
        policy: KvPolicy::PagedRecompute,
        ..KvConfig::default()
    };
    cfg
}

/// Run the paged operating point at `scale`.
#[must_use]
pub fn paged_report(scale: Scale) -> (ClusterReport, KernelStats) {
    simulate_cluster_stats(&paged_config(scale))
}

/// The flash-crowd autoscale operating point — the configuration behind
/// the `autoscale_*` rows of `BENCH_serve.json`. A deliberately small
/// 8-node cGPU base fleet under generative tiered traffic (diurnal
/// baseline, seeded 8x burst windows) with a reactive controller renting
/// up to 16 extra nodes — undersized so the bursts force scale-ups: the
/// timed run exercises arrival generation, tiered admission, controller
/// ticks, attested cold starts, warm promotions and drain scale-downs on
/// top of the same event kernel the cluster rows measure.
#[must_use]
pub fn autoscale_config(scale: Scale) -> AutoscaleConfig {
    let node = ServingNode::preset(TeeKind::GpuCc);
    let mut traffic = TrafficModel::flash_crowd(scale.rate_per_s() / 4.0, 8.0, 9);
    traffic.bursts.bursts_per_hr = 240.0;
    traffic.bursts.window_s = 15.0;
    let base_fleet = (0..8u64)
        .map(|i| {
            NodeSpec::new(
                node.clone(),
                false,
                FaultRates::none(),
                SCHEDULE_SEED.wrapping_add(i),
            )
        })
        .collect();
    AutoscaleConfig {
        serving: ServingConfig {
            duration_s: scale.duration_s(),
            ..ServingConfig::small_test()
        },
        traffic,
        base_fleet,
        base_price_per_hr: 3.0,
        rental: RentalSpec {
            node,
            rates: FaultRates::none(),
            price_per_hr: 4.5,
            attest_s: 0.5,
            seed: SCHEDULE_SEED,
        },
        warm_pool: 4,
        controller: ControllerConfig {
            control_interval_s: 2.0,
            max_rented: CPU_NODES,
            ..ControllerConfig::default()
        },
        tiers: TieredAdmission::default(),
        retry: RetryBudget::default(),
        brownout: None::<BrownoutConfig>,
        breaker: BreakerConfig::default(),
        spill: SpillPenalty::cross_platform(),
    }
}

/// Run the autoscale operating point at `scale`.
#[must_use]
pub fn autoscale_report(scale: Scale) -> (AutoscaleReport, KernelStats) {
    simulate_autoscale_stats(&autoscale_config(scale))
}

/// Run the experiment (smoke scale only — see the module docs).
#[must_use]
#[allow(clippy::cast_possible_wrap)]
pub fn run() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "serve_scale",
        "Kernel scale smoke: 64-node fleet, deterministic event counts (full scale in BENCH_serve.json)",
        vec![
            Column::str("scale"),
            Column::int("nodes"),
            Column::int("arrivals"),
            Column::int("completed"),
            Column::int("aborted"),
            Column::int("retries"),
            Column::int("spills"),
            Column::int("kernel_events"),
            Column::float("makespan_s", Unit::Seconds, 2),
            Column::float("goodput_tps", Unit::TokensPerSec, 1),
        ],
    );
    let (rep, stats) = report(Scale::Smoke);
    assert_eq!(
        rep.completed + rep.aborted + rep.rejected,
        rep.arrivals,
        "serve_scale conservation violated"
    );
    assert_eq!(rep.rejected, 0, "unbounded admission must not reject");
    r.push_row(vec![
        Value::str(Scale::Smoke.label()),
        Value::int(rep.nodes.len() as i64),
        Value::int(rep.arrivals as i64),
        Value::int(rep.completed as i64),
        Value::int(rep.aborted as i64),
        Value::int(rep.retries as i64),
        Value::int(rep.spills as i64),
        Value::int(stats.events() as i64),
        Value::float(rep.makespan_s, Unit::Seconds, 2),
        Value::float(rep.goodput_tps, Unit::TokensPerSec, 1),
    ]);
    r.note("48 cGPU spot + 16 reserved TDX nodes behind the failover router; admission unbounded so every arrival terminates as completed or aborted");
    r.note("kernel_events sums arrivals, retry deliveries, fault applications, admissions, decode steps, completions and rejections processed by the event kernel");
    r.note("full scale (1M+ requests, 520 s horizon) runs via the serve_bench binary; wall-clock events/sec is pinned in BENCH_serve.json, never in this golden table");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_is_conservative_and_deterministic() {
        let (a, sa) = report(Scale::Smoke);
        assert!(a.arrivals > 10_000, "smoke must be >10k requests");
        assert_eq!(a.completed + a.aborted + a.rejected, a.arrivals);
        assert_eq!(a.rejected, 0);
        assert_eq!(a.nodes.len(), GPU_NODES + CPU_NODES);
        let (b, sb) = report(Scale::Smoke);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn kernel_events_cover_every_arrival() {
        let (rep, stats) = report(Scale::Smoke);
        assert_eq!(stats.arrivals as usize, rep.arrivals);
        assert_eq!(stats.completions as usize, rep.completed);
        assert_eq!(stats.retries_delivered, rep.retries);
        assert!(
            stats.events() > stats.arrivals,
            "decode/admission events must dominate arrivals"
        );
    }

    #[test]
    fn paged_smoke_preempts_and_stays_deterministic() {
        let (a, sa) = paged_report(Scale::Smoke);
        assert_eq!(a.completed + a.aborted + a.rejected, a.arrivals);
        assert_eq!(a.rejected, 0);
        assert!(
            a.preemptions > 0,
            "a 64 MiB pool under saturation must preempt"
        );
        assert!(sa.preemptions > 0);
        assert_eq!(sa.swap_outs, 0, "recompute policy never swaps");
        let (b, sb) = paged_report(Scale::Smoke);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn full_scale_demands_a_million_requests() {
        // The full operating point must ask for >= 1M arrivals; the run
        // itself happens in serve_bench (release), not in unit tests.
        let cfg = config(Scale::Full);
        let expected = cfg.serving.arrivals.rate_per_s * cfg.serving.duration_s;
        assert!(
            expected >= 1_000_000.0,
            "full scale asks only {expected} requests"
        );
        assert_eq!(cfg.nodes.len(), 64);
    }

    #[test]
    fn table_is_deterministic() {
        let a = run();
        assert_eq!(a.rows.len(), 1);
        let b = run();
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
    }
}
