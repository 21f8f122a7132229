//! The chaos search space: a fully serializable coordinate
//! ([`ChaosPoint`]) in the joint space of serving path, fleet shape,
//! TEE platform, KV policy, traffic, fault schedule and
//! retry/admission tuning — plus the seeded sampler that draws one.
//!
//! The point stores *materialized* fault events (not rates), so the
//! shrinker can drop individual events while everything else stays
//! fixed. The simulator configs themselves are not serializable (they
//! embed model/hardware tables); [`ChaosPoint`] keeps only the
//! searched coordinates and rebuilds the configs on demand, so a
//! repro file replays byte-identically as long as the hardware tables
//! are unchanged.

use cllm_serve::autoscale::{AutoscaleConfig, ControllerConfig, RentalSpec};
use cllm_serve::cluster::{ClusterConfig, NodeSpec, WaveModel};
use cllm_serve::faults::{FaultEvent, FaultPlan, FaultRates, RecoveryPolicy};
use cllm_serve::router::{
    AdmissionPolicy, BreakerConfig, BrownoutConfig, RetryBudget, TieredAdmission,
};
use cllm_serve::scheduler::{KvConfig, KvPolicy};
use cllm_serve::sim::{ServingConfig, ServingNode};
use cllm_serve::workload::ArrivalProcess;
use cllm_serve::{MAX_EXPECTED_ARRIVALS, MAX_FLEET_NODES, MAX_HOURLY_RATE_X_DURATION};
use cllm_tee::platform::TeeKind;
use cllm_workload::trace::{LognormalLen, TrafficModel};
use serde::{Deserialize, Serialize};

use crate::Rng;

/// One fleet member: a platform plus its materialized fault schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosNode {
    /// Platform class.
    pub kind: TeeKind,
    /// Spot rental (subject to correlated preemption waves).
    pub spot: bool,
    /// The node's full fault schedule, pre-materialized so the
    /// shrinker can drop individual events.
    pub events: Vec<FaultEvent>,
}

impl ChaosNode {
    fn node_spec(&self) -> NodeSpec {
        let mut spec = NodeSpec::new(
            ServingNode::preset(self.kind),
            self.spot,
            FaultRates::none(),
            0,
        );
        spec.extra_events = self.events.clone();
        spec
    }
}

/// Coordinates shared by every path: workload shape, horizon, KV
/// management and recovery tuning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BasePoint {
    /// Poisson arrival process (single/cluster paths).
    pub arrivals: ArrivalProcess,
    /// Run horizon, seconds.
    pub duration_s: f64,
    /// Maximum concurrent sequences per batch.
    pub max_batch: usize,
    /// KV budget, GiB (the arena paged policies carve blocks from).
    pub kv_budget_gib: f64,
    /// KV management policy and paging grain.
    pub kv: KvConfig,
    /// Crash recovery: retry cap, backoff, re-attestation cost.
    pub policy: RecoveryPolicy,
}

impl BasePoint {
    /// The batching and paging preconditions every simulator path
    /// shares, plus the Poisson length ranges and the arrival cap when
    /// `arrivals` drives the trace (the autoscale path ignores it).
    fn check(&self, arrivals: bool) -> Result<(), InvalidPoint> {
        let range_ok = |(lo, hi): (u64, u64)| lo >= 1 && lo <= hi;
        if self.max_batch == 0 {
            Err(InvalidPoint::ZeroBatch)
        } else if self.kv.block_tokens == 0 {
            Err(InvalidPoint::ZeroPageTokens)
        } else if !arrivals {
            Ok(())
        } else if !(range_ok(self.arrivals.prompt_range) && range_ok(self.arrivals.output_range)) {
            Err(InvalidPoint::EmptyLengthRange)
        } else {
            capped(
                "expected arrivals (rate_per_s x duration_s)",
                self.arrivals.rate_per_s * self.duration_s,
                MAX_EXPECTED_ARRIVALS,
            )
        }
    }

    /// Materialize into a [`ServingConfig`] (model and hardware tables
    /// come from the repo's pinned `small_test` baseline).
    #[must_use]
    pub fn serving_config(&self) -> ServingConfig {
        let mut cfg = ServingConfig::small_test();
        cfg.arrivals = self.arrivals;
        cfg.duration_s = self.duration_s;
        cfg.limits.max_batch = self.max_batch;
        cfg.limits.kv_budget_bytes = self.kv_budget_gib * cllm_hw::GIB;
        cfg.kv = self.kv;
        cfg
    }
}

/// A single-node run: one platform, one fault schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SinglePoint {
    /// Shared workload/KV/recovery coordinates.
    pub base: BasePoint,
    /// The node under test.
    pub node: ChaosNode,
}

impl SinglePoint {
    /// The fault plan this point drives through the single-node loop.
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        FaultPlan {
            events: self.node.events.clone(),
            policy: self.base.policy,
        }
    }
}

/// A fixed-fleet cluster run: heterogeneous nodes behind the router.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterPoint {
    /// Shared workload/KV/recovery coordinates.
    pub base: BasePoint,
    /// The fleet; at least one node.
    pub nodes: Vec<ChaosNode>,
    /// Router admission bounds.
    pub admission: AdmissionPolicy,
    /// Correlated preemption waves over the spot subset.
    pub wave: WaveModel,
    /// Whether crash victims may re-queue onto other nodes.
    pub failover: bool,
}

impl ClusterPoint {
    /// Materialize into a [`ClusterConfig`].
    #[must_use]
    pub fn config(&self) -> ClusterConfig {
        // Cluster nodes read their recovery policy from the seeded
        // plan, which is the default policy for zero-rate specs — the
        // sampled `base.policy` axis only drives the single path.
        ClusterConfig {
            serving: self.base.serving_config(),
            nodes: self.nodes.iter().map(ChaosNode::node_spec).collect(),
            admission: self.admission,
            breaker: BreakerConfig::default(),
            wave: self.wave,
            failover: self.failover,
            spill: cllm_cost::SpillPenalty::cross_platform(),
        }
    }
}

/// An autoscaled run: base fleet plus seeded rentals under flash-crowd
/// traffic, tiered admission and a retry-storm circuit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoscalePoint {
    /// Shared workload/KV/recovery coordinates (`arrivals` is unused —
    /// the traffic model below drives the trace).
    pub base: BasePoint,
    /// Modulated multi-tenant traffic.
    pub traffic: TrafficModel,
    /// Always-on fleet; at least one node.
    pub base_fleet: Vec<ChaosNode>,
    /// Rented platform class.
    pub rental_kind: TeeKind,
    /// Per-kind fault rates for rented nodes (kept as rates: rentals
    /// are created dynamically, so their schedules cannot be
    /// materialized up front; the shrinker zeroes these as one pass).
    pub rental_rates: FaultRates,
    /// Pre-attested standbys.
    pub warm_pool: usize,
    /// Reactive controller tuning.
    pub controller: ControllerConfig,
    /// Retry budget + storm circuit.
    pub retry: RetryBudget,
    /// Token-shedding brownout, if enabled.
    pub brownout: Option<BrownoutConfig>,
    /// Planted rule for shrinker tests: treat any aborted request as
    /// an invariant violation (`InvariantViolation::Forbidden`).
    pub forbid_aborts: bool,
}

impl AutoscalePoint {
    /// Materialize into an [`AutoscaleConfig`].
    #[must_use]
    pub fn config(&self) -> AutoscaleConfig {
        AutoscaleConfig {
            serving: self.base.serving_config(),
            traffic: self.traffic,
            base_fleet: self.base_fleet.iter().map(ChaosNode::node_spec).collect(),
            base_price_per_hr: 3.0,
            rental: RentalSpec {
                node: ServingNode::preset(self.rental_kind),
                rates: self.rental_rates,
                price_per_hr: 4.0,
                attest_s: 0.5,
                seed: 77,
            },
            warm_pool: self.warm_pool,
            controller: self.controller,
            tiers: TieredAdmission::default(),
            retry: self.retry,
            brownout: self.brownout,
            breaker: BreakerConfig::default(),
            spill: cllm_cost::SpillPenalty::cross_platform(),
        }
    }
}

/// A real-engine decode run: seeded speculative decoding on a tiny
/// `cllm-infer` model, checked against the infer-loop invariants
/// (`token-conservation`, `forbid-nonfinite-logits`). Unlike the
/// simulator paths this executes actual matmuls, so the chaos search
/// also exercises the kernels, the KV-cache rollback and the
/// draft/verify ledger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferPoint {
    /// Weight-initialization seed for the target model (the draft is
    /// the int8-quantized target); doubles as the sampling RNG seed.
    pub model_seed: u64,
    /// Decoder blocks in the tiny model (1 or 2).
    pub layers: usize,
    /// Prompt token ids (within the tiny 64-token vocabulary).
    pub prompt: Vec<usize>,
    /// Tokens to generate.
    pub max_new: usize,
    /// Draft window per speculative round.
    pub draft_k: usize,
    /// Softmax temperature; `None` decodes greedily.
    pub temperature: Option<f32>,
    /// Planted rule for shrinker tests: poison one LM-head weight with
    /// NaN so every post-prefill logit vector trips
    /// `forbid-nonfinite-logits`.
    pub plant_nan_lm_head: bool,
}

impl InferPoint {
    /// The tiny model shape this point runs: fixed 32-hidden GQA so
    /// sampled points stay fast, with only the layer count searched.
    #[must_use]
    pub fn config(&self) -> cllm_infer::model::TinyConfig {
        cllm_infer::model::TinyConfig {
            hidden: 32,
            layers: self.layers,
            heads: 4,
            kv_heads: 2,
            intermediate: 96,
            vocab: 64,
            max_seq: 128,
            rope_theta: 10_000.0,
            eps: 1e-5,
        }
    }
}

/// Which serving path a point drives.
// Variant sizes are dominated by the autoscale arm's controller and
// traffic tables; points are sampled and cloned a handful of times per
// run, so boxing would only complicate the repro JSON for no win.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PathSpec {
    /// `simulate_serving_faulted`: one node, one fault plan.
    Single(SinglePoint),
    /// `simulate_cluster`: fixed fleet behind the router.
    Cluster(ClusterPoint),
    /// `simulate_autoscale`: reactive fleet under modulated traffic.
    Autoscale(AutoscalePoint),
    /// `speculative_generate`: a real tiny-model decode loop checked
    /// against the infer-loop invariants.
    Infer(InferPoint),
}

/// One coordinate in the chaos search space. `seed` is provenance
/// only: the point is self-contained and replays without it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosPoint {
    /// The seed this point was sampled from (0 for hand-built points).
    pub seed: u64,
    /// The path and its coordinates.
    pub path: PathSpec,
}

/// A point the simulators or the engine refuse to run: each variant
/// names a precondition [`run::run_point`](crate::run::run_point) would
/// otherwise panic on, or a cap on the work it may ask for.
#[derive(Debug, Clone, PartialEq)]
pub enum InvalidPoint {
    /// A batch cap of zero: no request could ever run.
    ZeroBatch,
    /// KV pages of zero tokens.
    ZeroPageTokens,
    /// A Poisson arrival length range that is empty or starts at zero.
    EmptyLengthRange,
    /// A cluster point with no nodes.
    EmptyCluster,
    /// An autoscale point with an empty base fleet.
    EmptyBaseFleet,
    /// An infer prompt token outside the tiny model's vocabulary.
    TokenOutOfVocab {
        /// The offending token id.
        token: usize,
        /// The vocabulary size.
        vocab: usize,
    },
    /// An infer point with a zero draft window.
    ZeroDraftWindow,
    /// An infer point whose prompt, output and draft window do not fit
    /// the KV cache. Speculative decode holds at most `prompt.len() +
    /// max_new - 1` positions and vanilla decode `prompt.len() +
    /// max_new`; the draft window on top is slack.
    KvOverflow {
        /// `prompt.len() + max_new + draft_k`.
        needed: usize,
        /// The tiny model's `max_seq`.
        max_seq: usize,
    },
    /// A point asking for more work than `cllm serve` would run: its
    /// expected arrivals past [`MAX_EXPECTED_ARRIVALS`], an hourly event
    /// rate × horizon past [`MAX_HOURLY_RATE_X_DURATION`], or more
    /// rentals than [`MAX_FLEET_NODES`]. Every schedule is generated up
    /// front and every rental runs an attested handshake, so the caps
    /// bound memory and time.
    OverCap {
        /// The capped quantity.
        what: &'static str,
        /// Its value in this point.
        value: f64,
        /// The cap.
        cap: f64,
    },
}

/// `Err(OverCap)` when `value` exceeds `cap`.
fn capped(what: &'static str, value: f64, cap: f64) -> Result<(), InvalidPoint> {
    if value > cap {
        Err(InvalidPoint::OverCap { what, value, cap })
    } else {
        Ok(())
    }
}

impl std::fmt::Display for InvalidPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvalidPoint::ZeroBatch => f.write_str("max_batch is 0"),
            InvalidPoint::ZeroPageTokens => f.write_str("kv.block_tokens is 0"),
            InvalidPoint::EmptyLengthRange => {
                f.write_str("an arrival prompt_range or output_range is empty or starts at 0")
            }
            InvalidPoint::EmptyCluster => f.write_str("cluster point has no nodes"),
            InvalidPoint::EmptyBaseFleet => f.write_str("autoscale point has an empty base_fleet"),
            InvalidPoint::TokenOutOfVocab { token, vocab } => write!(
                f,
                "infer prompt token {token} is outside the {vocab}-token vocabulary"
            ),
            InvalidPoint::ZeroDraftWindow => f.write_str("infer point has draft_k 0"),
            InvalidPoint::KvOverflow { needed, max_seq } => write!(
                f,
                "infer prompt + max_new + draft_k is {needed}, above max_seq {max_seq}"
            ),
            InvalidPoint::OverCap { what, value, cap } => {
                write!(f, "{what} is {value:e}, above the cap of {cap:e}")
            }
        }
    }
}

impl ChaosPoint {
    /// Check the preconditions of the point's serving path or engine
    /// run, so a hand-edited repro fails with a typed error instead of
    /// a panic inside the simulator.
    ///
    /// # Errors
    /// The first precondition the point breaks.
    pub fn check(&self) -> Result<(), InvalidPoint> {
        match &self.path {
            PathSpec::Single(p) => p.base.check(true),
            PathSpec::Cluster(p) if p.nodes.is_empty() => Err(InvalidPoint::EmptyCluster),
            PathSpec::Cluster(p) => {
                p.base.check(true)?;
                capped(
                    "waves_per_hr x duration_s",
                    p.wave.waves_per_hr * p.base.duration_s,
                    MAX_HOURLY_RATE_X_DURATION,
                )
            }
            PathSpec::Autoscale(p) if p.base_fleet.is_empty() => Err(InvalidPoint::EmptyBaseFleet),
            PathSpec::Autoscale(p) => {
                p.base.check(false)?;
                let (traffic, horizon_s) = (&p.traffic, p.base.duration_s);
                capped(
                    "expected arrivals (base_rate_per_s x burst multiplier x duration_s)",
                    traffic.base_rate_per_s * traffic.bursts.multiplier.max(1.0) * horizon_s,
                    MAX_EXPECTED_ARRIVALS,
                )?;
                capped(
                    "bursts_per_hr x duration_s",
                    traffic.bursts.bursts_per_hr * horizon_s,
                    MAX_HOURLY_RATE_X_DURATION,
                )?;
                capped(
                    "rental fault rates per hour x duration_s",
                    p.rental_rates.total_per_hr() * horizon_s,
                    MAX_HOURLY_RATE_X_DURATION,
                )?;
                // Also bounds the rentals one tick makes, whatever
                // `scale_up_step` asks for.
                #[allow(clippy::cast_precision_loss)]
                capped(
                    "controller.max_rented",
                    p.controller.max_rented as f64,
                    MAX_FLEET_NODES as f64,
                )
            }
            PathSpec::Infer(p) => {
                let cfg = p.config();
                if let Some(&token) = p.prompt.iter().find(|&&t| t >= cfg.vocab) {
                    return Err(InvalidPoint::TokenOutOfVocab {
                        token,
                        vocab: cfg.vocab,
                    });
                }
                if p.draft_k == 0 {
                    return Err(InvalidPoint::ZeroDraftWindow);
                }
                let needed = p
                    .prompt
                    .len()
                    .saturating_add(p.max_new)
                    .saturating_add(p.draft_k);
                if needed > cfg.max_seq {
                    return Err(InvalidPoint::KvOverflow {
                        needed,
                        max_seq: cfg.max_seq,
                    });
                }
                Ok(())
            }
        }
    }
}

/// Materialize the fault schedule of a `kind` node rented on spot or
/// reserved capacity, gray kinds included.
fn sample_events(rng: &mut Rng, kind: TeeKind, spot: bool, horizon_s: f64) -> Vec<FaultEvent> {
    let mut rates = FaultRates::for_rental(kind, spot).scaled(rng.range_f64(50.0, 900.0));
    // Gray failures ride the same per-kind salted streams.
    rates.degraded_windows_per_hr = rng.range_f64(0.0, 400.0);
    rates.stuck_drains_per_hr = rng.range_f64(0.0, 200.0);
    FaultPlan::seeded(&rates, horizon_s, rng.next_u64()).events
}

fn sample_base(rng: &mut Rng) -> BasePoint {
    let duration_s = rng.range_f64(10.0, 30.0);
    let policy_choices = [
        KvPolicy::Conservative,
        KvPolicy::PagedRecompute,
        KvPolicy::PagedSwap,
    ];
    BasePoint {
        arrivals: ArrivalProcess {
            rate_per_s: rng.range_f64(0.5, 5.0),
            prompt_range: (16, 16 + rng.range_usize(16, 240) as u64),
            output_range: (4, 4 + rng.range_usize(4, 60) as u64),
            seed: rng.next_u64() % 1000,
        },
        duration_s,
        max_batch: rng.range_usize(2, 24),
        kv_budget_gib: rng.range_f64(0.25, 64.0),
        kv: KvConfig {
            policy: policy_choices[rng.range_usize(0, 3)],
            block_tokens: [8u64, 16, 32][rng.range_usize(0, 3)],
            static_batching: rng.chance(0.15),
        },
        policy: RecoveryPolicy {
            max_retries: rng.range_usize(0, 5) as u32,
            backoff_base_s: rng.range_f64(0.05, 0.5),
            backoff_factor: rng.range_f64(1.0, 3.0),
            reattest_s: rng.range_f64(0.1, 1.0),
        },
    }
}

fn sample_node(rng: &mut Rng, horizon_s: f64) -> ChaosNode {
    let kind = TeeKind::ALL[rng.range_usize(0, TeeKind::ALL.len())];
    let spot = rng.chance(0.4);
    ChaosNode {
        kind,
        spot,
        events: sample_events(rng, kind, spot, horizon_s),
    }
}

/// Small prompt/output shapes so sampled autoscale runs stay fast.
fn sample_traffic(rng: &mut Rng) -> TrafficModel {
    let mut t = TrafficModel::flash_crowd(
        rng.range_f64(1.0, 8.0),
        rng.range_f64(2.0, 10.0),
        rng.next_u64() % 1000,
    );
    t.bursts.bursts_per_hr = rng.range_f64(60.0, 400.0);
    t.bursts.window_s = rng.range_f64(5.0, 15.0);
    t.diurnal_amplitude = rng.range_f64(0.0, 0.5);
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

/// Expand `seed` into a point. Pure: the same seed always yields the
/// same point, and different seeds draw from independent SplitMix64
/// streams.
#[must_use]
pub fn sample_point(seed: u64) -> ChaosPoint {
    let mut rng = Rng::new(seed ^ 0xC4A0_5C11_AB1E_D0D0);
    let base = sample_base(&mut rng);
    let horizon_s = base.duration_s;
    let path = match rng.range_usize(0, 4) {
        0 => PathSpec::Single(SinglePoint {
            base,
            node: sample_node(&mut rng, horizon_s),
        }),
        1 => {
            let n_nodes = rng.range_usize(1, 5);
            PathSpec::Cluster(ClusterPoint {
                base,
                nodes: (0..n_nodes)
                    .map(|_| sample_node(&mut rng, horizon_s))
                    .collect(),
                admission: AdmissionPolicy {
                    queue_cap: rng.range_usize(2, 48),
                    deadline_s: rng.range_f64(4.0, 20.0),
                },
                wave: WaveModel {
                    waves_per_hr: rng.range_f64(0.0, 300.0),
                    frac: rng.range_f64(0.0, 1.0),
                    seed: rng.next_u64() % 1000,
                },
                failover: rng.chance(0.7),
            })
        }
        2 => {
            let n_base = rng.range_usize(1, 3);
            let brownout = rng.chance(0.4).then(|| BrownoutConfig {
                enter_depth: rng.range_usize(8, 64),
                exit_depth: rng.range_usize(2, 8),
                output_cap_tokens: rng.range_usize(4, 24) as u64,
            });
            let traffic = sample_traffic(&mut rng);
            let base_fleet = (0..n_base)
                .map(|_| sample_node(&mut rng, horizon_s))
                .collect();
            // Rentals are spot capacity of the rented kind.
            let rental_kind = TeeKind::ALL[rng.range_usize(0, TeeKind::ALL.len())];
            let mut rental_rates =
                FaultRates::for_rental(rental_kind, true).scaled(rng.range_f64(0.0, 600.0));
            rental_rates.stuck_drains_per_hr = rng.range_f64(0.0, 300.0);
            rental_rates.degraded_windows_per_hr = rng.range_f64(0.0, 300.0);
            PathSpec::Autoscale(AutoscalePoint {
                base,
                traffic,
                base_fleet,
                rental_kind,
                rental_rates,
                warm_pool: rng.range_usize(0, 4),
                controller: ControllerConfig {
                    control_interval_s: rng.range_f64(0.5, 4.0),
                    up_depth_per_node: rng.range_f64(2.0, 12.0),
                    down_depth_per_node: rng.range_f64(0.5, 2.0),
                    scale_up_step: rng.range_usize(1, 3),
                    max_rented: rng.range_usize(0, 6),
                    scale_down_ticks: rng.range_usize(1, 4) as u32,
                    drain_window_s: rng.range_f64(2.0, 25.0),
                },
                retry: RetryBudget {
                    per_request: rng.range_usize(0, 5) as u32,
                    storm_window_s: rng.range_f64(2.0, 15.0),
                    storm_max_retries: rng.range_usize(8, 128),
                },
                brownout,
                forbid_aborts: false,
            })
        }
        _ => {
            let n_prompt = rng.range_usize(1, 9);
            #[allow(clippy::cast_possible_truncation)]
            let temperature = rng.chance(0.5).then(|| rng.range_f64(0.5, 1.5) as f32);
            PathSpec::Infer(InferPoint {
                model_seed: rng.next_u64() % 1000,
                layers: rng.range_usize(1, 3),
                prompt: (0..n_prompt).map(|_| rng.range_usize(0, 64)).collect(),
                max_new: rng.range_usize(1, 25),
                draft_k: rng.range_usize(1, 5),
                temperature,
                plant_nan_lm_head: false,
            })
        }
    };
    ChaosPoint { seed, path }
}

/// A hand-built point that intentionally violates the planted
/// `forbid-aborts` rule: a zero retry budget, a single TDX node, and a
/// dense crash schedule under steady traffic. Any one crash that
/// catches a running request aborts it, so the shrinker has plenty of
/// slack to cut — the shrinker's end-to-end test demands it reduce the
/// 8 planted crashes to at most 3, and the checked-in regression
/// corpus pins the shrunken repro.
#[must_use]
pub fn planted_demo() -> ChaosPoint {
    let mut traffic = TrafficModel::steady(3.0, 7);
    traffic.prompt = LognormalLen {
        mu_ln: 3.5,
        sigma_ln: 0.5,
        min_tokens: 16,
        max_tokens: 128,
    };
    traffic.output = LognormalLen {
        mu_ln: 2.5,
        sigma_ln: 0.4,
        min_tokens: 4,
        max_tokens: 32,
    };
    let crashes: Vec<FaultEvent> = (0..8)
        .map(|i| FaultEvent {
            at_s: 2.0 + f64::from(i),
            kind: cllm_serve::faults::FaultKind::EnclaveCrash,
            outage_s: 0.5,
        })
        .collect();
    let small = ServingConfig::small_test();
    ChaosPoint {
        seed: 0,
        path: PathSpec::Autoscale(AutoscalePoint {
            base: BasePoint {
                arrivals: ArrivalProcess {
                    rate_per_s: 3.0,
                    prompt_range: (16, 128),
                    output_range: (4, 32),
                    seed: 7,
                },
                duration_s: 12.0,
                max_batch: small.limits.max_batch,
                kv_budget_gib: 64.0,
                kv: KvConfig::default(),
                policy: RecoveryPolicy::default(),
            },
            traffic,
            base_fleet: vec![ChaosNode {
                kind: TeeKind::Tdx,
                spot: false,
                events: crashes,
            }],
            rental_kind: TeeKind::Tdx,
            rental_rates: FaultRates::none(),
            warm_pool: 0,
            controller: ControllerConfig {
                max_rented: 0,
                ..ControllerConfig::default()
            },
            retry: RetryBudget {
                per_request: 0,
                ..RetryBudget::default()
            },
            brownout: None,
            forbid_aborts: true,
        }),
    }
}

/// A hand-built infer point that violates the planted
/// `forbid-nonfinite-logits` rule: one LM-head weight is poisoned with
/// NaN, so every logit vector computed after the prefill carries
/// non-finite entries. The generous prompt/horizon/draft-window give
/// the shrinker slack to cut — its end-to-end test demands the repro
/// collapse to a single emitted token from a one-token prompt.
#[must_use]
pub fn planted_infer_demo() -> ChaosPoint {
    ChaosPoint {
        seed: 0,
        path: PathSpec::Infer(InferPoint {
            model_seed: 7,
            layers: 2,
            prompt: vec![1, 2, 3, 4, 5],
            max_new: 16,
            draft_k: 4,
            temperature: None,
            plant_nan_lm_head: true,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic() {
        for seed in [0u64, 1, 17, 0xDEAD_BEEF] {
            assert_eq!(sample_point(seed), sample_point(seed));
        }
    }

    #[test]
    fn sampling_covers_all_four_paths() {
        let mut single = 0;
        let mut cluster = 0;
        let mut autoscale = 0;
        let mut infer = 0;
        for seed in 0..60 {
            match sample_point(seed).path {
                PathSpec::Single(_) => single += 1,
                PathSpec::Cluster(_) => cluster += 1,
                PathSpec::Autoscale(_) => autoscale += 1,
                PathSpec::Infer(_) => infer += 1,
            }
        }
        assert!(
            single > 0 && cluster > 0 && autoscale > 0 && infer > 0,
            "60 seeds must hit every path: {single}/{cluster}/{autoscale}/{infer}"
        );
    }

    #[test]
    fn sampled_infer_points_are_well_formed() {
        for seed in 0..200 {
            if let PathSpec::Infer(p) = sample_point(seed).path {
                assert!(p.layers >= 1 && p.layers <= 2, "seed {seed}");
                assert!(!p.prompt.is_empty() && p.prompt.len() <= 8, "seed {seed}");
                assert!(
                    p.prompt.iter().all(|&t| t < p.config().vocab),
                    "seed {seed}"
                );
                assert!(p.max_new >= 1 && p.draft_k >= 1, "seed {seed}");
                assert!(!p.plant_nan_lm_head, "sampled points never plant faults");
            }
        }
    }

    #[test]
    fn sampled_and_planted_points_pass_the_check() {
        for seed in 0..200 {
            assert_eq!(sample_point(seed).check(), Ok(()), "seed {seed}");
        }
        assert_eq!(planted_demo().check(), Ok(()));
        assert_eq!(planted_infer_demo().check(), Ok(()));
    }

    #[test]
    fn kv_overflow_is_checked_at_the_boundary() {
        let mut point = planted_infer_demo();
        let PathSpec::Infer(p) = &mut point.path else {
            unreachable!("the infer demo is an infer point")
        };
        let max_seq = p.config().max_seq;
        p.max_new = max_seq - p.prompt.len() - p.draft_k;
        assert_eq!(point.check(), Ok(()));
        if let PathSpec::Infer(p) = &mut point.path {
            p.max_new += 1;
        }
        assert_eq!(
            point.check(),
            Err(InvalidPoint::KvOverflow {
                needed: max_seq + 1,
                max_seq
            })
        );
    }

    #[test]
    fn sampled_rentals_carry_their_own_kinds_faults() {
        let mut rentals = 0;
        for seed in 0..400 {
            if let PathSpec::Autoscale(p) = sample_point(seed).path {
                rentals += 1;
                let (kind, r) = (p.rental_kind, p.rental_rates);
                let td_exits = matches!(kind, TeeKind::Tdx | TeeKind::SevSnp);
                assert_eq!(
                    r.td_exit_storms_per_hr > 0.0,
                    td_exits,
                    "seed {seed}: {kind:?}"
                );
                let bounces = kind == TeeKind::GpuCc;
                assert_eq!(
                    r.bounce_stalls_per_hr > 0.0,
                    bounces,
                    "seed {seed}: {kind:?}"
                );
            }
        }
        assert!(rentals > 50, "400 seeds sample {rentals} autoscale points");
    }

    #[test]
    fn points_serialize_round_trip() {
        for seed in 0..12 {
            let p = sample_point(seed);
            let json = serde_json::to_string(&p).expect("point serializes");
            let back: ChaosPoint = serde_json::from_str(&json).expect("point parses");
            assert_eq!(p, back, "seed {seed} round-trips");
        }
    }
}
