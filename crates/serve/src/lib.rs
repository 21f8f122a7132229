//! Discrete-event serving simulator for confidential LLM deployments.
//!
//! The paper reports *offline* throughput and latency; production
//! deployments care about *online*, user-perceived service levels under
//! load — the 200 ms/word reading-speed standard the paper cites is a
//! per-user bound. This crate closes that gap with a continuous-batching
//! serving simulator in the style of vLLM/DeepSpeed-Inference schedulers:
//!
//! * [`kernel`] — the discrete-event core shared by the single-node,
//!   cluster and autoscale drivers: a binary-heap event queue with
//!   deterministic `(time, key, seq)` tie-breaking, slab-allocated
//!   per-request state (dense indices, not hash lookups, on the hot
//!   path), and event counters that make throughput measurable.
//! * `node` (crate-internal) — one node's live state and the only copies
//!   of what happens on a node in any driver: the fault path, victim
//!   requeue-or-abort under one retry rule, one batching iteration
//!   (admit, prefill with re-attest/requant/swap-in, page-pressure
//!   eviction, derated decode, completion records, breaker-close toll),
//!   the horizon clamp, and the fleet drivers' dispatch-or-advance
//!   choice. The drivers keep their own arrival, routing and control
//!   loops, which really differ.
//! * [`workload::ArrivalProcess`] — deterministic-seeded Poisson request
//!   arrivals with configurable prompt/output length distributions.
//! * [`scheduler::ContinuousBatcher`] — iteration-level scheduling:
//!   requests join the running batch between decode steps, bounded by a
//!   batch cap and a KV-memory budget. Three KV disciplines
//!   ([`scheduler::KvPolicy`]): conservative full-extent reservation
//!   (default), and two vLLM-style paged policies over a
//!   `cllm_workload::kv::PagePool` — admit on prompt pages, grow
//!   page-by-page, and under pressure preempt tail-first, either
//!   dropping the victim's pages (recompute) or swapping them through
//!   the platform's priced paging path (swap).
//! * [`sim`] — the single-node driver: prefill admission, per-step
//!   decode timing from the calibrated `cllm-perf` roofline (so every TEE
//!   mechanism — memory encryption, hugepage fallback, TD transitions —
//!   shapes the tail), and per-request records.
//! * [`slo`] — time-to-first-token / time-per-output-token percentiles
//!   and SLO attainment, comparable across bare metal, TDX, SGX and
//!   cGPUs.
//! * [`faults`] — deterministic, seeded injection of TEE-specific
//!   failures (attestation failures, enclave crashes, AEX/TD-exit
//!   storms, EPC-paging and bounce-buffer stalls, spot preemptions);
//!   the event loop recovers with bounded retry, exponential backoff
//!   and re-attestation tolls.
//! * [`invariants`] — the unified invariant registry: one typed
//!   definition of every correctness invariant (conservation, billing
//!   identity, pool conservation, time attribution, retry budgets,
//!   breaker accounting, finiteness), shared by the simulators' debug
//!   asserts, the property tests, the CLI, and the `cllm-chaos` search
//!   engine.
//! * [`router`] — cluster admission control (queue caps, deadlines, a
//!   `Rejected` terminal state) and per-node circuit breakers whose
//!   close pays a real attested re-handshake.
//! * [`cluster`] — the multi-node simulation: heterogeneous fleets
//!   behind a failover router surviving correlated preemption waves,
//!   with cross-platform spills priced via `cllm-cost`.
//! * [`autoscale`] — a deterministic reactive autoscaler over the same
//!   kernel: flash-crowd traffic from `cllm_workload::trace`, scale-ups
//!   that pay the real attested handshake plus weight-unseal before
//!   joining routing (optionally skipped by a pre-attested warm pool at
//!   carrying cost), graceful scale-down drains, tiered shedding, retry
//!   budgets with a global storm circuit, and brownout degradation.
//!
//! The single-node and cluster drivers are instrumented with `cllm-obs`
//! span tracing as a pure observer of the simulated clock: `sim::simulate_serving_traced`
//! and `cluster::simulate_cluster_traced` return the same report as
//! their untraced twins plus a [`cllm_obs::Trace`] whose per-node spans
//! tile the makespan (`busy + idle + outage`) and whose per-request
//! chains sum to each end-to-end latency.
//!
//! # Example
//!
//! ```
//! use cllm_serve::sim::{simulate_serving, ServingConfig};
//! use cllm_tee::platform::CpuTeeConfig;
//!
//! let cfg = ServingConfig::small_test();
//! let report = simulate_serving(&cfg, &CpuTeeConfig::tdx());
//! assert!(report.completed > 0);
//! assert!(report.tpot_p50_s > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autoscale;
pub mod cluster;
pub mod faults;
pub mod invariants;
pub mod kernel;
#[doc(hidden)]
pub mod legacy;
mod node;
pub mod router;
pub mod scheduler;
pub mod sim;
pub mod slo;
pub mod workload;
