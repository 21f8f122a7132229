//! The fleet simulator: the `serve_scale` cluster (48 confidential-GPU
//! spot nodes and 16 reserved TDX sockets behind the failover router,
//! with faults) driven by seeded Poisson chat arrivals.
//!
//! Each operation builds the fleet and simulates a 10 s arrival horizon
//! (about 4,000 requests) through the discrete-event kernel, with an
//! arrival seed of its own derived from `--seed` and its index. Each
//! result is checked for conservation (`completed + aborted + rejected ==
//! arrivals`) and against the arrival trace generated independently
//! before the simulation (the same count, and the completed requests'
//! output tokens summing to the reported goodput); the kept operations
//! are simulated again after the window and must reproduce their report
//! and kernel counters exactly.

use crate::inputs::Rng;
use crate::trace::Tracer;
use crate::{Op, Workload};
use cllm_core::experiments::serve_scale::{config, Scale};
use cllm_serve::cluster::{simulate_cluster_stats, ClusterConfig, ClusterReport};
use cllm_serve::kernel::KernelStats;

const HORIZON_S: f64 = 10.0;

fn fleet(arrival_seed: u64) -> ClusterConfig {
    let mut cfg = config(Scale::Smoke);
    cfg.serving.duration_s = HORIZON_S;
    cfg.serving.arrivals.seed = arrival_seed;
    cfg.wave.seed = arrival_seed;
    cfg
}

pub struct FleetBench {
    seed: u64,
    /// Kept operations: arrival seed, report and kernel counters.
    checks: Vec<(u64, ClusterReport, KernelStats)>,
}

impl FleetBench {
    pub fn new(seed: u64) -> Self {
        FleetBench {
            seed,
            checks: Vec::new(),
        }
    }
}

impl Workload for FleetBench {
    /// Simulations take ~30 ms, so each group is served many times.
    fn strata(&self) -> u64 {
        16
    }

    /// Nothing outlives an operation: set-up is the first simulation.
    fn deploy(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn op(&mut self, op: Op, tracer: &mut Tracer) -> Result<(f64, f64), String> {
        let arrival_seed = Rng::stream(self.seed, 4, op.k).next_u64();
        let output_tokens: Vec<u64> = fleet(arrival_seed)
            .serving
            .arrivals
            .trace(HORIZON_S)
            .iter()
            .map(|r| r.output_tokens)
            .collect();
        let ((rep, stats), secs) = tracer.op("simulation", |t| {
            let cfg = t.layer("sim_config", || fleet(arrival_seed));
            t.layer("simulate", || simulate_cluster_stats(&cfg))
        });
        if rep.completed + rep.aborted + rep.rejected != rep.arrivals {
            return Err(format!(
                "seed {arrival_seed}: terminal states do not sum to arrivals"
            ));
        }
        if rep.arrivals != output_tokens.len() || stats.arrivals != rep.arrivals as u64 {
            return Err(format!(
                "seed {arrival_seed}: {} arrivals simulated, {} generated",
                rep.arrivals,
                output_tokens.len()
            ));
        }
        let mut tokens = 0u64;
        for r in &rep.records {
            tokens += usize::try_from(r.id)
                .ok()
                .and_then(|id| output_tokens.get(id))
                .ok_or("record for a request that never arrived")?;
        }
        #[allow(clippy::cast_precision_loss)]
        let tokens = tokens as f64;
        let reported = rep.goodput_tps * rep.makespan_s;
        if (tokens - reported).abs() > 1e-6 * tokens.max(1.0) {
            return Err(format!(
                "seed {arrival_seed}: {tokens} tokens completed, goodput implies {reported}"
            ));
        }
        #[allow(clippy::cast_precision_loss)]
        {
            tracer.count("sim_events", stats.events() as f64);
            tracer.count("sim_decode_steps", stats.decode_steps as f64);
            tracer.count("sim_retries", stats.retries_delivered as f64);
        }
        if op.check {
            self.checks.push((arrival_seed, rep, stats));
        }
        Ok((tokens, secs))
    }

    /// Simulate each kept operation again: the simulator is deterministic.
    fn verify(&mut self) -> u64 {
        let mut wrong = 0;
        for (arrival_seed, rep, stats) in &self.checks {
            if simulate_cluster_stats(&fleet(*arrival_seed)) != (rep.clone(), *stats) {
                wrong += 1;
            }
        }
        wrong
    }
}
