//! Figure 12: vCPU scaling and cost of generating one million tokens
//! (EMR2, Llama2-7B bf16, 128 in / 128 out, single socket, 128 GiB of
//! memory held constant), with the cGPU cost line.
//!
//! [`tdx_cost_sweep`] and [`cgpu_usd_per_mtok`] price any request shape:
//! Figure 13 and `cllm plan` (the paper's §V-D decision) call them at
//! their own shapes.

use super::{Column, ExperimentResult, Unit, Value};
use crate::scenario::{CpuScenario, GpuScenario};
use cllm_cost::{cost_per_mtok, socket_cost_per_hr, CostPoint, GpuPricing};
use cllm_perf::CpuTarget;
use cllm_workload::phase::RequestSpec;

/// Core counts swept (per socket).
pub const CORES: [u32; 6] = [4, 8, 16, 32, 48, 60];

/// Batch sizes of the figure.
const BATCHES: [u64; 4] = [1, 16, 64, 128];

/// The figure's request at one batch size: 128 input and 128 output
/// tokens.
#[must_use]
pub fn request(batch: u64) -> RequestSpec {
    RequestSpec::new(batch, 128, 128)
}

fn scenario(cores: u32, req: &RequestSpec) -> CpuScenario {
    CpuScenario::llama2_7b(*req).with_target(CpuTarget::emr2_single_socket().with_cores(cores))
}

fn tdx_overhead(cores: u32, req: &RequestSpec) -> f64 {
    let tdx = scenario(cores, req);
    cllm_perf::throughput_overhead_pct(tdx.baseline().simulate().e2e_tps, tdx.simulate().e2e_tps)
}

/// cGPU $/Mtoken at one request shape (the orange line of Figure 12).
#[must_use]
pub fn cgpu_usd_per_mtok(req: &RequestSpec) -> f64 {
    let sim = GpuScenario::llama2_7b(*req).simulate();
    cost_per_mtok(GpuPricing::azure_ncc_h100().per_hr, sim.e2e_tps)
}

/// The TDX cost sweep over [`CORES`] at one request shape: each point's
/// throughput is end to end (it includes first-token latency, as the
/// figure caption specifies) and its price is one socket's
/// ([`socket_cost_per_hr`]).
#[must_use]
pub fn tdx_cost_sweep(req: &RequestSpec) -> Vec<CostPoint> {
    CORES
        .iter()
        .map(|&cores| {
            let tps = scenario(cores, req).simulate().e2e_tps;
            CostPoint::new(u64::from(cores), tps, socket_cost_per_hr(cores))
        })
        .collect()
}

/// Run the experiment.
#[must_use]
pub fn run() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig12",
        "vCPU scaling and $/Mtoken, Llama2-7B bf16 on EMR2 vs confidential H100",
        vec![
            Column::int("batch"),
            Column::int("cores"),
            Column::float("tdx_tps", Unit::TokensPerSec, 0),
            Column::pct("tdx_overhead"),
            Column::float("usd_per_mtok", Unit::UsdPerMtok, 3),
            Column::float("cgpu_usd_per_mtok", Unit::UsdPerMtok, 3),
        ],
    );
    for batch in BATCHES {
        let req = request(batch);
        let cgpu = cgpu_usd_per_mtok(&req);
        r.extend_rows(
            CORES
                .iter()
                .zip(tdx_cost_sweep(&req))
                .map(|(&cores, point)| {
                    vec![
                        Value::uint(batch),
                        Value::int(i64::from(cores)),
                        Value::float(point.tokens_per_s, Unit::TokensPerSec, 0),
                        Value::pct(tdx_overhead(cores, &req)),
                        Value::float(point.usd_per_mtok, Unit::UsdPerMtok, 3),
                        Value::float(cgpu, Unit::UsdPerMtok, 3),
                    ]
                }),
        );
    }
    r.note("paper: workload is compute-bound until ~32 cores, then memory-bound");
    r.note("paper: cGPUs are up to 100% more expensive at small batch; parity near batch 128");
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use cllm_cost::{cheapest_point, cost_advantage_pct};

    #[test]
    fn throughput_knee_near_32_cores() {
        // Figure 12: minimal gain above ~32 cores.
        let tps = |cores| scenario(cores, &request(64)).simulate().e2e_tps;
        let (t16, t32, t60) = (tps(16), tps(32), tps(60));
        assert!(t32 > 1.05 * t16, "still scaling into 32 cores");
        assert!(t60 < 1.15 * t32, "should flatten past 32 cores");
    }

    #[test]
    fn cost_curve_is_u_shaped() {
        // Memory dominates at low cores; throughput plateau raises cost at
        // high cores -> the cheapest point is interior.
        let sweep = tdx_cost_sweep(&request(64));
        let best = cheapest_point(&sweep).unwrap();
        assert!(
            best.x > CORES[0].into() && best.x <= 48,
            "valley at {} cores",
            best.x
        );
    }

    #[test]
    fn cpu_advantage_fades_with_batch() {
        // Paper: CPU TEEs up to ~100% cheaper at batch 1; parity around
        // batch 128.
        let adv = |batch| {
            let req = request(batch);
            let cpu_best = cheapest_point(&tdx_cost_sweep(&req)).unwrap().usd_per_mtok;
            cost_advantage_pct(cpu_best, cgpu_usd_per_mtok(&req))
        };
        let b1 = adv(1);
        let b64 = adv(64);
        let b128 = adv(128);
        assert!(b1 > 40.0, "batch-1 CPU advantage only {b1}%");
        assert!(b1 < 220.0, "batch-1 CPU advantage implausibly high: {b1}%");
        assert!(b64 < b1, "advantage must fade: b64 {b64} !< b1 {b1}");
        assert!(
            b128 < 35.0,
            "near-parity expected at batch 128, got {b128}%"
        );
        assert!(b128 < b64);
    }

    #[test]
    fn overheads_moderate_across_core_counts() {
        for cores in CORES {
            let ovh = tdx_overhead(cores, &request(64));
            assert!((2.0..14.0).contains(&ovh), "{cores} cores: {ovh}%");
        }
    }
}
