//! Paged-KV extension: the continuous-vs-static batching crossover under
//! TEE memory pressure. Every platform serves the same arrival trace
//! from a deliberately small KV page pool at three batch ceilings, under
//! four KV regimes: **static** batching (conservative reservation, batch
//! runs to completion), **conservative** continuous batching (reserve
//! the full prompt+output extent up front, never evict), **recompute**
//! (paged; drop a victim's pages on pressure, re-prefill at
//! readmission), and **swap** (paged; page the victim's KV out through
//! the platform's priced path — EPC paging on SGX, MEE-derated copies on
//! TDX, the CC bounce buffer on cGPU — and stall on swap-in).
//!
//! The SGX row runs with an EPC sized just above the weights, so paged
//! residency beyond the protected budget also pays the per-step paging
//! stall — the cliff the paper measures for CPU TEEs with bounded
//! protected memory.

use super::{Column, ExperimentResult, Unit, Value};
use crate::scenario::grid3;
use cllm_hw::DType;
use cllm_serve::faults::FaultPlan;
use cllm_serve::scheduler::{KvConfig, KvPolicy, SchedulerLimits};
use cllm_serve::sim::{simulate_serving_faulted, ServingConfig, ServingNode};
use cllm_serve::slo::percentile_of;
use cllm_serve::workload::ArrivalProcess;
use cllm_tee::platform::{CpuTeeConfig, TeeKind};
use cllm_workload::zoo;

/// Fixed arrival seed: the trace (and the golden snapshot) is pinned.
const SCHEDULE_SEED: u64 = 0xBA7C;

/// KV page-pool arena, bytes. Small on purpose: roughly ten full
/// prompt+output extents, so the conservative policy hits head-of-line
/// blocking well below the largest batch ceiling while paged admission
/// (prompt pages only) keeps filling the batch and must evict on growth.
const POOL_BYTES: f64 = 1.5 * cllm_hw::GIB;

/// Headroom the small-EPC SGX arm leaves above the streamed weights.
/// Less than the pool, so paged residency can overflow the protected
/// budget and price the per-step paging stall.
const SGX_KV_HEADROOM_BYTES: f64 = 0.75 * cllm_hw::GIB;

/// The platforms compared, in table order.
pub const PLATFORMS: [&str; 4] = ["bare-metal", "tdx", "sgx-small-epc", "cgpu-h100"];

/// The KV regimes compared, in table order.
pub const POLICIES: [&str; 4] = ["static", "conservative", "recompute", "swap"];

/// Batch ceilings swept per (platform, policy).
pub const BATCHES: [usize; 3] = [4, 12, 28];

/// SGX with the EPC shrunk to weights + [`SGX_KV_HEADROOM_BYTES`]: the
/// machine still loads the model, but KV residency is the scarce
/// resource (production EPCs fit Llama2-7B many times over; the small
/// arm reproduces the pressure regime at experiment scale).
fn sgx_small_epc() -> CpuTeeConfig {
    let mut tee = CpuTeeConfig::sgx();
    let weights = zoo::llama2_7b().weight_bytes(DType::Bf16);
    if let Some(sgx) = tee.sgx.as_mut() {
        sgx.epc_bytes = weights + SGX_KV_HEADROOM_BYTES;
    }
    tee
}

fn node_for(platform: &str) -> ServingNode {
    match platform {
        "bare-metal" => ServingNode::preset(TeeKind::BareMetal),
        "tdx" => ServingNode::preset(TeeKind::Tdx),
        "sgx-small-epc" => ServingNode::Cpu {
            tee: sgx_small_epc(),
        },
        "cgpu-h100" => ServingNode::preset(TeeKind::GpuCc),
        other => unreachable!("unknown platform {other}"),
    }
}

fn kv_for(policy: &str) -> KvConfig {
    match policy {
        "static" => KvConfig {
            static_batching: true,
            ..KvConfig::default()
        },
        "conservative" => KvConfig::default(),
        "recompute" => KvConfig {
            policy: KvPolicy::PagedRecompute,
            ..KvConfig::default()
        },
        "swap" => KvConfig {
            policy: KvPolicy::PagedSwap,
            ..KvConfig::default()
        },
        other => unreachable!("unknown policy {other}"),
    }
}

/// The shared serving configuration: decode-heavy shapes (outputs longer
/// than prompts) so the gap between reserving the full extent and
/// growing page-by-page is what the table measures.
#[must_use]
pub fn config(policy: &str, batch: usize) -> ServingConfig {
    ServingConfig {
        limits: SchedulerLimits {
            max_batch: batch,
            kv_budget_bytes: POOL_BYTES,
        },
        kv: kv_for(policy),
        arrivals: ArrivalProcess {
            rate_per_s: 6.0,
            prompt_range: (64, 128),
            output_range: (128, 256),
            seed: SCHEDULE_SEED,
        },
        duration_s: 20.0,
        ..ServingConfig::small_test()
    }
}

/// One fault-free run of the grid point.
#[must_use]
pub fn report_for(platform: &str, policy: &str, batch: usize) -> cllm_serve::slo::ServingReport {
    let cfg = config(policy, batch);
    simulate_serving_faulted(&cfg, &node_for(platform), &FaultPlan::none())
}

/// Smallest swept batch where paged-recompute out-delivers conservative
/// reservation by more than 2% goodput on `platform` — the batch-size
/// crossover the pool forces. `None` if conservative holds the sweep.
fn crossover_batch(rows: &[(String, String, usize, f64)], platform: &str) -> Option<usize> {
    BATCHES.into_iter().find(|&b| {
        let g = |policy: &str| {
            rows.iter()
                .find(|(pf, po, ba, _)| pf == platform && po == policy && *ba == b)
                .map_or(0.0, |&(_, _, _, g)| g)
        };
        g("recompute") > g("conservative") * 1.02
    })
}

/// Run the experiment.
#[must_use]
#[allow(clippy::cast_possible_wrap)] // counts are tiny (≤ arrivals in a 20 s trace)
pub fn run() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "batching_pressure",
        "Paged KV under TEE memory pressure: policies, preemption and the batching crossover",
        vec![
            Column::str("platform"),
            Column::str("policy"),
            Column::int("batch"),
            Column::int("completed"),
            Column::float("goodput_tps", Unit::TokensPerSec, 1),
            Column::float("ttft_p99_s", Unit::Seconds, 3),
            Column::int("preemptions"),
            Column::float("swap_gib", Unit::None, 2),
        ],
    );
    let grid = grid3(&PLATFORMS, &POLICIES, &BATCHES);
    let row = |&(platform, policy, batch): &(&str, &str, usize)| {
        let report = report_for(platform, policy, batch);
        assert_eq!(
            report.completed + report.aborted,
            report.arrivals,
            "conservation violated on {platform}/{policy}/b{batch}"
        );
        let ttft: Vec<f64> = report.records.iter().map(|rec| rec.ttft_s).collect();
        let ttft_p99 = if ttft.is_empty() {
            0.0
        } else {
            percentile_of(&ttft, 0.99)
        };
        vec![
            Value::str(platform),
            Value::str(policy),
            Value::int(batch as i64),
            Value::int(report.completed as i64),
            Value::float(report.goodput_tps, Unit::TokensPerSec, 1),
            Value::float(ttft_p99, Unit::Seconds, 3),
            Value::uint(report.preemptions),
            Value::float(
                (report.swap_out_bytes + report.swap_in_bytes) / cllm_hw::GIB,
                Unit::None,
                2,
            ),
        ]
    };
    let rows: Vec<Vec<Value>> = grid.iter().map(row).collect();
    // Crossover notes read the goodput cells back out of the rows.
    let goodputs: Vec<(String, String, usize, f64)> = grid
        .iter()
        .zip(&rows)
        .map(|(&(pf, po, ba), row)| {
            let g = match row[4] {
                Value::Float { value, .. } => value,
                _ => 0.0,
            };
            (pf.to_owned(), po.to_owned(), ba, g)
        })
        .collect();
    r.extend_rows(rows);
    for platform in PLATFORMS {
        match crossover_batch(&goodputs, platform) {
            Some(b) => r.note(format!(
                "{platform}: paged-recompute overtakes conservative reservation from batch {b}"
            )),
            None => r.note(format!(
                "{platform}: conservative reservation holds across the swept batches"
            )),
        }
    }
    r.note("pool fixed at 1.5 GiB; conservative admission reserves prompt+output up front, paged admission reserves prompt pages and grows page-by-page, evicting tail-first on pressure");
    r.note("sgx-small-epc shrinks the EPC to weights + 0.75 GiB, so paged residency past the protected budget pays the per-step EPC paging stall and swap evictions pay the paging path");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_and_determinism_hold_per_policy() {
        for policy in POLICIES {
            let a = report_for("tdx", policy, 12);
            let b = report_for("tdx", policy, 12);
            assert_eq!(a, b, "{policy}: nondeterministic");
            assert_eq!(a.completed + a.aborted, a.arrivals, "{policy}");
            assert_eq!(a.aborted, 0, "{policy}: fault-free run must not abort");
        }
    }

    #[test]
    fn conservative_arms_never_preempt_or_swap() {
        for policy in ["static", "conservative"] {
            let r = report_for("tdx", policy, 28);
            assert_eq!(r.preemptions, 0, "{policy}");
            assert_eq!(r.swap_out_bytes, 0.0, "{policy}");
            assert_eq!(r.swap_in_bytes, 0.0, "{policy}");
        }
    }

    #[test]
    fn pool_pressure_forces_preemptions_at_wide_batch() {
        // 28 sequences of decode-heavy growth cannot hold 1.5 GiB of
        // pages: both paged policies must evict, and only the swap
        // policy moves bytes.
        for policy in ["recompute", "swap"] {
            let r = report_for("tdx", policy, 28);
            assert!(r.preemptions > 0, "{policy}: no pressure at batch 28");
        }
        let swap = report_for("tdx", "swap", 28);
        assert!(swap.swap_out_bytes > 0.0);
        assert!(swap.swap_in_bytes > 0.0);
        let recompute = report_for("tdx", "recompute", 28);
        assert_eq!(recompute.swap_out_bytes, 0.0);
    }

    #[test]
    fn paged_beats_conservative_at_the_wide_end() {
        // The crossover the experiment exists to show: with the pool an
        // order of magnitude under 28 full extents, conservative
        // reservation head-of-line blocks while paged admission keeps
        // the batch full.
        let conservative = report_for("tdx", "conservative", 28);
        let paged = report_for("tdx", "recompute", 28);
        assert!(
            paged.goodput_tps > conservative.goodput_tps,
            "paged {} <= conservative {}",
            paged.goodput_tps,
            conservative.goodput_tps
        );
    }

    #[test]
    fn static_batching_trails_continuous() {
        let fixed = report_for("tdx", "static", 12);
        let cont = report_for("tdx", "conservative", 12);
        assert!(
            fixed.goodput_tps <= cont.goodput_tps * 1.001,
            "static {} beats continuous {}",
            fixed.goodput_tps,
            cont.goodput_tps
        );
    }

    #[test]
    fn table_covers_the_full_grid() {
        let r = run();
        assert_eq!(
            r.rows.len(),
            PLATFORMS.len() * POLICIES.len() * BATCHES.len()
        );
    }
}
