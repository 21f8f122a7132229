//! Flash-crowd survival: can an attestation-aware autoscaler absorb a
//! sudden 10x traffic burst on each confidential platform, and what do
//! warm pools and brownout degradation buy?
//!
//! Each platform (SGX socket, TDX socket, confidential H100) faces the
//! *same shaped* flash crowd — a diurnal baseline with seeded burst
//! windows and a free/standard/premium tier mix from
//! `cllm_workload::trace` — with the offered rate sized to its
//! steady-state capacity, under three operating modes:
//!
//! * **cold** — scale-ups rent fresh capacity that must pay the full
//!   secure boot before joining routing: a real attested handshake
//!   through `cllm_tee::session` plus the platform-priced weight
//!   unseal. The burst lands while the new nodes are still booting.
//! * **warm** — a pre-attested warm pool stands by at carrying cost;
//!   scale-ups promote instantly and the cold-start toll disappears
//!   from the TTFT tail (but the idle pool appears on the bill).
//! * **brownout** — no extra capacity at all; instead the fleet trims
//!   output length under deep queues (degraded answers beat shed
//!   users) while tiered admission sheds free traffic first.
//!
//! The table reports the three terminal states (conservation is
//! `completed + shed + aborted == arrivals`), the cold-start count and
//! seconds paid, the burst-window p99 TTFT (requests that arrived
//! *inside* a burst), per-tier SLO attainment for premium vs free, and
//! the effective $/Mtok on delivered goodput — rental, warm-pool
//! carrying cost and base fleet included.

use super::{Column, ExperimentResult, Unit, Value};
use cllm_cost::SpillPenalty;
use cllm_serve::autoscale::{
    simulate_autoscale, AutoscaleConfig, AutoscaleReport, ControllerConfig, RentalSpec,
};
use cllm_serve::cluster::NodeSpec;
use cllm_serve::faults::FaultRates;
use cllm_serve::router::{BreakerConfig, BrownoutConfig, RetryBudget, TieredAdmission};
use cllm_serve::sim::{ServingConfig, ServingNode};
use cllm_tee::platform::TeeKind;
use cllm_workload::trace::{Tier, TrafficModel};

/// Fixed seed for the traffic trace and rental fault schedules: every
/// run pins the same crowd, so the table is golden-stable.
const TRAFFIC_SEED: u64 = 9;

/// Simulated horizon. Long enough for bursts to land, scale-ups to
/// boot, and drained scale-downs to complete inside the window.
const HORIZON_S: f64 = 90.0;

/// Burst multiplier: the flash crowd is 10x the diurnal baseline.
const BURST_MULT: f64 = 10.0;

/// Platforms compared, in table order.
pub const PLATFORMS: [&str; 3] = ["sgx", "tdx", "cgpu"];

/// Operating modes compared for each platform, in table order.
pub const MODES: [&str; 3] = ["cold", "warm", "brownout"];

/// Rental cap for the reactive controller (and the warm-pool size in
/// `warm` mode, so every scale-up there is a promotion).
const MAX_RENTED: usize = 4;

/// Baseline offered rate, sized to each platform's steady-state
/// capacity so the 10x burst is a comparable *relative* shock — the
/// paper's normalization: SGX serves a fraction of TDX throughput, and
/// the confidential H100 an order of magnitude more.
fn rate_for(platform: &str) -> f64 {
    match platform {
        "sgx" => 0.6,
        "tdx" => 2.0,
        "cgpu" => 8.0,
        other => panic!("unknown platform {other:?}"),
    }
}

/// The autoscaler configuration for one `(platform, mode)` arm.
///
/// # Panics
///
/// Panics on an unknown platform or mode id.
#[must_use]
pub fn config_for(platform: &str, mode: &str) -> AutoscaleConfig {
    let kind =
        TeeKind::from_name(platform).unwrap_or_else(|| panic!("unknown platform {platform:?}"));
    let node = ServingNode::preset(kind);
    let serving = ServingConfig {
        duration_s: HORIZON_S,
        ..ServingConfig::small_test()
    };
    let mut traffic = TrafficModel::flash_crowd(rate_for(platform), BURST_MULT, TRAFFIC_SEED);
    // Production burst cadence is ~30/hr; the 90 s horizon needs a
    // denser schedule so bursts actually land inside the window.
    traffic.bursts.bursts_per_hr = 240.0;
    traffic.bursts.window_s = 15.0;
    // Hourly price anchors: GCP CPU rates for the TEE sockets, Azure
    // NCC H100 for the confidential GPU (same as `cluster_resilience`).
    let base_price = node.price_per_hr(&serving);
    let (warm_pool, brownout) = match mode {
        "cold" => (0, None),
        // Deeper than the rental cap: scale-down churn (drain, then a
        // later burst re-scales up) draws fresh standbys, and the warm
        // arm should stay warm through it.
        "warm" => (3 * MAX_RENTED, None),
        "brownout" => (
            0,
            // Demo-scale thresholds: the production default (enter at
            // 256 queued) never trips against these small fleets.
            Some(BrownoutConfig {
                enter_depth: 48,
                exit_depth: 16,
                output_cap_tokens: 32,
            }),
        ),
        other => panic!("unknown mode {other:?}"),
    };
    AutoscaleConfig {
        serving,
        traffic,
        base_fleet: vec![NodeSpec::new(node.clone(), false, FaultRates::none(), 1)],
        base_price_per_hr: base_price,
        rental: RentalSpec {
            node,
            rates: FaultRates::none(),
            // Remote-attestation round trip before the unseal; the
            // weight unseal itself is priced by the platform.
            attest_s: 0.5,
            // On-demand surge capacity carries a premium over the
            // reserved base socket.
            price_per_hr: base_price * 1.5,
            seed: 77,
        },
        warm_pool,
        controller: ControllerConfig {
            control_interval_s: 2.0,
            max_rented: if mode == "brownout" { 0 } else { MAX_RENTED },
            ..ControllerConfig::default()
        },
        tiers: TieredAdmission::default(),
        retry: RetryBudget::default(),
        brownout,
        breaker: BreakerConfig::default(),
        spill: SpillPenalty::cross_platform(),
    }
}

/// The autoscaler report for one `(platform, mode)` arm.
#[must_use]
pub fn report_for(platform: &str, mode: &str) -> AutoscaleReport {
    simulate_autoscale(&config_for(platform, mode))
}

/// Run the experiment.
#[must_use]
#[allow(clippy::cast_possible_wrap)] // counts are tiny (≤ arrivals in a 90 s trace)
pub fn run() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "flash_crowd",
        "Flash-crowd survival per platform: cold scale-up vs warm pool vs brownout",
        vec![
            Column::str("arm"),
            Column::int("completed"),
            Column::int("shed"),
            Column::int("aborted"),
            Column::int("cold_starts"),
            Column::float("cold_start_s", Unit::Seconds, 2),
            Column::float("ttft_p99_burst_s", Unit::Seconds, 3),
            Column::pct("slo_premium"),
            Column::pct("slo_free"),
            Column::float("goodput_tps", Unit::TokensPerSec, 1),
            Column::float("usd_per_mtok", Unit::UsdPerMtok, 3),
        ],
    );
    let arms: Vec<(&str, &str)> = PLATFORMS
        .iter()
        .flat_map(|&p| MODES.iter().map(move |&m| (p, m)))
        .collect();
    r.extend_rows(arms.iter().map(|&(platform, mode)| {
        let report = report_for(platform, mode);
        assert_eq!(
            report.completed + report.shed + report.aborted,
            report.arrivals,
            "autoscale conservation violated on {platform}-{mode}"
        );
        let premium = &report.tiers[Tier::Premium.index()];
        let free = &report.tiers[Tier::Free.index()];
        vec![
            Value::str(format!("{platform}-{mode}")),
            Value::int(report.completed as i64),
            Value::int(report.shed as i64),
            Value::int(report.aborted as i64),
            Value::int(report.cold_starts as i64),
            Value::float(report.cold_start_s, Unit::Seconds, 2),
            Value::float(report.ttft_p99_burst_s, Unit::Seconds, 3),
            Value::pct(premium.slo_attainment() * 100.0),
            Value::pct(free.slo_attainment() * 100.0),
            Value::float(report.goodput_tps, Unit::TokensPerSec, 1),
            Value::float(report.usd_per_mtok, Unit::UsdPerMtok, 3),
        ]
    }));
    r.note("same crowd shape (diurnal + 10x seeded bursts, free/standard/premium mix) per platform, rate sized to steady-state capacity; conservation is completed + shed + aborted == arrivals");
    r.note("cold scale-ups pay a real attested handshake via cllm_tee::session plus the platform-priced weight unseal before joining routing; warm promotes a pre-attested pool at carrying cost");
    r.note("brownout rents nothing and trims output length under deep queues while tiered admission sheds free traffic first; $/Mtok includes rental, warm-pool carrying and base-fleet cost over delivered tokens");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_holds_on_every_arm() {
        for platform in PLATFORMS {
            for mode in MODES {
                let r = report_for(platform, mode);
                assert_eq!(
                    r.completed + r.shed + r.aborted,
                    r.arrivals,
                    "{platform}-{mode}: {} + {} + {} != {}",
                    r.completed,
                    r.shed,
                    r.aborted,
                    r.arrivals
                );
                assert!(r.arrivals > 0, "{platform}-{mode}: empty trace");
            }
        }
    }

    #[test]
    fn cold_mode_pays_the_secure_boot_toll() {
        for platform in PLATFORMS {
            let r = report_for(platform, "cold");
            assert!(
                r.cold_starts > 0,
                "{platform}-cold: the burst must force rented capacity"
            );
            assert!(r.cold_start_s > 0.0);
            assert!(r.unseal_s > 0.0, "{platform}-cold: weight unseal is paid");
        }
    }

    #[test]
    fn warm_pool_eliminates_cold_starts() {
        for platform in PLATFORMS {
            let warm = report_for(platform, "warm");
            assert_eq!(
                warm.cold_starts, 0,
                "{platform}-warm: a full pool must absorb every scale-up"
            );
            assert!(
                warm.warm_promotions > 0,
                "{platform}-warm: the burst must promote warm nodes"
            );
            // Carrying cost: promoted standbys bill as rentals from
            // t=0 (readiness was bought before the crowd arrived);
            // never-promoted standbys bill the whole horizon as pool.
            assert!(
                warm.rental_cost_usd > 0.0,
                "{platform}-warm: promoted standbys bill from time zero"
            );
            if (warm.warm_promotions as usize) < 3 * MAX_RENTED {
                assert!(
                    warm.warm_pool_cost_usd > 0.0,
                    "{platform}-warm: idle standbys must carry a cost"
                );
            }
        }
    }

    #[test]
    fn brownout_trims_instead_of_renting() {
        for platform in PLATFORMS {
            let r = report_for(platform, "brownout");
            assert_eq!(r.scale_ups, 0, "{platform}-brownout rents nothing");
            assert!(
                r.brownout_activations > 0,
                "{platform}-brownout: deep queues must trip degradation"
            );
            assert!(r.tokens_trimmed > 0);
        }
    }

    #[test]
    fn shedding_protects_premium_over_free() {
        for platform in PLATFORMS {
            for mode in MODES {
                let r = report_for(platform, mode);
                let shed_frac = |t: Tier| {
                    let tr = &r.tiers[t.index()];
                    if tr.arrivals == 0 {
                        0.0
                    } else {
                        tr.shed as f64 / tr.arrivals as f64
                    }
                };
                assert!(
                    shed_frac(Tier::Premium) <= shed_frac(Tier::Free) + 1e-12,
                    "{platform}-{mode}: premium shed fraction {} > free {}",
                    shed_frac(Tier::Premium),
                    shed_frac(Tier::Free)
                );
            }
        }
    }

    #[test]
    fn table_has_one_row_per_arm_and_is_deterministic() {
        let a = run();
        assert_eq!(a.rows.len(), PLATFORMS.len() * MODES.len());
        let b = run();
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
    }
}
