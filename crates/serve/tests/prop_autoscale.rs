//! Property tests on the attestation-aware autoscaler: conservation of
//! every arrival into exactly one terminal state, retry-budget
//! liveness, billing identities, and byte-determinism of the whole
//! report across runner-thread settings.

use cllm_cost::SpillPenalty;
use cllm_serve::autoscale::{simulate_autoscale, AutoscaleConfig, ControllerConfig, RentalSpec};
use cllm_serve::cluster::NodeSpec;
use cllm_serve::faults::FaultRates;
use cllm_serve::router::{BreakerConfig, BrownoutConfig, RetryBudget, TieredAdmission};
use cllm_serve::sim::{ServingConfig, ServingNode};
use cllm_tee::platform::CpuTeeConfig;
use cllm_workload::trace::{LognormalLen, Tier, TierMix, TrafficModel};
use proptest::prelude::*;

fn tdx() -> ServingNode {
    ServingNode::Cpu {
        tee: CpuTeeConfig::tdx(),
    }
}

#[allow(clippy::too_many_arguments)]
fn build_cfg(
    rate: f64,
    multiplier: f64,
    bursts_per_hr: f64,
    amplitude: f64,
    mix: (f64, f64, f64),
    traffic_seed: u64,
    crashes_per_hr: f64,
    warm_pool: usize,
    max_rented: usize,
    brownout: bool,
    retry: RetryBudget,
) -> AutoscaleConfig {
    let mut traffic = TrafficModel::flash_crowd(rate, multiplier, traffic_seed);
    traffic.bursts.bursts_per_hr = bursts_per_hr;
    traffic.bursts.window_s = 8.0;
    traffic.diurnal_amplitude = amplitude;
    traffic.mix = TierMix {
        free: mix.0,
        standard: mix.1,
        premium: mix.2,
    };
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
    let rates = FaultRates {
        enclave_crashes_per_hr: crashes_per_hr,
        ..FaultRates::none()
    };
    AutoscaleConfig {
        serving: ServingConfig {
            duration_s: 15.0,
            ..ServingConfig::small_test()
        },
        traffic,
        base_fleet: vec![NodeSpec::new(tdx(), false, rates, 1)],
        base_price_per_hr: 3.0,
        rental: RentalSpec {
            node: tdx(),
            rates,
            price_per_hr: 4.0,
            attest_s: 0.5,
            seed: 77,
        },
        warm_pool,
        controller: ControllerConfig {
            control_interval_s: 1.0,
            max_rented,
            ..ControllerConfig::default()
        },
        tiers: TieredAdmission::default(),
        retry,
        brownout: brownout.then_some(BrownoutConfig {
            enter_depth: 12,
            exit_depth: 4,
            output_cap_tokens: 8,
        }),
        breaker: BreakerConfig::default(),
        spill: SpillPenalty::cross_platform(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Across random traffic shapes, tier mixes, fault intensities and
    /// controller bounds: every arrival ends in exactly one terminal
    /// state, per-tier slices tile the totals, the scale-up ledger
    /// balances, and billing identities hold.
    #[test]
    fn autoscale_conservation_under_random_crowds(
        rate in 0.5f64..4.0,
        multiplier in 1.0f64..12.0,
        bursts_per_hr in 0.0f64..400.0,
        amplitude in 0.0f64..0.5,
        free_w in 0.1f64..1.0,
        standard_w in 0.1f64..1.0,
        premium_w in 0.05f64..0.5,
        traffic_seed in 0u64..40,
        crashes_per_hr in 0.0f64..600.0,
        warm_pool in 0usize..3,
        max_rented in 0usize..4,
        brownout_bit in 0u32..2,
    ) {
        let cfg = build_cfg(
            rate, multiplier, bursts_per_hr, amplitude,
            (free_w, standard_w, premium_w), traffic_seed,
            crashes_per_hr, warm_pool, max_rented, brownout_bit == 1,
            RetryBudget::default(),
        );
        let r = simulate_autoscale(&cfg);
        prop_assert_eq!(
            r.completed + r.aborted + r.shed,
            r.arrivals,
            "lost requests: {} + {} + {} != {}",
            r.completed, r.aborted, r.shed, r.arrivals
        );
        prop_assert_eq!(r.completed, r.records.len());
        for (label, total, per_tier) in [
            ("arrivals", r.arrivals, r.tiers.map(|t| t.arrivals)),
            ("completed", r.completed, r.tiers.map(|t| t.completed)),
            ("shed", r.shed, r.tiers.map(|t| t.shed)),
            ("aborted", r.aborted, r.tiers.map(|t| t.aborted)),
        ] {
            prop_assert_eq!(total, per_tier.iter().sum::<usize>(), "tier slices of {} must tile", label);
        }
        for t in Tier::ALL {
            let tr = &r.tiers[t.index()];
            prop_assert!(tr.slo_met <= tr.completed);
            let a = tr.slo_attainment();
            prop_assert!((0.0..=1.0).contains(&a));
        }
        // Scale-up ledger: every decision is a promotion or a cold
        // start, promotions never exceed the pool, and the horizon
        // clamp bounds the cold-start bill.
        prop_assert_eq!(r.scale_ups, r.warm_promotions + r.cold_starts);
        prop_assert!(r.warm_promotions as usize <= warm_pool);
        let boot_s = cfg.rental.attest_s + cfg.rental.node.weight_unseal_time_s(&cfg.serving);
        prop_assert!(r.cold_start_s <= r.cold_starts as f64 * boot_s + 1e-9);
        prop_assert!(r.unseal_s <= r.cold_start_s + 1e-9);
        // Billing identities.
        prop_assert!(r.rental_cost_usd >= 0.0 && r.warm_pool_cost_usd >= 0.0);
        let total = r.rental_cost_usd + r.warm_pool_cost_usd + r.base_cost_usd;
        prop_assert!((r.total_cost_usd - total).abs() < 1e-9);
        prop_assert!(r.usd_per_mtok.is_finite() && r.usd_per_mtok >= 0.0);
        prop_assert!(r.makespan_s.is_finite());
        for rec in &r.records {
            prop_assert!(rec.ttft_s > 0.0 && rec.e2e_s >= rec.ttft_s, "id {}", rec.id);
        }
    }

    /// Retry-budget liveness: whatever the budget, the run terminates
    /// with conservation intact, no surviving record exceeds the
    /// per-request cap, and a zero budget means zero retries.
    #[test]
    fn retry_budget_is_always_respected(
        per_request in 0u32..4,
        storm_max in 1usize..64,
        crashes_per_hr in 100.0f64..900.0,
        traffic_seed in 0u64..40,
    ) {
        let retry = RetryBudget {
            per_request,
            storm_window_s: 10.0,
            storm_max_retries: storm_max,
        };
        let cfg = build_cfg(
            2.0, 1.0, 0.0, 0.2, (0.7, 0.25, 0.05), traffic_seed,
            crashes_per_hr, 0, 0, false, retry,
        );
        let r = simulate_autoscale(&cfg);
        prop_assert_eq!(r.completed + r.aborted + r.shed, r.arrivals);
        for rec in &r.records {
            prop_assert!(
                rec.retries <= per_request,
                "record {} retried {} times past a budget of {}",
                rec.id, rec.retries, per_request
            );
        }
        if per_request == 0 {
            prop_assert_eq!(r.retries, 0, "a zero budget must suppress every retry");
        }
    }
}

/// The autoscaler is single-threaded and seed-driven: its report must
/// serialize to identical bytes run-to-run.
#[test]
fn autoscale_report_bytes_are_identical_run_to_run() {
    let cfg = build_cfg(
        3.0,
        8.0,
        360.0,
        0.25,
        (0.7, 0.25, 0.05),
        9,
        300.0,
        1,
        4,
        true,
        RetryBudget::default(),
    );
    let run = || serde_json::to_string_pretty(simulate_autoscale(&cfg)).expect("serializes");
    assert_eq!(run(), run(), "autoscale report bytes differ between runs");
}
