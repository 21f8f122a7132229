//! Cloud pricing model and cost-per-token analysis.
//!
//! Section V-D2 evaluates the cost of confidential inference using GCP
//! spot prices (US-East-1) for CPU machines — where vCPU count and memory
//! are priced separately — against Azure's confidential H100 instances.
//! The paper's findings this crate reproduces:
//!
//! * Memory dominates rental cost at low core counts; the $/Mtoken curve
//!   is U-shaped in the number of vCPUs (Figure 12).
//! * cGPUs are up to ~100% more expensive per token at small batches; the
//!   advantage fades and equalizes around batch 128 (Figure 12).
//! * CPU TEEs are much more sensitive to input size than cGPUs: doubling
//!   the input can flip an 86% cost advantage to -10% (Figure 13).
//!
//! # Example
//!
//! ```
//! use cllm_cost::{CpuPricing, cost_per_mtok};
//!
//! let gcp = CpuPricing::gcp_spot_us_east1();
//! let hourly = gcp.instance_cost_per_hr(32, 128.0);
//! let price = cost_per_mtok(hourly, 700.0); // $ per 1M tokens at 700 tok/s
//! assert!(price > 0.0 && price < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

/// Per-resource CPU machine pricing (vCPU and memory priced separately,
/// as GCP custom machine types allow).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuPricing {
    /// Dollars per vCPU-hour.
    pub per_vcpu_hr: f64,
    /// Dollars per GiB-hour of memory.
    pub per_gib_hr: f64,
}

impl CpuPricing {
    /// GCP spot prices for Emerald-Rapids-class machines in US-East-1
    /// (the paper's setting).
    #[must_use]
    pub fn gcp_spot_us_east1() -> Self {
        CpuPricing {
            per_vcpu_hr: 0.0105,
            per_gib_hr: 0.0013,
        }
    }

    /// A Sapphire-Rapids-class alternative: "an almost 2x cheaper Sapphire
    /// Rapid performing up to 40% worse" (Section V-D2).
    #[must_use]
    pub fn gcp_spot_spr() -> Self {
        CpuPricing {
            per_vcpu_hr: 0.0057,
            per_gib_hr: 0.0013,
        }
    }

    /// Hourly cost of an instance with `vcpus` vCPUs and `mem_gib` GiB.
    #[must_use]
    pub fn instance_cost_per_hr(&self, vcpus: u32, mem_gib: f64) -> f64 {
        f64::from(vcpus) * self.per_vcpu_hr + mem_gib * self.per_gib_hr
    }
}

/// GiB of memory rented with each CPU socket: the paper found 128 GiB
/// enough for Llama2-7B in every case it shows, and held it constant.
pub const SOCKET_MEMORY_GIB: f64 = 128.0;

/// Hourly price of one CPU socket with `cores` physical cores at
/// [`CpuPricing::gcp_spot_us_east1`] rates: two vCPUs per core (GCP bills
/// hyperthreads) and [`SOCKET_MEMORY_GIB`] of memory. Figures 12 and 13,
/// the §V-D planner and every simulated CPU node rent this shape.
#[must_use]
pub fn socket_cost_per_hr(cores: u32) -> f64 {
    CpuPricing::gcp_spot_us_east1().instance_cost_per_hr(cores * 2, SOCKET_MEMORY_GIB)
}

/// Fixed-shape GPU instance pricing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuPricing {
    /// Dollars per hour for the whole instance.
    pub per_hr: f64,
}

impl GpuPricing {
    /// Azure `NCCads_H100_v5` (confidential H100 NVL + 40 vCPU host).
    #[must_use]
    pub fn azure_ncc_h100() -> Self {
        GpuPricing { per_hr: 6.98 }
    }

    /// Azure `NCads_H100_v5` (non-confidential twin).
    #[must_use]
    pub fn azure_nc_h100() -> Self {
        GpuPricing { per_hr: 6.73 }
    }
}

/// Dollars to generate one million tokens at a sustained throughput.
///
/// Returns `f64::INFINITY` when throughput is not positive.
#[must_use]
pub fn cost_per_mtok(cost_per_hr: f64, tokens_per_s: f64) -> f64 {
    if tokens_per_s <= 0.0 {
        return f64::INFINITY;
    }
    cost_per_hr / (tokens_per_s * 3600.0) * 1.0e6
}

/// Relative cost advantage of `ours` versus `theirs`, in percent:
/// `+100` means `theirs` costs twice as much per token.
#[must_use]
pub fn cost_advantage_pct(ours: f64, theirs: f64) -> f64 {
    (theirs / ours - 1.0) * 100.0
}

/// On-premises total-cost-of-ownership model: the paper lists hardware
/// list prices (Xeon 6530 $2,130, Platinum 8580 $10,710, H100 NVL
/// ~$30,000), which invite the classic rent-vs-buy comparison for
/// sustained confidential workloads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnPremCost {
    /// Hardware purchase price, USD (CPUs/GPUs + host share).
    pub capex_usd: f64,
    /// Amortization horizon in years.
    pub years: f64,
    /// Average power draw under load, watts.
    pub power_w: f64,
    /// Datacenter power-usage effectiveness multiplier.
    pub pue: f64,
    /// Electricity price, USD per kWh.
    pub usd_per_kwh: f64,
    /// Yearly operations overhead as a fraction of capex (space,
    /// maintenance, staff share).
    pub opex_fraction: f64,
}

impl OnPremCost {
    /// A dual-socket EMR2 server (2x Platinum 8580 + chassis/DRAM).
    #[must_use]
    pub fn emr2_server() -> Self {
        OnPremCost {
            capex_usd: 2.0 * 10_710.0 + 12_000.0,
            years: 4.0,
            power_w: 900.0,
            pue: 1.3,
            usd_per_kwh: 0.11,
            opex_fraction: 0.08,
        }
    }

    /// An H100 NVL server share (card + 1/4 of an 8-way host).
    #[must_use]
    pub fn h100_server_share() -> Self {
        OnPremCost {
            capex_usd: 30_000.0 + 10_000.0,
            years: 4.0,
            power_w: 700.0,
            pue: 1.3,
            usd_per_kwh: 0.11,
            opex_fraction: 0.08,
        }
    }

    /// Effective cost per hour of continuous operation.
    #[must_use]
    pub fn cost_per_hr(&self) -> f64 {
        let hours = self.years * 365.25 * 24.0;
        let amortized = self.capex_usd * (1.0 + self.opex_fraction * self.years) / hours;
        let energy = self.power_w / 1000.0 * self.pue * self.usd_per_kwh;
        amortized + energy
    }

    /// Utilization (0..=1] below which renting at `cloud_per_hr` beats
    /// owning: own-cost is fixed; rent scales with use.
    ///
    /// Returns 1.0 if owning never wins (cloud cheaper even at 100%).
    #[must_use]
    pub fn break_even_utilization(&self, cloud_per_hr: f64) -> f64 {
        if cloud_per_hr <= 0.0 {
            return 1.0;
        }
        (self.cost_per_hr() / cloud_per_hr).min(1.0)
    }
}

/// Spot-instance interruption assumptions behind the paper's prices.
///
/// The Table 1 / Insight 12 cost story is built on *spot* prices, and
/// spot capacity is reclaimable: GCP preempts Spot VMs with a 30-second
/// notice, Azure evicts Spot instances on capacity pressure. A serving
/// deployment on those instances therefore pays a reliability tax —
/// lost KV caches, re-attestation, re-queued requests — that the
/// steady-state $/Mtoken numbers hide. These parameters feed the
/// `cllm-serve` fault injector so the tax can be simulated rather than
/// assumed away.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpotParams {
    /// Mean preemptions per instance-hour (exponential interarrivals).
    pub preemptions_per_hr: f64,
    /// Advance warning the provider gives before reclaiming, seconds
    /// (GCP: 30 s; too short to drain a long decode batch).
    pub notice_s: f64,
}

impl SpotParams {
    /// GCP Spot VM assumptions matching [`CpuPricing::gcp_spot_us_east1`]:
    /// a few-percent hourly reclaim probability in a busy region.
    #[must_use]
    pub fn gcp_spot() -> Self {
        SpotParams {
            preemptions_per_hr: 0.05,
            notice_s: 30.0,
        }
    }

    /// Azure Spot assumptions for the confidential H100 instances
    /// ([`GpuPricing::azure_ncc_h100`]); scarce cGPU capacity is
    /// reclaimed more aggressively than commodity CPU machines.
    #[must_use]
    pub fn azure_spot_gpu() -> Self {
        SpotParams {
            preemptions_per_hr: 0.08,
            notice_s: 30.0,
        }
    }

    /// Reserved/on-demand capacity: never preempted.
    #[must_use]
    pub fn reserved() -> Self {
        SpotParams {
            preemptions_per_hr: 0.0,
            notice_s: 0.0,
        }
    }

    /// Mean preemptions per second — the rate the fault injector's
    /// exponential interarrival sampler consumes.
    #[must_use]
    pub fn preemptions_per_s(&self) -> f64 {
        self.preemptions_per_hr / 3600.0
    }
}

/// The toll a request pays when failover re-plans it on a *different
/// platform class* than the one that lost it (cGPU → CPU TEE or back).
///
/// The paper's CPU-vs-GPU comparison runs the same model at different
/// dtypes and kernel paths per platform, so a spilled request cannot
/// reuse anything: its prompt must be re-processed under the target's
/// dtype (weights there are laid out for AMX/int8 tiles, not cuBLAS
/// bf16), and the KV cache it lost was in the wrong layout anyway. The
/// cluster simulator charges `requant_s` once at re-admission and
/// stretches the repeated prefill by `prefill_factor`; the resulting
/// goodput loss is then priced through [`cost_per_mtok`] like any other
/// downtime, which is how the spill shows up in effective $/Mtoken.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpillPenalty {
    /// One-time dtype/layout conversion charged at re-admission on the
    /// foreign platform, seconds.
    pub requant_s: f64,
    /// Multiplier on the repeated prefill: the foreign platform runs the
    /// prompt under its own dtype path, without the warm caches the
    /// origin had.
    pub prefill_factor: f64,
}

impl SpillPenalty {
    /// No penalty: spilling is free (same-platform failover).
    #[must_use]
    pub fn none() -> Self {
        SpillPenalty {
            requant_s: 0.0,
            prefill_factor: 1.0,
        }
    }

    /// Default cross-platform toll for cGPU ↔ CPU-TEE spills: ~half a
    /// second of weight/KV-layout conversion plus a 25% slower repeated
    /// prefill on the foreign dtype path.
    #[must_use]
    pub fn cross_platform() -> Self {
        SpillPenalty {
            requant_s: 0.5,
            prefill_factor: 1.25,
        }
    }

    /// Whether the penalty is exactly free.
    #[must_use]
    pub fn is_free(&self) -> bool {
        self.requant_s == 0.0 && self.prefill_factor == 1.0
    }
}

/// Dollars per million tokens when the instance is only `availability`
/// (0..=1] of the time able to generate: rent accrues over wall-clock
/// time, tokens only over uptime.
///
/// Returns `f64::INFINITY` when throughput or availability is not
/// positive. With `availability == 1.0` this is exactly
/// [`cost_per_mtok`].
#[must_use]
pub fn availability_adjusted_cost_per_mtok(
    cost_per_hr: f64,
    tokens_per_s: f64,
    availability: f64,
) -> f64 {
    if availability <= 0.0 {
        return f64::INFINITY;
    }
    cost_per_mtok(cost_per_hr, tokens_per_s * availability.min(1.0))
}

/// Billing for fleet nodes rented by an autoscaler: on-demand nodes
/// accrue from rent start to retirement (cold start, drain and all —
/// the attestation + unseal window is billed even though it serves
/// nothing), warm-standby nodes accrue carrying cost for their entire
/// standby life whether or not they are ever promoted.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RentalBill {
    /// Instance price, dollars/hour.
    pub price_per_hr: f64,
}

impl RentalBill {
    /// Rent for one node alive `lifetime_s` seconds (clamped at 0).
    #[must_use]
    pub fn node_cost_usd(&self, lifetime_s: f64) -> f64 {
        self.price_per_hr * lifetime_s.max(0.0) / 3600.0
    }

    /// Carrying cost of `standby` pre-attested warm nodes held for
    /// `horizon_s` seconds. Warm pools trade this steady burn for
    /// skipping the attestation + unseal toll at promotion time.
    #[must_use]
    pub fn warm_pool_cost_usd(&self, standby: usize, horizon_s: f64) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let n = standby as f64;
        n * self.node_cost_usd(horizon_s)
    }
}

/// One point of a cost sweep (Figures 12/13).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostPoint {
    /// Sweep coordinate (vCPUs for Figure 12, input tokens for Figure 13).
    pub x: u64,
    /// Throughput at this point, tokens/second.
    pub tokens_per_s: f64,
    /// Instance cost, dollars/hour.
    pub cost_per_hr: f64,
    /// Dollars per million tokens.
    pub usd_per_mtok: f64,
}

impl CostPoint {
    /// Build a point from throughput and hourly price.
    #[must_use]
    pub fn new(x: u64, tokens_per_s: f64, cost_per_hr: f64) -> Self {
        CostPoint {
            x,
            tokens_per_s,
            cost_per_hr,
            usd_per_mtok: cost_per_mtok(cost_per_hr, tokens_per_s),
        }
    }
}

/// Find the sweep coordinate with the lowest $/Mtoken.
#[must_use]
pub fn cheapest_point(points: &[CostPoint]) -> Option<&CostPoint> {
    points
        .iter()
        .min_by(|a, b| a.usd_per_mtok.partial_cmp(&b.usd_per_mtok).expect("no NaN"))
}

/// Find the first sweep coordinate at which `a` stops being cheaper than
/// `b` (the Figure 12 "equalization" batch size). Points must share x
/// coordinates in order.
#[must_use]
pub fn crossover_x(a: &[CostPoint], b: &[CostPoint]) -> Option<u64> {
    a.iter()
        .zip(b)
        .find(|(pa, pb)| pa.usd_per_mtok >= pb.usd_per_mtok)
        .map(|(pa, _)| pa.x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_cost_linear() {
        let p = CpuPricing::gcp_spot_us_east1();
        let base = p.instance_cost_per_hr(16, 128.0);
        let double_cpu = p.instance_cost_per_hr(32, 128.0);
        assert!(double_cpu > base);
        assert!((double_cpu - base - 16.0 * p.per_vcpu_hr).abs() < 1e-12);
    }

    #[test]
    fn a_socket_rents_two_vcpus_per_core_and_128_gib() {
        let p = CpuPricing::gcp_spot_us_east1();
        assert_eq!(socket_cost_per_hr(60), p.instance_cost_per_hr(120, 128.0));
    }

    #[test]
    fn memory_dominates_at_low_core_counts() {
        // Figure 12: "Memory initially dominates the cost of renting".
        let p = CpuPricing::gcp_spot_us_east1();
        let mem_cost = 128.0 * p.per_gib_hr;
        let cpu_cost = 4.0 * p.per_vcpu_hr;
        assert!(mem_cost > cpu_cost * 2.0);
    }

    #[test]
    fn cost_per_mtok_scales() {
        let c = cost_per_mtok(3.6, 1000.0);
        assert!((c - 1.0).abs() < 1e-9);
        assert!(cost_per_mtok(3.6, 0.0).is_infinite());
    }

    #[test]
    fn advantage_signs() {
        assert!((cost_advantage_pct(1.0, 2.0) - 100.0).abs() < 1e-9);
        assert!(cost_advantage_pct(2.0, 1.0) < 0.0);
    }

    #[test]
    fn spr_is_roughly_half_price() {
        let emr = CpuPricing::gcp_spot_us_east1().per_vcpu_hr;
        let spr = CpuPricing::gcp_spot_spr().per_vcpu_hr;
        let ratio = emr / spr;
        assert!((1.6..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn gpu_pricing_cc_premium() {
        assert!(GpuPricing::azure_ncc_h100().per_hr > GpuPricing::azure_nc_h100().per_hr);
    }

    #[test]
    fn u_shape_detection() {
        // Synthetic U: costs fall then rise; cheapest must be the valley.
        let pts: Vec<CostPoint> = [
            (4u64, 100.0),
            (8, 260.0),
            (16, 420.0),
            (32, 470.0),
            (60, 480.0),
        ]
        .iter()
        .map(|&(c, tps)| CostPoint::new(c, tps, socket_cost_per_hr(c as u32)))
        .collect();
        let best = cheapest_point(&pts).unwrap();
        assert!(best.x > 4 && best.x < 60, "valley at {}", best.x);
    }

    #[test]
    fn onprem_cost_components() {
        let c = OnPremCost::emr2_server();
        let hr = c.cost_per_hr();
        // Dual-socket EMR2 server: roughly $1-2/hr amortized + energy.
        assert!((0.5..3.0).contains(&hr), "got ${hr}/hr");
        // Energy alone is ~13 cents/hr at 900 W and PUE 1.3.
        let energy = 0.9 * 1.3 * 0.11;
        assert!(hr > energy);
    }

    #[test]
    fn break_even_logic() {
        let c = OnPremCost::emr2_server();
        // Against an expensive cloud rate, owning wins early.
        let u = c.break_even_utilization(10.0);
        assert!(u < 0.3, "break-even at {u}");
        // Against a dirt-cheap spot rate, owning may never win.
        assert_eq!(c.break_even_utilization(0.0), 1.0);
        assert!(c.break_even_utilization(0.05) >= 1.0);
    }

    #[test]
    fn gpu_server_costs_more_than_cpu_server() {
        assert!(
            OnPremCost::h100_server_share().cost_per_hr()
                > OnPremCost::emr2_server().cost_per_hr() * 0.8
        );
    }

    #[test]
    fn spot_params_rates_and_adjustment() {
        let gcp = SpotParams::gcp_spot();
        assert!(gcp.preemptions_per_hr > 0.0);
        assert!((gcp.preemptions_per_s() - gcp.preemptions_per_hr / 3600.0).abs() < 1e-15);
        // Scarce cGPU capacity is reclaimed more often than CPU spot.
        assert!(SpotParams::azure_spot_gpu().preemptions_per_hr > gcp.preemptions_per_hr);
        assert_eq!(SpotParams::reserved().preemptions_per_s(), 0.0);
    }

    #[test]
    fn availability_adjustment_edges() {
        // Full availability degenerates to the plain cost.
        let full = availability_adjusted_cost_per_mtok(3.6, 1000.0, 1.0);
        assert!((full - cost_per_mtok(3.6, 1000.0)).abs() < 1e-12);
        // Half availability doubles the effective price.
        let half = availability_adjusted_cost_per_mtok(3.6, 1000.0, 0.5);
        assert!((half - 2.0 * full).abs() < 1e-9);
        // Degenerate inputs stay NaN-free.
        assert!(availability_adjusted_cost_per_mtok(3.6, 1000.0, 0.0).is_infinite());
        assert!(availability_adjusted_cost_per_mtok(3.6, 0.0, 1.0).is_infinite());
        // Availability above 1 is clamped, never a discount.
        let clamped = availability_adjusted_cost_per_mtok(3.6, 1000.0, 1.5);
        assert!((clamped - full).abs() < 1e-12);
    }

    #[test]
    fn spill_penalty_shapes() {
        assert!(SpillPenalty::none().is_free());
        let x = SpillPenalty::cross_platform();
        assert!(!x.is_free());
        assert!(x.requant_s > 0.0);
        assert!(
            x.prefill_factor > 1.0,
            "spill must slow the redo, never speed it"
        );
    }

    #[test]
    fn rental_bill_accrues_over_lifetime() {
        let bill = RentalBill { price_per_hr: 7.2 };
        assert!((bill.node_cost_usd(3600.0) - 7.2).abs() < 1e-12);
        assert!((bill.node_cost_usd(900.0) - 1.8).abs() < 1e-12);
        assert_eq!(bill.node_cost_usd(-5.0), 0.0, "negative lifetimes clamp");
        // Two warm standbys for half an hour burn one node-hour.
        assert!((bill.warm_pool_cost_usd(2, 1800.0) - 7.2).abs() < 1e-12);
        assert_eq!(bill.warm_pool_cost_usd(0, 3600.0), 0.0);
    }

    #[test]
    fn crossover_found() {
        let a: Vec<CostPoint> = (0..5)
            .map(|i| CostPoint::new(i, 100.0 + 0.0 * i as f64, 1.0))
            .collect();
        let b: Vec<CostPoint> = (0..5)
            .map(|i| CostPoint::new(i, 50.0 * (i + 1) as f64, 1.0))
            .collect();
        // a is cheaper until b's throughput passes 100 tok/s at x=1.
        assert_eq!(crossover_x(&a, &b), Some(1));
    }
}
