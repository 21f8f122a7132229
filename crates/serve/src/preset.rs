//! The platform table's serving half: what each [`TeeKind`] is as a
//! simulated node. The TEE configuration itself comes from
//! [`Platform::preset`]; this module adds the hardware, the fault
//! environment of a spot or reserved rental, and the hourly price.
//!
//! | kinds | node | spot preemptions | reserved | price per hour |
//! |---|---|---|---|---|
//! | bare, VM, TDX, SEV-SNP, SGX | one socket of the config's CPU target | GCP spot | none | GCP spot rate for `2 × cores_per_socket` vCPUs and 128 GiB |
//! | GPU, cGPU | H100 NVL | Azure spot GPU | none | Azure NCC H100 |

use crate::cluster::NodeSpec;
use crate::faults::FaultRates;
use crate::sim::{ServingConfig, ServingNode};
use cllm_cost::{socket_cost_per_hr, GpuPricing, SpotParams};
use cllm_tee::platform::{Platform, TeeKind};

impl ServingNode {
    /// The node a platform kind serves on: a CPU socket under the kind's
    /// TEE preset, or an H100 NVL in native or confidential mode.
    #[must_use]
    pub fn preset(kind: TeeKind) -> ServingNode {
        match Platform::preset(kind) {
            Platform::Cpu(tee) => ServingNode::Cpu { tee },
            Platform::Gpu(tee) => ServingNode::Gpu {
                gpu: cllm_hw::presets::h100_nvl(),
                tee,
            },
        }
    }

    /// Hourly price of this node: the Azure NCC H100 rate for GPUs, the
    /// GCP spot price of one socket of `cfg`'s target for CPUs
    /// ([`socket_cost_per_hr`]).
    #[must_use]
    pub fn price_per_hr(&self, cfg: &ServingConfig) -> f64 {
        match self {
            ServingNode::Gpu { .. } => GpuPricing::azure_ncc_h100().per_hr,
            ServingNode::Cpu { .. } => socket_cost_per_hr(cfg.target.cores_per_socket),
        }
    }
}

impl FaultRates {
    /// Rates for one platform rented on spot (`spot`) or reserved
    /// capacity: spot GPUs are preempted at Azure's spot-GPU rate, spot
    /// CPUs at GCP's spot rate, and reserved capacity never.
    #[must_use]
    pub fn for_rental(kind: TeeKind, spot: bool) -> Self {
        let capacity = match (spot, kind.is_gpu()) {
            (true, true) => SpotParams::azure_spot_gpu(),
            (true, false) => SpotParams::gcp_spot(),
            (false, _) => SpotParams::reserved(),
        };
        Self::for_platform(kind, &capacity)
    }
}

impl NodeSpec {
    /// A fleet node of platform `kind` on spot or reserved capacity,
    /// whose seeded fault stream runs at the rental's rates scaled by
    /// `rate_scale` (0 for a fault-free node).
    #[must_use]
    pub fn preset(kind: TeeKind, spot: bool, rate_scale: f64, seed: u64) -> Self {
        NodeSpec::new(
            ServingNode::preset(kind),
            spot,
            FaultRates::for_rental(kind, spot).scaled(rate_scale),
            seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cllm_cost::CpuPricing;

    #[test]
    fn preset_is_a_gpu_node_exactly_for_the_gpu_kinds() {
        for kind in TeeKind::ALL {
            let node = ServingNode::preset(kind);
            assert_eq!(
                matches!(node, ServingNode::Gpu { .. }),
                matches!(kind, TeeKind::GpuNative | TeeKind::GpuCc),
                "{kind:?}"
            );
            match node {
                ServingNode::Cpu { tee } => assert_eq!(tee.kind, kind),
                ServingNode::Gpu { gpu, tee } => {
                    assert_eq!(tee.kind, kind);
                    assert_eq!(gpu, cllm_hw::presets::h100_nvl());
                }
            }
        }
    }

    #[test]
    fn node_spec_rates_are_the_capacity_class_rates_scaled() {
        let class = |kind: TeeKind, spot: bool| match (spot, kind) {
            (false, _) => SpotParams::reserved(),
            (true, TeeKind::GpuNative | TeeKind::GpuCc) => SpotParams::azure_spot_gpu(),
            (true, _) => SpotParams::gcp_spot(),
        };
        for kind in TeeKind::ALL {
            for spot in [false, true] {
                for scale in [0.0, 1.0, 600.0] {
                    let spec = NodeSpec::preset(kind, spot, scale, 7);
                    let want = FaultRates::for_platform(kind, &class(kind, spot)).scaled(scale);
                    assert_eq!(spec.rates, want, "{kind:?} spot={spot} x{scale}");
                    assert_eq!(spec.spot, spot);
                    assert_eq!(spec.seed, 7);
                    assert!(spec.extra_events.is_empty());
                }
                assert_eq!(
                    NodeSpec::preset(kind, spot, 0.0, 0).rates,
                    FaultRates::none(),
                    "{kind:?}: scale 0 is the fault-free node"
                );
            }
        }
        let spot_gpu = FaultRates::for_rental(TeeKind::GpuCc, true);
        assert_eq!(
            spot_gpu.preemptions_per_hr,
            SpotParams::azure_spot_gpu().preemptions_per_hr
        );
        assert_eq!(
            FaultRates::for_rental(TeeKind::Tdx, false).preemptions_per_hr,
            0.0
        );
    }

    #[test]
    fn price_follows_the_node_class() {
        let cfg = ServingConfig::small_test();
        let cpu = CpuPricing::gcp_spot_us_east1()
            .instance_cost_per_hr(cfg.target.cores_per_socket * 2, 128.0);
        for kind in TeeKind::ALL {
            let want = if kind.is_gpu() {
                GpuPricing::azure_ncc_h100().per_hr
            } else {
                cpu
            };
            assert_eq!(
                ServingNode::preset(kind).price_per_hr(&cfg),
                want,
                "{kind:?}"
            );
        }
    }
}
