//! Mechanism-level models of the evaluated execution platforms.
//!
//! Each platform is described by the *mechanisms* that cost performance,
//! mirroring Section III/IV/V of the paper:
//!
//! | Platform   | Mechanisms |
//! |------------|------------|
//! | Bare metal | none (baseline) |
//! | raw VM     | virtualization tax, two-dimensional page walks |
//! | TDX        | VM mechanisms + memory encryption, broken 1 GiB hugepage and NUMA-binding support, TD transitions |
//! | SGX        | memory encryption + integrity, EPC paging, enclave exits, no NUMA awareness |
//! | GPU (CC)   | encrypted PCIe bounce buffer, extra kernel-launch latency; HBM *not* encrypted |
//!
//! The constants here are calibrated against the paper's reported bands
//! (each field's doc comment names the figure/insight it reproduces) and
//! are consumed by the `cllm-perf` roofline simulator.

use cllm_hw::{HugePagePolicy, NumaBinding};
use serde::{Deserialize, Serialize};

/// Which TEE (or baseline) a deployment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TeeKind {
    /// Unprotected bare-metal host (the paper's `baseline`).
    BareMetal,
    /// Unprotected virtual machine (`VM`): quantifies the virtualization
    /// tax that TDX inherits.
    Vm,
    /// Intel Trust Domain Extensions (`TDX`): VM-based TEE.
    Tdx,
    /// AMD Secure Encrypted Virtualization with Secure Nested Paging
    /// (`SEV-SNP`): the other mainstream VM TEE; the paper notes its
    /// overheads are close to TDX's (Misono et al. \[55\]).
    SevSnp,
    /// Intel SGX via Gramine (`SGX`): process-based TEE on bare metal.
    Sgx,
    /// GPU without confidential compute (`GPU`).
    GpuNative,
    /// NVIDIA confidential GPU (`cGPU`).
    GpuCc,
}

impl TeeKind {
    /// Every platform, in declaration order (the chaos sampler indexes
    /// into this, so reordering it changes every sampled point).
    pub const ALL: [TeeKind; 7] = [
        TeeKind::BareMetal,
        TeeKind::Vm,
        TeeKind::Tdx,
        TeeKind::SevSnp,
        TeeKind::Sgx,
        TeeKind::GpuNative,
        TeeKind::GpuCc,
    ];

    /// The platform a CLI name selects: `bare`, `vm`, `tdx`, `sgx`,
    /// `sev-snp` (or `sev`), `gpu` or `cgpu`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<TeeKind> {
        Some(match name {
            "bare" => TeeKind::BareMetal,
            "vm" => TeeKind::Vm,
            "tdx" => TeeKind::Tdx,
            "sgx" => TeeKind::Sgx,
            "sev-snp" | "sev" => TeeKind::SevSnp,
            "gpu" => TeeKind::GpuNative,
            "cgpu" => TeeKind::GpuCc,
            _ => return None,
        })
    }

    /// Whether this platform is a GPU (native or confidential).
    #[must_use]
    pub fn is_gpu(self) -> bool {
        matches!(self, TeeKind::GpuNative | TeeKind::GpuCc)
    }

    /// Figure-legend label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TeeKind::BareMetal => "bare",
            TeeKind::Vm => "VM",
            TeeKind::Tdx => "TDX",
            TeeKind::SevSnp => "SEV-SNP",
            TeeKind::Sgx => "SGX",
            TeeKind::GpuNative => "GPU",
            TeeKind::GpuCc => "cGPU",
        }
    }

    /// Whether this platform provides TEE protections.
    #[must_use]
    pub fn is_confidential(self) -> bool {
        matches!(
            self,
            TeeKind::Tdx | TeeKind::SevSnp | TeeKind::Sgx | TeeKind::GpuCc
        )
    }
}

/// Memory-encryption-engine (MEE) parameters.
///
/// Intel's MEE (SGX) and multi-key total-memory-encryption (TDX) sit on the
/// DRAM path: every cache-line fill/writeback is AES-XTS'd and (for SGX)
/// integrity-checked. The paper identifies memory encryption as the major
/// overhead contributor for data-movement-heavy layers (Section IV-B) and
/// as the source of per-token outliers filtered with a Z-score > 3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeeParams {
    /// Multiplicative derate on sustained DRAM bandwidth (0..1].
    pub bandwidth_derate: f64,
    /// Extra nanoseconds added to every DRAM access latency (AES pipeline
    /// plus MAC fetch). Exposed when the workload is latency-bound (small
    /// batch), which is why latency overheads (up to ~20%) exceed
    /// throughput overheads (~10%) in Figure 4.
    pub latency_adder_ns: f64,
    /// Log-normal sigma of per-token multiplicative noise caused by
    /// variability in memory encryption (Section III-D: "considerable
    /// noise due to variability in memory encryption").
    pub noise_sigma: f64,
    /// Probability that a token hits an encryption stall outlier
    /// (~0.64% of samples were Z>3 outliers in the paper).
    pub outlier_prob: f64,
    /// Multiplicative latency factor of an outlier token.
    pub outlier_factor: f64,
}

impl MeeParams {
    /// TDX multi-key TME calibration.
    #[must_use]
    pub fn tdx() -> Self {
        MeeParams {
            bandwidth_derate: 0.972,
            latency_adder_ns: 8.0,
            noise_sigma: 0.020,
            outlier_prob: 0.0064,
            outlier_factor: 1.8,
        }
    }

    /// SEV-SNP memory encryption (AES-128 XEX in the memory controller
    /// plus the RMP walk for nested-paging integrity). Calibrated close
    /// to TDX per the Misono et al. measurements the paper cites.
    #[must_use]
    pub fn sev_snp() -> Self {
        MeeParams {
            bandwidth_derate: 0.968,
            latency_adder_ns: 9.5,
            noise_sigma: 0.022,
            outlier_prob: 0.0064,
            outlier_factor: 1.8,
        }
    }

    /// SGX MEE calibration: slightly stronger derate (integrity tree) but
    /// no virtualization underneath.
    #[must_use]
    pub fn sgx() -> Self {
        MeeParams {
            bandwidth_derate: 0.968,
            latency_adder_ns: 9.0,
            noise_sigma: 0.022,
            outlier_prob: 0.0064,
            outlier_factor: 1.8,
        }
    }
}

/// Virtualization parameters shared by raw VMs and TDX.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VirtParams {
    /// Fixed fractional compute slowdown from vmexits, virtual APIC/timer
    /// handling and hypervisor scheduling (the paper's "virtualization
    /// tax" of 1.82–5.38%, Insight 5). The page-walk component is modelled
    /// separately via [`two_dimensional_walks`].
    ///
    /// [`two_dimensional_walks`]: VirtParams::two_dimensional_walks
    pub cpu_tax: f64,
    /// Guest-physical → host-physical (EPT) page walks: TLB misses walk
    /// two page tables, ~3-4x the native walk cost.
    pub two_dimensional_walks: bool,
    /// Whether explicitly reserved 1 GiB hugepages reach the guest.
    /// `false` for TDX (Insight 7: "TDX uses self-allocated transparent
    /// hugepages and ignores manually reserved hugepages").
    pub honours_hugepage_reservations: bool,
    /// Whether QEMU/libvirt NUMA bindings are respected. `false` for TDX
    /// (Insight 6: "TDX's KVM driver does not adhere to the bindings").
    pub honours_numa_bindings: bool,
    /// Extra per-token cost of TD enter/exit transitions in microseconds
    /// (zero for a raw VM; TDX pays SEAMCALL round trips on interrupts).
    pub td_transition_us_per_token: f64,
}

impl VirtParams {
    /// Raw (non-TDX) KVM guest.
    #[must_use]
    pub fn raw_vm() -> Self {
        VirtParams {
            cpu_tax: 0.022,
            two_dimensional_walks: true,
            honours_hugepage_reservations: true,
            honours_numa_bindings: true,
            td_transition_us_per_token: 0.0,
        }
    }

    /// TDX trust domain.
    #[must_use]
    pub fn tdx() -> Self {
        VirtParams {
            cpu_tax: 0.022,
            two_dimensional_walks: true,
            honours_hugepage_reservations: false,
            honours_numa_bindings: false,
            td_transition_us_per_token: 180.0,
        }
    }
}

/// SGX/Gramine-specific parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgxParams {
    /// Enclave page cache size in bytes. The paper "used the largest
    /// possible EPC" — Emerald Rapids SKUs offer up to 512 GiB per socket,
    /// so steady-state inference does not page.
    pub epc_bytes: f64,
    /// Cost of paging one byte in/out of the EPC (encrypt + verify),
    /// charged when the working set exceeds [`epc_bytes`].
    ///
    /// [`epc_bytes`]: SgxParams::epc_bytes
    pub paging_ns_per_byte: f64,
    /// Cost of one enclave exit/re-entry (EEXIT/EENTER + cache/TLB
    /// invalidation refill), microseconds.
    pub exit_cost_us: f64,
    /// Enclave exits per generated token. Gramine emulates most syscalls
    /// inside the enclave, leaving a small residual exit rate (timers,
    /// futex wakeups, IO flushes).
    pub exits_per_token: f64,
    /// SGX presents memory as a single unified NUMA node (Insight 6);
    /// multi-socket allocations may land entirely on one socket.
    pub numa_aware: bool,
}

impl SgxParams {
    /// Gramine v1.7 on Emerald Rapids with maximum EPC.
    #[must_use]
    pub fn gramine_emr() -> Self {
        SgxParams {
            epc_bytes: 512.0 * cllm_hw::GIB,
            paging_ns_per_byte: 3.0,
            exit_cost_us: 8.0,
            exits_per_token: 6.0,
            numa_aware: false,
        }
    }
}

/// Complete CPU platform configuration: TEE mechanisms + memory policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuTeeConfig {
    /// Which platform this is.
    pub kind: TeeKind,
    /// Memory-encryption engine, if the platform encrypts DRAM.
    pub mee: Option<MeeParams>,
    /// Virtualization layer, if any.
    pub virt: Option<VirtParams>,
    /// SGX-specific machinery, if the platform is SGX.
    pub sgx: Option<SgxParams>,
    /// Requested hugepage policy (what the operator configured).
    pub hugepage_policy: HugePagePolicy,
    /// Requested NUMA binding (what the operator configured).
    pub numa_binding: NumaBinding,
}

impl CpuTeeConfig {
    /// Bare-metal baseline: 1 GiB hugepages, bound NUMA.
    #[must_use]
    pub fn bare_metal() -> Self {
        CpuTeeConfig {
            kind: TeeKind::BareMetal,
            mee: None,
            virt: None,
            sgx: None,
            hugepage_policy: HugePagePolicy::Explicit1G,
            numa_binding: NumaBinding::Bound,
        }
    }

    /// Raw VM with explicit 1 GiB hugepages and bound NUMA (`VM FH`/`VM B`).
    #[must_use]
    pub fn vm() -> Self {
        CpuTeeConfig {
            kind: TeeKind::Vm,
            mee: None,
            virt: Some(VirtParams::raw_vm()),
            sgx: None,
            hugepage_policy: HugePagePolicy::Explicit1G,
            numa_binding: NumaBinding::Bound,
        }
    }

    /// Raw VM on transparent 2 MiB hugepages (`VM TH` in Figure 6).
    #[must_use]
    pub fn vm_thp() -> Self {
        CpuTeeConfig {
            hugepage_policy: HugePagePolicy::Transparent2M,
            ..Self::vm()
        }
    }

    /// Raw VM without NUMA binding (`VM NB` in Figure 5).
    #[must_use]
    pub fn vm_unbound() -> Self {
        CpuTeeConfig {
            numa_binding: NumaBinding::Unbound,
            hugepage_policy: HugePagePolicy::Transparent2M,
            ..Self::vm()
        }
    }

    /// TDX trust domain (operator requests 1 GiB pages and bindings; the
    /// TDX driver honours neither).
    #[must_use]
    pub fn tdx() -> Self {
        CpuTeeConfig {
            kind: TeeKind::Tdx,
            mee: Some(MeeParams::tdx()),
            virt: Some(VirtParams::tdx()),
            sgx: None,
            hugepage_policy: HugePagePolicy::Explicit1G,
            numa_binding: NumaBinding::Bound,
        }
    }

    /// AMD SEV-SNP guest: VM mechanisms plus memory encryption and the
    /// RMP (reverse-map) integrity walk. SEV-SNP honours hugepage
    /// reservations but shares TDX's broken NUMA-binding behaviour in
    /// current drivers.
    #[must_use]
    pub fn sev_snp() -> Self {
        CpuTeeConfig {
            kind: TeeKind::SevSnp,
            mee: Some(MeeParams::sev_snp()),
            virt: Some(VirtParams {
                honours_hugepage_reservations: true,
                td_transition_us_per_token: 160.0,
                ..VirtParams::tdx()
            }),
            sgx: None,
            hugepage_policy: HugePagePolicy::Explicit1G,
            numa_binding: NumaBinding::Bound,
        }
    }

    /// Gramine-SGX on bare metal.
    #[must_use]
    pub fn sgx() -> Self {
        CpuTeeConfig {
            kind: TeeKind::Sgx,
            mee: Some(MeeParams::sgx()),
            virt: None,
            sgx: Some(SgxParams::gramine_emr()),
            hugepage_policy: HugePagePolicy::Transparent2M,
            numa_binding: NumaBinding::Bound,
        }
    }

    /// The page size the workload actually runs on, accounting for TEE
    /// drivers that ignore explicit reservations (Insight 7).
    #[must_use]
    pub fn effective_page(&self) -> cllm_hw::PageSize {
        let honours = self.virt.is_none_or(|v| v.honours_hugepage_reservations);
        self.hugepage_policy.effective_page(honours)
    }

    /// The NUMA binding that actually takes effect, accounting for TEE
    /// drivers that ignore bindings (Insight 6).
    #[must_use]
    pub fn effective_binding(&self) -> NumaBinding {
        let virt_ignores = self.virt.is_some_and(|v| !v.honours_numa_bindings);
        let sgx_unaware = self.sgx.is_some_and(|s| !s.numa_aware);
        if self.numa_binding == NumaBinding::Bound && (virt_ignores || sgx_unaware) {
            NumaBinding::IgnoredByTee
        } else {
            self.numa_binding
        }
    }

    /// Whether page walks traverse two levels of page tables.
    #[must_use]
    pub fn virtualized_walks(&self) -> bool {
        self.virt.is_some_and(|v| v.two_dimensional_walks)
    }
}

/// GPU platform configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuTeeConfig {
    /// Which platform this is ([`TeeKind::GpuNative`] or [`TeeKind::GpuCc`]).
    pub kind: TeeKind,
    /// Whether confidential compute is enabled (encrypted bounce buffer,
    /// authenticated command buffers, extra launch latency).
    pub confidential: bool,
}

impl GpuTeeConfig {
    /// Raw GPU (`NCads_H100_v5`).
    #[must_use]
    pub fn native() -> Self {
        GpuTeeConfig {
            kind: TeeKind::GpuNative,
            confidential: false,
        }
    }

    /// Confidential GPU (`NCCads_H100_v5`).
    #[must_use]
    pub fn confidential() -> Self {
        GpuTeeConfig {
            kind: TeeKind::GpuCc,
            confidential: true,
        }
    }
}

/// Any evaluated platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Platform {
    /// A CPU deployment (bare metal, VM, TDX or SGX).
    Cpu(CpuTeeConfig),
    /// A GPU deployment (native or confidential).
    Gpu(GpuTeeConfig),
}

impl Platform {
    /// The default configuration of each platform kind: the CPU presets
    /// with their operator-requested memory policy, or the GPU mode.
    #[must_use]
    pub fn preset(kind: TeeKind) -> Platform {
        match kind {
            TeeKind::BareMetal => Platform::Cpu(CpuTeeConfig::bare_metal()),
            TeeKind::Vm => Platform::Cpu(CpuTeeConfig::vm()),
            TeeKind::Tdx => Platform::Cpu(CpuTeeConfig::tdx()),
            TeeKind::SevSnp => Platform::Cpu(CpuTeeConfig::sev_snp()),
            TeeKind::Sgx => Platform::Cpu(CpuTeeConfig::sgx()),
            TeeKind::GpuNative => Platform::Gpu(GpuTeeConfig::native()),
            TeeKind::GpuCc => Platform::Gpu(GpuTeeConfig::confidential()),
        }
    }

    /// The platform's kind tag.
    #[must_use]
    pub fn kind(&self) -> TeeKind {
        match self {
            Platform::Cpu(c) => c.kind,
            Platform::Gpu(g) => g.kind,
        }
    }

    /// Figure-legend label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        self.kind().label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cllm_hw::PageSize;

    #[test]
    fn tdx_ignores_hugepage_reservation() {
        // Insight 7.
        assert_eq!(CpuTeeConfig::tdx().effective_page(), PageSize::Huge2M);
        assert_eq!(CpuTeeConfig::vm().effective_page(), PageSize::Huge1G);
        assert_eq!(
            CpuTeeConfig::bare_metal().effective_page(),
            PageSize::Huge1G
        );
    }

    #[test]
    fn tdx_and_sgx_break_numa_bindings() {
        // Insight 6.
        assert_eq!(
            CpuTeeConfig::tdx().effective_binding(),
            NumaBinding::IgnoredByTee
        );
        assert_eq!(
            CpuTeeConfig::sgx().effective_binding(),
            NumaBinding::IgnoredByTee
        );
        assert_eq!(CpuTeeConfig::vm().effective_binding(), NumaBinding::Bound);
        assert_eq!(
            CpuTeeConfig::bare_metal().effective_binding(),
            NumaBinding::Bound
        );
    }

    #[test]
    fn only_vm_family_has_2d_walks() {
        assert!(CpuTeeConfig::tdx().virtualized_walks());
        assert!(CpuTeeConfig::vm().virtualized_walks());
        assert!(!CpuTeeConfig::sgx().virtualized_walks());
        assert!(!CpuTeeConfig::bare_metal().virtualized_walks());
    }

    #[test]
    fn confidential_flags() {
        assert!(TeeKind::Tdx.is_confidential());
        assert!(TeeKind::Sgx.is_confidential());
        assert!(TeeKind::GpuCc.is_confidential());
        assert!(!TeeKind::BareMetal.is_confidential());
        assert!(!TeeKind::Vm.is_confidential());
        assert!(!TeeKind::GpuNative.is_confidential());
    }

    #[test]
    fn sgx_mee_stricter_than_tdx() {
        // SGX adds integrity protection on top of confidentiality.
        assert!(MeeParams::sgx().bandwidth_derate < MeeParams::tdx().bandwidth_derate);
        assert!(MeeParams::sgx().latency_adder_ns > MeeParams::tdx().latency_adder_ns);
    }

    #[test]
    fn sev_snp_close_to_tdx() {
        let sev = CpuTeeConfig::sev_snp();
        assert!(sev.kind.is_confidential());
        // SEV-SNP honours 1G hugepage reservations (no TDX-style fallback)
        assert_eq!(sev.effective_page(), cllm_hw::PageSize::Huge1G);
        // ...but still breaks NUMA bindings in current drivers.
        assert_eq!(sev.effective_binding(), NumaBinding::IgnoredByTee);
    }

    #[test]
    fn all_lists_each_kind_once_in_declaration_order() {
        // `as usize` reads the declaration index of a fieldless variant.
        for (i, kind) in TeeKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?}");
        }
        // Exhaustive: a new variant fails to compile here until it is
        // placed in ALL.
        for kind in TeeKind::ALL {
            match kind {
                TeeKind::BareMetal
                | TeeKind::Vm
                | TeeKind::Tdx
                | TeeKind::SevSnp
                | TeeKind::Sgx
                | TeeKind::GpuNative
                | TeeKind::GpuCc => {}
            }
        }
    }

    #[test]
    fn from_name_accepts_every_cli_name_and_nothing_else() {
        let names = [
            ("bare", TeeKind::BareMetal),
            ("vm", TeeKind::Vm),
            ("tdx", TeeKind::Tdx),
            ("sev-snp", TeeKind::SevSnp),
            ("sev", TeeKind::SevSnp),
            ("sgx", TeeKind::Sgx),
            ("gpu", TeeKind::GpuNative),
            ("cgpu", TeeKind::GpuCc),
        ];
        for (name, kind) in names {
            assert_eq!(TeeKind::from_name(name), Some(kind), "{name}");
        }
        for kind in TeeKind::ALL {
            assert!(
                names.iter().any(|&(_, k)| k == kind),
                "{kind:?} has no name"
            );
        }
        for bad in [
            "",
            "TDX",
            "Tdx",
            "bare-metal",
            "sev_snp",
            "h100",
            "tdx-spot",
            " tdx",
        ] {
            assert_eq!(TeeKind::from_name(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn preset_has_the_kind_it_was_asked_for() {
        for kind in TeeKind::ALL {
            let platform = Platform::preset(kind);
            assert_eq!(platform.kind(), kind);
            assert_eq!(
                matches!(platform, Platform::Gpu(_)),
                kind.is_gpu(),
                "{kind:?}"
            );
        }
        assert_eq!(
            Platform::preset(TeeKind::SevSnp),
            Platform::Cpu(CpuTeeConfig::sev_snp())
        );
    }

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(Platform::Cpu(CpuTeeConfig::tdx()).label(), "TDX");
        assert_eq!(Platform::Gpu(GpuTeeConfig::confidential()).label(), "cGPU");
    }
}
