//! Integration tests asserting the paper's published bands, end to end
//! through the public facade — the contract EXPERIMENTS.md records.

use confidential_llms_in_tees::core::experiments;

fn pct_cell(r: &experiments::ExperimentResult, row: &str, col: &str) -> f64 {
    r.cell_f64(row, col)
        .unwrap_or_else(|| panic!("missing cell {row}/{col}"))
}

#[test]
fn fig4_single_socket_bands() {
    let r = experiments::fig4::run();
    // Paper: SGX 4.80-6.15%, TDX 5.51-10.68%, VM 1.82-5.38% (throughput).
    let sgx = pct_cell(&r, "SGX", "thr_overhead");
    let tdx = pct_cell(&r, "TDX", "thr_overhead");
    let vm = pct_cell(&r, "VM", "thr_overhead");
    assert!((4.0..7.0).contains(&sgx), "SGX {sgx}");
    assert!((5.0..11.0).contains(&tdx), "TDX {tdx}");
    assert!((1.0..5.5).contains(&vm), "VM {vm}");
    assert!(vm < sgx && sgx < tdx, "ordering bare < VM < SGX < TDX");
}

#[test]
fn fig6_dual_socket_bands() {
    let r = experiments::fig6::run();
    // Paper: TDX 12.11-23.81% on two sockets; VM TH - VM FH = 3.19-5.20%;
    // SGX up to ~230%.
    let tdx = pct_cell(&r, "TDX", "thr_overhead");
    let fh = pct_cell(&r, "VM FH", "thr_overhead");
    let th = pct_cell(&r, "VM TH", "thr_overhead");
    let sgx = pct_cell(&r, "SGX", "thr_overhead");
    assert!((11.0..26.0).contains(&tdx), "TDX {tdx}");
    assert!((2.0..6.5).contains(&(th - fh)), "hugepage gap {}", th - fh);
    assert!((120.0..320.0).contains(&sgx), "SGX {sgx}");
}

#[test]
fn fig9_overheads_fall_with_batch() {
    // Paper: overheads drop from 7-10% to 4-7% (bf16) as batch grows.
    use cllm_hw::DType;
    let small = experiments::fig9::thr_overhead(DType::Bf16, 1);
    let large = experiments::fig9::thr_overhead(DType::Bf16, 512);
    assert!(small > large, "{small} -> {large}");
    assert!((3.0..9.0).contains(&large), "saturated overhead {large}");
}

#[test]
fn fig11_gpu_band() {
    // Paper: cGPU overheads oscillate between 7.5% and 4.4%.
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for batch in [1u64, 8, 32, 128] {
        for input in [128u64, 512, 1024] {
            let o = experiments::fig11::overhead(batch, input);
            min = min.min(o);
            max = max.max(o);
        }
    }
    assert!(min > 2.0 && max < 9.5, "cGPU range {min}..{max}");
    assert!(max - min > 1.0, "overhead should vary with shape");
}

#[test]
fn fig12_cost_story() {
    // Paper: cGPU up to ~100% more expensive at small batch, parity ~128.
    let req1 = experiments::fig12::request(1);
    let sweep1 = experiments::fig12::tdx_cost_sweep(&req1);
    let cpu1 = cllm_cost::cheapest_point(&sweep1).unwrap().usd_per_mtok;
    let gpu1 = experiments::fig12::cgpu_usd_per_mtok(&req1);
    let adv1 = cllm_cost::cost_advantage_pct(cpu1, gpu1);
    assert!(adv1 > 40.0, "batch-1 advantage {adv1}%");

    let req128 = experiments::fig12::request(128);
    let sweep128 = experiments::fig12::tdx_cost_sweep(&req128);
    let cpu128 = cllm_cost::cheapest_point(&sweep128).unwrap().usd_per_mtok;
    let gpu128 = experiments::fig12::cgpu_usd_per_mtok(&req128);
    let adv128 = cllm_cost::cost_advantage_pct(cpu128, gpu128);
    assert!(
        adv128 < 35.0,
        "batch-128 advantage {adv128}% (parity expected)"
    );
}

#[test]
fn fig13_input_sensitivity() {
    // Paper: CPU advantage collapses as input grows.
    let short = experiments::fig13::advantage_pct(64);
    let long = experiments::fig13::advantage_pct(8192);
    assert!(short > 25.0, "short {short}%");
    assert!(long < 0.0, "long {long}%");
}

#[test]
fn model_zoo_band() {
    // Paper Section III-C3: 3.1-13.1% across five additional models.
    let r = experiments::model_zoo::run();
    for row in &r.rows {
        let o = row[2].as_f64().unwrap();
        assert!((3.0..13.5).contains(&o), "{}: {o}%", row[0].format());
    }
}

#[test]
fn snc_band() {
    // Paper Section IV-A: ~5% -> ~42% with SNC enabled.
    use cllm_hw::SubNumaClustering;
    let off = experiments::snc::overhead(SubNumaClustering::Off);
    let on = experiments::snc::overhead(SubNumaClustering::Snc2);
    assert!((4.0..12.0).contains(&off), "off {off}");
    assert!((25.0..60.0).contains(&on), "on {on}");
}

#[test]
fn every_experiment_renders_and_serializes() {
    for (id, runner) in experiments::all_experiments() {
        let r = runner();
        assert_eq!(r.id, id);
        assert!(!r.rows.is_empty(), "{id} produced no rows");
        let rendered = r.render();
        assert!(rendered.contains(id), "{id} render");
        let json = r.to_json();
        assert!(json.get("rows").is_some(), "{id} json");
    }
}
