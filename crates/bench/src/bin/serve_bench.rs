//! Wall-clock throughput bench for the unified discrete-event kernel.
//!
//! Runs the `serve_scale` cluster (64 nodes) three times: on the
//! conservative KV policy, on paged-recompute with a small page pool,
//! and under the flash-crowd autoscaler. Each run reports kernel
//! events/sec and keeps its own floor, so a regression on the paged or
//! autoscale path cannot hide behind the conservative one. The full
//! scale pushes 1M+ requests over a 520 s simulated horizon into
//! `BENCH_serve.json`; the smoke scale is the golden table's ~12k.
//! Modes, floors and the `--check` gate are `cllm_bench::pin`'s.
//!
//! Only the measured benches ever record wall time; the golden tables
//! stay machine-independent.

use cllm_bench::pin::{self, field_f64, float, int, Bench, Scale};
use cllm_core::experiments::serve_scale::{autoscale_report, paged_report, report};
use cllm_serve::kernel::KernelStats;
use serde_json::Value;
use std::process::ExitCode;
use std::time::Instant;

const BENCH: Bench = Bench {
    file: "BENCH_serve.json",
    schema: &[
        ("schema_version", true),
        ("scale", false),
        ("nodes", true),
        ("arrivals", true),
        ("completed", true),
        ("aborted", true),
        ("rejected", true),
        ("retries", true),
        ("makespan_s", true),
        ("goodput_tps", true),
        ("kernel_events", true),
        ("wall_s", true),
        ("events_per_s", true),
        ("floor_events_per_s", true),
        ("paged_preemptions", true),
        ("paged_kernel_events", true),
        ("paged_wall_s", true),
        ("paged_events_per_s", true),
        ("floor_paged_events_per_s", true),
        ("autoscale_scale_ups", true),
        ("autoscale_kernel_events", true),
        ("autoscale_wall_s", true),
        ("autoscale_events_per_s", true),
        ("floor_autoscale_events_per_s", true),
    ],
    measure,
    rules,
};

fn main() -> ExitCode {
    pin::main(&BENCH)
}

/// Run `sim` once, returning its result, wall seconds and kernel
/// events/sec.
fn timed<R>(sim: impl FnOnce() -> (R, KernelStats)) -> (R, u64, f64, f64) {
    let t0 = Instant::now();
    let (rep, stats) = sim();
    let wall_s = t0.elapsed().as_secs_f64();
    #[allow(clippy::cast_precision_loss)]
    let events_per_s = stats.events() as f64 / wall_s.max(1e-9);
    (rep, stats.events(), wall_s, events_per_s)
}

/// Time the three operating points at `scale` and render the
/// BENCH_serve.json document, floors at zero. Panics if a run loses a
/// request or skips the path its row exists to time.
fn measure(scale: Scale) -> Value {
    let label = scale.label();
    let (rep, events, wall_s, events_per_s) = timed(|| report(scale));
    assert_eq!(
        rep.completed + rep.aborted + rep.rejected,
        rep.arrivals,
        "conservation violated at {label} scale"
    );
    println!(
        "{label}: {} arrivals, {events} kernel events in {wall_s:.2}s wall = {events_per_s:.0} events/s",
        rep.arrivals
    );
    let (paged, paged_events, paged_wall_s, paged_events_per_s) = timed(|| paged_report(scale));
    assert_eq!(
        paged.completed + paged.aborted + paged.rejected,
        paged.arrivals,
        "paged conservation violated at {label} scale"
    );
    assert!(
        paged.preemptions > 0,
        "paged bench must exercise the preemption path at {label} scale"
    );
    println!(
        "{label} paged: {} preemptions, {paged_events} kernel events in {paged_wall_s:.2}s wall = {paged_events_per_s:.0} events/s",
        paged.preemptions
    );
    let (auto, auto_events, auto_wall_s, auto_events_per_s) = timed(|| autoscale_report(scale));
    assert_eq!(
        auto.completed + auto.shed + auto.aborted,
        auto.arrivals,
        "autoscale conservation violated at {label} scale"
    );
    assert!(
        auto.scale_ups > 0,
        "autoscale bench must exercise the scale-up path at {label} scale"
    );
    println!(
        "{label} autoscale: {} scale-ups, {auto_events} kernel events in {auto_wall_s:.2}s wall = {auto_events_per_s:.0} events/s",
        auto.scale_ups
    );
    Value::Object(vec![
        ("schema_version".into(), int(1)),
        ("scale".into(), Value::String(label.into())),
        ("nodes".into(), int(rep.nodes.len() as u64)),
        ("arrivals".into(), int(rep.arrivals as u64)),
        ("completed".into(), int(rep.completed as u64)),
        ("aborted".into(), int(rep.aborted as u64)),
        ("rejected".into(), int(rep.rejected as u64)),
        ("retries".into(), int(rep.retries)),
        ("makespan_s".into(), float(rep.makespan_s)),
        ("goodput_tps".into(), float(rep.goodput_tps)),
        ("kernel_events".into(), int(events)),
        ("wall_s".into(), float(wall_s)),
        ("events_per_s".into(), float(events_per_s)),
        ("floor_events_per_s".into(), float(0.0)),
        ("paged_preemptions".into(), int(paged.preemptions)),
        ("paged_kernel_events".into(), int(paged_events)),
        ("paged_wall_s".into(), float(paged_wall_s)),
        ("paged_events_per_s".into(), float(paged_events_per_s)),
        ("floor_paged_events_per_s".into(), float(0.0)),
        ("autoscale_scale_ups".into(), int(auto.scale_ups)),
        ("autoscale_kernel_events".into(), int(auto_events)),
        ("autoscale_wall_s".into(), float(auto_wall_s)),
        ("autoscale_events_per_s".into(), float(auto_events_per_s)),
        ("floor_autoscale_events_per_s".into(), float(0.0)),
    ])
}

/// Every arrival of the conservative run ends completed, aborted or
/// rejected.
fn rules(doc: &Value) -> Result<(), String> {
    let terminal =
        field_f64(doc, "completed") + field_f64(doc, "aborted") + field_f64(doc, "rejected");
    if (terminal - field_f64(doc, "arrivals")).abs() > 0.0 {
        return Err("terminal states do not sum to arrivals".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cllm_bench::pin::set;

    #[test]
    fn every_run_has_its_own_floor() {
        let gated: Vec<_> = BENCH.floors().map(|(rate, _)| rate).collect();
        assert_eq!(
            gated,
            [
                "events_per_s",
                "paged_events_per_s",
                "autoscale_events_per_s"
            ]
        );
    }

    #[test]
    fn smoke_measurement_validates_and_lost_arrivals_do_not() {
        let mut doc = measure(Scale::Smoke);
        assert_eq!(doc.get("scale").and_then(Value::as_str), Some("smoke"));
        assert_eq!(field_f64(&doc, "nodes") as u64, 64);
        for (_, floor) in BENCH.floors() {
            set(&mut doc, floor, float(1.0));
        }
        BENCH
            .validate(&doc)
            .expect("measured smoke doc must be valid");
        set(&mut doc, "completed", int(1));
        let err = BENCH.validate(&doc).unwrap_err();
        assert!(err.contains("arrivals"), "{err}");
    }
}
