//! The trace recorder and the merged multi-lane trace.

use crate::span::{Scope, Span, SpanKind, TraceEvent};
use std::collections::HashMap;

/// Single-writer span/event recorder threaded through one simulation.
///
/// Determinism contract: a sink is owned by exactly one simulation, so
/// recording needs no synchronisation; experiment grids give each lane
/// its own sink and join them with [`Trace::merge`] in input order, so
/// lane ids, and with them the exported bytes, follow the grid alone.
///
/// A disabled sink records nothing, so instrumented simulators can share
/// one code path with the golden-pinned untraced entry points. Emission
/// must only *read* the simulated clock — never round, reorder, or
/// otherwise influence the float arithmetic of the simulation itself.
#[derive(Debug)]
pub struct TraceSink {
    enabled: bool,
    spans: Vec<Span>,
    events: Vec<TraceEvent>,
    /// Index of the most recent span per node scope, for run coalescing.
    last_node_span: HashMap<u32, usize>,
}

impl TraceSink {
    /// A recording sink.
    #[must_use]
    pub fn new() -> Self {
        TraceSink {
            enabled: true,
            spans: Vec::new(),
            events: Vec::new(),
            last_node_span: HashMap::new(),
        }
    }

    /// A sink that drops everything (zero-cost instrumentation path).
    #[must_use]
    pub fn disabled() -> Self {
        TraceSink {
            enabled: false,
            ..TraceSink::new()
        }
    }

    /// Whether this sink records anything. Callers may skip building
    /// expensive details (cursor bookkeeping, event strings) when `false`.
    #[must_use]
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record a span. Zero-length spans are dropped; adjacent node-scoped
    /// spans of the same kind and label (e.g. consecutive decode steps)
    /// are coalesced into one run, which changes no accounting sums.
    #[inline]
    pub fn span(&mut self, scope: Scope, kind: SpanKind, start_s: f64, end_s: f64) {
        self.span_labeled(scope, kind, start_s, end_s, None);
    }

    /// Record a span with a refining label (see [`Span::label`]).
    #[inline]
    pub fn span_labeled(
        &mut self,
        scope: Scope,
        kind: SpanKind,
        start_s: f64,
        end_s: f64,
        label: Option<&'static str>,
    ) {
        if !self.enabled || end_s <= start_s {
            return;
        }
        if let Scope::Node(node) = scope {
            if let Some(&i) = self.last_node_span.get(&node) {
                let prev = &mut self.spans[i];
                if prev.kind == kind && prev.label == label && prev.end_s == start_s {
                    prev.end_s = end_s;
                    return;
                }
            }
            self.last_node_span.insert(node, self.spans.len());
        }
        self.spans.push(Span {
            lane: 0,
            scope,
            kind,
            start_s,
            end_s,
            label,
        });
    }

    /// Record an instantaneous event.
    #[inline]
    pub fn event(&mut self, scope: Scope, name: &'static str, at_s: f64, detail: String) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent {
            lane: 0,
            scope,
            name,
            at_s,
            detail,
        });
    }

    /// Record an instantaneous event whose detail string is built lazily.
    ///
    /// The closure runs only when the sink records, so hot simulation
    /// loops pay zero allocation on the golden-pinned untraced path —
    /// this is what lets the serving kernel keep one code path for traced
    /// and untraced runs without formatting strings it will drop.
    #[inline]
    pub fn event_fmt(
        &mut self,
        scope: Scope,
        name: &'static str,
        at_s: f64,
        detail: impl FnOnce() -> String,
    ) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent {
            lane: 0,
            scope,
            name,
            at_s,
            detail: detail(),
        });
    }

    /// Close the sink and take the recorded lane (lane id 0 until merged).
    #[must_use]
    pub fn finish(self) -> Trace {
        Trace {
            spans: self.spans,
            events: self.events,
        }
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new()
    }
}

/// A recorded trace: one lane straight from a sink, or many lanes merged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// All spans, in emission order (lane-major after a merge).
    pub spans: Vec<Span>,
    /// All instants, in emission order (lane-major after a merge).
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Join per-simulation lanes into one trace, assigning `lane = index`.
    ///
    /// The caller must pass lanes in a deterministic order (grid order,
    /// fleet order) — that order, not any clock, defines the lane ids.
    #[must_use]
    pub fn merge(lanes: impl IntoIterator<Item = Trace>) -> Trace {
        let mut out = Trace::default();
        for (i, mut lane) in lanes.into_iter().enumerate() {
            let id = u32::try_from(i).unwrap_or(u32::MAX);
            for s in &mut lane.spans {
                s.lane = id;
            }
            for e in &mut lane.events {
                e.lane = id;
            }
            out.spans.append(&mut lane.spans);
            out.events.append(&mut lane.events);
        }
        out
    }

    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.events.is_empty()
    }

    /// Number of distinct lanes present.
    #[must_use]
    pub fn lane_count(&self) -> usize {
        let mut lanes: Vec<u32> = self
            .spans
            .iter()
            .map(|s| s.lane)
            .chain(self.events.iter().map(|e| e.lane))
            .collect();
        lanes.sort_unstable();
        lanes.dedup();
        lanes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let mut sink = TraceSink::disabled();
        sink.span(Scope::Node(0), SpanKind::Decode, 0.0, 1.0);
        sink.event(Scope::Experiment, "x", 0.5, String::new());
        assert!(!sink.is_enabled());
        assert!(sink.finish().is_empty());
    }

    #[test]
    fn disabled_sink_never_builds_lazy_detail() {
        let mut sink = TraceSink::disabled();
        sink.event_fmt(Scope::Experiment, "x", 0.5, || {
            panic!("detail closure must not run on a disabled sink")
        });
        assert!(sink.finish().is_empty());

        let mut live = TraceSink::new();
        live.event_fmt(Scope::Experiment, "y", 1.0, || "built".to_string());
        let trace = live.finish();
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].detail, "built");
    }

    #[test]
    fn zero_length_spans_are_dropped() {
        let mut sink = TraceSink::new();
        sink.span(Scope::Node(0), SpanKind::Idle, 1.0, 1.0);
        assert!(sink.finish().spans.is_empty());
    }

    #[test]
    fn adjacent_node_decode_runs_coalesce() {
        let mut sink = TraceSink::new();
        sink.span(Scope::Node(0), SpanKind::Decode, 0.0, 1.0);
        sink.span(Scope::Node(0), SpanKind::Decode, 1.0, 2.0);
        sink.span(Scope::Node(0), SpanKind::Idle, 2.0, 3.0);
        sink.span(Scope::Node(0), SpanKind::Decode, 3.0, 4.0);
        let trace = sink.finish();
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.spans[0].end_s, 2.0);
    }

    #[test]
    fn request_spans_never_coalesce_across_nodes() {
        let mut sink = TraceSink::new();
        sink.span(Scope::Node(0), SpanKind::Decode, 0.0, 1.0);
        sink.span(Scope::Node(1), SpanKind::Decode, 1.0, 2.0);
        sink.span(Scope::Request(7), SpanKind::Decode, 0.0, 1.0);
        sink.span(Scope::Request(7), SpanKind::Decode, 1.0, 2.0);
        let trace = sink.finish();
        assert_eq!(trace.spans.len(), 4);
    }

    #[test]
    fn merge_assigns_lane_ids_in_input_order() {
        let mut a = TraceSink::new();
        a.span(Scope::Node(0), SpanKind::Idle, 0.0, 1.0);
        let mut b = TraceSink::new();
        b.event(Scope::Experiment, "y", 0.0, String::new());
        let merged = Trace::merge(vec![a.finish(), b.finish()]);
        assert_eq!(merged.spans[0].lane, 0);
        assert_eq!(merged.events[0].lane, 1);
        assert_eq!(merged.lane_count(), 2);
    }
}
