//! Wall-clock spans around the calls into each layer, plus work counters.
//!
//! Spans are kept in memory and written out as Chrome trace-event JSON
//! when the run ends. Every layer span is a direct child of the span of
//! the operation (request, batch or simulation) that caused it, and all
//! spans of one serving of an operation carry the same id. Layer spans never nest, so a
//! layer's self time is simply the sum of its span durations.
//!
//! With tracing off, [`Tracer::layer`] only calls the closure; counters
//! are always kept, since they cost one map update per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    op: u64,
    /// Operation spans have no parent; layer spans belong to `op`.
    is_op: bool,
    start: Instant,
    end: Instant,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    /// Operations run so far; the id of the latest one.
    op: u64,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// A tracer that records nothing and whose counters are discarded
    /// (set-up and warm-up operations).
    pub fn off() -> Self {
        Tracer::new(false)
    }

    /// Run one operation; returns its result and wall seconds, and
    /// records its span when tracing.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        self.op += 1;
        let start = Instant::now();
        let out = f(self);
        let secs = start.elapsed().as_secs_f64();
        if self.enabled {
            self.push(name, true, start);
        }
        (out, secs)
    }

    /// Run one call into layer `name`, recording its span when tracing.
    pub fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.push(name, false, start);
        out
    }

    fn push(&mut self, name: &'static str, is_op: bool, start: Instant) {
        self.spans.push(Span {
            name,
            op: self.op,
            is_op,
            start,
            end: Instant::now(),
        });
    }

    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_insert(0.0) += n;
    }

    /// Operations run so far.
    #[allow(clippy::cast_precision_loss)]
    pub fn ops(&self) -> f64 {
        self.op as f64
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Summed seconds of every layer span named `name`.
    pub fn layer_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| !s.is_op && s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Summed seconds of all operation spans.
    pub fn ops_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.is_op)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Summed seconds of all layer spans.
    pub fn layers_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| !s.is_op)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Chrome trace-event JSON of every span (timestamps in µs).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ts = (s.start - self.origin).as_secs_f64() * 1e6;
            let dur = (s.end - s.start).as_secs_f64() * 1e6;
            let cat = if s.is_op { "op" } else { "layer" };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":1,\"tid\":1,\"args\":{{\"op\":{}}}}}",
                s.name, s.op
            );
        }
        out.push_str("]}\n");
        out
    }
}
