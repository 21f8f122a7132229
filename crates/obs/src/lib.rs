//! Deterministic sim-time observability for the confidential-inference sims.
//!
//! Everything in this crate is driven by the *simulated* clock, never the
//! wall clock, so traces are a pure function of the experiment inputs:
//!
//! - [`span::Span`] / [`span::TraceEvent`] — request-, node-, and
//!   experiment-scoped intervals and instants in simulated seconds.
//! - [`sink::TraceSink`] — a single-writer recorder threaded through a
//!   simulation. Each simulation lane records into its own sink with no
//!   synchronisation at all, and [`sink::Trace::merge`] joins lanes in
//!   deterministic input order, which alone assigns the lane ids.
//! - [`chrome`] — export to Chrome trace-event JSON (open in
//!   `chrome://tracing` or Perfetto).
//! - [`attribution`] — per-node busy/idle/outage accounting with hard
//!   conservation invariants (`busy + idle + outage == makespan`,
//!   per-request span chains sum to end-to-end latency).
//!
//! The sink is also cheap to disable: a [`sink::TraceSink::disabled`] sink
//! records nothing, which lets instrumented simulators share one code path
//! with the golden-pinned untraced entry points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
pub mod chrome;
pub mod sink;
pub mod span;

pub use attribution::{check, node_totals, request_chains, ConservationReport, NodeTotals};
pub use chrome::chrome_trace_json;
pub use sink::{Trace, TraceSink};
pub use span::{Scope, Span, SpanKind, TimeClass, TraceEvent};
