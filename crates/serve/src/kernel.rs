//! The discrete-event simulation kernel shared by the serving drivers.
//!
//! [`sim`](crate::sim) (single node), [`cluster`](crate::cluster) (fixed
//! fleet) and [`autoscale`](crate::autoscale) (dynamic fleet) keep their
//! own arrival and routing loops, but every node in them runs the one
//! fault path and batching iteration of the crate-internal `node`
//! module, and all of them drive the same three primitives:
//!
//! * [`EventQueue`] — a binary-heap future-event list with a
//!   deterministic `(time, key, seq)` total order. Dynamically scheduled
//!   events (retry eligibility) go through the heap; statically known
//!   streams (arrivals, fault schedules) stay sorted vectors consumed by
//!   cursor, which is the degenerate sorted-array event queue. Popping
//!   is `O(log n)` where the old `min_by` rescans were `O(n)` per
//!   delivery — `O(n²)` across a crash storm.
//! * [`RequestSlab`] — arena-style per-request state indexed by the
//!   dense request id (the arrival generator numbers requests `0..n` in
//!   arrival order), replacing `HashMap<u64, _>`/`HashSet<u64>` lookups
//!   on the hot path. Absent span cursors are a NaN sentinel, so the
//!   slab costs three flat arrays and no hashing.
//! * [`KernelStats`] — event counters (arrivals, retries, faults,
//!   admissions, decode steps, completions, rejections, preemptions,
//!   swaps) whose sum is the kernel event count `serve_scale`
//!   benchmarks as events/sec.
//!
//! Determinism contract: the queue's order is a *total* order — ties on
//! time break by caller-chosen key (retries use the request id, so
//! delivery is `(eligibility, id)`-ordered exactly like the legacy
//! loops), then by insertion sequence. Event times must be finite;
//! pushing a non-finite time panics rather than silently reordering.

use serde::Serialize;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled entry. Ordering is reversed so the max-heap
/// [`BinaryHeap`] pops the *smallest* `(time, key, seq)` first.
struct Entry<T> {
    time: f64,
    key: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed on every field: the heap's max is the queue's min.
        other
            .time
            .partial_cmp(&self.time)
            // infallible: event times are sums of finite sim quantities; a NaN here is a kernel bug, not load-dependent state
            .expect("finite event time")
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A binary-heap future-event list with deterministic
/// `(time, key, seq)` tie-breaking.
///
/// `key` is caller-chosen (the serving loops use the request id so
/// same-instant retries deliver in id order); `seq` is the insertion
/// sequence number, making the order total even for identical
/// `(time, key)` pairs — and therefore independent of heap internals,
/// thread counts, and platform `sort` details.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> EventQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedule `payload` at `time` with tie-break key 0.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not finite (NaN would poison the heap order).
    pub fn push(&mut self, time: f64, payload: T) {
        self.push_keyed(time, 0, payload);
    }

    /// Schedule `payload` at `time`; ties on `time` break by `key`, then
    /// by insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not finite (NaN would poison the heap order).
    pub fn push_keyed(&mut self, time: f64, key: u64, payload: T) {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            time,
            key,
            seq,
            payload,
        });
    }

    /// Earliest scheduled time, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pop the earliest entry as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// Pop the earliest entry iff it is due at or before `now`.
    pub fn pop_due(&mut self, now: f64) -> Option<T> {
        if self.peek_time().is_some_and(|t| t <= now) {
            self.heap.pop().map(|e| e.payload)
        } else {
            None
        }
    }

    /// Number of scheduled entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// Arena-style per-request state, indexed by the dense request id.
///
/// The workload generator numbers requests `0..n` in arrival order, so
/// per-request state lives in flat arrays instead of hash maps: retry
/// attempt counts, the span-emission cursor (NaN when absent — latencies
/// are never NaN by construction, so the sentinel is unambiguous), and
/// the cluster's pending-spill flag. Out-of-range ids grow the slab, so
/// hand-built test fixtures with sparse ids stay correct, merely slower.
pub struct RequestSlab {
    attempts: Vec<u32>,
    cursor: Vec<f64>,
    spilled: Vec<bool>,
}

impl RequestSlab {
    /// A slab sized for requests `0..n`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        RequestSlab {
            attempts: vec![0; n],
            cursor: vec![f64::NAN; n],
            spilled: vec![false; n],
        }
    }

    /// Index for `id`, growing the slab if a sparse id exceeds it.
    #[allow(clippy::cast_possible_truncation)]
    fn slot(&mut self, id: u64) -> usize {
        let i = id as usize;
        if i >= self.attempts.len() {
            self.attempts.resize(i + 1, 0);
            self.cursor.resize(i + 1, f64::NAN);
            self.spilled.resize(i + 1, false);
        }
        i
    }

    /// Retry attempts recorded for `id` (0 if never seen).
    #[must_use]
    #[allow(clippy::cast_possible_truncation)]
    pub fn attempts(&self, id: u64) -> u32 {
        self.attempts.get(id as usize).copied().unwrap_or(0)
    }

    /// Increment and return `id`'s attempt count.
    pub fn bump_attempts(&mut self, id: u64) -> u32 {
        let i = self.slot(id);
        self.attempts[i] += 1;
        self.attempts[i]
    }

    /// The span cursor for `id`, if one is set.
    #[must_use]
    #[allow(clippy::cast_possible_truncation)]
    pub fn cursor(&self, id: u64) -> Option<f64> {
        let c = self.cursor.get(id as usize).copied()?;
        if c.is_nan() {
            None
        } else {
            Some(c)
        }
    }

    /// Set the span cursor for `id`.
    pub fn set_cursor(&mut self, id: u64, at_s: f64) {
        let i = self.slot(id);
        self.cursor[i] = at_s;
    }

    /// Take (and clear) the span cursor for `id`.
    pub fn take_cursor(&mut self, id: u64) -> Option<f64> {
        let i = self.slot(id);
        let c = self.cursor[i];
        self.cursor[i] = f64::NAN;
        if c.is_nan() {
            None
        } else {
            Some(c)
        }
    }

    /// Flag `id` as having crossed platform classes on failover.
    pub fn mark_spilled(&mut self, id: u64) {
        let i = self.slot(id);
        self.spilled[i] = true;
    }

    /// Take (and clear) `id`'s pending-spill flag.
    pub fn take_spilled(&mut self, id: u64) -> bool {
        let i = self.slot(id);
        std::mem::take(&mut self.spilled[i])
    }
}

/// Kernel event counters. Every counter is exact and deterministic (a
/// pure function of the simulation inputs), so experiment tables may pin
/// them in goldens; only the *wall-clock* events/sec derived from them
/// belongs in `BENCH_serve.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct KernelStats {
    /// Arrivals delivered to a scheduler (or router).
    pub arrivals: u64,
    /// Retry entries popped from the event queue and re-enqueued.
    pub retries_delivered: u64,
    /// Fault events applied at iteration boundaries.
    pub faults_applied: u64,
    /// Requests admitted into a running batch (prefills charged).
    pub admissions: u64,
    /// Whole-batch decode iterations stepped.
    pub decode_steps: u64,
    /// Requests that produced a completion record.
    pub completions: u64,
    /// Requests rejected: front-door shed plus deadline shed.
    pub rejections: u64,
    /// Sequences evicted from a running batch on KV-pool pressure
    /// (either policy). Zero under conservative reservation.
    pub preemptions: u64,
    /// Swap-policy evictions that paged their KV out through the priced
    /// bounce-buffer / EPC-paging path.
    pub swap_outs: u64,
    /// Swapped sequences paged back in on readmission.
    pub swap_ins: u64,
}

impl KernelStats {
    /// Total kernel events processed — the numerator of events/sec.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.arrivals
            + self.retries_delivered
            + self.faults_applied
            + self.admissions
            + self.decode_steps
            + self.completions
            + self.rejections
            + self.preemptions
            + self.swap_outs
            + self.swap_ins
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_break_by_key_then_seq() {
        let mut q = EventQueue::new();
        q.push_keyed(5.0, 7, "k7");
        q.push_keyed(5.0, 3, "k3-first");
        q.push_keyed(5.0, 3, "k3-second");
        q.push_keyed(4.0, 99, "earlier");
        assert_eq!(q.pop(), Some((4.0, "earlier")));
        assert_eq!(q.pop(), Some((5.0, "k3-first")));
        assert_eq!(q.pop(), Some((5.0, "k3-second")));
        assert_eq!(q.pop(), Some((5.0, "k7")));
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(1.0, 1u32);
        q.push(2.0, 2u32);
        assert_eq!(q.pop_due(1.5), Some(1));
        assert_eq!(q.pop_due(1.5), None, "2.0 is not due at 1.5");
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.pop_due(2.0), Some(2));
        assert_eq!(q.pop_due(f64::INFINITY), None);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_time_is_rejected() {
        EventQueue::new().push(f64::NAN, ());
    }

    #[test]
    fn retry_delivery_order_is_eligibility_then_id() {
        // The contract the serving loops rely on: among same-instant
        // retries, the smaller request id delivers first regardless of
        // the order crash victims were drained and re-queued.
        let mut q = EventQueue::new();
        for id in [7u64, 3, 9] {
            q.push_keyed(5.0, id, id);
        }
        q.push_keyed(4.0, 12, 12u64);
        let mut order = Vec::new();
        while let Some(id) = q.pop_due(5.0) {
            order.push(id);
        }
        assert_eq!(order, [12, 3, 7, 9]);
    }

    #[test]
    fn slab_tracks_attempts_cursor_and_spill() {
        let mut s = RequestSlab::new(2);
        assert_eq!(s.attempts(0), 0);
        assert_eq!(s.bump_attempts(0), 1);
        assert_eq!(s.bump_attempts(0), 2);
        assert_eq!(s.attempts(0), 2);
        assert_eq!(s.attempts(1), 0);

        assert_eq!(s.cursor(1), None);
        s.set_cursor(1, 3.5);
        assert_eq!(s.cursor(1), Some(3.5));
        assert_eq!(s.take_cursor(1), Some(3.5));
        assert_eq!(s.cursor(1), None);
        assert_eq!(s.take_cursor(1), None);

        assert!(!s.take_spilled(0));
        s.mark_spilled(0);
        assert!(s.take_spilled(0));
        assert!(!s.take_spilled(0), "take clears the flag");
    }

    #[test]
    fn slab_grows_for_sparse_ids() {
        let mut s = RequestSlab::new(0);
        assert_eq!(s.attempts(1000), 0);
        assert_eq!(s.bump_attempts(1000), 1);
        s.set_cursor(500, 1.0);
        assert_eq!(s.cursor(500), Some(1.0));
        assert_eq!(s.cursor(499), None);
    }

    #[test]
    fn stats_sum_to_events() {
        let s = KernelStats {
            arrivals: 1,
            retries_delivered: 2,
            faults_applied: 3,
            admissions: 4,
            decode_steps: 5,
            completions: 6,
            rejections: 7,
            preemptions: 8,
            swap_outs: 9,
            swap_ins: 10,
        };
        assert_eq!(s.events(), 55);
        assert_eq!(KernelStats::default().events(), 0);
    }
}
