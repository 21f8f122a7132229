//! Iteration-level (continuous) batching over a paged KV cache.
//!
//! Like vLLM's scheduler: between decode iterations, waiting requests are
//! admitted into the running batch if the batch cap and the KV-memory
//! budget allow. Requests that finish free their slots immediately.
//!
//! Two KV-memory models coexist behind [`KvPolicy`]:
//!
//! * **Conservative** (default) — the original model: admission reserves
//!   each request's *full* prompt + output extent up front, so admitted
//!   requests never have to be evicted. The reservation is tracked
//!   incrementally in whole tokens (KV bytes are linear in tokens, and
//!   every per-sequence byte value is an exact dyadic float, so the
//!   token-sum converts to bit-identical byte totals); a debug assertion
//!   re-derives the sum from the running batch on every admission.
//! * **Paged** ([`KvPolicy::PagedRecompute`] / [`KvPolicy::PagedSwap`]) —
//!   a [`PagePool`] block allocator carves the same byte budget into
//!   fixed `block_tokens` pages. Admission reserves *prompt* pages only;
//!   sequences grow page-by-page during decode, and when the pool runs
//!   dry the newest sequences are preempted: **recompute** drops their
//!   pages and re-prefills on readmission, **swap** pages them out (the
//!   driver prices the traffic through the platform's EPC-paging or
//!   bounce-buffer path) and restores them with a swap-in stall.
//!
//! The preemption order (always from the tail, never the oldest running
//! sequence) plus front-of-queue readmission makes both policies
//! starvation-free: the head sequence monotonically progresses to
//! completion, freeing pages for everyone behind it.

use crate::workload::Request;
use cllm_hw::DType;
use cllm_workload::kv::{self, PagePool};
use cllm_workload::ModelConfig;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A request resident in the running batch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActiveRequest {
    /// The underlying request.
    pub request: Request,
    /// Decode steps completed so far.
    pub generated: u64,
    /// Time the prefill finished (first token), seconds.
    pub first_token_s: f64,
}

impl ActiveRequest {
    /// Current context length (prompt + generated).
    #[must_use]
    pub fn context(&self) -> u64 {
        self.request.prompt_tokens + self.generated
    }

    /// Whether the output budget is exhausted.
    #[must_use]
    pub fn done(&self) -> bool {
        self.generated >= self.request.output_tokens
    }
}

/// Scheduler limits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulerLimits {
    /// Maximum concurrent sequences in the batch.
    pub max_batch: usize,
    /// KV-cache memory budget in bytes. Under a paged policy this is the
    /// page-pool arena the blocks are carved from.
    pub kv_budget_bytes: f64,
}

/// How the batcher manages KV memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KvPolicy {
    /// Reserve the full prompt + output extent at admission; never evict.
    Conservative,
    /// Paged allocation; on pressure, drop the victim's pages and
    /// re-prefill it from scratch when readmitted.
    PagedRecompute,
    /// Paged allocation; on pressure, page the victim's KV out through
    /// the priced swap path and stall on swap-in at readmission.
    PagedSwap,
}

impl KvPolicy {
    /// Whether this policy allocates through the page pool.
    #[must_use]
    pub fn is_paged(self) -> bool {
        !matches!(self, KvPolicy::Conservative)
    }

    /// Stable identifier used in tables and CLI flags.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            KvPolicy::Conservative => "conservative",
            KvPolicy::PagedRecompute => "recompute",
            KvPolicy::PagedSwap => "swap",
        }
    }

    /// Parse a `--kv-policy` flag value.
    #[must_use]
    pub fn from_flag(s: &str) -> Option<Self> {
        match s {
            "conservative" => Some(KvPolicy::Conservative),
            "recompute" => Some(KvPolicy::PagedRecompute),
            "swap" => Some(KvPolicy::PagedSwap),
            _ => None,
        }
    }
}

/// KV-memory configuration of a serving run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KvConfig {
    /// Eviction / reservation policy.
    pub policy: KvPolicy,
    /// Tokens per KV page under a paged policy.
    pub block_tokens: u64,
    /// Static batching: admit only into an empty batch, so each batch
    /// runs to completion before the next forms (the paper's offline
    /// batching regime, as opposed to continuous admission).
    pub static_batching: bool,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            policy: KvPolicy::Conservative,
            block_tokens: 16,
            static_batching: false,
        }
    }
}

/// Cap on retained queue-wait samples (see [`QueueStats::record_wait`]).
pub const WAIT_SAMPLE_CAP: usize = 1 << 18;

/// Queue-pressure statistics the batcher accumulates so shedding
/// decisions are observable even in fault-free runs: the deepest the
/// admission queue ever got, and the waits (enqueue → admission) of
/// admitted requests.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueStats {
    /// Deepest the admission queue got, in requests.
    pub depth_peak: usize,
    wait_count: u64,
    wait_sum_s: f64,
    wait_samples: Vec<f64>,
    stride: u64,
}

impl Default for QueueStats {
    fn default() -> Self {
        QueueStats {
            depth_peak: 0,
            wait_count: 0,
            wait_sum_s: 0.0,
            wait_samples: Vec::new(),
            stride: 1,
        }
    }
}

impl QueueStats {
    /// Record one admission wait. The mean is accumulated exactly (same
    /// addition order as summing a full vector in admission order), while
    /// percentile samples are bounded by deterministic stride decimation:
    /// every `stride`-th wait is retained, and when the retained set hits
    /// [`WAIT_SAMPLE_CAP`] the even-position half is kept and the stride
    /// doubles. Unlike keep-first-N, the retained set always spans the
    /// whole run uniformly, so late-run congestion moves the sampled
    /// percentiles instead of being silently dropped. Below the cap the
    /// behaviour is identical to keeping every wait (stride stays 1).
    /// The policy is deterministic — two runs of the same schedule retain
    /// identical samples — and at the million-request bench scale it
    /// bounds memory at a few MiB instead of growing one `f64` per
    /// admission forever.
    pub fn record_wait(&mut self, wait_s: f64) {
        let index = self.wait_count;
        self.wait_count += 1;
        self.wait_sum_s += wait_s;
        if !index.is_multiple_of(self.stride) {
            return;
        }
        if self.wait_samples.len() == WAIT_SAMPLE_CAP {
            // Decimate: keep even positions (global indices that remain
            // multiples of the doubled stride). The cap is even, so the
            // current index — a multiple of the old stride landing right
            // after the last kept even position — stays aligned.
            let mut keep = 0usize;
            for i in (0..self.wait_samples.len()).step_by(2) {
                self.wait_samples[keep] = self.wait_samples[i];
                keep += 1;
            }
            self.wait_samples.truncate(keep);
            self.stride *= 2;
            if !index.is_multiple_of(self.stride) {
                return;
            }
        }
        self.wait_samples.push(wait_s);
    }

    /// Number of admission waits recorded.
    #[must_use]
    pub fn wait_count(&self) -> u64 {
        self.wait_count
    }

    /// Sum of all admission waits, seconds (exact admission-order sum).
    #[must_use]
    pub fn wait_sum_s(&self) -> f64 {
        self.wait_sum_s
    }

    /// Retained wait samples, admission order: every `stride`-th wait,
    /// where the stride doubles whenever the retained set would exceed
    /// [`WAIT_SAMPLE_CAP`] — a uniform decimation over the whole run,
    /// never just its prefix.
    #[must_use]
    pub fn wait_samples(&self) -> &[f64] {
        &self.wait_samples
    }

    /// Current decimation stride (1 until the sample cap is first hit).
    #[must_use]
    pub fn wait_sample_stride(&self) -> u64 {
        self.stride
    }
}

/// One admission decision returned by [`ContinuousBatcher::admit_any`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// A fresh (or recompute-readmitted) request: the caller must charge
    /// its prefill and then [`ContinuousBatcher::start`] it.
    Fresh(Request),
    /// A swapped-out sequence re-entering the batch with its decode
    /// progress intact. The batcher has already re-inserted it into the
    /// running batch; the caller owes the swap-in stall for
    /// `swap_in_tokens` tokens of KV.
    Resumed {
        /// The readmitted request (identifies the sequence for spans).
        request: Request,
        /// Tokens of KV paged back in.
        swap_in_tokens: u64,
    },
}

/// Outcome of [`ContinuousBatcher::prepare_step`]: the pressure actions
/// taken to make the next decode step fit in the page pool.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepPrep {
    /// Victims whose pages were dropped; they re-enter the queue front
    /// and re-prefill on readmission (tail-first pop order).
    pub preempted_recompute: Vec<Request>,
    /// Victims paged out with progress intact; the caller owes the
    /// swap-out traffic for each victim's `context()` tokens.
    pub preempted_swap: Vec<ActiveRequest>,
    /// KV pages resident during the coming step (0 under the
    /// conservative policy, which prices no page-level pressure).
    pub resident_pages: u64,
}

/// The continuous batcher: a FIFO admission queue plus the running batch,
/// with KV memory managed per [`KvConfig`].
#[derive(Debug)]
pub struct ContinuousBatcher {
    limits: SchedulerLimits,
    kv: KvConfig,
    queue: VecDeque<(Request, f64)>, // (request, enqueue time)
    /// Swapped-out sequences awaiting readmission, oldest first.
    swapped: VecDeque<ActiveRequest>,
    running: Vec<ActiveRequest>,
    stats: QueueStats,
    /// Conservative policy: total reserved tokens (prompt + output) of
    /// the running batch, maintained incrementally so admission is O(1)
    /// in the batch size instead of re-summing every running sequence.
    reserved_tokens: u64,
    /// Paged policies: the block allocator (lazily sized on first
    /// admission, when model and dtype are known).
    pool: Option<PagePool>,
}

impl ContinuousBatcher {
    /// An empty scheduler with the default (conservative) KV policy.
    #[must_use]
    pub fn new(limits: SchedulerLimits) -> Self {
        Self::configured(limits, KvConfig::default())
    }

    /// An empty scheduler with an explicit KV configuration.
    #[must_use]
    pub fn configured(limits: SchedulerLimits, kv: KvConfig) -> Self {
        ContinuousBatcher {
            limits,
            kv,
            queue: VecDeque::new(),
            swapped: VecDeque::new(),
            running: Vec::new(),
            stats: QueueStats::default(),
            reserved_tokens: 0,
            pool: None,
        }
    }

    /// The page pool, once a paged policy has sized it.
    #[must_use]
    pub fn pool(&self) -> Option<&PagePool> {
        self.pool.as_ref()
    }

    /// Enqueue an arriving request; its queue wait is measured from its
    /// own arrival time.
    pub fn enqueue(&mut self, request: Request) {
        let at_s = request.arrival_s;
        self.enqueue_at(request, at_s);
    }

    /// Enqueue a request whose wait clock starts at `at_s` — retried
    /// victims re-enter the queue long after their original arrival.
    pub fn enqueue_at(&mut self, request: Request, at_s: f64) {
        self.queue.push_back((request, at_s));
        self.stats.depth_peak = self.stats.depth_peak.max(self.queue.len());
    }

    /// Requests waiting for admission.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The queued (not yet admitted) requests, FIFO order — read-only,
    /// for admission controllers that need per-class queue occupancy
    /// (e.g. tiered caps) without shedding anything.
    pub fn queued_requests(&self) -> impl Iterator<Item = &Request> + '_ {
        self.queue.iter().map(|(r, _)| r)
    }

    /// Swapped-out sequences waiting to be paged back in.
    #[must_use]
    pub fn swapped_out(&self) -> usize {
        self.swapped.len()
    }

    /// Queue-pressure statistics accumulated so far.
    #[must_use]
    pub fn queue_stats(&self) -> &QueueStats {
        &self.stats
    }

    /// Remove and return every queued request matching `pred` (admission
    /// control: deadline shedding). Running requests are untouched.
    pub fn shed(&mut self, pred: impl Fn(&Request) -> bool) -> Vec<Request> {
        let mut kept = VecDeque::with_capacity(self.queue.len());
        let mut shed = Vec::new();
        for (request, at_s) in self.queue.drain(..) {
            if pred(&request) {
                shed.push(request);
            } else {
                kept.push_back((request, at_s));
            }
        }
        self.queue = kept;
        shed
    }

    /// The running batch.
    #[must_use]
    pub fn running(&self) -> &[ActiveRequest] {
        &self.running
    }

    /// KV bytes the running batch holds for `model` at `dtype`.
    #[must_use]
    pub fn kv_in_use(&self, model: &ModelConfig, dtype: DType) -> f64 {
        self.running
            .iter()
            .map(|a| kv::kv_bytes_per_sequence(model, a.context(), dtype))
            .sum()
    }

    /// Admit queued requests (FIFO) while the batch cap and KV budget
    /// allow, reserving each request's *full* KV extent (prompt + output)
    /// so admitted requests never have to be evicted. Returns the newly
    /// admitted requests (their prefills must be charged by the caller).
    ///
    /// This is the conservative-reservation path; paged drivers call
    /// [`ContinuousBatcher::admit_any`] instead.
    pub fn admit(&mut self, model: &ModelConfig, dtype: DType, now_s: f64) -> Vec<Request> {
        // The incremental token counter must agree with a fresh re-sum of
        // the running batch (callers start every admitted request before
        // the next admission boundary). KV bytes are linear in tokens, so
        // comparing in tokens is exact.
        debug_assert_eq!(
            self.reserved_tokens,
            self.running
                .iter()
                .map(|a| a.request.prompt_tokens + a.request.output_tokens)
                .sum::<u64>(),
            "incremental KV reservation drifted from the running batch"
        );
        let mut admitted = Vec::new();
        let mut kv_reserved: f64 = kv::kv_bytes_per_sequence(model, self.reserved_tokens, dtype);
        while self.running.len() + admitted.len() < self.limits.max_batch {
            let Some((front, _)) = self.queue.front() else {
                break;
            };
            let need =
                kv::kv_bytes_per_sequence(model, front.prompt_tokens + front.output_tokens, dtype);
            if kv_reserved + need > self.limits.kv_budget_bytes {
                // Liveness clamp: a request whose extent alone exceeds the
                // budget would block an empty batch forever — admit it solo
                // and let it run oversubscribed (mirrors the paged path's
                // reserve_clamped). Otherwise FIFO head-of-line blocking,
                // like vLLM's default.
                let alone = self.running.is_empty() && admitted.is_empty();
                if !(alone && need > self.limits.kv_budget_bytes) {
                    break;
                }
            }
            kv_reserved += need;
            let (request, enqueued_s) = self.queue.pop_front().expect("front checked");
            self.reserved_tokens += request.prompt_tokens + request.output_tokens;
            self.stats.record_wait((now_s - enqueued_s).max(0.0));
            admitted.push(request);
        }
        admitted
    }

    /// Size (once) the page pool from the byte budget: `kv_budget_bytes`
    /// divided into `block_tokens`-sized pages for `model` at `dtype`.
    fn ensure_pool(&mut self, model: &ModelConfig, dtype: DType) {
        if self.pool.is_some() {
            return;
        }
        let page_bytes = kv::kv_bytes_per_sequence(model, self.kv.block_tokens, dtype);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let pages = if page_bytes > 0.0 {
            (self.limits.kv_budget_bytes / page_bytes).floor().max(1.0) as u64
        } else {
            1
        };
        self.pool = Some(PagePool::new(pages, self.kv.block_tokens));
    }

    /// Policy-dispatching admission. Conservative configs take exactly
    /// the [`ContinuousBatcher::admit`] path; paged configs admit on
    /// prompt pages only (readmitting swapped-out sequences first, FIFO
    /// with head-of-line blocking) and leave output growth to
    /// [`ContinuousBatcher::prepare_step`].
    pub fn admit_any(&mut self, model: &ModelConfig, dtype: DType, now_s: f64) -> Vec<Admission> {
        if self.kv.static_batching && !self.running.is_empty() {
            return Vec::new();
        }
        if !self.kv.policy.is_paged() {
            return self
                .admit(model, dtype, now_s)
                .into_iter()
                .map(Admission::Fresh)
                .collect();
        }
        self.ensure_pool(model, dtype);
        let pool = self.pool.as_mut().expect("pool just ensured");
        let mut out = Vec::new();
        // 1) Swapped-out sequences first: they were admitted before
        //    anything still queued, and hold users mid-generation.
        while self.running.len() < self.limits.max_batch {
            let Some(front) = self.swapped.front() else {
                break;
            };
            let tokens = front.context();
            if !pool.try_reserve(front.request.id, tokens) {
                if self.running.is_empty() {
                    // Liveness clamp: an oversized sequence alone still
                    // runs (partially resident, priced by pressure).
                    pool.reserve_clamped(front.request.id, tokens);
                } else {
                    break; // head-of-line: preserve readmission order
                }
            }
            let seq = self.swapped.pop_front().expect("front checked");
            out.push(Admission::Resumed {
                request: seq.request,
                swap_in_tokens: tokens,
            });
            self.running.push(seq);
        }
        // 2) Fresh requests on prompt pages only (+1 for the token the
        //    prefill itself emits).
        let mut fresh = 0usize;
        while self.running.len() + fresh < self.limits.max_batch {
            let Some((front, _)) = self.queue.front() else {
                break;
            };
            let tokens = front.prompt_tokens + 1;
            if !pool.try_reserve(front.id, tokens) {
                if self.running.is_empty() && fresh == 0 {
                    pool.reserve_clamped(front.id, tokens);
                } else {
                    break;
                }
            }
            let (request, enqueued_s) = self.queue.pop_front().expect("front checked");
            self.stats.record_wait((now_s - enqueued_s).max(0.0));
            out.push(Admission::Fresh(request));
            fresh += 1;
        }
        out
    }

    /// Insert an admitted request whose prefill completed at
    /// `first_token_s`.
    pub fn start(&mut self, request: Request, first_token_s: f64) {
        self.running.push(ActiveRequest {
            request,
            generated: 1, // the prefill produced the first token
            first_token_s,
        });
    }

    /// Make room for the next decode step under a paged policy: grow
    /// every running sequence by the token it is about to emit, preempting
    /// from the batch tail (newest first — never the head, so the oldest
    /// sequence always progresses and no one starves) until the pool
    /// fits. Conservative configs return an empty prep unchanged.
    pub fn prepare_step(&mut self, now_s: f64) -> StepPrep {
        let mut prep = StepPrep::default();
        if !self.kv.policy.is_paged() {
            return prep;
        }
        let Some(pool) = self.pool.as_mut() else {
            return prep;
        };
        loop {
            let needed: u64 = self
                .running
                .iter()
                .map(|a| pool.pages_for(a.context() + 1))
                .sum();
            if needed <= pool.total_pages() || self.running.len() <= 1 {
                break;
            }
            let victim = self.running.pop().expect("len > 1 checked");
            pool.release(victim.request.id);
            match self.kv.policy {
                KvPolicy::PagedRecompute => {
                    // Pages dropped; progress lost. Front-of-queue entry
                    // readmits the victim before anything younger.
                    self.queue.push_front((victim.request, now_s));
                    self.stats.depth_peak = self.stats.depth_peak.max(self.queue.len());
                    prep.preempted_recompute.push(victim.request);
                }
                KvPolicy::PagedSwap => prep.preempted_swap.push(victim),
                KvPolicy::Conservative => unreachable!("conservative returned above"),
            }
        }
        // Tail-first popping yields newest-first victims; append oldest
        // first so swap readmission stays FIFO by original admission.
        for v in prep.preempted_swap.iter().rev() {
            self.swapped.push_back(*v);
        }
        for a in &self.running {
            let target = a.context() + 1;
            if !pool.try_reserve(a.request.id, target) {
                // Only a sole survivor larger than the pool lands here.
                pool.reserve_clamped(a.request.id, target);
            }
        }
        prep.resident_pages = pool.pages_in_use();
        prep
    }

    /// Advance every running request by one decode step; remove and
    /// return the ones that finished (their KV is released).
    pub fn step(&mut self) -> Vec<ActiveRequest> {
        for a in &mut self.running {
            a.generated += 1;
        }
        let mut finished = Vec::new();
        self.running.retain(|a| {
            if a.done() {
                finished.push(*a);
                false
            } else {
                true
            }
        });
        for f in &finished {
            if let Some(pool) = self.pool.as_mut() {
                pool.release(f.request.id);
            } else {
                self.reserved_tokens = self
                    .reserved_tokens
                    .saturating_sub(f.request.prompt_tokens + f.request.output_tokens);
            }
        }
        finished
    }

    /// Whether any work remains (queued, running, or swapped out).
    #[must_use]
    pub fn idle(&self) -> bool {
        self.queue.is_empty() && self.running.is_empty() && self.swapped.is_empty()
    }

    /// Remove and return the entire running batch: the node crashed and
    /// every resident request lost its KV cache. Swapped-out sequences
    /// are lost with the node too (their swap image is useless without
    /// the enclave that owns it). Queued (not yet admitted) requests are
    /// unaffected — they hold no enclave state.
    pub fn drain_running(&mut self) -> Vec<ActiveRequest> {
        self.reserved_tokens = 0;
        let mut out = std::mem::take(&mut self.running);
        if let Some(pool) = self.pool.as_mut() {
            for a in &out {
                pool.release(a.request.id);
            }
        }
        out.extend(self.swapped.drain(..));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cllm_workload::zoo;

    fn req(id: u64, prompt: u64, output: u64) -> Request {
        Request {
            id,
            arrival_s: 0.0,
            prompt_tokens: prompt,
            output_tokens: output,
        }
    }

    fn limits(max_batch: usize, kv_gib: f64) -> SchedulerLimits {
        SchedulerLimits {
            max_batch,
            kv_budget_bytes: kv_gib * cllm_hw::GIB,
        }
    }

    fn paged(policy: KvPolicy, max_batch: usize, kv_gib: f64) -> ContinuousBatcher {
        ContinuousBatcher::configured(
            limits(max_batch, kv_gib),
            KvConfig {
                policy,
                ..KvConfig::default()
            },
        )
    }

    #[test]
    fn batch_cap_enforced() {
        let model = zoo::llama2_7b();
        let mut s = ContinuousBatcher::new(limits(2, 100.0));
        for i in 0..5 {
            s.enqueue(req(i, 64, 16));
        }
        let admitted = s.admit(&model, DType::Bf16, 0.0);
        assert_eq!(admitted.len(), 2);
        assert_eq!(s.queued(), 3);
    }

    #[test]
    fn kv_budget_enforced() {
        let model = zoo::llama2_7b();
        // One 2048-token sequence holds ~1 GiB of KV at bf16; a 1.5 GiB
        // budget admits exactly one.
        let mut s = ContinuousBatcher::new(limits(16, 1.5));
        s.enqueue(req(0, 2000, 48));
        s.enqueue(req(1, 2000, 48));
        let admitted = s.admit(&model, DType::Bf16, 0.0);
        assert_eq!(admitted.len(), 1);
    }

    #[test]
    fn fifo_order_preserved() {
        let model = zoo::llama2_7b();
        let mut s = ContinuousBatcher::new(limits(3, 100.0));
        for i in 0..3 {
            s.enqueue(req(i, 32, 8));
        }
        let admitted = s.admit(&model, DType::Bf16, 0.0);
        let ids: Vec<u64> = admitted.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn requests_finish_after_output_budget() {
        let model = zoo::llama2_7b();
        let mut s = ContinuousBatcher::new(limits(4, 100.0));
        s.enqueue(req(0, 16, 3));
        for r in s.admit(&model, DType::Bf16, 0.0) {
            s.start(r, 0.1);
        }
        // first token came from prefill; two more decode steps finish it.
        assert!(s.step().is_empty());
        let finished = s.step();
        assert_eq!(finished.len(), 1);
        assert!(s.idle());
    }

    #[test]
    fn continuous_admission_between_steps() {
        let model = zoo::llama2_7b();
        let mut s = ContinuousBatcher::new(limits(2, 100.0));
        s.enqueue(req(0, 16, 2));
        s.enqueue(req(1, 16, 8));
        s.enqueue(req(2, 16, 8));
        for r in s.admit(&model, DType::Bf16, 0.0) {
            s.start(r, 0.1);
        }
        assert_eq!(s.running().len(), 2);
        let _ = s.step(); // request 0 finishes (budget 2: prefill + 1 step)
        assert_eq!(s.running().len(), 1);
        // The freed slot admits request 2 at the next boundary.
        let admitted = s.admit(&model, DType::Bf16, 0.2);
        assert_eq!(admitted.len(), 1);
        assert_eq!(admitted[0].id, 2);
    }

    #[test]
    fn queue_stats_track_depth_and_waits() {
        let model = zoo::llama2_7b();
        let mut s = ContinuousBatcher::new(limits(2, 100.0));
        for i in 0..4 {
            s.enqueue(req(i, 16, 4)); // arrival_s = 0.0
        }
        assert_eq!(s.queue_stats().depth_peak, 4);
        let admitted = s.admit(&model, DType::Bf16, 0.5);
        assert_eq!(admitted.len(), 2);
        // Both admissions waited 0.5 s from their arrival at t=0.
        assert_eq!(s.queue_stats().wait_samples(), [0.5, 0.5]);
        assert_eq!(s.queue_stats().wait_count(), 2);
        assert!((s.queue_stats().wait_sum_s() - 1.0).abs() < 1e-12);
        // A retry enqueued late measures its wait from the re-enqueue.
        s.enqueue_at(req(9, 16, 4), 10.0);
        let _ = s.step(); // nothing running; no-op
        assert_eq!(s.queue_stats().depth_peak, 4, "peak is a high-water mark");
    }

    #[test]
    fn wait_sampler_sees_late_congestion() {
        // Regression for the keep-first-N percentile bias: a schedule
        // that is quiet for the first WAIT_SAMPLE_CAP admissions and
        // congested afterwards must surface the late waits in the
        // retained samples, not only in the mean.
        let mut q = QueueStats::default();
        for _ in 0..WAIT_SAMPLE_CAP {
            q.record_wait(0.01);
        }
        for _ in 0..WAIT_SAMPLE_CAP {
            q.record_wait(5.0);
        }
        let samples = q.wait_samples();
        assert!(samples.len() <= WAIT_SAMPLE_CAP, "cap must hold");
        assert!(q.wait_sample_stride() > 1, "cap overflow must decimate");
        let late = samples.iter().filter(|&&w| w > 1.0).count();
        // Half the run was congested, so roughly half the retained
        // samples must come from it (keep-first-N retained zero).
        assert!(
            (late as f64) > 0.4 * samples.len() as f64,
            "late congestion underrepresented: {late}/{}",
            samples.len()
        );
        // Sampled p99 must reflect the congested half.
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(sorted[(sorted.len() * 99) / 100] > 1.0);
        assert_eq!(q.wait_count(), 2 * WAIT_SAMPLE_CAP as u64);
    }

    #[test]
    fn wait_sampler_is_exact_below_cap() {
        let mut q = QueueStats::default();
        for i in 0..1000 {
            q.record_wait(f64::from(i) * 0.001);
        }
        assert_eq!(q.wait_samples().len(), 1000, "below cap keeps all");
        assert_eq!(q.wait_sample_stride(), 1);
        assert!((q.wait_samples()[999] - 0.999).abs() < 1e-12);
    }

    #[test]
    fn wait_sampler_retains_uniform_stride_indices() {
        // After decimation the retained set is exactly the global
        // indices that are multiples of the final stride.
        let mut q = QueueStats::default();
        let n = WAIT_SAMPLE_CAP as u64 * 3;
        for i in 0..n {
            #[allow(clippy::cast_precision_loss)]
            q.record_wait(i as f64);
        }
        let stride = q.wait_sample_stride();
        assert!(stride >= 2);
        for (j, &w) in q.wait_samples().iter().enumerate() {
            #[allow(clippy::cast_precision_loss)]
            let expect = (j as u64 * stride) as f64;
            assert!((w - expect).abs() < 1e-9, "sample {j}: {w} != {expect}");
        }
    }

    #[test]
    fn shed_removes_only_matching_queued_requests() {
        let model = zoo::llama2_7b();
        let mut s = ContinuousBatcher::new(limits(1, 100.0));
        for i in 0..3 {
            s.enqueue(req(i, 16, 4));
        }
        for r in s.admit(&model, DType::Bf16, 0.0) {
            s.start(r, 0.1);
        }
        let shed = s.shed(|r| r.id == 2);
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].id, 2);
        assert_eq!(s.queued(), 1);
        assert_eq!(s.running().len(), 1, "running batch untouched by shed");
    }

    #[test]
    fn kv_in_use_tracks_context() {
        let model = zoo::llama2_7b();
        let mut s = ContinuousBatcher::new(limits(2, 100.0));
        s.enqueue(req(0, 100, 10));
        for r in s.admit(&model, DType::Bf16, 0.0) {
            s.start(r, 0.0);
        }
        let before = s.kv_in_use(&model, DType::Bf16);
        let _ = s.step();
        let after = s.kv_in_use(&model, DType::Bf16);
        assert!(after > before);
    }

    fn start_all(s: &mut ContinuousBatcher, model: &ModelConfig, now: f64) -> usize {
        let admitted = s.admit_any(model, DType::Bf16, now);
        let n = admitted.len();
        for a in admitted {
            if let Admission::Fresh(r) = a {
                s.start(r, now);
            }
        }
        n
    }

    #[test]
    fn paged_admission_needs_only_prompt_pages() {
        let model = zoo::llama2_7b();
        // Conservative reserves 2048+512 tokens (= 1.25 GiB) per request
        // and admits one into 2.1 GiB; paged admission reserves prompt
        // pages only (~1 GiB each) and fits both.
        let mut cons = ContinuousBatcher::new(limits(16, 2.1));
        let mut page = paged(KvPolicy::PagedRecompute, 16, 2.1);
        for s in [&mut cons, &mut page] {
            s.enqueue(req(0, 2048, 512));
            s.enqueue(req(1, 2048, 512));
        }
        assert_eq!(cons.admit(&model, DType::Bf16, 0.0).len(), 1);
        assert_eq!(start_all(&mut page, &model, 0.0), 2);
    }

    #[test]
    fn paged_sequences_grow_page_by_page() {
        let model = zoo::llama2_7b();
        let mut s = paged(KvPolicy::PagedRecompute, 4, 100.0);
        s.enqueue(req(0, 20, 40));
        start_all(&mut s, &model, 0.0);
        let pages_at = |s: &ContinuousBatcher| s.pool().unwrap().pages_in_use();
        // 21 tokens at block 16 = 2 pages after admission.
        assert_eq!(pages_at(&s), 2);
        for _ in 0..11 {
            let _ = s.prepare_step(0.0);
            let _ = s.step();
        }
        // context 32 -> next step needs 33 tokens = 3 pages.
        let _ = s.prepare_step(0.0);
        assert_eq!(pages_at(&s), 3);
    }

    #[test]
    fn recompute_preemption_evicts_tail_and_requeues_front() {
        let model = zoo::llama2_7b();
        // Pool of 3 pages at block 16: two 17-token (2-page) sequences
        // cannot both grow.
        let bytes_per_tok = kv::kv_bytes_per_sequence(&model, 1, DType::Bf16);
        let mut s = ContinuousBatcher::configured(
            SchedulerLimits {
                max_batch: 4,
                kv_budget_bytes: 3.0 * 16.0 * bytes_per_tok,
            },
            KvConfig {
                policy: KvPolicy::PagedRecompute,
                ..KvConfig::default()
            },
        );
        s.enqueue(req(0, 14, 8));
        s.enqueue(req(1, 14, 8));
        assert_eq!(start_all(&mut s, &model, 0.0), 2); // 1 page each
                                                       // Grow both to 16 tokens: still 1 page each.
        let p = s.prepare_step(0.1);
        assert!(p.preempted_recompute.is_empty());
        let _ = s.step();
        // Next step needs 17 tokens = 2 pages each = 4 > 3: evict the
        // newest (id 1), which re-enters the queue front.
        let p = s.prepare_step(0.2);
        assert_eq!(p.preempted_recompute.len(), 1);
        assert_eq!(p.preempted_recompute[0].id, 1);
        assert_eq!(s.running().len(), 1);
        assert_eq!(s.running()[0].request.id, 0);
        assert_eq!(s.queued(), 1);
        assert!(!s.idle(), "victim must remain schedulable");
    }

    #[test]
    fn swap_preemption_keeps_progress_and_resumes() {
        let model = zoo::llama2_7b();
        let bytes_per_tok = kv::kv_bytes_per_sequence(&model, 1, DType::Bf16);
        let mut s = ContinuousBatcher::configured(
            SchedulerLimits {
                max_batch: 4,
                kv_budget_bytes: 3.0 * 16.0 * bytes_per_tok,
            },
            KvConfig {
                policy: KvPolicy::PagedSwap,
                ..KvConfig::default()
            },
        );
        s.enqueue(req(0, 14, 4));
        s.enqueue(req(1, 14, 40));
        assert_eq!(start_all(&mut s, &model, 0.0), 2);
        let _ = s.prepare_step(0.1);
        let _ = s.step(); // both at 16 tokens
        let p = s.prepare_step(0.2);
        assert_eq!(p.preempted_swap.len(), 1);
        let victim = p.preempted_swap[0];
        assert_eq!(victim.request.id, 1);
        assert_eq!(victim.generated, 2, "progress travels with the swap");
        assert_eq!(s.swapped_out(), 1);
        // Finish request 0 (output 4: prefill + 3 steps), freeing pages.
        let _ = s.step();
        let finished = s.step();
        assert_eq!(finished.len(), 1);
        // Readmission resumes the swapped sequence with progress intact.
        let adm = s.admit_any(&model, DType::Bf16, 0.5);
        assert_eq!(adm.len(), 1);
        match adm[0] {
            Admission::Resumed {
                request,
                swap_in_tokens,
            } => {
                assert_eq!(request.id, 1);
                assert_eq!(swap_in_tokens, 16);
            }
            Admission::Fresh(_) => panic!("swap victims resume, not re-prefill"),
        }
        assert_eq!(s.running()[0].generated, 2);
    }

    #[test]
    fn static_batching_admits_only_into_empty_batch() {
        let model = zoo::llama2_7b();
        let mut s = ContinuousBatcher::configured(
            limits(2, 100.0),
            KvConfig {
                static_batching: true,
                ..KvConfig::default()
            },
        );
        for i in 0..3 {
            s.enqueue(req(i, 16, 3));
        }
        assert_eq!(start_all(&mut s, &model, 0.0), 2);
        let _ = s.step(); // one step remains for both
                          // Continuous batching would refill the free slot here; static
                          // admission waits for the whole batch to drain.
        assert_eq!(s.admit_any(&model, DType::Bf16, 0.1).len(), 0);
        let _ = s.step();
        assert!(s.running().is_empty());
        assert_eq!(start_all(&mut s, &model, 0.2), 1);
    }

    #[test]
    fn oversized_request_is_clamped_not_starved() {
        let model = zoo::llama2_7b();
        let bytes_per_tok = kv::kv_bytes_per_sequence(&model, 1, DType::Bf16);
        // Pool of 2 pages; the prompt alone needs 5.
        let mut s = ContinuousBatcher::configured(
            SchedulerLimits {
                max_batch: 4,
                kv_budget_bytes: 2.0 * 16.0 * bytes_per_tok,
            },
            KvConfig {
                policy: KvPolicy::PagedRecompute,
                ..KvConfig::default()
            },
        );
        s.enqueue(req(0, 70, 3));
        assert_eq!(start_all(&mut s, &model, 0.0), 1);
        let prep = s.prepare_step(0.1);
        assert_eq!(prep.resident_pages, 2, "fully occupied, partially resident");
        let _ = s.step();
        let _ = s.prepare_step(0.2);
        let finished = s.step();
        assert_eq!(finished.len(), 1);
        assert!(s.idle());
        assert_eq!(s.pool().unwrap().pages_in_use(), 0);
    }

    #[test]
    fn conservative_prepare_step_is_a_no_op() {
        let model = zoo::llama2_7b();
        let mut s = ContinuousBatcher::new(limits(4, 100.0));
        s.enqueue(req(0, 64, 8));
        for r in s.admit(&model, DType::Bf16, 0.0) {
            s.start(r, 0.0);
        }
        let prep = s.prepare_step(0.1);
        assert_eq!(prep, StepPrep::default());
        assert!(s.pool().is_none());
    }

    #[test]
    fn drain_running_reclaims_pages_and_swapped() {
        let model = zoo::llama2_7b();
        let bytes_per_tok = kv::kv_bytes_per_sequence(&model, 1, DType::Bf16);
        let mut s = ContinuousBatcher::configured(
            SchedulerLimits {
                max_batch: 4,
                kv_budget_bytes: 3.0 * 16.0 * bytes_per_tok,
            },
            KvConfig {
                policy: KvPolicy::PagedSwap,
                ..KvConfig::default()
            },
        );
        s.enqueue(req(0, 14, 40));
        s.enqueue(req(1, 14, 40));
        start_all(&mut s, &model, 0.0);
        let _ = s.prepare_step(0.1);
        let _ = s.step();
        let _ = s.prepare_step(0.2); // swaps out id 1
        assert_eq!(s.swapped_out(), 1);
        let drained = s.drain_running();
        assert_eq!(drained.len(), 2, "crash loses running and swapped state");
        assert!(s.idle());
        assert_eq!(s.pool().unwrap().pages_in_use(), 0);
    }
}
