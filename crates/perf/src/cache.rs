//! Memoized simulation layer: process-wide caches over [`simulate_cpu`]
//! and [`simulate_gpu`].
//!
//! Several experiment grids evaluate the *same* operating point more than
//! once — every overhead is a (baseline, TEE) pair and the bare-metal
//! baseline is shared across metrics (Figure 9 used to simulate the
//! identical bare-metal point twice per grid cell). The simulator is
//! deterministic (noise is seeded from the inputs), so a simulation is
//! fully described by its arguments and can be computed once and shared.
//!
//! Keys are the `Debug` rendering of the full argument tuple: every
//! parameter that influences the result derives `Debug`, so two calls get
//! the same entry exactly when the simulator would produce the same
//! output. Results are returned as [`Arc`]s; deref gives the same fields
//! as the uncached call.
//!
//! The experiment registry runs on one thread, but the cache stays
//! `Sync`: `cargo test` runs a binary's tests on several threads, and
//! they share it. A miss computes *outside* the lock so concurrent misses
//! never serialize behind a simulation; two threads racing on the same
//! key may both simulate, but determinism makes the duplicate insert
//! harmless.

use crate::cpu::{simulate_cpu, SimResult};
use crate::gpu::{simulate_gpu, GpuSimResult};
use crate::target::CpuTarget;
use cllm_hw::{DType, GpuModel};
use cllm_tee::platform::{CpuTeeConfig, GpuTeeConfig};
use cllm_workload::phase::RequestSpec;
use cllm_workload::ModelConfig;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

static CPU_CACHE: OnceLock<Mutex<HashMap<String, Arc<SimResult>>>> = OnceLock::new();
static GPU_CACHE: OnceLock<Mutex<HashMap<String, Arc<GpuSimResult>>>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

fn cpu_cache() -> &'static Mutex<HashMap<String, Arc<SimResult>>> {
    CPU_CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn gpu_cache() -> &'static Mutex<HashMap<String, Arc<GpuSimResult>>> {
    GPU_CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Counters and sizes of the simulation caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (CPU + GPU).
    pub hits: u64,
    /// Lookups that ran the simulator (CPU + GPU).
    pub misses: u64,
    /// Distinct CPU operating points currently cached.
    pub cpu_entries: usize,
    /// Distinct GPU operating points currently cached.
    pub gpu_entries: usize,
}

/// The cache key of a CPU operating point: the `Debug` rendering of the
/// full argument tuple. Public so higher layers (the `cllm-core`
/// scenario builder) can identify a point without duplicating the key
/// scheme.
#[must_use]
pub fn cpu_key(
    model: &ModelConfig,
    req: &RequestSpec,
    dtype: DType,
    target: &CpuTarget,
    tee: &CpuTeeConfig,
) -> String {
    format!("{model:?}|{req:?}|{dtype:?}|{target:?}|{tee:?}")
}

/// The cache key of a GPU operating point (see [`cpu_key`]).
#[must_use]
pub fn gpu_key(
    model: &ModelConfig,
    req: &RequestSpec,
    dtype: DType,
    gpu: &GpuModel,
    cfg: &GpuTeeConfig,
) -> String {
    format!("{model:?}|{req:?}|{dtype:?}|{gpu:?}|{cfg:?}")
}

/// Memoized [`simulate_cpu`]: identical arguments return the cached
/// result without re-running the simulator.
#[must_use]
pub fn simulate_cpu_cached(
    model: &ModelConfig,
    req: &RequestSpec,
    dtype: DType,
    target: &CpuTarget,
    tee: &CpuTeeConfig,
) -> Arc<SimResult> {
    let key = cpu_key(model, req, dtype, target, tee);
    if let Some(hit) = cpu_cache().lock().expect("cpu cache lock").get(&key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return Arc::clone(hit);
    }
    // Simulate outside the lock so concurrent misses run in parallel.
    MISSES.fetch_add(1, Ordering::Relaxed);
    let result = Arc::new(simulate_cpu(model, req, dtype, target, tee));
    let mut map = cpu_cache().lock().expect("cpu cache lock");
    Arc::clone(map.entry(key).or_insert(result))
}

/// Memoized [`simulate_gpu`]: identical arguments return the cached
/// result without re-running the simulator.
#[must_use]
pub fn simulate_gpu_cached(
    model: &ModelConfig,
    req: &RequestSpec,
    dtype: DType,
    gpu: &GpuModel,
    cfg: &GpuTeeConfig,
) -> Arc<GpuSimResult> {
    let key = gpu_key(model, req, dtype, gpu, cfg);
    if let Some(hit) = gpu_cache().lock().expect("gpu cache lock").get(&key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return Arc::clone(hit);
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let result = Arc::new(simulate_gpu(model, req, dtype, gpu, cfg));
    let mut map = gpu_cache().lock().expect("gpu cache lock");
    Arc::clone(map.entry(key).or_insert(result))
}

/// Drop every cached result and reset the hit/miss counters. Used to run
/// cold-cache timing comparisons and to bound memory in long processes.
pub fn clear() {
    cpu_cache().lock().expect("cpu cache lock").clear();
    gpu_cache().lock().expect("gpu cache lock").clear();
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}

/// Snapshot the cache counters and entry counts.
#[must_use]
pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        cpu_entries: cpu_cache().lock().expect("cpu cache lock").len(),
        gpu_entries: gpu_cache().lock().expect("gpu cache lock").len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cllm_workload::zoo;

    /// The cache and its counters are process-global, so the tests here
    /// take turns: a sibling's lookup between one test's `clear` and its
    /// `stats` would break the counter arithmetic.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static TURN: Mutex<()> = Mutex::new(());
        TURN.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The memoized CPU path returns results identical to the uncached
    /// simulator across dtypes, targets and TEE configurations.
    #[test]
    fn cpu_cached_matches_uncached_across_grid() {
        let _turn = serial();
        let model = zoo::llama2_7b();
        let req = RequestSpec::new(4, 128, 16);
        for dtype in [DType::Bf16, DType::Int8] {
            for target in [
                CpuTarget::emr1_single_socket(),
                CpuTarget::emr2_single_socket(),
                CpuTarget::emr2_dual_socket(),
            ] {
                for tee in [
                    CpuTeeConfig::bare_metal(),
                    CpuTeeConfig::vm(),
                    CpuTeeConfig::tdx(),
                ] {
                    let direct = simulate_cpu(&model, &req, dtype, &target, &tee);
                    let cached = simulate_cpu_cached(&model, &req, dtype, &target, &tee);
                    let again = simulate_cpu_cached(&model, &req, dtype, &target, &tee);
                    assert_eq!(
                        format!("{direct:?}"),
                        format!("{:?}", *cached),
                        "{dtype:?}/{tee:?}: cached result diverges"
                    );
                    assert_eq!(format!("{:?}", *cached), format!("{:?}", *again));
                }
            }
        }
    }

    #[test]
    fn gpu_cached_matches_uncached() {
        let _turn = serial();
        let model = zoo::llama2_7b();
        let req = RequestSpec::new(8, 256, 16);
        let gpu = cllm_hw::presets::h100_nvl();
        for cfg in [GpuTeeConfig::native(), GpuTeeConfig::confidential()] {
            let direct = simulate_gpu(&model, &req, DType::Bf16, &gpu, &cfg);
            let cached = simulate_gpu_cached(&model, &req, DType::Bf16, &gpu, &cfg);
            assert_eq!(
                format!("{direct:?}"),
                format!("{:?}", *cached),
                "{cfg:?}: cached result diverges"
            );
        }
    }

    #[test]
    fn repeat_lookups_hit_and_clear_resets() {
        let _turn = serial();
        let model = zoo::llama2_7b();
        let req = RequestSpec::new(2, 64, 8);
        let target = CpuTarget::emr1_single_socket();
        let tee = CpuTeeConfig::tdx();

        let before = stats();
        let first = simulate_cpu_cached(&model, &req, DType::Bf16, &target, &tee);
        let second = simulate_cpu_cached(&model, &req, DType::Bf16, &target, &tee);
        let after = stats();
        assert!(
            Arc::ptr_eq(&first, &second),
            "second lookup should share the entry"
        );
        assert!(after.hits > before.hits, "repeat lookup must count a hit");
        assert!(after.cpu_entries >= 1);

        clear();
        let reset = stats();
        assert_eq!((reset.hits, reset.misses), (0, 0));
        assert_eq!((reset.cpu_entries, reset.gpu_entries), (0, 0));
    }

    #[test]
    fn distinct_points_get_distinct_entries() {
        let _turn = serial();
        clear();
        let model = zoo::llama2_7b();
        let target = CpuTarget::emr1_single_socket();
        let tee = CpuTeeConfig::tdx();
        let a = simulate_cpu_cached(
            &model,
            &RequestSpec::new(1, 64, 8),
            DType::Bf16,
            &target,
            &tee,
        );
        let b = simulate_cpu_cached(
            &model,
            &RequestSpec::new(2, 64, 8),
            DType::Bf16,
            &target,
            &tee,
        );
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(stats().cpu_entries >= 2);
    }
}
