//! Keeping the benchmark thread on the fastest CPU it may use.
//!
//! On a shared host one virtual CPU can run at a third of the speed of
//! another for minutes while a neighbour loads its physical core, and the
//! scheduler leaves a single busy thread wherever it started, so without
//! placement a run's figures depend on which CPU it happened to start on.
//! [`Placer::place`] times a fixed, cache-resident streaming loop on each
//! allowed CPU and pins the thread to the fastest; the harness calls it
//! before every set-up and about once a second while it serves. The
//! harness runs on a single thread, and dropping the placer restores the
//! thread's original CPU mask, so threads started later are not confined
//! to one CPU. Elsewhere than Linux the thread is never moved.

use std::hint::black_box;
use std::time::Instant;

#[cfg(target_os = "linux")]
mod sys {
    /// glibc's `cpu_set_t`: a mask of 1024 CPUs.
    #[repr(C)]
    pub struct CpuSet(pub [u64; 16]);

    pub const CPUS: usize = 1024;

    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, set: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, set: *const CpuSet) -> i32;
    }

    /// The calling thread's CPU mask, if the kernel reports it.
    pub fn get() -> Option<CpuSet> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: `set` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &raw mut set) };
        (rc == 0).then_some(set)
    }

    /// Set the calling thread's CPU mask. A refusal leaves the thread
    /// where it was, which costs only steadiness.
    pub fn set(set: &CpuSet) {
        // SAFETY: `set` is a readable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, size_of::<CpuSet>(), set) };
    }
}

pub struct Placer {
    #[cfg(target_os = "linux")]
    original: Option<sys::CpuSet>,
    cpus: Vec<usize>,
    /// 256 KiB streamed by the timing loop: it stays in L2, which a busy
    /// neighbour on the same physical core shares.
    buf: Vec<u64>,
}

impl Placer {
    pub fn new() -> Self {
        #[cfg(target_os = "linux")]
        let original = sys::get();
        #[cfg(target_os = "linux")]
        let cpus = original.as_ref().map_or_else(Vec::new, |set| {
            (0..sys::CPUS)
                .filter(|&c| (set.0[c / 64] >> (c % 64)) & 1 == 1)
                .collect()
        });
        #[cfg(not(target_os = "linux"))]
        let cpus = Vec::new();
        Placer {
            #[cfg(target_os = "linux")]
            original,
            cpus,
            buf: (0..32 * 1024).collect(),
        }
    }

    /// Wall seconds of 32 multiply-add passes over `buf` (~0.1 ms).
    fn spin(&self) -> f64 {
        let start = Instant::now();
        let mut sum = 0u64;
        for pass in 0..32u64 {
            for &x in black_box(&self.buf) {
                sum = sum.wrapping_add(x.wrapping_mul(pass | 1));
            }
        }
        black_box(sum);
        start.elapsed().as_secs_f64()
    }

    /// Pin the thread to the allowed CPU on which the loop runs fastest
    /// (best of three per CPU).
    pub fn place(&self) {
        if self.cpus.len() < 2 {
            return;
        }
        let mut best = (f64::INFINITY, self.cpus[0]);
        for &cpu in &self.cpus {
            self.pin(cpu);
            let s = (0..3).map(|_| self.spin()).fold(f64::INFINITY, f64::min);
            if s < best.0 {
                best = (s, cpu);
            }
        }
        self.pin(best.1);
    }

    #[cfg(target_os = "linux")]
    fn pin(&self, cpu: usize) {
        let mut set = sys::CpuSet([0; 16]);
        set.0[cpu / 64] |= 1 << (cpu % 64);
        sys::set(&set);
    }

    #[cfg(not(target_os = "linux"))]
    fn pin(&self, _cpu: usize) {}
}

impl Drop for Placer {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Some(set) = &self.original {
            sys::set(set);
        }
    }
}
