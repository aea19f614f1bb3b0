//! # parkit — parallel substrate for the SYCL portability study
//!
//! A small, dependency-light data-parallel runtime used as the *functional*
//! execution engine underneath the simulated SYCL runtime (`sycl-sim`).
//! Kernels in this project always run for real (producing validated numeric
//! results); `parkit` provides the bulk-synchronous parallel-for and
//! reduction primitives those launches map onto.
//!
//! Design notes:
//!
//! * A fixed pool of worker threads executes *parallel regions*: a region is
//!   a set of chunks drained from one shared atomic cursor (like OpenMP
//!   `schedule(dynamic)`). Every DSL loop, BabelStream and the apps reach
//!   the pool this way.
//! * Workers use spin-then-park wakeup: a bounded spin on a lock-free epoch
//!   hint before falling back to a condvar, so back-to-back regions skip
//!   the sleep/wake round-trip.
//! * The calling thread participates in the region as lane 0, so
//!   `ThreadPool::new(n)` spawns `n - 1` workers. One region holds the
//!   workers at a time: a region started while another is in flight (from
//!   another thread, or nested inside a region body) runs its chunks
//!   inline on lane 0.
//! * Reductions are **deterministic**: each chunk writes a partial into its
//!   own slot and partials are combined in a fixed pairwise tree, so results
//!   do not depend on thread scheduling. This mirrors the "user-defined
//!   binary tree reductions" the paper had to use for SYCL on CPUs.
//! * Panics inside a region are caught on worker threads and re-thrown on
//!   the caller after the region completes, keeping the pool reusable.
//! * When the [`telemetry`] subsystem is enabled, every region records a
//!   `RegionSpan` on the calling thread, and the pool counts chunk steals
//!   (dynamic-cursor chunks claimed by worker lanes), parks and wakes.
//!   Disabled, each site costs a single branch.
//! * [`mem::advise_huge_pages`] asks for transparent huge pages on a
//!   large buffer before its first touch (the DSLs' fields). It holds
//!   the workspace's one foreign call.
//!
//! ```
//! use parkit::ThreadPool;
//! let pool = ThreadPool::new(4);
//! let mut data = vec![0u64; 1000];
//! pool.for_each_chunk(&mut data, 64, |start, chunk| {
//!     for (i, x) in chunk.iter_mut().enumerate() {
//!         *x = (start + i) as u64;
//!     }
//! });
//! let total: u64 = pool.reduce(1000, 64, 0u64, |a, b| a + b, |r| {
//!     r.map(|i| i as u64).sum()
//! });
//! assert_eq!(total, 1000 * 999 / 2);
//! ```

pub mod mem;
mod pool;
mod reduce;
mod slice;
pub mod sync;

pub use pool::ThreadPool;

use std::sync::OnceLock;

/// Lazily-initialised process-wide pool sized to the machine.
///
/// Most callers (the SYCL runtime, the DSLs) share this pool; tests that
/// need specific worker counts construct their own [`ThreadPool`].
pub fn global_pool() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ThreadPool::new(hw)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_pool_is_usable_and_shared() {
        let a = global_pool() as *const ThreadPool;
        let b = global_pool() as *const ThreadPool;
        assert_eq!(a, b);
        let sum = global_pool().reduce(100, 7, 0usize, |a, b| a + b, |r| r.sum());
        assert_eq!(sum, 4950);
    }
}
