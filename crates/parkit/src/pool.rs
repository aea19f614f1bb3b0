//! Bulk-synchronous thread pool.
//!
//! The pool executes one *parallel region* at a time (launches from the DSL
//! layer are always serialised through a queue, so this matches the usage
//! pattern). A region is described by a chunk count and a closure; workers
//! and the calling thread drain chunk indices from one atomic cursor.
//!
//! Wakeup is spin-then-park: workers watch a lock-free epoch hint for a
//! bounded number of spin iterations before parking on the condvar, so
//! back-to-back regions (the steady state of a bandwidth-bound app run)
//! avoid the sleep/wake round-trip entirely.

use crate::sync::{Condvar, Mutex};
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::thread::JoinHandle;

/// Spin iterations a worker burns watching the epoch hint before parking.
const SPIN_BEFORE_PARK: u32 = 1 << 12;

/// Spin iterations the caller burns watching completion before parking.
const SPIN_BEFORE_JOIN: u32 = 1 << 12;

/// A handle to an in-flight parallel region.
///
/// Lives on the caller's stack; workers reach it through a raw pointer that
/// is only published while the caller is blocked waiting for completion, so
/// the borrow can never dangle.
struct Region {
    /// Next chunk index to execute.
    cursor: AtomicUsize,
    /// Chunks fully executed.
    completed: AtomicUsize,
    /// Total chunks in the region.
    n_chunks: usize,
    /// Workers currently inside the region body.
    active: AtomicUsize,
    /// Set if any chunk panicked; the payload of the first panic is kept.
    panicked: AtomicBool,
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// The chunk body: called with (lane, chunk_index). The 'static here is
    /// a lie told via transmute; the completion barrier in `run_region`
    /// guarantees the real borrow outlives all uses.
    body: &'static (dyn Fn(usize, usize) + Sync),
}

// SAFETY: `body` points into the caller's stack frame, which outlives the
// region because the caller blocks until `active == 0 && completed ==
// n_chunks` before returning. The Fn is Sync so shared calls are fine.
unsafe impl Send for Region {}
unsafe impl Sync for Region {}

struct Slot {
    /// Monotonic id of the region currently (or last) published.
    epoch: u64,
    /// Pointer to the live region, if one is accepting workers.
    region: Option<*const Region>,
    shutdown: bool,
}

// SAFETY: the raw pointer is only dereferenced while the publishing caller
// is blocked (see `Region`).
unsafe impl Send for Slot {}

struct Shared {
    slot: Mutex<Slot>,
    /// Lock-free mirror of `Slot::epoch`, stored under the slot lock.
    /// Workers spin on this before falling back to the condvar.
    epoch_hint: AtomicU64,
    /// Workers wait here for a new epoch.
    work_ready: Condvar,
    /// The caller waits here for region completion.
    region_done: Condvar,
}

/// A bulk-synchronous pool of worker threads; see module docs.
pub struct ThreadPool {
    shared: std::sync::Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    lanes: usize,
    /// Reusable word-aligned scratch for reduction partials, so steady-state
    /// `reduce` calls allocate nothing once the arena has grown.
    arena: Mutex<Vec<u64>>,
    /// True while a region is published. The caller that flips it from
    /// false to true owns the workers until the region drains; every other
    /// call (another thread's, or one nested inside a region body) runs
    /// its chunks inline instead of clobbering the slot.
    busy: AtomicBool,
}

impl ThreadPool {
    /// Create a pool with `lanes` total parallel lanes (including the
    /// calling thread). `lanes <= 1` runs everything inline.
    pub fn new(lanes: usize) -> Self {
        let lanes = lanes.max(1);
        let shared = std::sync::Arc::new(Shared {
            slot: Mutex::new(Slot {
                epoch: 0,
                region: None,
                shutdown: false,
            }),
            epoch_hint: AtomicU64::new(0),
            work_ready: Condvar::new(),
            region_done: Condvar::new(),
        });
        let workers = (1..lanes)
            .map(|lane| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("parkit-worker-{lane}"))
                    .spawn(move || worker_loop(&shared, lane))
                    .expect("failed to spawn parkit worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            lanes,
            arena: Mutex::new(Vec::new()),
            busy: AtomicBool::new(false),
        }
    }

    /// Total parallel lanes (workers + the calling thread).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Execute `n_chunks` invocations of `body(lane, chunk)` across the
    /// pool, dynamically scheduled. Blocks until every chunk has run.
    ///
    /// Panics that occur inside `body` are re-thrown here after the region
    /// drains, so the pool stays usable.
    pub fn run_region<F>(&self, n_chunks: usize, body: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        if n_chunks == 0 {
            return;
        }
        // One branch when telemetry is off; a RegionSpan otherwise.
        let span = telemetry::SpanTimer::start();
        // Claim the workers. A call that finds them busy — a different
        // thread whose region is in flight, or a nested call from inside
        // a region body — runs every chunk inline on its own stack, as do
        // single-lane pools and single-chunk regions. The inline path is
        // work-conserving, and reductions stay bit-identical because
        // per-chunk partials are combined by a fixed tree regardless of
        // which thread produced them.
        if self.lanes == 1
            || n_chunks == 1
            || self
                .busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            for chunk in 0..n_chunks {
                body(0, chunk);
            }
            finish_region_span(span, n_chunks);
            return;
        }

        let wide: &(dyn Fn(usize, usize) + Sync) = &body;
        // SAFETY: lifetime erasure only; `run_region` blocks until every
        // worker has exited the region before `body` goes out of scope.
        let wide: &'static (dyn Fn(usize, usize) + Sync) = unsafe { std::mem::transmute(wide) };
        let region = Region {
            cursor: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            n_chunks,
            active: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
            body: wide,
        };

        {
            let mut slot = self.shared.slot.lock();
            slot.epoch += 1;
            slot.region = Some(&region as *const Region);
            // Mirror the epoch outside the lock so spinning workers see it
            // without contending; published before notify so parked workers
            // cannot observe the condvar signal ahead of the hint.
            self.shared.epoch_hint.store(slot.epoch, Ordering::Release);
            self.shared.work_ready.notify_all();
        }

        // The caller is lane 0.
        drain_region(&region, 0);

        // Unpublish first (no new adopters), then spin briefly for
        // stragglers mid-chunk before parking on the condvar.
        {
            let mut slot = self.shared.slot.lock();
            slot.region = None;
        }
        let done = || {
            region.active.load(Ordering::Acquire) == 0
                && region.completed.load(Ordering::Acquire) == n_chunks
        };
        let mut spins = 0u32;
        while !done() && spins < SPIN_BEFORE_JOIN {
            spins += 1;
            std::hint::spin_loop();
        }
        if !done() {
            let mut slot = self.shared.slot.lock();
            while !done() {
                self.shared.region_done.wait(&mut slot);
            }
        }

        // Release the claim before the panic check so a panicking region
        // never leaks it (a leaked claim would force every later region
        // down the inline path forever).
        self.busy.store(false, Ordering::Release);

        if region.panicked.load(Ordering::Acquire) {
            let payload = region
                .panic_payload
                .lock()
                .take()
                .unwrap_or_else(|| Box::new("panic in parkit region"));
            resume_unwind(payload);
        }
        finish_region_span(span, n_chunks);
    }

    /// Parallel loop over `0..total` in chunks of at most `grain`,
    /// invoking `f(start, end)` for each chunk.
    pub fn for_range<F>(&self, total: usize, grain: usize, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        let grain = grain.max(1);
        let n_chunks = total.div_ceil(grain);
        self.run_region(n_chunks, |_lane, chunk| {
            let start = chunk * grain;
            let end = (start + grain).min(total);
            f(start, end);
        });
    }

    /// Parallel mutation of a slice in contiguous chunks of at most
    /// `grain` elements; `f(start_index, chunk)`.
    pub fn for_each_chunk<T, F>(&self, data: &mut [T], grain: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let total = data.len();
        let base = crate::slice::SendPtr(data.as_mut_ptr());
        self.for_range(total, grain, move |start, end| {
            // SAFETY: [start, end) ranges from `for_range` are disjoint and
            // within bounds, so each chunk is exclusively borrowed.
            let chunk =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
            f(start, chunk);
        });
    }

    /// Deterministic parallel reduction over `0..total`.
    ///
    /// `map` folds one chunk's index range into a partial; partials are
    /// combined in a fixed pairwise tree (`reduce::tree_combine`),
    /// making the result independent of scheduling.
    pub fn reduce<T, M, C>(&self, total: usize, grain: usize, identity: T, combine: C, map: M) -> T
    where
        T: Send + Clone,
        M: Fn(std::ops::Range<usize>) -> T + Sync,
        C: Fn(T, T) -> T + Sync,
    {
        let grain = grain.max(1);
        let n_chunks = total.div_ceil(grain);
        self.reduce_chunks(n_chunks, identity, combine, |chunk| {
            let start = chunk * grain;
            let end = (start + grain).min(total);
            map(start..end)
        })
    }

    /// Deterministic reduction over explicit chunk indices `0..n_chunks`;
    /// `map_chunk` folds one chunk into a partial. Partials live in the
    /// pool's reusable arena, so the steady state allocates nothing.
    ///
    /// On panic inside `map_chunk`, already-produced partials are leaked
    /// (not dropped) before the panic is re-thrown; partial types are
    /// plain values (`f64`, small structs) throughout this workspace.
    pub fn reduce_chunks<T, M, C>(
        &self,
        n_chunks: usize,
        identity: T,
        combine: C,
        map_chunk: M,
    ) -> T
    where
        T: Send + Clone,
        M: Fn(usize) -> T + Sync,
        C: Fn(T, T) -> T + Sync,
    {
        if n_chunks == 0 {
            return identity;
        }
        let words = (n_chunks * std::mem::size_of::<T>()).div_ceil(std::mem::size_of::<u64>());

        // The arena is word-aligned; types needing stricter alignment (none
        // in this workspace) fall back to a fresh allocation, as does the
        // rare case of a contended arena (overlapping reduce from another
        // thread on the same pool).
        let mut guard = if std::mem::align_of::<T>() <= std::mem::align_of::<u64>() {
            self.arena.try_lock()
        } else {
            None
        };
        let mut fallback: Vec<u64> = Vec::new();
        let storage: &mut Vec<u64> = match guard.as_mut() {
            Some(g) => &mut *g,
            None => &mut fallback,
        };
        storage.clear();
        storage.reserve(words);
        let base = storage.as_mut_ptr() as *mut MaybeUninit<T>;

        let slots = crate::slice::SendPtr(base);
        self.run_region(n_chunks, |_lane, chunk| {
            // SAFETY: each chunk index is visited exactly once, indices are
            // in-bounds of the reserved arena, and the stride is the array
            // stride of `T` (arena alignment checked above).
            unsafe {
                slots
                    .get()
                    .add(chunk)
                    .write(MaybeUninit::new(map_chunk(chunk)))
            };
        });
        crate::reduce::tree_combine(
            // SAFETY: every slot was initialised exactly once by the region
            // (a panic would have propagated out of `run_region` above) and
            // each value is read out exactly once here.
            (0..n_chunks).map(|i| unsafe { base.add(i).read().assume_init() }),
            identity,
            &combine,
        )
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock();
            slot.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared, lane: usize) {
    let mut last_epoch = 0u64;
    loop {
        // Spin phase: watch the lock-free epoch mirror. A new epoch (or a
        // burnt budget) drops us into the locked protocol below, which
        // remains the single source of truth.
        let mut spins = 0u32;
        while shared.epoch_hint.load(Ordering::Acquire) == last_epoch && spins < SPIN_BEFORE_PARK {
            spins += 1;
            std::hint::spin_loop();
        }
        let region_ptr = {
            let mut slot = shared.slot.lock();
            let mut parked = false;
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.epoch != last_epoch {
                    if let Some(ptr) = slot.region {
                        last_epoch = slot.epoch;
                        if parked && telemetry::enabled() {
                            telemetry::Counters::add(&telemetry::counters().wakes, 1);
                        }
                        // Adopt under the lock so the caller can observe us
                        // via `active` before we touch the region unlocked.
                        // SAFETY: region is live while published.
                        unsafe { (*ptr).active.fetch_add(1, Ordering::AcqRel) };
                        break ptr;
                    }
                    // Region already retired; skip this epoch.
                    last_epoch = slot.epoch;
                }
                if telemetry::enabled() {
                    telemetry::Counters::add(&telemetry::counters().parks, 1);
                }
                parked = true;
                shared.work_ready.wait(&mut slot);
            }
        };
        // SAFETY: `active` was incremented under the lock; the caller will
        // not free the region until we decrement it again.
        let region = unsafe { &*region_ptr };
        drain_region(region, lane);
        {
            let _slot = shared.slot.lock();
            region.active.fetch_sub(1, Ordering::AcqRel);
            shared.region_done.notify_all();
        }
    }
}

fn drain_region(region: &Region, lane: usize) {
    let mut claimed = 0u64;
    loop {
        let chunk = region.cursor.fetch_add(1, Ordering::Relaxed);
        if chunk >= region.n_chunks {
            break;
        }
        claimed += 1;
        run_chunk(region, lane, chunk);
    }
    // Chunks a worker lane pulled off the shared cursor were "stolen"
    // from the calling thread's plate; one batched bump per drain.
    if lane != 0 && claimed > 0 && telemetry::enabled() {
        telemetry::Counters::add(&telemetry::counters().steals, claimed);
    }
}

/// Close a region's telemetry span (its item count is the region's
/// chunk count) and bump the region counter.
fn finish_region_span(span: Option<telemetry::SpanTimer>, n_chunks: usize) {
    if let Some(t) = span {
        telemetry::Counters::add(&telemetry::counters().regions, 1);
        t.finish(
            telemetry::SpanKind::Region,
            "pool.region",
            n_chunks as u64,
            0.0,
        );
    }
}

fn run_chunk(region: &Region, lane: usize, chunk: usize) {
    let body = region.body;
    let result = catch_unwind(AssertUnwindSafe(|| body(lane, chunk)));
    if let Err(payload) = result {
        if !region.panicked.swap(true, Ordering::AcqRel) {
            *region.panic_payload.lock() = Some(payload);
        }
    }
    region.completed.fetch_add(1, Ordering::AcqRel);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_chunk_exactly_once() {
        let pool = ThreadPool::new(4);
        let hits = (0..97).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
        pool.run_region(97, |_lane, chunk| {
            hits[chunk].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    /// Named for the retired static schedule: the chunk counts it split
    /// across lanes (fewer than the lanes, as many, more, and uneven) now
    /// all drain the one cursor.
    #[test]
    fn static_schedule_runs_every_chunk_exactly_once() {
        let pool = ThreadPool::new(4);
        for n_chunks in [1usize, 2, 3, 4, 7, 97] {
            let hits = (0..n_chunks)
                .map(|_| AtomicUsize::new(0))
                .collect::<Vec<_>>();
            pool.run_region(n_chunks, |_lane, chunk| {
                hits[chunk].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "missed chunks at n_chunks={n_chunks}"
            );
        }
    }

    #[test]
    fn single_lane_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let sum = AtomicU64::new(0);
        pool.run_region(10, |lane, chunk| {
            assert_eq!(lane, 0);
            sum.fetch_add(chunk as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn for_range_covers_whole_domain_without_overlap() {
        let pool = ThreadPool::new(3);
        let marks = (0..1000).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
        pool.for_range(1000, 33, |start, end| {
            for m in &marks[start..end] {
                m.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(marks.iter().all(|m| m.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn for_each_chunk_writes_disjointly() {
        let pool = ThreadPool::new(8);
        let mut v = vec![0usize; 4096];
        pool.for_each_chunk(&mut v, 100, |start, chunk| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = start + i;
            }
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i));
    }

    #[test]
    fn reduce_is_deterministic_across_pool_sizes() {
        let data: Vec<f64> = (0..10_000).map(|i| (i as f64).sin()).collect();
        let mut answers = vec![];
        for lanes in [1, 2, 3, 8] {
            let pool = ThreadPool::new(lanes);
            let s = pool.reduce(
                data.len(),
                137,
                0.0f64,
                |a, b| a + b,
                |r| r.map(|i| data[i]).sum::<f64>(),
            );
            answers.push(s.to_bits());
        }
        assert!(
            answers.windows(2).all(|w| w[0] == w[1]),
            "deterministic reduction must not depend on lane count"
        );
    }

    #[test]
    fn repeated_reduce_reuses_the_arena_and_stays_bit_identical() {
        let data: Vec<f64> = (0..50_000).map(|i| (i as f64).cos()).collect();
        let pool = ThreadPool::new(4);
        let run = || {
            pool.reduce(
                data.len(),
                512,
                0.0f64,
                |a, b| a + b,
                |r| r.map(|i| data[i]).sum::<f64>(),
            )
            .to_bits()
        };
        let first = run();
        for _ in 0..100 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn reduce_chunks_matches_manual_tree() {
        let pool = ThreadPool::new(3);
        let got = pool.reduce_chunks(9, 0u64, |a, b| a + b, |c| (c as u64 + 1) * 10);
        let partials: Vec<u64> = (0..9).map(|c| (c as u64 + 1) * 10).collect();
        let expect = crate::reduce::tree_combine(partials, 0, &|a, b| a + b);
        assert_eq!(got, expect);
        assert_eq!(got, 450);
    }

    /// Lane 0 waits in its chunk until a worker lane has run the other
    /// one; a deadline turns a pool stuck on the inline path into a failure.
    fn assert_runs_pooled(pool: &ThreadPool) {
        use std::time::{Duration, Instant};
        let pooled = AtomicBool::new(false);
        pool.run_region(2, |lane, _c| {
            if lane == 0 {
                let deadline = Instant::now() + Duration::from_secs(30);
                while !pooled.load(Ordering::Acquire) {
                    assert!(Instant::now() < deadline, "no worker lane ran a chunk");
                    std::thread::yield_now();
                }
            } else {
                pooled.store(true, Ordering::Release);
            }
        });
    }

    #[test]
    fn panics_propagate_and_pool_survives() {
        let pool = ThreadPool::new(4);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_region(64, |_l, chunk| {
                if chunk == 13 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err());
        // Pool must still work afterwards.
        let n = AtomicUsize::new(0);
        pool.run_region(64, |_l, _c| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 64);
    }

    /// Named for the retired static schedule, whose last lane owned the
    /// final chunk: a panic there, after the cursor has run dry, still
    /// propagates and releases the claim, so the next region is pooled.
    #[test]
    fn panics_propagate_from_static_regions_too() {
        let pool = ThreadPool::new(4);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_region(64, |_l, chunk| {
                if chunk == 63 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err());
        let n = AtomicUsize::new(0);
        pool.run_region(64, |_l, _c| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 64);
        assert_runs_pooled(&pool);
    }

    #[test]
    fn zero_chunks_is_a_no_op() {
        let pool = ThreadPool::new(2);
        pool.run_region(0, |_l, _c| panic!("must not run"));
    }

    #[test]
    fn regions_emit_telemetry_when_enabled() {
        telemetry::TelemetryConfig::enabled().install();
        let before = telemetry::counters().snapshot();
        let pool = ThreadPool::new(3);
        pool.run_region(61, |_l, _c| {});
        pool.run_region(61, |_l, _c| {});
        let delta = telemetry::counters().snapshot().since(&before);
        let regions: Vec<_> = telemetry::flush()
            .into_iter()
            .filter(|e| e.items == 61 && e.kind == telemetry::SpanKind::Region)
            .collect();
        telemetry::TelemetryConfig::disabled().install();
        assert!(delta.regions >= 2);
        assert!(regions.len() >= 2, "one RegionSpan per region");
        assert!(regions.iter().all(|e| e.name.as_str() == "pool.region"));
    }

    #[test]
    fn back_to_back_regions_reuse_workers() {
        let pool = ThreadPool::new(4);
        for round in 0..50 {
            let n = AtomicUsize::new(0);
            pool.run_region(round + 1, |_l, _c| {
                n.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(n.load(Ordering::Relaxed), round + 1);
        }
    }

    /// The two paths a region can take now, published to the workers or
    /// run inline (a single chunk), alternate without leaking the claim.
    #[test]
    fn mixed_schedules_back_to_back() {
        let pool = ThreadPool::new(4);
        for round in 0..50 {
            let n_chunks = if round % 2 == 0 { round + 2 } else { 1 };
            let n = AtomicUsize::new(0);
            pool.run_region(n_chunks, |lane, _c| {
                if n_chunks == 1 {
                    assert_eq!(lane, 0, "a single-chunk region runs inline");
                }
                n.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(n.load(Ordering::Relaxed), n_chunks);
        }
        assert_runs_pooled(&pool);
    }

    #[test]
    fn concurrent_regions_from_many_threads_all_complete() {
        // Only one thread can own the workers at a time; the rest fall
        // back to inline execution. Every submitter must still see all
        // of its own chunks run exactly once.
        let pool = ThreadPool::new(4);
        std::thread::scope(|s| {
            for _ in 0..6 {
                s.spawn(|| {
                    for round in 0..40 {
                        let n = AtomicUsize::new(0);
                        pool.run_region(round + 2, |_l, _c| {
                            n.fetch_add(1, Ordering::Relaxed);
                        });
                        assert_eq!(n.load(Ordering::Relaxed), round + 2);
                    }
                });
            }
        });
    }

    #[test]
    fn nested_regions_run_inline_without_clobbering_the_outer() {
        let pool = ThreadPool::new(4);
        let outer = AtomicUsize::new(0);
        let inner = AtomicUsize::new(0);
        pool.run_region(8, |_l, _c| {
            outer.fetch_add(1, Ordering::Relaxed);
            pool.run_region(5, |lane, _c| {
                assert_eq!(lane, 0, "nested regions must run inline on the caller");
                inner.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(outer.load(Ordering::Relaxed), 8);
        assert_eq!(inner.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn other_threads_run_inline_while_a_region_is_in_flight() {
        use std::time::{Duration, Instant};
        let pool = ThreadPool::new(4);
        let held = AtomicBool::new(false);
        let release = AtomicBool::new(false);
        let wait_for = |flag: &AtomicBool| {
            let deadline = Instant::now() + Duration::from_secs(30);
            while !flag.load(Ordering::Acquire) {
                assert!(Instant::now() < deadline, "timed out");
                std::thread::yield_now();
            }
        };
        std::thread::scope(|s| {
            // Thread A holds its region in flight until B is done.
            s.spawn(|| {
                pool.run_region(2, |_l, chunk| {
                    if chunk == 0 {
                        held.store(true, Ordering::Release);
                        wait_for(&release);
                    }
                });
            });
            wait_for(&held);
            // Thread B's region runs entirely inline on lane 0. Its first
            // chunk lingers, so a worker would adopt the rest were the
            // region published.
            let n = AtomicUsize::new(0);
            pool.run_region(16, |lane, chunk| {
                assert_eq!(lane, 0, "a region behind a busy pool must run inline");
                if chunk == 0 {
                    std::thread::sleep(Duration::from_millis(50));
                }
                n.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(n.load(Ordering::Relaxed), 16);
            release.store(true, Ordering::Release);
        });
        // A's region drained: the pool runs pooled again.
        assert_runs_pooled(&pool);
    }

    #[test]
    fn contended_reduce_stays_bit_identical() {
        let data: Vec<f64> = (0..20_000).map(|i| (i as f64).sin()).collect();
        let pool = ThreadPool::new(4);
        let expect = pool
            .reduce(
                data.len(),
                137,
                0.0f64,
                |a, b| a + b,
                |r| r.map(|i| data[i]).sum::<f64>(),
            )
            .to_bits();
        // Inline-fallback reductions (claim held elsewhere) must combine
        // the same partials through the same tree.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..20 {
                        let got = pool
                            .reduce(
                                data.len(),
                                137,
                                0.0f64,
                                |a, b| a + b,
                                |r| r.map(|i| data[i]).sum::<f64>(),
                            )
                            .to_bits();
                        assert_eq!(got, expect);
                    }
                });
            }
        });
    }
}
