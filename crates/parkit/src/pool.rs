//! Bulk-synchronous thread pool.
//!
//! The pool executes one *parallel region* at a time (launches from the DSL
//! layer are always serialised through a queue, so this matches the usage
//! pattern). A region is described by a chunk count and a closure; with
//! [`Schedule::Dynamic`] workers and the calling thread drain chunk indices
//! from an atomic cursor, with [`Schedule::Static`] each lane owns a fixed
//! contiguous span of chunk indices (no cursor contention).
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

/// Process-unique, nonzero id for the calling thread (0 means "no owner"
/// in [`ThreadPool::region_owner`]).
fn thread_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TOKEN: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TOKEN.with(|t| *t)
}

/// Configuration for a [`ThreadPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Total parallel lanes, including the calling thread. Minimum 1.
    pub lanes: usize,
    /// Base name for worker threads (suffixed with the worker index).
    pub thread_name: String,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            lanes: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            thread_name: "parkit-worker".to_owned(),
        }
    }
}

/// How chunk indices are assigned to lanes within a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Lanes drain a shared atomic cursor (work-stealing-ish, load-balanced).
    #[default]
    Dynamic,
    /// Each lane owns a fixed near-equal contiguous span of chunks (the
    /// OpenMP `schedule(static)` shape). Best for uniform chunk costs:
    /// zero cursor contention and reproducible lane→chunk affinity.
    Static,
}

/// A handle to an in-flight parallel region.
///
/// Lives on the caller's stack; workers reach it through a raw pointer that
/// is only published while the caller is blocked waiting for completion, so
/// the borrow can never dangle.
struct Region {
    /// Next chunk index to execute (dynamic schedule only).
    cursor: AtomicUsize,
    /// Chunks fully executed.
    completed: AtomicUsize,
    /// Total chunks in the region.
    n_chunks: usize,
    /// Lane count used for the static span split; 0 means dynamic.
    static_lanes: usize,
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
    /// Token of the thread currently entitled to publish regions (0 = no
    /// owner). Held either for the duration of one `run_region*` call or
    /// across many of them by a [`RegionHandle`].
    region_owner: AtomicU64,
    /// True while the owning thread has a region published; only ever
    /// written by the owner, so relaxed ordering suffices. Nested
    /// `run_region*` calls from inside a region body see it set and fall
    /// back to inline execution instead of clobbering the slot.
    owner_in_region: AtomicBool,
}

/// Exclusive claim on a pool's worker lanes; see [`ThreadPool::reserve`].
///
/// While a handle is held, `run_region*` calls from the owning thread are
/// serviced by the workers as usual, and calls from every other thread
/// fall back to inline execution on their own stack. Dropping the handle
/// releases the claim.
pub struct RegionHandle<'p> {
    pool: &'p ThreadPool,
}

impl Drop for RegionHandle<'_> {
    fn drop(&mut self) {
        self.pool.region_owner.store(0, Ordering::Release);
    }
}

impl ThreadPool {
    /// Create a pool with `lanes` total parallel lanes (including the
    /// calling thread). `lanes == 1` runs everything inline.
    pub fn new(lanes: usize) -> Self {
        Self::with_config(PoolConfig {
            lanes,
            ..PoolConfig::default()
        })
    }

    /// Create a pool from an explicit [`PoolConfig`].
    pub fn with_config(cfg: PoolConfig) -> Self {
        let lanes = cfg.lanes.max(1);
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
                    .name(format!("{}-{}", cfg.thread_name, lane))
                    .spawn(move || worker_loop(&shared, lane))
                    .expect("failed to spawn parkit worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            lanes,
            arena: Mutex::new(Vec::new()),
            region_owner: AtomicU64::new(0),
            owner_in_region: AtomicBool::new(false),
        }
    }

    /// Total parallel lanes (workers + the calling thread).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Claim the worker lanes for the calling thread, spinning (with
    /// periodic yields) until the current owner releases them.
    ///
    /// A shard replaying a launch graph takes one handle for the whole
    /// replay so its regions run back-to-back under a single claim
    /// instead of contending per region; other shards' regions execute
    /// inline on their own submitter threads in the meantime (work-
    /// conserving, and bit-identical for reductions because partials are
    /// combined by a fixed tree regardless of who ran the chunks).
    ///
    /// Claims are not reentrant: a thread that already owns the lanes
    /// (including from inside a region body) must not call `reserve`
    /// again — doing so would deadlock on its own claim.
    pub fn reserve(&self) -> RegionHandle<'_> {
        let me = thread_token();
        debug_assert_ne!(
            self.region_owner.load(Ordering::Relaxed),
            me,
            "ThreadPool::reserve is not reentrant"
        );
        let mut spins = 0u32;
        while self
            .region_owner
            .compare_exchange(0, me, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            spins += 1;
            if spins >= SPIN_BEFORE_JOIN {
                spins = 0;
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        RegionHandle { pool: self }
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
        self.run_region_sched(n_chunks, Schedule::Dynamic, body);
    }

    /// [`ThreadPool::run_region`] with an explicit [`Schedule`].
    pub fn run_region_sched<F>(&self, n_chunks: usize, sched: Schedule, body: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        if n_chunks == 0 {
            return;
        }
        // One branch when telemetry is off; a RegionSpan otherwise.
        let span = telemetry::SpanTimer::start();
        if self.lanes == 1 || n_chunks == 1 {
            // Inline fast path: no publication, no synchronisation.
            for chunk in 0..n_chunks {
                body(0, chunk);
            }
            finish_region_span(span, sched, n_chunks);
            return;
        }

        // Claim the worker lanes. A thread that already owns them (via
        // `reserve`) publishes without re-acquiring; anyone else — a
        // different thread whose region is in flight, or a nested call
        // from inside a region body — runs every chunk inline on its own
        // stack. The inline fallback is work-conserving, and reductions
        // stay bit-identical because per-chunk partials are combined by a
        // fixed tree regardless of which thread produced them.
        let me = thread_token();
        let acquired = if self.region_owner.load(Ordering::Relaxed) == me {
            if self.owner_in_region.load(Ordering::Relaxed) {
                for chunk in 0..n_chunks {
                    body(0, chunk);
                }
                finish_region_span(span, sched, n_chunks);
                return;
            }
            false
        } else if self
            .region_owner
            .compare_exchange(0, me, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            true
        } else {
            for chunk in 0..n_chunks {
                body(0, chunk);
            }
            finish_region_span(span, sched, n_chunks);
            return;
        };
        self.owner_in_region.store(true, Ordering::Relaxed);

        let wide: &(dyn Fn(usize, usize) + Sync) = &body;
        // SAFETY: lifetime erasure only; `run_region_sched` blocks until
        // every worker has exited the region before `body` goes out of scope.
        let wide: &'static (dyn Fn(usize, usize) + Sync) = unsafe { std::mem::transmute(wide) };
        let region = Region {
            cursor: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            n_chunks,
            static_lanes: match sched {
                Schedule::Dynamic => 0,
                Schedule::Static => self.lanes,
            },
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

        let done = || {
            region.active.load(Ordering::Acquire) == 0
                && region.completed.load(Ordering::Acquire) == n_chunks
        };
        match sched {
            Schedule::Dynamic => {
                // Unpublish first (no new adopters), then spin briefly for
                // stragglers mid-chunk before parking on the condvar.
                {
                    let mut slot = self.shared.slot.lock();
                    slot.region = None;
                }
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
            }
            Schedule::Static => {
                // Every lane owns chunks, so the region must stay published
                // until every worker has adopted and drained its span; only
                // then is it safe to retire the pointer.
                let mut spins = 0u32;
                while !done() && spins < SPIN_BEFORE_JOIN {
                    spins += 1;
                    std::hint::spin_loop();
                }
                let mut slot = self.shared.slot.lock();
                while !done() {
                    self.shared.region_done.wait(&mut slot);
                }
                slot.region = None;
            }
        }

        // Release the claim before the panic check so a panicking region
        // never leaks ownership (a leaked claim would force every later
        // region from other threads down the inline path forever).
        self.owner_in_region.store(false, Ordering::Relaxed);
        if acquired {
            self.region_owner.store(0, Ordering::Release);
        }

        if region.panicked.load(Ordering::Acquire) {
            let payload = region
                .panic_payload
                .lock()
                .take()
                .unwrap_or_else(|| Box::new("panic in parkit region"));
            resume_unwind(payload);
        }
        finish_region_span(span, sched, n_chunks);
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

    /// Statically-scheduled parallel loop: `0..total` is split into
    /// exactly `lanes()` near-equal spans, one per lane (the OpenMP
    /// `schedule(static)` shape — NUMA-friendly first-touch order).
    pub fn for_range_static<F>(&self, total: usize, f: F)
    where
        F: Fn(usize, usize, usize) + Sync,
    {
        let lanes = self.lanes;
        self.run_region_sched(lanes, Schedule::Static, |_lane, part| {
            let (start, end) = crate::range::split_evenly(total, lanes, part);
            if start < end {
                f(part, start, end);
            }
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
    if region.static_lanes > 0 {
        let (lo, hi) = crate::range::split_evenly(region.n_chunks, region.static_lanes, lane);
        for chunk in lo..hi {
            run_chunk(region, lane, chunk);
        }
        return;
    }
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
fn finish_region_span(span: Option<telemetry::SpanTimer>, sched: Schedule, n_chunks: usize) {
    if let Some(t) = span {
        telemetry::Counters::add(&telemetry::counters().regions, 1);
        let name = match sched {
            Schedule::Dynamic => "pool.region.dynamic",
            Schedule::Static => "pool.region.static",
        };
        t.finish(telemetry::SpanKind::Region, name, n_chunks as u64, 0.0);
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

    #[test]
    fn static_schedule_runs_every_chunk_exactly_once() {
        let pool = ThreadPool::new(4);
        for n_chunks in [1usize, 2, 3, 4, 7, 97] {
            let hits = (0..n_chunks)
                .map(|_| AtomicUsize::new(0))
                .collect::<Vec<_>>();
            pool.run_region_sched(n_chunks, Schedule::Static, |_lane, chunk| {
                hits[chunk].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "static schedule missed chunks at n_chunks={n_chunks}"
            );
        }
    }

    #[test]
    fn static_schedule_pins_chunks_to_their_lane() {
        let lanes = 4;
        let n_chunks = 17;
        let pool = ThreadPool::new(lanes);
        let seen_lane: Vec<AtomicUsize> = (0..n_chunks)
            .map(|_| AtomicUsize::new(usize::MAX))
            .collect();
        pool.run_region_sched(n_chunks, Schedule::Static, |lane, chunk| {
            seen_lane[chunk].store(lane, Ordering::Relaxed);
        });
        for lane in 0..lanes {
            let (lo, hi) = crate::range::split_evenly(n_chunks, lanes, lane);
            for seen in &seen_lane[lo..hi] {
                assert_eq!(seen.load(Ordering::Relaxed), lane);
            }
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
    fn static_schedule_partitions_exactly_once_per_lane() {
        let pool = ThreadPool::new(5);
        let marks = (0..1001).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
        let lanes_seen = (0..5).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
        pool.for_range_static(1001, |lane, s, e| {
            lanes_seen[lane].fetch_add(1, Ordering::Relaxed);
            for m in &marks[s..e] {
                m.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(marks.iter().all(|m| m.load(Ordering::Relaxed) == 1));
        assert!(lanes_seen.iter().all(|l| l.load(Ordering::Relaxed) <= 1));
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

    #[test]
    fn panics_propagate_from_static_regions_too() {
        let pool = ThreadPool::new(4);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_region_sched(64, Schedule::Static, |_l, chunk| {
                if chunk == 63 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err());
        let n = AtomicUsize::new(0);
        pool.run_region_sched(64, Schedule::Static, |_l, _c| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 64);
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
        pool.run_region_sched(61, Schedule::Static, |_l, _c| {});
        let delta = telemetry::counters().snapshot().since(&before);
        let regions: Vec<_> = telemetry::flush()
            .into_iter()
            .filter(|e| e.items == 61 && e.kind == telemetry::SpanKind::Region)
            .collect();
        telemetry::TelemetryConfig::disabled().install();
        assert!(delta.regions >= 2);
        assert!(regions.len() >= 2, "one RegionSpan per region");
        assert!(regions
            .iter()
            .any(|e| e.name.as_str() == "pool.region.dynamic"));
        assert!(regions
            .iter()
            .any(|e| e.name.as_str() == "pool.region.static"));
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
    fn reserve_diverts_other_threads_and_keeps_the_owner_pooled() {
        let pool = ThreadPool::new(4);
        let handle = pool.reserve();
        // Another thread's region completes inline while the claim is held.
        std::thread::scope(|s| {
            s.spawn(|| {
                let n = AtomicUsize::new(0);
                pool.run_region(16, |lane, _c| {
                    assert_eq!(lane, 0, "non-owner regions must run inline");
                    n.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(n.load(Ordering::Relaxed), 16);
            });
        });
        // The owner's own regions still use the workers.
        let n = AtomicUsize::new(0);
        pool.run_region(64, |_l, _c| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 64);
        drop(handle);
        // Released: another thread can claim and run pooled again.
        std::thread::scope(|s| {
            s.spawn(|| {
                let _h = pool.reserve();
                let n = AtomicUsize::new(0);
                pool.run_region(32, |_l, _c| {
                    n.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(n.load(Ordering::Relaxed), 32);
            });
        });
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

    #[test]
    fn mixed_schedules_back_to_back() {
        let pool = ThreadPool::new(4);
        for round in 0..50 {
            let sched = if round % 2 == 0 {
                Schedule::Dynamic
            } else {
                Schedule::Static
            };
            let n = AtomicUsize::new(0);
            pool.run_region_sched(round + 2, sched, |_l, _c| {
                n.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(n.load(Ordering::Relaxed), round + 2);
        }
    }
}
