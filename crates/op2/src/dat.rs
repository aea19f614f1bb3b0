//! Unstructured datasets: multi-component fields over a set.

use crate::parloop::{VertexArg, VertexRows};
use parkit::global_pool;
use std::sync::atomic::{AtomicBool, Ordering};
use sycl_sim::Real;
use telemetry::shadow::{self, Touch};

/// Values per pool chunk when a field is filled (256 KiB of `f64`).
const DAT_CHUNK: usize = 1 << 15;

/// log2 of the number of row-lock stripes.
const STRIPE_BITS: u32 = 16;

/// One-byte locks that serialise atomic-mode increments (64 KiB, shared
/// by every dat in the process). A row takes the stripe its address
/// hashes to, so rows of any dat can share a stripe, which only costs
/// an occasional wait.
static STRIPES: [AtomicBool; 1 << STRIPE_BITS] =
    [const { AtomicBool::new(false) }; 1 << STRIPE_BITS];

/// Spins on a held stripe before a waiter starts yielding its core: with
/// more threads than cores, a holder descheduled mid-row must not stall
/// a spinner for a whole timeslice.
const SPINS_BEFORE_YIELD: u32 = 64;

/// Run `f` holding the stripe lock of the row at `row` (a Fibonacci hash
/// of its address picks the stripe).
#[inline]
fn with_row_locked<T>(row: *const T, f: impl FnOnce()) {
    let hash = (row as usize as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let lock = &STRIPES[(hash >> (64 - STRIPE_BITS)) as usize];
    if lock.swap(true, Ordering::Acquire) {
        acquire_contended(lock);
    }
    f();
    lock.store(false, Ordering::Release);
}

/// Wait for a held stripe and take it: spin while it stays held, then
/// yield the core between polls.
#[cold]
#[inline(never)]
fn acquire_contended(lock: &AtomicBool) {
    let mut spins = 0;
    loop {
        while lock.load(Ordering::Relaxed) {
            if spins < SPINS_BEFORE_YIELD {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        if !lock.swap(true, Ordering::Acquire) {
            return;
        }
    }
}

/// A field with `dim` components per set element.
#[derive(Debug, Clone)]
pub struct DatU<T> {
    name: String,
    set_size: usize,
    dim: usize,
    data: Vec<T>,
    /// Shadow-registry id (0 when no shadow was current at creation).
    sid: u32,
}

impl<T: Real> DatU<T> {
    /// Allocate a zeroed field.
    pub fn zeroed(name: &str, set_size: usize, dim: usize) -> Self {
        let sid = shadow::register_dat(
            name,
            T::BYTES,
            shadow::DatGeom::Set {
                size: set_size,
                dim,
            },
        );
        // A zeroed allocation leaves a fresh mapping untouched, so the
        // advice lands before `fill_with`'s first-touch writes.
        let mut data = vec![T::zero(); set_size * dim];
        parkit::mem::advise_huge_pages(&mut data);
        DatU {
            name: name.to_owned(),
            set_size,
            dim,
            data,
            sid,
        }
    }

    /// Fill from an (element, component) function, on the pool in
    /// chunks of whole elements. Each value is written once, so a
    /// fresh field's pages are first touched by these writes.
    pub fn fill_with(&mut self, f: impl Fn(usize, usize) -> T + Sync) {
        // A zero-dim field holds no values; `max` keeps the chunking valid.
        let dim = self.dim.max(1);
        let grain = (DAT_CHUNK / dim).max(1) * dim;
        global_pool().for_each_chunk(&mut self.data, grain, |start, values| {
            for (i, row) in values.chunks_exact_mut(dim).enumerate() {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = f(start / dim + i, c);
                }
            }
        });
        shadow::mark_all_init(self.sid);
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Shadow-registry id (0 when no shadow was current at creation).
    pub fn id(&self) -> u32 {
        self.sid
    }

    pub fn set_size(&self) -> usize {
        self.set_size
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Dataset bytes (the effective-bytes rule counts whole datasets).
    pub fn bytes(&self) -> f64 {
        (self.data.len()) as f64 * T::BYTES
    }

    /// Value of component `c` of element `e`.
    #[inline]
    pub fn at(&self, e: usize, c: usize) -> T {
        self.data[e * self.dim + c]
    }

    /// Host access for validation.
    pub fn host(&self) -> &[T] {
        &self.data
    }

    /// Sum of all components (conservation checks).
    pub fn total(&self) -> f64 {
        self.data.iter().map(|v| v.to_f64()).sum()
    }

    /// Shared read view for kernels.
    pub fn reader(&self) -> UReadView<'_, T> {
        UReadView {
            ptr: self.data.as_ptr(),
            dim: self.dim,
            len: self.data.len(),
            sid: self.sid,
            _marker: std::marker::PhantomData,
        }
    }

    /// Exclusive write view (one writer per element; disjoint by the
    /// loop's iteration contract).
    pub fn writer(&mut self) -> UWriteView<'_, T> {
        UWriteView {
            ptr: self.data.as_mut_ptr(),
            dim: self.dim,
            len: self.data.len(),
            sid: self.sid,
            _marker: std::marker::PhantomData,
        }
    }

    /// Accumulation view for indirect increments. `atomic` chooses
    /// row-locked adds (atomics scheme) vs plain adds (colour-serialised
    /// schemes, where the colouring invariant makes races impossible).
    pub fn accum(&mut self, atomic: bool) -> Accum<'_, T> {
        Accum {
            ptr: self.data.as_mut_ptr(),
            dim: self.dim,
            len: self.data.len(),
            atomic,
            sid: self.sid,
            _marker: std::marker::PhantomData,
        }
    }
}

/// Shared read view; `Copy` so kernel closures can capture it.
pub struct UReadView<'a, T> {
    ptr: *const T,
    dim: usize,
    len: usize,
    sid: u32,
    _marker: std::marker::PhantomData<&'a [T]>,
}

impl<T> Copy for UReadView<'_, T> {}
impl<T> Clone for UReadView<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
// SAFETY: read-only aliasing of an immutable borrow.
unsafe impl<T: Sync> Send for UReadView<'_, T> {}
unsafe impl<T: Sync> Sync for UReadView<'_, T> {}

impl<T: Real> UReadView<'_, T> {
    /// Component `c` of element `e`.
    #[inline]
    pub fn at(&self, e: usize, c: usize) -> T {
        let idx = e * self.dim + c;
        debug_assert!(idx < self.len);
        shadow::record(self.sid, idx, 1, Touch::Read);
        // SAFETY: bounds guaranteed by set sizes (debug-checked).
        unsafe { *self.ptr.add(idx) }
    }
}

/// Exclusive write view; disjoint element writes per the loop contract.
pub struct UWriteView<'a, T> {
    ptr: *mut T,
    dim: usize,
    len: usize,
    sid: u32,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

impl<T> Copy for UWriteView<'_, T> {}
impl<T> Clone for UWriteView<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
// SAFETY: disjoint-write contract as in ops-dsl views.
unsafe impl<T: Send> Send for UWriteView<'_, T> {}
unsafe impl<T: Send> Sync for UWriteView<'_, T> {}

impl<'a, T: Real> UWriteView<'a, T> {
    /// Store component `c` of element `e`.
    #[inline]
    pub fn set(&self, e: usize, c: usize, v: T) {
        let idx = e * self.dim + c;
        debug_assert!(idx < self.len);
        shadow::record(self.sid, idx, 1, Touch::Write);
        // SAFETY: sole writer of element `e` per the loop contract.
        unsafe { *self.ptr.add(idx) = v };
    }

    /// Read back component `c` of element `e` (read-write args).
    #[inline]
    pub fn get(&self, e: usize, c: usize) -> T {
        let idx = e * self.dim + c;
        debug_assert!(idx < self.len);
        shadow::record(self.sid, idx, 1, Touch::Read);
        // SAFETY: as `set`.
        unsafe { *self.ptr.add(idx) }
    }

    /// Convert into an accumulation view over the same dat. Lets a graph
    /// capture one exclusive view per dat and use it both for direct
    /// writes and indirect increments across recorded loops (a second
    /// `DatU::accum` borrow would conflict with the live writer).
    pub fn to_accum(self, atomic: bool) -> Accum<'a, T> {
        Accum {
            ptr: self.ptr,
            dim: self.dim,
            len: self.len,
            atomic,
            sid: self.sid,
            _marker: std::marker::PhantomData,
        }
    }
}

/// Indirect-increment view: `add` and `add_row` resolve races either
/// atomically or by relying on a colouring invariant.
///
/// The model prices an atomic increment as the platform's FP-atomic or
/// CAS update, one per component. The host runs it as plain adds under
/// the row's stripe lock: one locked operation per row instead of one
/// CAS loop per component.
pub struct Accum<'a, T> {
    ptr: *mut T,
    dim: usize,
    len: usize,
    atomic: bool,
    sid: u32,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

impl<T> Copy for Accum<'_, T> {}
impl<T> Clone for Accum<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
// SAFETY: atomic mode is race-free by the row stripe locks; plain mode
// relies on the colouring invariant enforced (and property-tested) by
// `color`.
unsafe impl<T: Send> Send for Accum<'_, T> {}
unsafe impl<T: Send> Sync for Accum<'_, T> {}

impl<T: Real> Accum<'_, T> {
    /// `data[e][c] += v`.
    #[inline]
    pub fn add(&self, e: usize, c: usize, v: T) {
        let idx = e * self.dim + c;
        debug_assert!(idx < self.len);
        // SAFETY: bounds guaranteed by set sizes (debug-checked).
        let (row, p) = unsafe { (self.ptr.add(e * self.dim), self.ptr.add(idx)) };
        // SAFETY (both arms): in atomic mode every access to the row
        // holds its stripe lock; otherwise colouring guarantees no two
        // concurrent adds touch the same element.
        if self.atomic {
            shadow::record(self.sid, idx, 1, Touch::Atomic);
            with_row_locked(row, || unsafe { *p += v });
        } else {
            // A plain increment is a read-modify-write: record both
            // sides so overlap between concurrent units surfaces.
            shadow::record(self.sid, idx, 1, Touch::ReadWrite);
            unsafe { *p += v };
        }
    }

    /// `data[e][c] += v[c]` for the whole row of element `e`, in
    /// component order. `N` is the dat's dim; keeping it a constant
    /// lets the adds unroll.
    #[inline]
    pub fn add_row<const N: usize>(&self, e: usize, v: &[T; N]) {
        debug_assert_eq!(N, self.dim);
        let base = e * self.dim;
        debug_assert!(base + N <= self.len);
        // SAFETY: bounds guaranteed by set sizes (debug-checked).
        let row = unsafe { self.ptr.add(base) };
        // SAFETY: as in `add`, for each component of the row.
        let add_all = || {
            for c in 0..N {
                unsafe { *row.add(c) += v[c] };
            }
        };
        if self.atomic {
            shadow::record(self.sid, base, N, Touch::Atomic);
            with_row_locked(row, add_all);
        } else {
            shadow::record(self.sid, base, N, Touch::ReadWrite);
            add_all();
        }
    }

    /// Whether this view uses atomics.
    pub fn is_atomic(&self) -> bool {
        self.atomic
    }
}

/// Where a view's data lives, for an edge loop's prefetcher.
fn rows_of<T: Real>(ptr: *const T, len: usize) -> Option<VertexRows> {
    Some(VertexRows {
        addr: ptr as usize,
        len,
        elem_bytes: std::mem::size_of::<T>(),
    })
}

impl<T: Real> VertexArg for UReadView<'_, T> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn rows(&self) -> Option<VertexRows> {
        rows_of(self.ptr, self.len)
    }
}

impl<T: Real> VertexArg for UWriteView<'_, T> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn rows(&self) -> Option<VertexRows> {
        rows_of(self.ptr, self.len)
    }
}

impl<T: Real> VertexArg for Accum<'_, T> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn rows(&self) -> Option<VertexRows> {
        rows_of(self.ptr, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parkit::ThreadPool;

    #[test]
    fn construction_and_access() {
        let mut d = DatU::<f64>::zeroed("q", 10, 4);
        assert_eq!(d.set_size(), 10);
        assert_eq!(d.dim(), 4);
        assert_eq!(d.bytes(), 320.0);
        d.fill_with(|e, c| (e * 10 + c) as f64);
        assert_eq!(d.at(3, 2), 32.0);
        assert_eq!(d.reader().at(3, 2), 32.0);
    }

    #[test]
    fn a_dat_of_several_chunks_zeroes_and_fills_like_the_sequential_loop() {
        // 5 components over 20,011 elements: 100,055 values, four pool
        // chunks, the last one short.
        let (n, dim) = (20_011, 5);
        assert!(n * dim > 3 * DAT_CHUNK);
        let mut d = DatU::<f64>::zeroed("q", n, dim);
        assert_eq!(d.host().len(), n * dim);
        assert!(d.host().iter().all(|v| v.to_bits() == 0));
        let f = |e: usize, c: usize| 1.0 + 0.01 * ((e * 7 + c * 3) % 17) as f64;
        d.fill_with(f);
        for e in 0..n {
            for c in 0..dim {
                assert_eq!(d.at(e, c).to_bits(), f(e, c).to_bits(), "({e}, {c})");
            }
        }
    }

    #[test]
    fn write_view_sets_values() {
        let mut d = DatU::<f32>::zeroed("r", 8, 2);
        {
            let w = d.writer();
            w.set(5, 1, 2.5);
            assert_eq!(w.get(5, 1), 2.5);
        }
        assert_eq!(d.at(5, 1), 2.5);
    }

    /// Every chunk adds `[1, 2, 3]` to each of three rows with `add_row`
    /// and `1` to each component with `add`. The values are small
    /// integers, so the totals are exact in any order and a lost update
    /// shows as a wrong total.
    fn mixed_atomic_adds_reach_exact_totals<T: Real>() {
        let chunks = 1000;
        let mut d = DatU::<T>::zeroed("acc", 3, 3);
        let pool = ThreadPool::new(4);
        {
            let acc = d.accum(true);
            assert!(acc.is_atomic());
            let row = [1.0, 2.0, 3.0].map(T::from_f64);
            pool.run_region(chunks, |_l, _c| {
                for e in 0..3 {
                    acc.add_row(e, &row);
                    for c in 0..3 {
                        acc.add(e, c, T::one());
                    }
                }
            });
        }
        for e in 0..3 {
            for c in 0..3 {
                let want = (chunks * (c + 2)) as f64;
                assert_eq!(d.at(e, c).to_f64(), want, "({e}, {c})");
            }
        }
    }

    #[test]
    fn atomic_accum_is_correct_under_contention() {
        mixed_atomic_adds_reach_exact_totals::<f64>();
        mixed_atomic_adds_reach_exact_totals::<f32>();
    }

    #[test]
    fn plain_add_row_is_bit_identical_to_per_component_adds() {
        let (n, dim) = (37, 5);
        let mut by_row = DatU::<f64>::zeroed("r", n, dim);
        by_row.fill_with(|e, c| 0.1 * (e * dim + c) as f64);
        let mut by_comp = by_row.clone();
        let (rows, comps) = (by_row.accum(false), by_comp.accum(false));
        for k in 0..500usize {
            let e = (k * 17 + 3) % n;
            let v: [f64; 5] = std::array::from_fn(|c| ((k + c) as f64).sin() / 3.0);
            rows.add_row(e, &v);
            for c in 0..dim {
                comps.add(e, c, v[c]);
            }
        }
        let bits = |d: &DatU<f64>| d.host().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&by_row), bits(&by_comp));
    }

    #[test]
    fn eight_threads_on_one_stripe_all_finish() {
        // One row is one stripe: more threads than cores contend for
        // it, so a descheduled holder must not stall the spinners.
        let (threads, adds) = (8, 20_000);
        let mut d = DatU::<f64>::zeroed("acc", 1, 2);
        {
            let acc = d.accum(true);
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {
                        for _ in 0..adds {
                            acc.add_row(0, &[1.0, 0.5]);
                        }
                    });
                }
            });
        }
        assert_eq!(d.at(0, 0), (threads * adds) as f64);
        assert_eq!(d.at(0, 1), (threads * adds) as f64 / 2.0);
    }

    #[test]
    fn plain_accum_works_single_threaded() {
        let mut d = DatU::<f64>::zeroed("acc", 2, 2);
        {
            let acc = d.accum(false);
            for _ in 0..10 {
                acc.add(1, 1, 0.5);
            }
        }
        assert_eq!(d.at(1, 1), 5.0);
        assert_eq!(d.total(), 5.0);
    }
}
