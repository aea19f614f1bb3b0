//! Unstructured datasets: multi-component fields over a set.

use crate::parloop::{VertexArg, VertexRows};
use parkit::global_pool;
use sycl_sim::Real;
use telemetry::shadow::{self, Touch};

/// Values per pool chunk when a field is filled (256 KiB of `f64`).
const DAT_CHUNK: usize = 1 << 15;

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

    /// Accumulation view for indirect increments. `atomic` chooses the
    /// CAS path (atomics scheme) vs plain adds (colour-serialised
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

/// Indirect-increment view: `add` resolves races either atomically or by
/// relying on a colouring invariant.
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
// SAFETY: atomic mode is race-free by construction; plain mode relies on
// the colouring invariant enforced (and property-tested) by `color`.
unsafe impl<T: Send> Send for Accum<'_, T> {}
unsafe impl<T: Send> Sync for Accum<'_, T> {}

impl<T: Real> Accum<'_, T> {
    /// `data[e][c] += v`.
    #[inline]
    pub fn add(&self, e: usize, c: usize, v: T) {
        let idx = e * self.dim + c;
        debug_assert!(idx < self.len);
        if self.atomic {
            shadow::record(self.sid, idx, 1, Touch::Atomic);
            // SAFETY: all concurrent accesses in atomic mode go through
            // `atomic_add`.
            unsafe { T::atomic_add(self.ptr.add(idx), v) };
        } else {
            // A plain increment is a read-modify-write: record both
            // sides so overlap between concurrent units surfaces.
            shadow::record(self.sid, idx, 1, Touch::ReadWrite);
            // SAFETY: colouring guarantees no two concurrent adds touch
            // the same element.
            unsafe { *self.ptr.add(idx) = *self.ptr.add(idx) + v };
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

    #[test]
    fn atomic_accum_is_correct_under_contention() {
        let mut d = DatU::<f64>::zeroed("acc", 4, 1);
        let pool = ThreadPool::new(4);
        {
            let acc = d.accum(true);
            assert!(acc.is_atomic());
            // 1000 chunks all incrementing the same 4 elements.
            pool.run_region(1000, |_l, _c| {
                for e in 0..4 {
                    acc.add(e, 0, 1.0);
                }
            });
        }
        for e in 0..4 {
            assert_eq!(d.at(e, 0), 1000.0);
        }
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
