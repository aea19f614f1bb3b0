//! Unstructured datasets: multi-component fields over a set.

use crate::parloop::{VertexArg, VertexRows};
use parkit::global_pool;
use parkit::view::{Exclusive, Shared, View};
use sycl_sim::Real;
use telemetry::shadow;

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
        UView {
            raw: View::shared(&self.data, self.sid),
            dim: self.dim,
        }
    }

    /// Exclusive write view (one writer per element; disjoint by the
    /// loop's iteration contract).
    pub fn writer(&mut self) -> UWriteView<'_, T> {
        UView {
            raw: View::exclusive(&mut self.data, self.sid),
            dim: self.dim,
        }
    }

    /// Accumulation view for indirect increments. `atomic` chooses
    /// row-locked adds (atomics scheme) vs plain adds (colour-serialised
    /// schemes, where the colouring invariant makes races impossible).
    pub fn accum(&mut self, atomic: bool) -> Accum<'_, T> {
        self.writer().to_accum(atomic)
    }
}

/// A view into a [`DatU`] over (element, component); `Copy` so kernel
/// closures can capture it. `M` is the [`parkit::view`] mode.
#[derive(Clone, Copy)]
pub struct UView<'a, T, M> {
    raw: View<'a, T, M>,
    dim: usize,
}

/// Shared read view.
pub type UReadView<'a, T> = UView<'a, T, Shared>;

/// Exclusive write view; disjoint element writes per the loop contract.
pub type UWriteView<'a, T> = UView<'a, T, Exclusive>;

impl<T: Real> UReadView<'_, T> {
    /// Component `c` of element `e`.
    #[inline]
    pub fn at(&self, e: usize, c: usize) -> T {
        self.raw.read(e * self.dim + c)
    }
}

impl<'a, T: Real> UWriteView<'a, T> {
    /// Store component `c` of element `e`.
    #[inline]
    pub fn set(&self, e: usize, c: usize, v: T) {
        self.raw.write(e * self.dim + c, v);
    }

    /// Read back component `c` of element `e` (read-write args).
    #[inline]
    pub fn get(&self, e: usize, c: usize) -> T {
        self.raw.read(e * self.dim + c)
    }

    /// Convert into an accumulation view over the same dat. Lets a graph
    /// capture one exclusive view per dat and use it both for direct
    /// writes and indirect increments across recorded loops (a second
    /// `DatU::accum` borrow would conflict with the live writer).
    pub fn to_accum(self, atomic: bool) -> Accum<'a, T> {
        Accum { rows: self, atomic }
    }
}

/// Indirect-increment view: `add` and `add_row` resolve races either
/// atomically ([`View::add_locked`]) or by relying on a colouring
/// invariant enforced (and property-tested) by `color`.
#[derive(Clone, Copy)]
pub struct Accum<'a, T> {
    rows: UWriteView<'a, T>,
    atomic: bool,
}

impl<T: Real> Accum<'_, T> {
    /// `data[e][c] += v`.
    #[inline]
    pub fn add(&self, e: usize, c: usize, v: T) {
        let row = e * self.rows.dim;
        if self.atomic {
            self.rows.raw.add_locked(row, row + c, &[v]);
        } else {
            self.rows.raw.add(row + c, &[v]);
        }
    }

    /// `data[e][c] += v[c]` for the whole row of element `e`, in
    /// component order. `N` is the dat's dim; keeping it a constant
    /// lets the adds unroll. Always inlined: with `#[inline]` alone the
    /// compiler kept it out of line, and MG-CFD's flux steps ran
    /// 15–55 % slower.
    #[inline(always)]
    pub fn add_row<const N: usize>(&self, e: usize, v: &[T; N]) {
        debug_assert_eq!(N, self.rows.dim);
        let row = e * self.rows.dim;
        if self.atomic {
            self.rows.raw.add_locked(row, row, v);
        } else {
            self.rows.raw.add(row, v);
        }
    }

    /// Whether this view uses atomics.
    pub fn is_atomic(&self) -> bool {
        self.atomic
    }
}

/// Where a view's data lives, for an edge loop's prefetcher.
impl<T: Real, M> VertexArg for UView<'_, T, M> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn rows(&self) -> Option<VertexRows> {
        Some(VertexRows {
            addr: self.raw.addr(),
            len: self.raw.len(),
            elem_bytes: std::mem::size_of::<T>(),
            locked: false,
        })
    }
}

/// An atomic accumulator's rows come with their stripe locks.
impl<T: Real> VertexArg for Accum<'_, T> {
    fn dim(&self) -> usize {
        self.rows.dim
    }

    fn rows(&self) -> Option<VertexRows> {
        let rows = self.rows.rows()?;
        Some(VertexRows {
            locked: self.atomic,
            ..rows
        })
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
