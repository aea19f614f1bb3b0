//! Datasets: halo-padded fields over a block, with parallel-safe views.

use crate::block::Block;
use crate::range::Row;
use sycl_sim::Real;
use telemetry::shadow::{self, Touch};

/// Metadata handed to loop descriptors (cheap to copy before borrowing
/// the data for views).
#[derive(Debug, Clone, Copy)]
pub struct DatMeta {
    /// Bytes per element.
    pub elem_bytes: f64,
    /// Shadow-registry id linking the declaration back to the dataset
    /// (0 = anonymous: no shadow was current at creation, or the
    /// declaration was written without a dat in hand). Never enters
    /// kernel pricing; transfer elision needs a nonzero id.
    pub id: u32,
}

impl DatMeta {
    /// A declaration-only meta not linked to any dataset. Pricing treats
    /// it exactly like [`Dat::meta`]; the verifier cannot match its
    /// accesses, so prefer `dat.meta()` where a dat exists.
    pub fn anon(elem_bytes: f64) -> Self {
        DatMeta { elem_bytes, id: 0 }
    }
}

/// A field over a block, stored with halo padding, x-fastest.
#[derive(Debug, Clone)]
pub struct Dat<T> {
    name: String,
    data: Vec<T>,
    /// Padded extents.
    pad: [usize; 3],
    /// Index offset per dimension (halo depth, 0 on degenerate dims).
    off: [i64; 3],
    /// Shadow-registry id (0 when no shadow was current at creation).
    sid: u32,
}

impl<T: Real> Dat<T> {
    /// Allocate a zero field over `block`.
    pub fn zeroed(block: &Block, name: &str) -> Self {
        let pad = [block.padded(0), block.padded(1), block.padded(2)];
        let off = std::array::from_fn(|d| {
            if block.dims[d] > 1 {
                block.halo as i64
            } else {
                0
            }
        });
        let sid = shadow::register_dat(name, T::BYTES, shadow::DatGeom::Grid { pad, off });
        // A zeroed allocation leaves a fresh mapping untouched, so the
        // advice lands before the first fill or kernel write.
        let mut data = vec![T::zero(); pad[0] * pad[1] * pad[2]];
        parkit::mem::advise_huge_pages(&mut data);
        Dat {
            name: name.to_owned(),
            data,
            pad,
            off,
            sid,
        }
    }

    /// Fill every (padded) point from an index function over *interior*
    /// coordinates (halo points receive their own negative/overflow
    /// indices, convenient for initialisation).
    pub fn fill_with(&mut self, mut f: impl FnMut(i64, i64, i64) -> T) {
        for z in 0..self.pad[2] {
            for y in 0..self.pad[1] {
                for x in 0..self.pad[0] {
                    let idx = (z * self.pad[1] + y) * self.pad[0] + x;
                    self.data[idx] = f(
                        x as i64 - self.off[0],
                        y as i64 - self.off[1],
                        z as i64 - self.off[2],
                    );
                }
            }
        }
        shadow::mark_all_init(self.sid);
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Metadata for loop descriptors.
    pub fn meta(&self) -> DatMeta {
        DatMeta {
            elem_bytes: T::BYTES,
            id: self.sid,
        }
    }

    /// Total allocation size in bytes (incl. halos).
    pub fn bytes(&self) -> f64 {
        self.data.len() as f64 * T::BYTES
    }

    #[inline]
    fn index(&self, i: i64, j: i64, k: i64) -> usize {
        let x = i + self.off[0];
        let y = j + self.off[1];
        let z = k + self.off[2];
        debug_assert!(
            x >= 0
                && (x as usize) < self.pad[0]
                && y >= 0
                && (y as usize) < self.pad[1]
                && z >= 0
                && (z as usize) < self.pad[2],
            "{}: index ({i},{j},{k}) out of padded bounds {:?}",
            self.name,
            self.pad
        );
        ((z as usize) * self.pad[1] + y as usize) * self.pad[0] + x as usize
    }

    /// Shared read view (usable concurrently from any number of tiles).
    pub fn reader(&self) -> ReadView<'_, T> {
        ReadView {
            ptr: self.data.as_ptr(),
            pad: self.pad,
            off: self.off,
            sid: self.sid,
            _marker: std::marker::PhantomData,
        }
    }

    /// Exclusive write view.
    ///
    /// The view is `Copy + Sync` so parallel tiles can use it; safety
    /// comes from the DSL's tiling contract: each loop point is written
    /// by exactly one tile, and no reader views of the same dat coexist
    /// with the writer (the `&mut` borrow enforces the latter).
    pub fn writer(&mut self) -> WriteView<'_, T> {
        WriteView {
            ptr: self.data.as_mut_ptr(),
            pad: self.pad,
            off: self.off,
            sid: self.sid,
            _marker: std::marker::PhantomData,
        }
    }

    /// Direct sampled access for tests/validation.
    pub fn at(&self, i: i64, j: i64, k: i64) -> T {
        self.data[self.index(i, j, k)]
    }

    /// Sum over the interior of `block` (for conservation checks).
    pub fn interior_sum(&self, block: &Block) -> f64 {
        let mut s = 0.0;
        for (i, j, k) in block.interior().iter() {
            s += self.at(i, j, k).to_f64();
        }
        s
    }
}

/// Shared read view into a [`Dat`]; `Copy` so closures can capture it.
pub struct ReadView<'a, T> {
    ptr: *const T,
    pad: [usize; 3],
    off: [i64; 3],
    sid: u32,
    _marker: std::marker::PhantomData<&'a [T]>,
}

impl<T> Copy for ReadView<'_, T> {}
impl<T> Clone for ReadView<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
// SAFETY: read-only aliasing of a live immutable borrow.
unsafe impl<T: Sync> Send for ReadView<'_, T> {}
unsafe impl<T: Sync> Sync for ReadView<'_, T> {}

impl<T: Real> ReadView<'_, T> {
    /// Value at (i, j, k); halo indices are valid.
    #[inline]
    pub fn at(&self, i: i64, j: i64, k: i64) -> T {
        let x = i + self.off[0];
        let y = j + self.off[1];
        let z = k + self.off[2];
        debug_assert!(
            x >= 0
                && (x as usize) < self.pad[0]
                && y >= 0
                && (y as usize) < self.pad[1]
                && z >= 0
                && (z as usize) < self.pad[2],
            "read ({i},{j},{k}) out of padded bounds {:?}",
            self.pad
        );
        let idx = ((z as usize) * self.pad[1] + y as usize) * self.pad[0] + x as usize;
        shadow::record(self.sid, idx, 1, Touch::Read);
        // SAFETY: bounds checked above (debug) / guaranteed by the loop
        // ranges the DSL constructs (release).
        unsafe { *self.ptr.add(idx) }
    }

    /// Contiguous slice of one x-row; halo spans are valid. The base
    /// index is computed once for the whole span — the fast path whose
    /// cost [`ReadView::at`] pays per element.
    #[inline]
    pub fn row(&self, r: Row) -> &[T] {
        let x = r.i0 + self.off[0];
        let y = r.j + self.off[1];
        let z = r.k + self.off[2];
        let len = r.len();
        debug_assert!(
            x >= 0
                && (x as usize) + len <= self.pad[0]
                && y >= 0
                && (y as usize) < self.pad[1]
                && z >= 0
                && (z as usize) < self.pad[2],
            "row [{}, {}) at ({}, {}) out of padded bounds {:?}",
            r.i0,
            r.i1,
            r.j,
            r.k,
            self.pad
        );
        let base = ((z as usize) * self.pad[1] + y as usize) * self.pad[0] + x as usize;
        shadow::record(self.sid, base, len, Touch::Read);
        // SAFETY: the whole span is in the padded allocation (debug-checked
        // above, guaranteed by the DSL's ranges in release).
        unsafe { std::slice::from_raw_parts(self.ptr.add(base), len) }
    }
}

/// Exclusive write view into a [`Dat`]; `Copy + Sync` under the tiling
/// contract (disjoint writes per tile).
pub struct WriteView<'a, T> {
    ptr: *mut T,
    pad: [usize; 3],
    off: [i64; 3],
    sid: u32,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

impl<T> Copy for WriteView<'_, T> {}
impl<T> Clone for WriteView<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
// SAFETY: tiles write disjoint points (DSL contract); the `&mut` borrow
// prevents any concurrent readers of the same dat.
unsafe impl<T: Send> Send for WriteView<'_, T> {}
unsafe impl<T: Send> Sync for WriteView<'_, T> {}

impl<T: Real> WriteView<'_, T> {
    #[inline]
    fn index(&self, i: i64, j: i64, k: i64) -> usize {
        let x = i + self.off[0];
        let y = j + self.off[1];
        let z = k + self.off[2];
        debug_assert!(
            x >= 0
                && (x as usize) < self.pad[0]
                && y >= 0
                && (y as usize) < self.pad[1]
                && z >= 0
                && (z as usize) < self.pad[2],
            "write ({i},{j},{k}) out of padded bounds {:?}",
            self.pad
        );
        ((z as usize) * self.pad[1] + y as usize) * self.pad[0] + x as usize
    }

    /// Store `v` at (i, j, k).
    #[inline]
    pub fn set(&self, i: i64, j: i64, k: i64, v: T) {
        let idx = self.index(i, j, k);
        shadow::record(self.sid, idx, 1, Touch::Write);
        // SAFETY: disjoint-write contract; bounds as in `index`.
        unsafe { *self.ptr.add(idx) = v };
    }

    /// Read back a value this loop wrote (read-write dats).
    #[inline]
    pub fn get(&self, i: i64, j: i64, k: i64) -> T {
        let idx = self.index(i, j, k);
        shadow::record(self.sid, idx, 1, Touch::Read);
        // SAFETY: as `set`.
        unsafe { *self.ptr.add(idx) }
    }

    /// Shared contiguous slice of one x-row: the read half of a
    /// read-write dat (base index computed once, as [`ReadView::row`]).
    /// Graph-recorded bodies capture one `WriteView` per read-write
    /// argument and use this for the reads, so replays need no separate
    /// `ReadView` aliasing the same dat.
    #[inline]
    pub fn row(&self, r: Row) -> &[T] {
        let x = r.i0 + self.off[0];
        let y = r.j + self.off[1];
        let z = r.k + self.off[2];
        let len = r.len();
        debug_assert!(
            x >= 0
                && (x as usize) + len <= self.pad[0]
                && y >= 0
                && (y as usize) < self.pad[1]
                && z >= 0
                && (z as usize) < self.pad[2],
            "row [{}, {}) at ({}, {}) out of padded bounds {:?}",
            r.i0,
            r.i1,
            r.j,
            r.k,
            self.pad
        );
        let base = ((z as usize) * self.pad[1] + y as usize) * self.pad[0] + x as usize;
        shadow::record(self.sid, base, len, Touch::Read);
        // SAFETY: span in bounds as above; shared reads of a view whose
        // writes are disjoint per the tiling contract.
        unsafe { std::slice::from_raw_parts(self.ptr.add(base), len) }
    }

    /// Mutable contiguous slice of one x-row, base index computed once
    /// for the span (see [`ReadView::row`]).
    ///
    /// Aliasing contract as for [`WriteView::set`]: the tiling contract
    /// makes every point belong to exactly one tile, and a kernel body
    /// must not hold two overlapping row slices at the same time.
    #[inline]
    #[allow(clippy::mut_from_ref)] // the view is the DSL's sanctioned aliasing hole, as `set` is
    pub fn row_mut(&self, r: Row) -> &mut [T] {
        let x = r.i0 + self.off[0];
        let y = r.j + self.off[1];
        let z = r.k + self.off[2];
        let len = r.len();
        debug_assert!(
            x >= 0
                && (x as usize) + len <= self.pad[0]
                && y >= 0
                && (y as usize) < self.pad[1]
                && z >= 0
                && (z as usize) < self.pad[2],
            "row [{}, {}) at ({}, {}) out of padded bounds {:?}",
            r.i0,
            r.i1,
            r.j,
            r.k,
            self.pad
        );
        let base = ((z as usize) * self.pad[1] + y as usize) * self.pad[0] + x as usize;
        // A mutable span may be both read and written by the body.
        shadow::record(self.sid, base, len, Touch::ReadWrite);
        // SAFETY: span in bounds as above; exclusivity per the
        // disjoint-write contract documented on the method.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(base), len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halo_padding_and_indexing() {
        let b = Block::new_2d(4, 4, 2);
        let mut d = Dat::<f64>::zeroed(&b, "u");
        assert_eq!(d.bytes(), (8 * 8) as f64 * 8.0);
        d.fill_with(|i, j, _| (10 * i + j) as f64);
        assert_eq!(d.at(0, 0, 0), 0.0);
        assert_eq!(d.at(3, 2, 0), 32.0);
        assert_eq!(d.at(-2, -2, 0), -22.0, "halo points are addressable");
        assert_eq!(d.at(5, 5, 0), 55.0);
    }

    #[test]
    fn views_read_and_write() {
        let b = Block::new_3d(4, 4, 4, 1);
        let mut d = Dat::<f32>::zeroed(&b, "p");
        {
            let w = d.writer();
            w.set(2, 3, 1, 7.5);
            assert_eq!(w.get(2, 3, 1), 7.5);
        }
        assert_eq!(d.reader().at(2, 3, 1), 7.5);
    }

    #[test]
    fn row_slices_alias_per_point_access() {
        let b = Block::new_2d(6, 4, 2);
        let mut d = Dat::<f64>::zeroed(&b, "u");
        d.fill_with(|i, j, _| (10 * i + j) as f64);
        let row = Row {
            i0: -1,
            i1: 7,
            j: 2,
            k: 0,
        };
        let r = d.reader();
        let s = r.row(row);
        assert_eq!(s.len(), 8);
        for (x, &v) in s.iter().enumerate() {
            assert_eq!(v, r.at(row.i0 + x as i64, row.j, row.k));
        }
        // Mutation through the row is visible to per-point reads.
        let w = d.writer();
        let m = w.row_mut(Row {
            i0: 0,
            i1: 6,
            j: 1,
            k: 0,
        });
        for v in m.iter_mut() {
            *v = -1.0;
        }
        assert_eq!(d.at(3, 1, 0), -1.0);
        assert_eq!(d.at(3, 2, 0), 32.0, "neighbouring row untouched");
    }

    #[test]
    fn interior_sum_ignores_halo() {
        let b = Block::new_2d(3, 3, 1);
        let mut d = Dat::<f64>::zeroed(&b, "m");
        d.fill_with(|_, _, _| 1.0); // halo points are 1.0 too
        assert_eq!(d.interior_sum(&b), 9.0);
    }

    #[test]
    fn degenerate_z_has_no_padding() {
        let b = Block::new_2d(4, 4, 3);
        let d = Dat::<f64>::zeroed(&b, "u");
        // z index must be exactly 0 for 2-D dats.
        assert_eq!(d.at(0, 0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of padded bounds")]
    #[cfg(debug_assertions)]
    fn out_of_bounds_reads_panic_in_debug() {
        let b = Block::new_2d(4, 4, 1);
        let d = Dat::<f64>::zeroed(&b, "u");
        let _ = d.at(6, 0, 0);
    }
}
