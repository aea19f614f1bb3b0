//! Datasets: halo-padded fields over a block, with parallel-safe views.

use crate::block::Block;
use crate::range::Row;
use parkit::view::{Exclusive, Shared, View};
use sycl_sim::Real;
use telemetry::shadow;

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
    geom: Padded,
    /// Shadow-registry id (0 when no shadow was current at creation).
    sid: u32,
}

/// Where a padded field keeps point (i, j, k).
#[derive(Debug, Clone, Copy)]
struct Padded {
    /// Padded extents.
    pad: [usize; 3],
    /// Index offset per dimension (halo depth, 0 on degenerate dims).
    off: [i64; 3],
}

impl Padded {
    /// The linear index of (i, j, k), the first of `len` points along
    /// x. Debug builds check that all of them lie in the padded box,
    /// naming the field `name` returns if not.
    #[inline]
    fn index(&self, i: i64, j: i64, k: i64, len: usize, name: impl FnOnce() -> String) -> usize {
        let [x, y, z] = [i + self.off[0], j + self.off[1], k + self.off[2]];
        debug_assert!(
            x >= 0
                && (x as usize) + len <= self.pad[0]
                && y >= 0
                && (y as usize) < self.pad[1]
                && z >= 0
                && (z as usize) < self.pad[2],
            "{}: ({i},{j},{k}) span {len} out of padded bounds {:?}",
            name(),
            self.pad
        );
        ((z as usize) * self.pad[1] + y as usize) * self.pad[0] + x as usize
    }
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
            geom: Padded { pad, off },
            sid,
        }
    }

    /// Fill every (padded) point from an index function over *interior*
    /// coordinates (halo points receive their own negative/overflow
    /// indices, convenient for initialisation).
    pub fn fill_with(&mut self, mut f: impl FnMut(i64, i64, i64) -> T) {
        let Padded { pad, off } = self.geom;
        for z in 0..pad[2] {
            for y in 0..pad[1] {
                for x in 0..pad[0] {
                    let idx = (z * pad[1] + y) * pad[0] + x;
                    self.data[idx] = f(x as i64 - off[0], y as i64 - off[1], z as i64 - off[2]);
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

    /// Shared read view (usable concurrently from any number of tiles).
    pub fn reader(&self) -> ReadView<'_, T> {
        GridView {
            raw: View::shared(&self.data, self.sid),
            geom: self.geom,
        }
    }

    /// Exclusive write view.
    ///
    /// The view is `Copy + Sync` so parallel tiles can use it; safety
    /// comes from the DSL's tiling contract: each loop point is written
    /// by exactly one tile, and no reader views of the same dat coexist
    /// with the writer (the `&mut` borrow enforces the latter).
    pub fn writer(&mut self) -> WriteView<'_, T> {
        GridView {
            raw: View::exclusive(&mut self.data, self.sid),
            geom: self.geom,
        }
    }

    /// Direct sampled access for tests/validation.
    pub fn at(&self, i: i64, j: i64, k: i64) -> T {
        self.data[self.geom.index(i, j, k, 1, || self.name.clone())]
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

/// A view into a [`Dat`] over `(i, j, k)` and [`Row`]s; `Copy` so
/// closures can capture it. `M` is the [`parkit::view`] mode.
#[derive(Clone, Copy)]
pub struct GridView<'a, T, M> {
    raw: View<'a, T, M>,
    geom: Padded,
}

/// Shared read view into a [`Dat`].
pub type ReadView<'a, T> = GridView<'a, T, Shared>;

/// Exclusive write view into a [`Dat`]; `Copy + Sync` under the tiling
/// contract (disjoint writes per tile).
pub type WriteView<'a, T> = GridView<'a, T, Exclusive>;

impl<T: Real, M> GridView<'_, T, M> {
    #[inline]
    fn index(&self, i: i64, j: i64, k: i64, len: usize) -> usize {
        self.geom.index(i, j, k, len, || self.raw.name())
    }

    /// Contiguous slice of one x-row; halo spans are valid. The base
    /// index is computed once for the whole span — the fast path whose
    /// cost [`ReadView::at`] pays per element. On a [`WriteView`] this
    /// is the read half of a read-write dat: graph-recorded bodies
    /// capture one `WriteView` per read-write argument and use this for
    /// the reads, so replays need no separate `ReadView` aliasing the
    /// same dat.
    #[inline]
    pub fn row(&self, r: Row) -> &[T] {
        self.raw.span(self.index(r.i0, r.j, r.k, r.len()), r.len())
    }
}

impl<T: Real> ReadView<'_, T> {
    /// Value at (i, j, k); halo indices are valid.
    #[inline]
    pub fn at(&self, i: i64, j: i64, k: i64) -> T {
        self.raw.read(self.index(i, j, k, 1))
    }
}

impl<T: Real> WriteView<'_, T> {
    /// Store `v` at (i, j, k).
    #[inline]
    pub fn set(&self, i: i64, j: i64, k: i64, v: T) {
        self.raw.write(self.index(i, j, k, 1), v);
    }

    /// Read back a value this loop wrote (read-write dats).
    #[inline]
    pub fn get(&self, i: i64, j: i64, k: i64) -> T {
        self.raw.read(self.index(i, j, k, 1))
    }

    /// Mutable contiguous slice of one x-row, base index computed once
    /// for the span (see [`GridView::row`]).
    ///
    /// Aliasing contract as for [`WriteView::set`]: the tiling contract
    /// makes every point belong to exactly one tile, and a kernel body
    /// must not hold two overlapping row slices at the same time.
    #[inline]
    #[allow(clippy::mut_from_ref)] // the view is the DSL's sanctioned aliasing hole, as `set` is
    pub fn row_mut(&self, r: Row) -> &mut [T] {
        self.raw
            .span_mut(self.index(r.i0, r.j, r.k, r.len()), r.len())
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
