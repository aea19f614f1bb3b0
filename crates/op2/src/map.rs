//! Mapping tables between sets.

use parkit::global_pool;

/// A fixed-arity mapping from one set to another (e.g. edge → 2 vertices).
#[derive(Debug, Clone)]
pub struct Map {
    name: String,
    from_size: usize,
    to_size: usize,
    arity: usize,
    /// Row-major table: entry `e * arity + a`.
    table: Vec<u32>,
}

/// Whether `r` lies within 8 entries of `x`. With both below
/// `2^32 − 8` ([`Map::new`]'s bound), `r − x + 8` lands in `0..=16`
/// under wrapping arithmetic exactly when `|r − x| ≤ 8`.
#[inline(always)]
fn near(r: u32, x: u32) -> bool {
    r.wrapping_sub(x).wrapping_add(8) <= 16
}

/// How many entries `t[k]`, `k ≥ width`, lie near one of the `width`
/// entries before them. Each window is folded without an early exit,
/// so the scan has no data-dependent branch.
fn close_in_windows(t: &[u32], width: usize) -> usize {
    t.windows(width + 1)
        .map(|w| {
            let (&x, before) = w.split_last().expect("windows are non-empty");
            before.iter().fold(false, |hit, &r| hit | near(r, x)) as usize
        })
        .sum()
}

/// Windows per pool chunk of [`Map::locality`]'s count.
const WINDOW_CHUNK: usize = 1 << 16;

impl Map {
    /// Build a map; panics if the table shape or entries are invalid.
    /// Targets are `u32` indices below `2^32 − 8`, the bound under which
    /// [`Map::locality`]'s wrapping distance test is exact.
    pub fn new(
        name: &str,
        from_size: usize,
        to_size: usize,
        arity: usize,
        table: Vec<u32>,
    ) -> Self {
        assert_eq!(table.len(), from_size * arity, "map table shape mismatch");
        assert!(
            to_size <= u32::MAX as usize - 7,
            "map target set exceeds the u32 index range"
        );
        debug_assert!(
            table.iter().all(|&t| (t as usize) < to_size),
            "map entry out of range"
        );
        Map {
            name: name.to_owned(),
            from_size,
            to_size,
            arity,
            table,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn from_size(&self) -> usize {
        self.from_size
    }

    pub fn to_size(&self) -> usize {
        self.to_size
    }

    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The `a`-th target of element `e`.
    #[inline]
    pub fn at(&self, e: usize, a: usize) -> usize {
        self.table[e * self.arity + a] as usize
    }

    /// All targets of element `e`.
    #[inline]
    pub fn row(&self, e: usize) -> &[u32] {
        &self.table[e * self.arity..(e + 1) * self.arity]
    }

    /// The row-major table, for a renumbering that permutes its rows.
    pub(crate) fn table_mut(&mut self) -> &mut [u32] {
        &mut self.table
    }

    /// Bytes of this table (part of the paper's effective-bytes rule).
    pub fn bytes(&self) -> f64 {
        (self.table.len() * std::mem::size_of::<u32>()) as f64
    }

    /// Ordering-locality score in [0, 1]: the fraction of map targets
    /// that continue a *recent access stream* — i.e. lie within one cache
    /// line (8 entries) of a target gathered in the previous few
    /// elements. A renumbered mesh turns its gathers into a handful of
    /// sequential streams and scores near 1; a shuffled mesh gathers
    /// randomly and scores near 0.
    ///
    /// Exactly: with `t` the row-major table and `w = 4 · arity`, the
    /// score counts each entry `t[k]`, `k ≥ arity`, for which some `r`
    /// in `t[k.saturating_sub(w)..k]` has `|r − t[k]| ≤ 8`, and divides
    /// by the `t.len() − arity` entries tested (maps with fewer than two
    /// elements score 1).
    pub fn locality(&self) -> f64 {
        if self.from_size < 2 {
            return 1.0;
        }
        // The window is the `window` table entries before each target:
        // the targets of the previous few elements, in gather order.
        const WINDOW_ELEMS: usize = 4;
        let window = WINDOW_ELEMS * self.arity;
        let t = &self.table;
        // Targets whose window the table's start cuts short.
        let head = window.min(t.len());
        let short = (self.arity..head)
            .filter(|&k| t[..k].iter().any(|&r| near(r, t[k])))
            .count();
        // Every later target sees a full window. The windows are
        // counted in pool chunks; the counts are integers, so their sum
        // is exact in any order.
        let n_windows = t.len().saturating_sub(window);
        let full = global_pool().reduce(
            n_windows,
            WINDOW_CHUNK,
            0,
            |a, b| a + b,
            |r| close_in_windows(&t[r.start..r.end + window], window),
        );
        let total = t.len() - self.arity;
        if total == 0 {
            1.0
        } else {
            (short + full) as f64 / total as f64
        }
    }

    /// Maximum number of from-elements touching a single target (the
    /// degree bound that controls colour counts).
    pub fn max_degree(&self) -> usize {
        let mut deg = vec![0u32; self.to_size];
        for &t in &self.table {
            deg[t as usize] += 1;
        }
        deg.into_iter().max().unwrap_or(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_map(n: usize) -> Map {
        // Edges of a path graph: edge e connects vertices e and e+1.
        let table: Vec<u32> = (0..n).flat_map(|e| [e as u32, e as u32 + 1]).collect();
        Map::new("edge2v", n, n + 1, 2, table)
    }

    #[test]
    fn accessors() {
        let m = path_map(10);
        assert_eq!(m.from_size(), 10);
        assert_eq!(m.to_size(), 11);
        assert_eq!(m.arity(), 2);
        assert_eq!(m.at(3, 0), 3);
        assert_eq!(m.at(3, 1), 4);
        assert_eq!(m.row(5), &[5, 6]);
        assert_eq!(m.bytes(), 80.0);
    }

    #[test]
    fn locality_distinguishes_ordered_from_shuffled() {
        let ordered = path_map(1000);
        assert!(ordered.locality() > 0.95);

        // Shuffle edge order deterministically.
        let mut table = Vec::with_capacity(2000);
        let mut idx: Vec<usize> = (0..1000).collect();
        // Simple LCG shuffle.
        let mut s = 12345u64;
        for i in (1..idx.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (s >> 33) as usize % (i + 1);
            idx.swap(i, j);
        }
        for e in idx {
            table.extend_from_slice(&[e as u32, e as u32 + 1]);
        }
        let shuffled = Map::new("edge2v", 1000, 1001, 2, table);
        // Path edges keep intra-edge line sharing (the (e, e+1) pair),
        // so a shuffled order floors near 0.5 rather than 0.
        assert!(shuffled.locality() < 0.7);
        assert!(ordered.locality() > shuffled.locality() + 0.25);
    }

    #[test]
    fn max_degree_on_a_path_is_two() {
        assert_eq!(path_map(10).max_degree(), 2);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn bad_table_shape_panics() {
        let _ = Map::new("bad", 3, 4, 2, vec![0, 1, 2]);
    }
}
