//! Edge colouring: the two colour-based race-resolution schemes.

use crate::map::Map;
use crate::prefetch;
use parkit::global_pool;
use std::ops::{BitOr, BitOrAssign};

/// A per-target set of colours, one bit each. The builders run with
/// one-byte masks, so a target's marks take one byte (two for
/// hierarchical colouring) and a million shuffled targets' marks stay
/// in a core's cache; a map that needs more than 8 colours is coloured
/// again with 64-bit masks. First-fit picks the lowest free colour
/// under either width, so the fallback gives the colours a 64-bit build
/// from the start would.
trait Mask: Copy + Default + BitOr<Output = Self> + BitOrAssign {
    /// The mask holding colour `c` alone.
    fn bit(c: u32) -> Self;

    /// The lowest colour not in the mask, or `None` when the width
    /// holds no free one.
    fn first_free(self) -> Option<u32>;
}

macro_rules! mask {
    ($t:ty) => {
        impl Mask for $t {
            fn bit(c: u32) -> Self {
                1 << c
            }

            fn first_free(self) -> Option<u32> {
                let c = (!self).trailing_zeros();
                (c < <$t>::BITS).then_some(c)
            }
        }
    };
}
mask!(u8);
mask!(u64);

/// Elements per pool chunk of [`GlobalColoring::build_color_major`]'s
/// passes over the table.
const RENUMBER_CHUNK: usize = 1 << 16;

/// The indices of `colors` grouped by colour, each group in index order
/// and sized by a count pass before it is filled.
fn group_by_color(colors: &[u32], n_colors: usize) -> Vec<Vec<u32>> {
    let mut counts = vec![0usize; n_colors];
    for &c in colors {
        counts[c as usize] += 1;
    }
    let mut groups: Vec<Vec<u32>> = counts.into_iter().map(Vec::with_capacity).collect();
    for (i, &c) in colors.iter().enumerate() {
        groups[c as usize].push(i as u32);
    }
    groups
}

/// Global greedy colouring: no two edges of one colour share a target.
#[derive(Debug, Clone)]
pub struct GlobalColoring {
    /// Colour of each from-element.
    pub color: Vec<u32>,
    /// Element indices grouped by colour.
    pub by_color: Vec<Vec<u32>>,
}

impl GlobalColoring {
    /// Greedy first-fit colouring over the map's conflict graph.
    pub fn build(map: &Map) -> Self {
        Self::build_with::<u8>(map)
            .or_else(|| Self::build_with::<u64>(map))
            .expect("colouring overflow: degree too high")
    }

    /// [`GlobalColoring::build`] with masks of type `M`, or `None` when
    /// an element's targets leave it no colour `M` can hold (greedy
    /// needs ≤ max_degree·arity colours ≤ 64 for all our meshes).
    fn build_with<M: Mask>(map: &Map) -> Option<Self> {
        // For each target, the colours already used by incident elements.
        let n = map.from_size();
        let mut used: Vec<M> = vec![M::default(); map.to_size()];
        let mut color = vec![0u32; n];
        let mut n_colors = 0usize;
        for e in 0..n {
            if e + prefetch::DISTANCE < n {
                for &t in map.row(e + prefetch::DISTANCE) {
                    prefetch::slot(&used, t as usize);
                }
            }
            let row = map.row(e);
            let mask = row.iter().fold(M::default(), |m, &t| m | used[t as usize]);
            let c = mask.first_free()?;
            color[e] = c;
            n_colors = n_colors.max(c as usize + 1);
            for &t in row {
                used[t as usize] |= M::bit(c);
            }
        }
        let by_color = group_by_color(&color, n_colors);
        Some(GlobalColoring { color, by_color })
    }

    /// Colour `map` as [`GlobalColoring::build`] does, then renumber its
    /// elements colour-major: colour 0's first, each colour's in
    /// ascending original order. Every `by_color` group becomes the
    /// contiguous ascending run of its new indices, and `color` is
    /// non-decreasing, so a colour pass streams its own slice of the
    /// table instead of picking its rows out of all of it.
    ///
    /// A renumbered element keeps its targets, and each target still
    /// meets its elements in colour order, so a loop that adds into
    /// the targets one colour at a time computes the same bits over
    /// either numbering. The rows move in place: the colouring's own
    /// buffers serve as scratch, so it allocates nothing.
    pub fn build_color_major(map: &mut Map) -> Self {
        let mut c = Self::build(map);
        c.renumber(map);
        c
    }

    /// Move `map`'s rows into colour-major order, then rewrite `color`
    /// and `by_color` for the new numbering. Element `e` moves to its
    /// colour's start plus its rank among that colour's elements, which
    /// is its index in `by_color` (each group is in ascending order).
    /// Every pass but the one that moves the columns past the first
    /// runs on the pool, a group at a time.
    fn renumber(&mut self, map: &mut Map) {
        let arity = map.arity();
        if arity == 0 {
            return;
        }
        let pool = global_pool();
        let starts: Vec<usize> = self
            .by_color
            .iter()
            .scan(0, |next, g| {
                let start = *next;
                *next += g.len();
                Some(start)
            })
            .collect();
        let table = map.table_mut();
        // Column 0 of each row goes to the row's new place in the groups
        // (each slot still names its element), which frees the column-0
        // slots of the table.
        for group in &mut self.by_color {
            let table = &*table;
            pool.for_each_chunk(group, RENUMBER_CHUNK, |_, slots| {
                for slot in slots {
                    *slot = table[*slot as usize * arity];
                }
            });
        }
        // Column j moves into the freed column j - 1 of its new row,
        // which frees column j in turn.
        for j in 1..arity {
            let mut next = starts.clone();
            for (e, &c) in self.color.iter().enumerate() {
                let to = &mut next[c as usize];
                table[*to * arity + j - 1] = table[e * arity + j];
                *to += 1;
            }
        }
        // Shift each new row right by one and put its column 0 back;
        // then number the group's slots and colours in plan order.
        let mut rest = table;
        for (c, (group, &start)) in self.by_color.iter_mut().zip(&starts).enumerate() {
            let (rows, tail) = rest.split_at_mut(group.len() * arity);
            rest = tail;
            let firsts = &*group;
            pool.for_each_chunk(rows, RENUMBER_CHUNK * arity, |at, rows| {
                let firsts = &firsts[at / arity..];
                for (row, &first) in rows.chunks_exact_mut(arity).zip(firsts) {
                    for j in (1..arity).rev() {
                        row[j] = row[j - 1];
                    }
                    row[0] = first;
                }
            });
            pool.for_each_chunk(group, RENUMBER_CHUNK, |k, slots| {
                for (slot, id) in slots.iter_mut().zip(start + k..) {
                    *slot = id as u32;
                }
            });
            self.color[start..start + group.len()].fill(c as u32);
        }
    }

    /// Number of colours used.
    pub fn n_colors(&self) -> usize {
        self.by_color.len()
    }

    /// Validate the colouring invariant against a map.
    pub fn is_valid(&self, map: &Map) -> bool {
        self.first_conflict(map).is_none()
    }

    /// First invariant violation: two same-colour edges sharing a
    /// vertex, as `(edge_a, edge_b, shared_vertex)`.
    pub fn first_conflict(&self, map: &Map) -> Option<(u32, u32, u32)> {
        // seen[t] = last same-colour edge incident to target t.
        let mut seen: Vec<i64> = vec![-1; map.to_size()];
        for group in &self.by_color {
            for &t in group.iter().flat_map(|&e| map.row(e as usize)) {
                seen[t as usize] = -1;
            }
            for &e in group {
                for &t in map.row(e as usize) {
                    let prev = seen[t as usize];
                    if prev >= 0 {
                        return Some((prev as u32, e, t));
                    }
                    seen[t as usize] = e as i64;
                }
            }
        }
        None
    }
}

/// Hierarchical colouring: consecutive elements form blocks; blocks are
/// coloured against each other; elements are coloured within blocks.
#[derive(Debug, Clone)]
pub struct HierColoring {
    /// Elements per block.
    pub block_size: usize,
    /// Colour of each block.
    pub block_color: Vec<u32>,
    /// Blocks grouped by colour.
    pub blocks_by_color: Vec<Vec<u32>>,
    /// Intra-block colour of each element: no two elements of one
    /// block with the same colour share a target. Execution does not
    /// read them (a block runs its elements serially, in index order);
    /// they are the block-local plan that
    /// [`Self::first_intra_conflict`] validates and `max_intra_colors`
    /// summarises.
    pub intra_color: Vec<u32>,
    /// Max intra-block colours over all blocks.
    pub max_intra_colors: usize,
}

impl HierColoring {
    /// Build with the given block size (paper: 256 on GPUs, 4096 on CPUs).
    pub fn build(map: &Map, block_size: usize) -> Self {
        Self::build_with::<u8>(map, block_size)
            .or_else(|_| Self::build_with::<u64>(map, block_size))
            .unwrap_or_else(|overflow| panic!("{overflow}"))
    }

    /// [`HierColoring::build`] with masks of type `M`, or which colouring
    /// ran out of colours `M` can hold.
    fn build_with<M: Mask>(map: &Map, block_size: usize) -> Result<Self, &'static str> {
        let block_size = block_size.max(1);
        let n = map.from_size();
        let n_blocks = n.div_ceil(block_size);

        // Per target, two colour masks side by side, so one cache line
        // serves both: `[0]` holds the colours of earlier blocks
        // touching it, `[1]` the intra colours of this block's earlier
        // elements touching it (cleared when the block is done).
        let mut marks: Vec<[M; 2]> = vec![[M::default(); 2]; map.to_size()];
        let mut block_color = vec![0u32; n_blocks];
        let mut intra_color = vec![0u32; n];
        let mut n_colors = 0usize;
        let mut max_intra = 0usize;
        for b in 0..n_blocks {
            let (lo, hi) = (b * block_size, ((b + 1) * block_size).min(n));
            // Greedy intra colours, and the block's conflict mask.
            let mut mask = M::default();
            for e in lo..hi {
                if e + prefetch::DISTANCE < n {
                    for &t in map.row(e + prefetch::DISTANCE) {
                        prefetch::slot(&marks, t as usize);
                    }
                }
                let row = map.row(e);
                let mut intra_mask = M::default();
                for &t in row {
                    let [block, intra] = marks[t as usize];
                    mask |= block;
                    intra_mask |= intra;
                }
                let c = intra_mask.first_free().ok_or("intra colouring overflow")?;
                intra_color[e] = c;
                max_intra = max_intra.max(c as usize + 1);
                for &t in row {
                    marks[t as usize][1] |= M::bit(c);
                }
            }
            let c = mask.first_free().ok_or("block colouring overflow")?;
            block_color[b] = c;
            n_colors = n_colors.max(c as usize + 1);
            // Mark the block's colour and clear its intra marks.
            for e in lo..hi {
                for &t in map.row(e) {
                    marks[t as usize] = [marks[t as usize][0] | M::bit(c), M::default()];
                }
            }
        }
        let blocks_by_color = group_by_color(&block_color, n_colors);

        Ok(HierColoring {
            block_size,
            block_color,
            blocks_by_color,
            intra_color,
            max_intra_colors: max_intra,
        })
    }

    /// Number of block colours.
    pub fn n_colors(&self) -> usize {
        self.blocks_by_color.len()
    }

    /// Element range of block `b` for a map of `from_size` elements.
    pub fn block_range(&self, b: usize, from_size: usize) -> (usize, usize) {
        let lo = b * self.block_size;
        (lo, (lo + self.block_size).min(from_size))
    }

    /// Validate: no two same-colour blocks share a target.
    pub fn is_valid(&self, map: &Map) -> bool {
        self.first_block_conflict(map).is_none()
    }

    /// First block-level violation: two same-colour blocks sharing a
    /// vertex, as `(block_a, block_b, shared_vertex)`.
    pub fn first_block_conflict(&self, map: &Map) -> Option<(u32, u32, u32)> {
        for group in &self.blocks_by_color {
            // seen[t] = earlier same-colour block incident to target t.
            let mut seen: Vec<i64> = vec![-1; map.to_size()];
            for &b in group {
                let (lo, hi) = self.block_range(b as usize, map.from_size());
                for e in lo..hi {
                    for &t in map.row(e) {
                        let prev = seen[t as usize];
                        if prev >= 0 && prev != b as i64 {
                            return Some((prev as u32, b, t));
                        }
                    }
                }
                // Mark after checking the whole block (intra-block
                // sharing is fine — blocks run serially inside).
                for e in lo..hi {
                    for &t in map.row(e) {
                        seen[t as usize] = b as i64;
                    }
                }
            }
        }
        None
    }

    /// First intra-block violation as `(edge_a, edge_b, shared_vertex)`:
    /// two elements of one block with the same intra colour (one
    /// block-local serial phase) that share a vertex.
    pub fn first_intra_conflict(&self, map: &Map) -> Option<(u32, u32, u32)> {
        let n_blocks = map.from_size().div_ceil(self.block_size);
        let mut touches: Vec<(u32, u32, u32)> = Vec::new();
        for b in 0..n_blocks {
            let (lo, hi) = self.block_range(b, map.from_size());
            touches.clear();
            for e in lo..hi {
                for &t in map.row(e) {
                    touches.push((t, self.intra_color[e], e as u32));
                }
            }
            // Same (vertex, colour) twice within a block = two edges of
            // one serial phase sharing the vertex.
            touches.sort_unstable();
            for pair in touches.windows(2) {
                if pair[0].0 == pair[1].0 && pair[0].1 == pair[1].1 {
                    return Some((pair[0].2, pair[1].2, pair[0].0));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::{Mesh, Ordering};

    fn grid_map() -> Map {
        Mesh::grid(8, 8, 4, Ordering::Natural).edges
    }

    #[test]
    fn global_coloring_is_valid_and_small() {
        let m = grid_map();
        let c = GlobalColoring::build(&m);
        assert!(c.is_valid(&m));
        // Grid edges 3 directions × 2 parity ⇒ around 6-8 colours.
        assert!(c.n_colors() >= 2 && c.n_colors() <= 12, "{}", c.n_colors());
        let total: usize = c.by_color.iter().map(|g| g.len()).sum();
        assert_eq!(total, m.from_size());
    }

    #[test]
    fn hierarchical_coloring_is_valid() {
        let m = grid_map();
        let h = HierColoring::build(&m, 64);
        assert!(h.is_valid(&m));
        assert!(h.n_colors() >= 2);
        assert!(h.max_intra_colors >= 2);
        let blocks: usize = h.blocks_by_color.iter().map(|g| g.len()).sum();
        assert_eq!(blocks, m.from_size().div_ceil(64));
    }

    #[test]
    fn adjacent_edges_get_different_global_colors() {
        let m = grid_map();
        let c = GlobalColoring::build(&m);
        // Exhaustive: any two edges sharing a vertex differ in colour.
        let mut by_vertex: Vec<Vec<u32>> = vec![Vec::new(); m.to_size()];
        for e in 0..m.from_size() {
            for &t in m.row(e) {
                by_vertex[t as usize].push(e as u32);
            }
        }
        for edges in &by_vertex {
            for (i, &a) in edges.iter().enumerate() {
                for &b in &edges[i + 1..] {
                    assert_ne!(c.color[a as usize], c.color[b as usize]);
                }
            }
        }
    }

    /// Twelve edges meeting at one hub: twelve colours, more than a
    /// one-byte mask holds.
    fn hub() -> Map {
        Map::new("hub", 12, 13, 2, (1..13).flat_map(|v| [0, v]).collect())
    }

    fn hier_fields(h: HierColoring) -> impl PartialEq + std::fmt::Debug {
        (
            h.block_size,
            h.block_color,
            h.blocks_by_color,
            h.intra_color,
            h.max_intra_colors,
        )
    }

    #[test]
    fn a_map_past_eight_colours_gets_the_64_bit_colours() {
        let m = hub();
        assert!(GlobalColoring::build_with::<u8>(&m).is_none());
        let (got, wide) = (
            GlobalColoring::build(&m),
            GlobalColoring::build_with::<u64>(&m).unwrap(),
        );
        assert_eq!(got.n_colors(), 12);
        assert_eq!((got.color, got.by_color), (wide.color, wide.by_color));
        // Block size 1: twelve blocks of twelve colours; 16: one block
        // whose edges take twelve intra colours.
        for block in [1, 16] {
            assert!(HierColoring::build_with::<u8>(&m, block).is_err());
            let got = HierColoring::build(&m, block);
            assert_eq!(got.n_colors().max(got.max_intra_colors), 12);
            let wide = HierColoring::build_with::<u64>(&m, block).unwrap();
            assert_eq!(hier_fields(got), hier_fields(wide), "block {block}");
        }
    }

    #[test]
    fn one_byte_masks_give_the_64_bit_colours() {
        let m = Mesh::grid(12, 10, 6, Ordering::Shuffled(3)).edges;
        let (narrow, wide) = (
            GlobalColoring::build_with::<u8>(&m).unwrap(),
            GlobalColoring::build_with::<u64>(&m).unwrap(),
        );
        assert_eq!((narrow.color, narrow.by_color), (wide.color, wide.by_color));
        let narrow = HierColoring::build_with::<u8>(&m, 64).unwrap();
        let wide = HierColoring::build_with::<u64>(&m, 64).unwrap();
        assert_eq!(hier_fields(narrow), hier_fields(wide));
    }

    /// Colour-major order puts each colour's rows, in their original
    /// order, into one run, for maps of any arity.
    #[test]
    fn colour_major_order_moves_whole_rows_of_any_arity() {
        let edges = Mesh::grid(9, 7, 5, Ordering::Shuffled(2)).edges;
        let cells = Mesh::hex_cells(6, 6, 4);
        let singles = Map::new("cell2cell", 40, 10, 1, (0..40).map(|e| e % 10).collect());
        for map in [edges, cells, singles] {
            let before = GlobalColoring::build(&map);
            let mut renumbered = map.clone();
            let plan = GlobalColoring::build_color_major(&mut renumbered);
            let mut next = 0;
            for (c, (was, is)) in before.by_color.iter().zip(&plan.by_color).enumerate() {
                for (&e, &p) in was.iter().zip(is) {
                    assert_eq!(p, next, "{}: colour {c} is one ascending run", map.name());
                    assert_eq!(renumbered.row(p as usize), map.row(e as usize));
                    assert_eq!(plan.color[p as usize], c as u32);
                    next += 1;
                }
            }
            assert_eq!(next as usize, map.from_size());
            assert!(plan.is_valid(&renumbered), "{}", map.name());
        }
    }

    #[test]
    fn block_ranges_cover_the_set() {
        let m = grid_map();
        let h = HierColoring::build(&m, 100);
        let n_blocks = m.from_size().div_ceil(100);
        let mut covered = 0;
        for b in 0..n_blocks {
            let (lo, hi) = h.block_range(b, m.from_size());
            covered += hi - lo;
        }
        assert_eq!(covered, m.from_size());
    }
}
