//! Edge colouring: the two colour-based race-resolution schemes.

use crate::map::Map;
use crate::prefetch;

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
        // For each target, a bitmask of colours already used by incident
        // elements (greedy needs ≤ max_degree·arity colours ≤ 64 for all
        // our meshes).
        let n = map.from_size();
        let mut used: Vec<u64> = vec![0; map.to_size()];
        let mut color = vec![0u32; n];
        let mut n_colors = 0usize;
        for e in 0..n {
            if e + prefetch::DISTANCE < n {
                for &t in map.row(e + prefetch::DISTANCE) {
                    prefetch::slot(&used, t as usize);
                }
            }
            let row = map.row(e);
            let mask = row.iter().fold(0, |m, &t| m | used[t as usize]);
            let c = (!mask).trailing_zeros();
            assert!(c < 64, "colouring overflow: degree too high");
            color[e] = c;
            n_colors = n_colors.max(c as usize + 1);
            for &t in row {
                used[t as usize] |= 1 << c;
            }
        }
        let by_color = group_by_color(&color, n_colors);
        GlobalColoring { color, by_color }
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
        let block_size = block_size.max(1);
        let n = map.from_size();
        let n_blocks = n.div_ceil(block_size);

        // Per target, two colour bitmasks side by side, so one cache
        // line serves both: `[0]` holds the colours of earlier blocks
        // touching it, `[1]` the intra colours of this block's earlier
        // elements touching it (cleared when the block is done).
        let mut marks: Vec<[u64; 2]> = vec![[0; 2]; map.to_size()];
        let mut block_color = vec![0u32; n_blocks];
        let mut intra_color = vec![0u32; n];
        let mut n_colors = 0usize;
        let mut max_intra = 0usize;
        for b in 0..n_blocks {
            let (lo, hi) = (b * block_size, ((b + 1) * block_size).min(n));
            // Greedy intra colours, and the block's conflict mask.
            let mut mask = 0u64;
            for e in lo..hi {
                if e + prefetch::DISTANCE < n {
                    for &t in map.row(e + prefetch::DISTANCE) {
                        prefetch::slot(&marks, t as usize);
                    }
                }
                let row = map.row(e);
                let mut intra_mask = 0u64;
                for &t in row {
                    let [block, intra] = marks[t as usize];
                    mask |= block;
                    intra_mask |= intra;
                }
                let c = (!intra_mask).trailing_zeros();
                assert!(c < 64, "intra colouring overflow");
                intra_color[e] = c;
                max_intra = max_intra.max(c as usize + 1);
                for &t in row {
                    marks[t as usize][1] |= 1 << c;
                }
            }
            let c = (!mask).trailing_zeros();
            assert!(c < 64, "block colouring overflow");
            block_color[b] = c;
            n_colors = n_colors.max(c as usize + 1);
            // Mark the block's colour and clear its intra marks.
            for e in lo..hi {
                for &t in map.row(e) {
                    marks[t as usize] = [marks[t as usize][0] | 1 << c, 0];
                }
            }
        }
        let blocks_by_color = group_by_color(&block_color, n_colors);

        HierColoring {
            block_size,
            block_color,
            blocks_by_color,
            intra_color,
            max_intra_colors: max_intra,
        }
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
