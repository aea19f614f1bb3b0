//! Recursive-coordinate-bisection partitioning (the PT-Scotch stand-in).
//!
//! MPI execution of OP2 apps partitions the mesh across ranks with an
//! owner-compute rule; what the performance model needs from the
//! partition is balance (rank loads) and the halo volume (cut edges).

use crate::mesh::Mesh;

/// A vertex partition into `n_parts` parts.
#[derive(Debug, Clone)]
pub struct Partition {
    pub n_parts: usize,
    /// Part of each vertex.
    pub part: Vec<u32>,
}

impl Partition {
    /// Recursive coordinate bisection of the vertices at `coords`
    /// (for a grid mesh, [`Mesh::grid_coords`] of its grid).
    pub fn rcb(coords: &[[f32; 3]], n_parts: usize) -> Partition {
        let n_parts = n_parts.max(1);
        let mut part = vec![0u32; coords.len()];
        let mut idx: Vec<u32> = (0..coords.len() as u32).collect();
        rcb_rec(coords, &mut idx, 0, n_parts, 0, &mut part);
        Partition { n_parts, part }
    }

    /// Number of edges whose endpoints live in different parts.
    pub fn cut_edges(&self, mesh: &Mesh) -> usize {
        (0..mesh.n_edges())
            .filter(|&e| {
                let a = mesh.edges.at(e, 0);
                let b = mesh.edges.at(e, 1);
                self.part[a] != self.part[b]
            })
            .count()
    }

    /// Vertices per part.
    pub fn loads(&self) -> Vec<usize> {
        let mut loads = vec![0usize; self.n_parts];
        for &p in &self.part {
            loads[p as usize] += 1;
        }
        loads
    }

    /// Load imbalance: max/mean − 1.
    pub fn imbalance(&self) -> f64 {
        let loads = self.loads();
        let max = *loads.iter().max().unwrap_or(&0) as f64;
        let mean = self.part.len() as f64 / self.n_parts as f64;
        if mean > 0.0 {
            max / mean - 1.0
        } else {
            0.0
        }
    }
}

/// Recursively split `idx` (vertex ids) into `parts` parts by median
/// bisection along the widest coordinate axis.
fn rcb_rec(
    coords: &[[f32; 3]],
    idx: &mut [u32],
    first_part: usize,
    parts: usize,
    depth: usize,
    out: &mut [u32],
) {
    if parts == 1 || idx.len() <= 1 {
        for &v in idx.iter() {
            out[v as usize] = first_part as u32;
        }
        return;
    }
    // Pick the widest axis (cycling by depth on ties keeps cuts varied).
    let mut best_axis = depth % 3;
    let mut best_span = -1.0f32;
    for a in 0..3 {
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for &v in idx.iter() {
            let x = coords[v as usize][a];
            lo = lo.min(x);
            hi = hi.max(x);
        }
        if hi - lo > best_span {
            best_span = hi - lo;
            best_axis = a;
        }
    }
    let left_parts = parts / 2;
    let split = idx.len() * left_parts / parts;
    idx.select_nth_unstable_by(split.min(idx.len() - 1), |&a, &b| {
        coords[a as usize][best_axis]
            .partial_cmp(&coords[b as usize][best_axis])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let (left, right) = idx.split_at_mut(split);
    rcb_rec(coords, left, first_part, left_parts, depth + 1, out);
    rcb_rec(
        coords,
        right,
        first_part + left_parts,
        parts - left_parts,
        depth + 1,
        out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Ordering;

    #[test]
    fn partition_is_balanced() {
        let m = Mesh::grid(16, 16, 8, Ordering::Natural);
        let coords = Mesh::grid_coords(16, 16, 8, Ordering::Natural);
        for parts in [2usize, 4, 7, 16] {
            let p = Partition::rcb(&coords, parts);
            assert!(
                p.imbalance() < 0.05,
                "parts={parts}: imbalance {}",
                p.imbalance()
            );
            assert_eq!(p.loads().iter().sum::<usize>(), m.n_vertices);
        }
    }

    #[test]
    fn rcb_cuts_far_fewer_edges_than_random_assignment() {
        let m = Mesh::grid(16, 16, 16, Ordering::Natural);
        let p = Partition::rcb(&Mesh::grid_coords(16, 16, 16, Ordering::Natural), 8);
        let rcb_cut = p.cut_edges(&m);
        // Random assignment cuts ~ (1 - 1/8) of edges.
        let random_cut = m.n_edges() * 7 / 8;
        assert!(
            rcb_cut * 4 < random_cut,
            "rcb {rcb_cut} vs random {random_cut}"
        );
    }

    #[test]
    fn single_part_cuts_nothing() {
        let m = Mesh::grid(8, 8, 2, Ordering::Natural);
        let p = Partition::rcb(&Mesh::grid_coords(8, 8, 2, Ordering::Natural), 1);
        assert_eq!(p.cut_edges(&m), 0);
        assert_eq!(p.imbalance(), 0.0);
    }

    #[test]
    fn parts_are_contiguous_in_space() {
        // Every vertex's part id must be within range.
        let p = Partition::rcb(&Mesh::grid_coords(10, 10, 1, Ordering::Shuffled(1)), 5);
        assert!(p.part.iter().all(|&x| (x as usize) < 5));
    }
}
