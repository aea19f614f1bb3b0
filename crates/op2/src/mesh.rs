//! Synthetic unstructured meshes (the NASA Rotor37 stand-in) and the
//! multigrid hierarchy MG-CFD runs on.
//!
//! The paper's MG-CFD case is an 8M-vertex turbomachinery mesh. Its
//! performance-relevant properties are the set sizes, the edge→vertex
//! arity, the ordering quality (which the atomics scheme depends on),
//! and the coarsening ratio between multigrid levels. We generate a
//! structured-connectivity mesh treated as fully unstructured (a mapping
//! table only), with controllable ordering. Vertex coordinates are not
//! stored: nothing a run executes reads them, and
//! [`Mesh::grid_coords`] regenerates them bit for bit for the RCB
//! partitioner.

use crate::map::Map;
use parkit::global_pool;

/// Seeded xorshift64* generator driving the deterministic shuffle below
/// (replaces an external RNG crate; the exact stream only needs to be
/// stable across runs, not match any published generator).
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        // splitmix64 scramble so nearby seeds give unrelated streams.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)).max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Fisher–Yates shuffle with the seeded generator above.
fn seeded_shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = XorShift::new(seed);
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Vertex/edge numbering quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ordering {
    /// Lexicographic numbering — the "good ordering" the paper's
    /// atomics variant exploits (adjacent edges touch adjacent vertices).
    Natural,
    /// Randomly permuted numbering (ablation: destroys locality).
    Shuffled(u64),
}

/// The vertex numbering of an `ordering`: grid point `(k * nj + j) *
/// ni + i` is vertex `perm[that]`.
fn vertex_permutation(n_vertices: usize, ordering: Ordering) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n_vertices as u32).collect();
    if let Ordering::Shuffled(seed) = ordering {
        seeded_shuffle(&mut perm, seed);
    }
    perm
}

/// An unstructured mesh: an edge→vertex map.
#[derive(Debug, Clone)]
pub struct Mesh {
    pub n_vertices: usize,
    /// Edge → 2 vertices.
    pub edges: Map,
}

impl Mesh {
    /// A hexahedral grid of `ni × nj × nk` vertices, connected along the
    /// three axes, treated as unstructured.
    pub fn grid(ni: usize, nj: usize, nk: usize, ordering: Ordering) -> Mesh {
        assert!(ni >= 2 && nj >= 2 && nk >= 1);
        let n_vertices = ni * nj * nk;
        let perm = vertex_permutation(n_vertices, ordering);

        // Edges along i, j and k, counted up front so the table is
        // allocated once. Every k-plane but the last holds `per_plane`
        // edges, so plane k's slice of the table starts at
        // `k * per_plane` edges and the planes fill on the pool, one
        // plane per chunk, in the order a sequential scan would write.
        let per_plane = (ni - 1) * nj + ni * (nj - 1) + ni * nj;
        let n_edges = per_plane * (nk - 1) + (ni - 1) * nj + ni * (nj - 1);
        let vid = |i: usize, j: usize, k: usize| perm[(k * nj + j) * ni + i];
        let mut table = vec![0u32; 2 * n_edges];
        global_pool().for_each_chunk(&mut table, 2 * per_plane, |start, plane| {
            let k = start / (2 * per_plane);
            let mut out = plane.chunks_exact_mut(2);
            let mut edge = |a: u32, b: u32| {
                out.next()
                    .expect("plane slice holds its edges")
                    .copy_from_slice(&[a, b])
            };
            for j in 0..nj {
                for i in 0..ni {
                    let v = vid(i, j, k);
                    if i + 1 < ni {
                        edge(v, vid(i + 1, j, k));
                    }
                    if j + 1 < nj {
                        edge(v, vid(i, j + 1, k));
                    }
                    if k + 1 < nk {
                        edge(v, vid(i, j, k + 1));
                    }
                }
            }
        });
        Mesh {
            n_vertices,
            edges: Map::new("edge2vertex", n_edges, n_vertices, 2, table),
        }
    }

    /// The coordinates of the vertices of [`Mesh::grid`]`(ni, nj, nk,
    /// ordering)`: vertex `v` of that mesh sits at `coords[v]`, its
    /// grid point `(i, j, k)`. Only the RCB partitioner reads
    /// coordinates, so a mesh does not hold them; this numbers the grid
    /// points with the permutation `Mesh::grid` uses.
    pub fn grid_coords(ni: usize, nj: usize, nk: usize, ordering: Ordering) -> Vec<[f32; 3]> {
        let perm = vertex_permutation(ni * nj * nk, ordering);
        let mut coords = vec![[0.0f32; 3]; perm.len()];
        for k in 0..nk {
            for j in 0..nj {
                for i in 0..ni {
                    coords[perm[(k * nj + j) * ni + i] as usize] = [i as f32, j as f32, k as f32];
                }
            }
        }
        coords
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.edges.from_size()
    }

    /// Build the cell→vertex map of the underlying hex grid (arity 8).
    /// Requires a `Natural`-ordered mesh of known grid dims; used by
    /// cell-based kernels (volumes, gradients) and to exercise
    /// higher-arity indirection in the DSL.
    pub fn hex_cells(ni: usize, nj: usize, nk: usize) -> Map {
        assert!(ni >= 2 && nj >= 2 && nk >= 2);
        let vid = |i: usize, j: usize, k: usize| ((k * nj + j) * ni + i) as u32;
        let mut table = Vec::with_capacity((ni - 1) * (nj - 1) * (nk - 1) * 8);
        for k in 0..nk - 1 {
            for j in 0..nj - 1 {
                for i in 0..ni - 1 {
                    for (di, dj, dk) in [
                        (0, 0, 0),
                        (1, 0, 0),
                        (0, 1, 0),
                        (1, 1, 0),
                        (0, 0, 1),
                        (1, 0, 1),
                        (0, 1, 1),
                        (1, 1, 1),
                    ] {
                        table.push(vid(i + di, j + dj, k + dk));
                    }
                }
            }
        }
        let n_cells = table.len() / 8;
        Map::new("cell2vertex", n_cells, ni * nj * nk, 8, table)
    }

    /// Size/locality summary used for analytic (dry-run) pricing.
    pub fn stats(&self) -> MeshStats {
        MeshStats {
            n_vertices: self.n_vertices,
            n_edges: self.n_edges(),
            locality: self.edges.locality(),
        }
    }
}

/// Sizes and locality of a mesh — all the performance model needs.
#[derive(Debug, Clone, Copy)]
pub struct MeshStats {
    pub n_vertices: usize,
    pub n_edges: usize,
    /// Ordering-locality score in [0, 1] (see [`Map::locality`]).
    pub locality: f64,
}

impl MeshStats {
    /// The paper's Rotor37 case: 8M vertices, well ordered. Edge count
    /// follows the ~3 edges/vertex of a hex mesh.
    pub fn rotor37() -> MeshStats {
        MeshStats {
            n_vertices: 8_000_000,
            n_edges: 24_000_000,
            locality: 0.9,
        }
    }

    /// Estimated edges cut by an `ranks`-way balanced partition: each
    /// part's surface scales as (V/R)^(2/3) with ~3 edges per surface
    /// vertex (hex connectivity), counted once per cut.
    pub fn estimated_cut_edges(&self, ranks: usize) -> usize {
        if ranks <= 1 {
            return 0;
        }
        let per_part = self.n_vertices as f64 / ranks as f64;
        (ranks as f64 * 3.0 * per_part.powf(2.0 / 3.0) / 2.0) as usize
    }

    /// Coarsen by a factor (multigrid level construction).
    pub fn coarsen(&self, factor: usize) -> MeshStats {
        MeshStats {
            n_vertices: (self.n_vertices / factor).max(1),
            n_edges: (self.n_edges / factor).max(1),
            locality: self.locality,
        }
    }
}

/// A multigrid hierarchy: level 0 is finest; each level knows its mesh
/// stats, and optionally holds a real mesh for functional execution.
#[derive(Debug, Clone)]
pub struct MgHierarchy {
    pub levels: Vec<MeshStats>,
    pub meshes: Option<Vec<Mesh>>,
}

impl MgHierarchy {
    /// Analytic hierarchy from a finest-level spec (dry runs).
    pub fn analytic(finest: MeshStats, n_levels: usize) -> MgHierarchy {
        // The MG-CFD proxy coarsens roughly 8× (2× per dimension).
        let levels = (0..n_levels.max(1))
            .map(|l| finest.coarsen(8usize.pow(l as u32)))
            .collect();
        MgHierarchy {
            levels,
            meshes: None,
        }
    }

    /// Real meshes (functional runs) built by grid coarsening.
    pub fn build(ni: usize, nj: usize, nk: usize, n_levels: usize, ordering: Ordering) -> Self {
        let mut meshes = Vec::new();
        let mut levels = Vec::new();
        let (mut i, mut j, mut k) = (ni, nj, nk);
        for _ in 0..n_levels.max(1) {
            let m = Mesh::grid(i.max(2), j.max(2), k.max(1), ordering);
            levels.push(m.stats());
            meshes.push(m);
            i /= 2;
            j /= 2;
            k = (k / 2).max(1);
        }
        MgHierarchy {
            levels,
            meshes: Some(meshes),
        }
    }

    /// Number of levels.
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_mesh_counts() {
        let m = Mesh::grid(4, 4, 4, Ordering::Natural);
        assert_eq!(m.n_vertices, 64);
        // 3 * n*n*(n-1) axis edges.
        assert_eq!(m.n_edges(), 3 * 4 * 4 * 3);
    }

    #[test]
    fn grid_coords_place_each_vertex_at_its_grid_point() {
        let (ni, nj, nk) = (5, 3, 2);
        for ordering in [Ordering::Natural, Ordering::Shuffled(3)] {
            let m = Mesh::grid(ni, nj, nk, ordering);
            let coords = Mesh::grid_coords(ni, nj, nk, ordering);
            assert_eq!(coords.len(), m.n_vertices);
            // Every edge joins two points one unit apart along an axis.
            for e in 0..m.n_edges() {
                let [a, b] = [m.edges.at(e, 0), m.edges.at(e, 1)].map(|v| coords[v]);
                let d: f32 = (0..3).map(|x| (a[x] - b[x]).abs()).sum();
                assert_eq!(d, 1.0, "{ordering:?} edge {e}: {a:?} - {b:?}");
            }
        }
    }

    #[test]
    fn natural_ordering_has_high_locality_shuffled_low() {
        let good = Mesh::grid(16, 16, 8, Ordering::Natural);
        let bad = Mesh::grid(16, 16, 8, Ordering::Shuffled(7));
        // Natural ordering turns gathers into sequential streams (~1.0).
        // Shuffled meshes keep only the same-source-vertex temporal reuse
        // (~0.5): the spatial half of the locality is destroyed.
        assert!(good.stats().locality > 0.95, "{}", good.stats().locality);
        assert!(bad.stats().locality < 0.65, "{}", bad.stats().locality);
        assert!(good.stats().locality > bad.stats().locality + 0.3);
        // Exact scores: prices read them, so no rewrite of the scan may
        // move a bit.
        assert_eq!(good.stats().locality.to_bits(), 0x3feff97410e97efa);
        assert_eq!(bad.stats().locality.to_bits(), 0x3fe0517811180cbb);
    }

    #[test]
    fn rotor37_stats_match_the_paper() {
        let s = MeshStats::rotor37();
        assert_eq!(s.n_vertices, 8_000_000);
        assert!(s.n_edges as f64 / s.n_vertices as f64 > 2.5);
    }

    #[test]
    fn hex_cell_map_has_correct_shape_and_valid_targets() {
        let cells = Mesh::hex_cells(4, 4, 4);
        assert_eq!(cells.from_size(), 27);
        assert_eq!(cells.arity(), 8);
        assert_eq!(cells.to_size(), 64);
        for c in 0..cells.from_size() {
            let row = cells.row(c);
            let mut uniq = row.to_vec();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), 8, "cell {c} repeats vertices");
        }
    }

    #[test]
    fn hex_cells_can_be_coloured() {
        // Adjacent cells share up to 4 vertices; greedy colouring must
        // stay under the 64-colour budget and be valid.
        let cells = Mesh::hex_cells(6, 6, 4);
        let c = crate::color::GlobalColoring::build(&cells);
        assert!(c.is_valid(&cells));
        assert!(c.n_colors() <= 16, "{} colours", c.n_colors());
    }

    #[test]
    fn cut_edge_estimate_scales_sublinearly() {
        let s = MeshStats::rotor37();
        assert_eq!(s.estimated_cut_edges(1), 0);
        let c2 = s.estimated_cut_edges(2);
        let c64 = s.estimated_cut_edges(64);
        assert!(c2 > 0);
        assert!(c64 > c2, "more ranks cut more edges");
        // But far sublinearly: 32x the ranks is ~32^(1/3) = 3.2x the cut.
        assert!((c64 as f64) < 8.0 * c2 as f64);
        // And the cut is a small fraction of all edges.
        assert!(c64 < s.n_edges / 4);
    }

    #[test]
    fn analytic_hierarchy_coarsens_8x() {
        let h = MgHierarchy::analytic(MeshStats::rotor37(), 4);
        assert_eq!(h.n_levels(), 4);
        assert_eq!(h.levels[1].n_vertices, 1_000_000);
        assert_eq!(h.levels[3].n_vertices, 8_000_000 / 512);
        assert!(h.meshes.is_none());
    }

    #[test]
    fn built_hierarchy_has_real_meshes() {
        let h = MgHierarchy::build(8, 8, 4, 3, Ordering::Natural);
        let meshes = h.meshes.as_ref().unwrap();
        assert_eq!(meshes.len(), 3);
        assert!(meshes[0].n_vertices > meshes[1].n_vertices);
        assert!(meshes[1].n_vertices > meshes[2].n_vertices);
    }

    #[test]
    fn edges_reference_valid_vertices() {
        let m = Mesh::grid(5, 3, 2, Ordering::Shuffled(3));
        for e in 0..m.n_edges() {
            for &t in m.edges.row(e) {
                assert!((t as usize) < m.n_vertices);
            }
        }
    }
}
