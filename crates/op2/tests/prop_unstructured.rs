//! Property-style tests over generated unstructured meshes: colouring
//! validity, renumbering, partition balance, and scheme equivalence.
//! Inputs come from deterministic parameter sweeps (no external
//! property-test framework: the workspace builds offline with the
//! standard library alone).

use op2_dsl::color::{GlobalColoring, HierColoring};
use op2_dsl::mesh::{Mesh, Ordering};
use op2_dsl::partition::Partition;
use op2_dsl::renumber::{rcm_permutation, renumber_mesh};
use op2_dsl::DatU;

/// Deterministic xorshift64* stream for test inputs.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn int(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo)
    }
}

fn arb_mesh(ni: usize, nj: usize, nk: usize, seed: u64) -> Mesh {
    let ordering = if seed.is_multiple_of(2) {
        Ordering::Natural
    } else {
        Ordering::Shuffled(seed)
    };
    Mesh::grid(ni, nj, nk, ordering)
}

#[test]
fn global_coloring_valid_on_random_meshes() {
    let mut rng = XorShift::new(3);
    for _ in 0..32 {
        let ni = rng.int(2, 12);
        let nj = rng.int(2, 12);
        let nk = rng.int(1, 8);
        let seed = rng.int(0, 1000) as u64;
        let mesh = arb_mesh(ni, nj, nk, seed);
        let c = GlobalColoring::build(&mesh.edges);
        assert!(c.is_valid(&mesh.edges));
        let covered: usize = c.by_color.iter().map(|g| g.len()).sum();
        assert_eq!(covered, mesh.n_edges());
    }
}

#[test]
fn hier_coloring_valid_on_random_meshes() {
    let mut rng = XorShift::new(5);
    for _ in 0..32 {
        let ni = rng.int(2, 10);
        let nj = rng.int(2, 10);
        let nk = rng.int(1, 6);
        let seed = rng.int(0, 1000) as u64;
        let block = rng.int(1, 512);
        let mesh = arb_mesh(ni, nj, nk, seed);
        let h = HierColoring::build(&mesh.edges, block);
        assert!(h.is_valid(&mesh.edges));
    }
}

#[test]
fn rcm_always_permutes() {
    let mut rng = XorShift::new(7);
    for _ in 0..32 {
        let ni = rng.int(2, 10);
        let nj = rng.int(2, 10);
        let nk = rng.int(1, 6);
        let seed = rng.int(0, 1000) as u64;
        let mesh = arb_mesh(ni, nj, nk, seed);
        let perm = rcm_permutation(&mesh.edges);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().enumerate().all(|(i, &p)| i as u32 == p));
        let renum = renumber_mesh(&mesh);
        assert_eq!(renum.n_edges(), mesh.n_edges());
        assert!(renum.stats().locality >= mesh.stats().locality - 0.15);
    }
}

#[test]
fn rcb_balance_holds() {
    let mut rng = XorShift::new(11);
    for _ in 0..32 {
        let ni = rng.int(4, 14);
        let nj = rng.int(4, 14);
        let nk = rng.int(1, 6);
        let parts = rng.int(1, 24);
        let coords = Mesh::grid_coords(ni, nj, nk, Ordering::Natural);
        let p = Partition::rcb(&coords, parts);
        // The discretisation bound: no part exceeds ceil(n/parts).
        let n = coords.len() as f64;
        let bound = (n / parts as f64).ceil() / (n / parts as f64) - 1.0;
        assert!(
            p.imbalance() <= bound + 1e-9,
            "imbalance {} > bound {bound}",
            p.imbalance()
        );
        assert_eq!(p.loads().iter().sum::<usize>(), coords.len());
    }
}

#[test]
fn colored_scatter_equals_serial() {
    let mut rng = XorShift::new(13);
    for _ in 0..24 {
        let ni = rng.int(2, 8);
        let nj = rng.int(2, 8);
        let nk = rng.int(1, 5);
        let seed = rng.int(0, 100) as u64;
        let block = rng.int(8, 128);
        let mesh = arb_mesh(ni, nj, nk, seed);
        // Serial reference: vertex degrees.
        let mut reference = vec![0.0f64; mesh.n_vertices];
        for e in 0..mesh.n_edges() {
            reference[mesh.edges.at(e, 0)] += 1.0;
            reference[mesh.edges.at(e, 1)] += 1.0;
        }
        // Parallel, via hierarchical colouring ordering (plain adds).
        let h = HierColoring::build(&mesh.edges, block);
        let mut out = DatU::<f64>::zeroed("deg", mesh.n_vertices, 1);
        {
            let acc = out.accum(false);
            let pool = parkit::ThreadPool::new(4);
            for group in &h.blocks_by_color {
                pool.run_region(group.len(), |_lane, gi| {
                    let (lo, hi) = h.block_range(group[gi] as usize, mesh.n_edges());
                    for e in lo..hi {
                        acc.add(mesh.edges.at(e, 0), 0, 1.0);
                        acc.add(mesh.edges.at(e, 1), 0, 1.0);
                    }
                });
            }
        }
        for (v, &expect) in reference.iter().enumerate() {
            assert_eq!(out.at(v, 0), expect, "vertex {v}");
        }
    }
}

#[test]
fn stats_invariants() {
    let mut rng = XorShift::new(17);
    for _ in 0..32 {
        let ni = rng.int(2, 12);
        let nj = rng.int(2, 12);
        let nk = rng.int(1, 6);
        let seed = rng.int(0, 50) as u64;
        let factor = rng.int(2, 16);
        let mesh = arb_mesh(ni, nj, nk, seed);
        let stats = mesh.stats();
        assert!((0.0..=1.0).contains(&stats.locality));
        let coarse = stats.coarsen(factor);
        assert!(coarse.n_vertices <= stats.n_vertices);
        assert!(coarse.n_edges <= stats.n_edges);
        assert!(coarse.n_vertices >= 1);
    }
}
