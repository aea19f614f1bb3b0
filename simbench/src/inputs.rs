//! Inputs generated from `--seed`. The simulator only ever sees what
//! these functions produce: a cell order and a mesh numbering.

/// splitmix64: one step of a seeded 64-bit generator.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next(&mut state) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// The mesh-numbering seed handed to `Ordering::Shuffled`.
pub fn mesh_seed(seed: u64) -> u64 {
    let mut state = seed ^ 0x6d65_7368; // "mesh": a stream apart from the cell order
    next(&mut state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{live, sweep};
    use op2_dsl::{MgHierarchy, Ordering};

    #[test]
    fn permutations_are_seeded_and_complete() {
        let a = permutation(306, 1);
        assert_eq!(a, permutation(306, 1), "same seed, same order");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..306).collect::<Vec<_>>());
        assert_ne!(a, permutation(306, 2));
    }

    #[test]
    fn two_seeds_reorder_the_sweep_but_keep_its_cell_set() {
        let ids = |seed| -> Vec<String> { sweep::cells(seed).iter().map(|c| c.id()).collect() };
        let (a, b) = (ids(1), ids(2));
        assert_ne!(a, b, "the seed must change the order");
        let (mut sa, mut sb) = (a.clone(), b.clone());
        sa.sort();
        sb.sort();
        assert_eq!(sa, sb, "the seed must not change which cells are priced");
        assert_eq!(sa.len(), study::paper_units().len());
    }

    #[test]
    fn two_seeds_renumber_the_mesh_but_keep_the_work() {
        let (ni, nj, nk, levels) = (16, 16, 8, 2);
        let mesh =
            |seed| MgHierarchy::build(ni, nj, nk, levels, Ordering::Shuffled(mesh_seed(seed)));
        let (a, b) = (mesh(1), mesh(2));
        let table = |h: &MgHierarchy| -> Vec<u32> {
            let m = &h.meshes.as_ref().unwrap()[0];
            (0..m.n_edges())
                .flat_map(|e| m.edges.row(e).to_vec())
                .collect()
        };
        assert_ne!(table(&a), table(&b), "the seed must change the numbering");
        for (la, lb) in a.levels.iter().zip(&b.levels) {
            assert_eq!(la.n_vertices, lb.n_vertices);
            assert_eq!(la.n_edges, lb.n_edges);
        }
        // Same launches in every step, whatever the numbering.
        let step_launches = |seed| live::launches_per_step(ni, nj, nk, levels, mesh_seed(seed));
        let (la, lb) = (step_launches(1), step_launches(2));
        assert!(la.iter().all(|&n| n > 0), "{la:?}");
        assert_eq!(la, lb);
    }
}
