//! Mesh renumbering: reverse Cuthill–McKee (RCM).
//!
//! The paper's atomics results depend on "a good ordering of the mesh"
//! (§4.3). Real OP2 deployments renumber meshes with PT-Scotch/GPS-style
//! bandwidth-reducing permutations; we provide RCM, which restores
//! locality to arbitrarily scrambled meshes — and makes the ordering an
//! ablatable axis (see `results/ablation_ordering.txt`).

use crate::map::Map;
use crate::mesh::Mesh;

/// Compute a reverse Cuthill–McKee permutation of the *target* set of a
/// map (vertices, for an edge→vertex map). `perm[old] = new`.
pub fn rcm_permutation(map: &Map) -> Vec<u32> {
    let n = map.to_size();
    // Build adjacency from the map (targets sharing an element are
    // neighbours).
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for e in 0..map.from_size() {
        let row = map.row(e);
        for (i, &a) in row.iter().enumerate() {
            for &b in &row[i + 1..] {
                if a != b {
                    adj[a as usize].push(b);
                    adj[b as usize].push(a);
                }
            }
        }
    }
    for list in adj.iter_mut() {
        list.sort_unstable();
        list.dedup();
    }

    let degree = |v: usize| adj[v].len();
    let mut visited = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);

    // BFS from a minimum-degree vertex of each component, neighbours in
    // increasing-degree order (classic CM), reversed at the end.
    while let Some(start) = (0..n).filter(|&v| !visited[v]).min_by_key(|&v| degree(v)) {
        visited[start] = true;
        let mut queue = std::collections::VecDeque::from([start as u32]);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbrs: Vec<u32> = adj[v as usize]
                .iter()
                .copied()
                .filter(|&u| !visited[u as usize])
                .collect();
            nbrs.sort_unstable_by_key(|&u| degree(u as usize));
            for u in nbrs {
                visited[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();

    // order[k] = old id placed at position k  ⇒  perm[old] = k.
    let mut perm = vec![0u32; n];
    for (new, &old) in order.iter().enumerate() {
        perm[old as usize] = new as u32;
    }
    perm
}

/// Apply an RCM renumbering to a mesh: renumbers the vertices in the
/// edge table, and sorts edges by their (new) first endpoint so the
/// iteration order follows the numbering.
pub fn renumber_mesh(mesh: &Mesh) -> Mesh {
    let perm = rcm_permutation(&mesh.edges);
    let n_vertices = mesh.n_vertices;

    let mut edges: Vec<[u32; 2]> = (0..mesh.n_edges())
        .map(|e| {
            let a = perm[mesh.edges.at(e, 0)];
            let b = perm[mesh.edges.at(e, 1)];
            [a.min(b), a.max(b)]
        })
        .collect();
    edges.sort_unstable();

    let table: Vec<u32> = edges.into_iter().flatten().collect();
    Mesh {
        n_vertices,
        edges: Map::new("edge2vertex_rcm", table.len() / 2, n_vertices, 2, table),
    }
}

/// Graph bandwidth of a map: max |new(a) − new(b)| over rows — the
/// quantity RCM minimises.
pub fn bandwidth(map: &Map) -> usize {
    (0..map.from_size())
        .map(|e| {
            let row = map.row(e);
            let max = row.iter().max().copied().unwrap_or(0) as i64;
            let min = row.iter().min().copied().unwrap_or(0) as i64;
            (max - min) as usize
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Ordering;

    #[test]
    fn rcm_is_a_permutation() {
        let mesh = Mesh::grid(8, 8, 4, Ordering::Shuffled(3));
        let perm = rcm_permutation(&mesh.edges);
        let mut seen = vec![false; perm.len()];
        for &p in &perm {
            assert!(!seen[p as usize], "duplicate target {p}");
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rcm_restores_locality_of_a_scrambled_mesh() {
        let scrambled = Mesh::grid(12, 12, 6, Ordering::Shuffled(42));
        let renumbered = renumber_mesh(&scrambled);
        let before = scrambled.stats().locality;
        let after = renumbered.stats().locality;
        assert!(
            after > before + 0.2,
            "RCM must improve locality: {before:.2} -> {after:.2}"
        );
    }

    #[test]
    fn rcm_reduces_graph_bandwidth() {
        let scrambled = Mesh::grid(12, 12, 6, Ordering::Shuffled(7));
        let renumbered = renumber_mesh(&scrambled);
        let before = bandwidth(&scrambled.edges);
        let after = bandwidth(&renumbered.edges);
        assert!(
            after * 3 < before,
            "bandwidth must drop: {before} -> {after}"
        );
    }

    #[test]
    fn renumbered_mesh_preserves_topology() {
        let mesh = Mesh::grid(6, 6, 3, Ordering::Shuffled(11));
        let renum = renumber_mesh(&mesh);
        assert_eq!(renum.n_vertices, mesh.n_vertices);
        assert_eq!(renum.n_edges(), mesh.n_edges());
        // Degree multiset must be unchanged.
        let degrees = |m: &Mesh| {
            let mut d = vec![0usize; m.n_vertices];
            for e in 0..m.n_edges() {
                d[m.edges.at(e, 0)] += 1;
                d[m.edges.at(e, 1)] += 1;
            }
            d.sort_unstable();
            d
        };
        assert_eq!(degrees(&mesh), degrees(&renum));
    }

    #[test]
    fn rcm_on_an_already_good_mesh_is_not_harmful() {
        let mesh = Mesh::grid(10, 10, 4, Ordering::Natural);
        let renum = renumber_mesh(&mesh);
        assert!(renum.stats().locality > 0.8);
    }
}
