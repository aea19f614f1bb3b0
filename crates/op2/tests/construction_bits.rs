//! Pinned construction bits: the mesh tables, locality scores and
//! colourings every MG-CFD run builds, hashed field by field.
//!
//! Colour assignments are more than valid or invalid: under global and
//! hierarchical colouring they fix the order in which edges add into a
//! vertex, so a rewrite of a builder that picks other (equally valid)
//! colours moves results. Locality scores feed prices. Any change to how
//! meshes, maps or colourings are constructed must leave every line
//! unchanged; after an *intended* change, paste the table the failure
//! message prints over `PINNED`.

use op2_dsl::{GlobalColoring, HierColoring, Map, Mesh, Ordering};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn digest(value: impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Every entry of `map`'s table, row by row.
fn table_digest(map: &Map) -> u64 {
    let rows: Vec<&[u32]> = (0..map.from_size()).map(|e| map.row(e)).collect();
    digest((map.from_size(), map.to_size(), map.arity(), rows))
}

fn global_line(label: &str, map: &Map) -> String {
    let c = GlobalColoring::build(map);
    // The colours are held in one byte each; widened, they hash as the
    // pinned 4-byte colours did.
    let color: Vec<u32> = c.color.iter().map(|&c| u32::from(c)).collect();
    format!(
        "{label} colors={} color={:016x} by_color={:016x}",
        c.n_colors(),
        digest(&color),
        digest(&c.by_color),
    )
}

fn hier_line(label: &str, map: &Map, block_size: usize) -> String {
    let h = HierColoring::build(map, block_size);
    // A build colours blocks only; the intra colours come from the
    // on-demand path a check uses.
    assert!(
        h.intra_color.is_none(),
        "{label}: intra colours built eagerly"
    );
    format!(
        "{label} block_size={} colors={} max_intra={} block_color={:016x} blocks_by_color={:016x} intra_color={:016x}",
        h.block_size,
        h.n_colors(),
        h.max_intra_colors(map),
        digest(&h.block_color),
        digest(&h.blocks_by_color),
        digest(&*h.intra_colors(map)),
    )
}

fn observe() -> Vec<String> {
    // A shuffled numbering with odd extents, so neither the edge count
    // nor a level's rows line up with a block size or a window width.
    let mesh = Mesh::grid(33, 17, 9, Ordering::Shuffled(7));
    let cells = Mesh::hex_cells(6, 6, 4);
    // Natural hex cells score exactly 1. Renumbering a larger block's
    // vertices by a stride coprime to their count scatters each cell, so
    // the arity-8 window scores strictly inside (0, 1).
    let big = Mesh::hex_cells(24, 24, 16);
    let n = big.to_size() as u64;
    let strided: Vec<u32> = (0..big.from_size())
        .flat_map(|c| big.row(c).iter().map(|&v| (v as u64 * 7919 % n) as u32))
        .collect();
    let strided = Map::new("cell2vertex", big.from_size(), big.to_size(), 8, strided);
    // Large enough that every parallel split of construction runs on
    // several pool chunks: 24 k-planes for the table, and a table of
    // 864,768 entries for the locality count.
    let large = Mesh::grid(96, 64, 24, Ordering::Shuffled(11));
    // A mesh holds no coordinates; the ones the RCB partitioner reads
    // are regenerated from the grid.
    let coords = |ni, nj, nk, ordering| -> Vec<[u32; 3]> {
        Mesh::grid_coords(ni, nj, nk, ordering)
            .iter()
            .map(|c| c.map(f32::to_bits))
            .collect()
    };
    vec![
        format!(
            "grid edges={} table={:016x} coords={:016x}",
            mesh.n_edges(),
            table_digest(&mesh.edges),
            digest(coords(33, 17, 9, Ordering::Shuffled(7))),
        ),
        format!("grid locality={:016x}", mesh.edges.locality().to_bits()),
        format!(
            "large grid edges={} table={:016x} coords={:016x}",
            large.n_edges(),
            table_digest(&large.edges),
            digest(coords(96, 64, 24, Ordering::Shuffled(11))),
        ),
        format!(
            "large grid locality={:016x}",
            large.edges.locality().to_bits()
        ),
        format!(
            "hex_cells table={:016x} locality={:016x}",
            table_digest(&cells),
            cells.locality().to_bits(),
        ),
        format!(
            "hex_cells/strided locality={:016x}",
            strided.locality().to_bits()
        ),
        global_line("grid global", &mesh.edges),
        global_line("hex_cells global", &cells),
        hier_line("grid hier/64", &mesh.edges, 64),
        hier_line("grid hier/256", &mesh.edges, 256),
    ]
}

const PINNED: &[&str] = &[
    "grid edges=14136 table=69e2a0311cc41eef coords=580045d564b8704f",
    "grid locality=3fe022c5f43a5152",
    "large grid edges=432384 table=c6a1733630843074 coords=434b79ff5e33cb67",
    "large grid locality=3fdfe76d44454eb5",
    "hex_cells table=df5e899568c45eaf locality=3ff0000000000000",
    "hex_cells/strided locality=3fde9cd04f810011",
    "grid global colors=6 color=e0356c23c327e141 by_color=0cdc5c7dfe75cd1c",
    "hex_cells global colors=8 color=605414c4f18e5873 by_color=423c2a05e4d9a795",
    "grid hier/64 block_size=64 colors=7 max_intra=4 block_color=20b12edc7ff618a7 blocks_by_color=89e81ad92b4425c0 intra_color=26ddf33a07b5566b",
    "grid hier/256 block_size=256 colors=4 max_intra=5 block_color=b8c7ad1c2b265bb5 blocks_by_color=edf9548e746813de intra_color=253ba37417994f87",
];

#[test]
fn meshes_localities_and_colourings_reproduce_their_pinned_bits() {
    let got = observe();
    if got != PINNED {
        let table: String = got.iter().map(|l| format!("    \"{l}\",\n")).collect();
        panic!("construction bits moved; the new values are:\n{table}");
    }
}
