//! Bytes per edge that one prepared MG-CFD level holds under each
//! scheme, pinned.
//!
//! A level holds what its run reads: the edge table (8 B per edge) and
//! its scheme's plan. Global colouring adds one colour byte and one
//! `by_color` slot (4 B) per edge; hierarchical colouring adds a colour
//! and a group slot per block. Vertex coordinates (only the RCB
//! partitioner reads them), 4-byte global colours or eagerly built
//! intra-block colours would each show here as bytes per edge over the
//! pin.
//!
//! The allocator counts the bytes live in the whole process, so this
//! binary holds one test: another running beside it would move the
//! count.

use op2_dsl::parloop::ColoredMesh;
use op2_dsl::{Mesh, Ordering};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use sycl_sim::Scheme;

/// The system allocator, counting the bytes it holds live.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// so the caller's `GlobalAlloc` contract is exactly `System`'s; the
// counter is a static atomic, so counting cannot recurse into the
// allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Relaxed);
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Hierarchical block size MG-CFD uses on GPUs.
const BLOCK: usize = 256;

/// Bytes per edge a level of a shuffled `ni × nj × nk` grid holds once
/// prepared for `scheme`.
fn held_per_edge(grid: (usize, usize, usize), scheme: Scheme) -> f64 {
    let before = LIVE.load(Relaxed);
    let mesh = Mesh::grid(grid.0, grid.1, grid.2, Ordering::Shuffled(5));
    let level = ColoredMesh::prepare(mesh, scheme, BLOCK);
    let held = LIVE.load(Relaxed) as f64 - before as f64;
    held / level.mesh.n_edges() as f64
}

#[test]
fn a_prepared_level_holds_only_what_its_scheme_reads() {
    // Start the pool's lanes and any lazily built state first, so the
    // measured builds are charged only for what they keep.
    for scheme in Scheme::all() {
        held_per_edge((8, 8, 4), scheme);
    }
    // ~190K edges: the few hundred bytes of names and group headers a
    // level holds, or small buffers another thread frees meanwhile,
    // stay within 0.01 B per edge.
    let grid = (48, 48, 28);
    let pins = [
        (Scheme::Atomics, 8.0),
        (Scheme::GlobalColor, 8.0 + 1.0 + 4.0),
        (Scheme::HierColor, 8.0 + 8.0 / BLOCK as f64),
    ];
    for (scheme, pinned) in pins {
        let got = held_per_edge(grid, scheme);
        assert!(
            (got - pinned).abs() < 0.01,
            "{scheme:?}: a prepared level holds {got:.4} B per edge, not {pinned:.4}"
        );
    }
}
