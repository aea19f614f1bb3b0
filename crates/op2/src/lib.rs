//! # op2-dsl — an unstructured-mesh DSL (the OP2 analogue)
//!
//! OP2 describes computations over unstructured meshes as parallel loops
//! over *sets* (edges, vertices, cells) whose arguments reach other sets
//! through *mapping tables*. Loops that indirectly increment shared data
//! race under shared-memory parallelism; OP2 — and this crate — offers the
//! paper's three resolution schemes (Figure 1):
//!
//! * **atomics** — every edge runs concurrently, updates go through
//!   atomic adds. The model prices them as hardware FP atomics on GPUs
//!   and CAS loops on CPUs; the host runs each row's adds under one
//!   striped lock ([`Accum::add_row`], through parkit's raw view, which
//!   holds every raw access of this crate);
//! * **global colouring** — edges are coloured so no two edges of one
//!   colour share a vertex; colours execute as separate, race-free
//!   passes. Simple, but adjacent edges land in different colours, so
//!   spatial/temporal locality is destroyed;
//! * **hierarchical colouring** — consecutive edges form blocks; blocks
//!   are coloured against each other, and edges are coloured within each
//!   block. Blocks of one colour run in parallel, each block serially —
//!   data re-use survives inside a block.
//!
//! The crate also provides a synthetic mesh generator (the stand-in for
//! the NASA Rotor37 case), a recursive-coordinate-bisection partitioner
//! (the PT-Scotch substitute), and reverse-Cuthill-McKee-style
//! renumbering — so the "good mesh ordering" the paper's atomics variant
//! depends on is reproducible and ablatable.

// Kernel bodies index several parallel arrays by the same element id —
// the HPC idiom clippy's needless_range_loop lint dislikes.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]

pub mod color;
pub mod dat;
pub mod map;
pub mod mesh;
pub mod parloop;
pub mod partition;
mod prefetch;
pub mod renumber;

pub use color::{GlobalColoring, HierColoring};
pub use dat::{Accum, DatU, UReadView, UWriteView};
pub use map::Map;
pub use mesh::{Mesh, MeshStats, MgHierarchy, Ordering};
pub use parloop::{EdgeLoop, VertexLoop};
pub use partition::Partition;
pub use renumber::{bandwidth, rcm_permutation, renumber_mesh};

/// Convenience prelude for applications.
pub mod prelude {
    pub use crate::{DatU, EdgeLoop, Map, Mesh, MeshStats, MgHierarchy, Ordering, VertexLoop};
    pub use sycl_sim::Scheme;
}
