//! # ops-dsl — a structured-mesh stencil DSL (the OPS analogue)
//!
//! OPS lets an application describe its computation as parallel loops over
//! rectangular index ranges with per-argument access descriptors (dataset,
//! stencil, read/write mode); the library then generates MPI, OpenMP,
//! CUDA, HIP and SYCL variants. This crate reproduces the same abstraction
//! on top of the simulated SYCL runtime ([`sycl_sim`]):
//!
//! * [`Block`] — a 2-D/3-D Cartesian domain with halo depth;
//! * [`Dat`] — a field on a block, stored halo-padded, with read/write
//!   views safe to use from parallel tiles;
//! * [`Stencil`] — the access pattern of a loop argument;
//! * [`ParLoop`] — the `ops_par_loop` equivalent: collects argument
//!   descriptors into a [`sycl_sim::KernelFootprint`] (using the paper's
//!   effective-bytes accounting), prices the launch through the session's
//!   toolchain/platform models, and executes the body **functionally** in
//!   parallel tiles so the application's numerics are real;
//! * [`HaloPlan`] — Cartesian rank decomposition and halo-exchange volume
//!   accounting for the MPI and MPI+OpenMP execution models.
//!
//! ```
//! use ops_dsl::prelude::*;
//! use sycl_sim::prelude::*;
//!
//! let session = Session::create(
//!     SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app("demo"),
//! ).unwrap();
//! let block = Block::new_2d(64, 64, 2);
//! let mut u = Dat::<f64>::zeroed(&block, "u");
//! let mut v = Dat::<f64>::zeroed(&block, "v");
//! v.fill_with(|i, j, _| (i + j) as f64);
//!
//! let u_meta = u.meta();
//! let w = u.writer();
//! let r = v.reader();
//! ParLoop::new("copy", block.interior())
//!     .read(v.meta(), Stencil::point())
//!     .write(u_meta)
//!     .run(&session, |tile| {
//!         for (i, j, k) in tile.iter() {
//!             w.set(i, j, k, r.at(i, j, k));
//!         }
//!     });
//! assert_eq!(u.reader().at(3, 4, 0), 7.0);
//! ```

#![forbid(unsafe_code)]

pub mod block;
pub mod dat;
pub mod halo;
pub mod parloop;
pub mod range;
pub mod stencil;

pub use block::Block;
pub use dat::{Dat, DatMeta, ReadView, WriteView};
pub use halo::HaloPlan;
pub use parloop::ParLoop;
pub use range::{Range3, Row, TileIter};
pub use stencil::Stencil;

/// Convenience prelude for applications.
pub mod prelude {
    pub use crate::{Block, Dat, HaloPlan, ParLoop, Range3, Row, Stencil};
}
