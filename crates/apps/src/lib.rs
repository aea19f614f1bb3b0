//! # miniapps — the seven bandwidth-bound applications of the paper
//!
//! | App | Mesh | Precision | Paper problem | Character |
//! |-----|------|-----------|---------------|-----------|
//! | CloverLeaf 2D | structured | f64 | 7680², 50 it | low intensity, many boundary loops |
//! | CloverLeaf 3D | structured | f64 | 408³, 50 it | as above, 3-D |
//! | OpenSBLI SA | structured | f64 | 320³, 20 it | store-all: bandwidth-bound |
//! | OpenSBLI SN | structured | f64 | 320³, 20 it | store-none: recompute, higher intensity |
//! | RTM | structured | f32 | 320³, 10 it | 8th-order stencil, cache sensitive |
//! | Acoustic | structured | f32 | 1000³, 30 it | 8th-order wave propagation |
//! | MG-CFD | unstructured | f64 | Rotor37 8M vertices, 25 it | latency / indirect bound |
//!
//! Every application is implemented on the OPS/OP2 analogue DSLs with
//! *real* kernels — the numerics execute and are validated in the test
//! suite at reduced sizes (conservation, symmetry, positivity), while the
//! figure harness prices the paper-sized problems through dry-run
//! sessions (footprints depend only on sizes).

// Kernel bodies index several parallel arrays by the same element id —
// the HPC idiom clippy's needless_range_loop lint dislikes.
#![allow(clippy::needless_range_loop)]

pub mod acoustic;
pub mod cloverleaf2d;
pub mod cloverleaf3d;
pub mod common;
pub mod mgcfd;
pub mod opensbli;
pub mod rtm;

pub use acoustic::Acoustic;
pub use cloverleaf2d::CloverLeaf2d;
pub use cloverleaf3d::CloverLeaf3d;
pub use common::{App, AppRun};
pub use mgcfd::Mgcfd;
pub use opensbli::{OpenSbli, SbliVariant};
pub use rtm::Rtm;

/// The six structured-mesh apps at paper sizes, figure order.
pub fn paper_structured_apps() -> Vec<Box<dyn App>> {
    vec![
        Box::new(CloverLeaf2d::paper()),
        Box::new(CloverLeaf3d::paper()),
        Box::new(OpenSbli::paper(SbliVariant::StoreAll)),
        Box::new(OpenSbli::paper(SbliVariant::StoreNone)),
        Box::new(Rtm::paper()),
        Box::new(Acoustic::paper()),
    ]
}
