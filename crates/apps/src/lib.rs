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

/// Instantiate an app by its name in `sycl_sim::quirks::apps` at paper
/// or test size; `None` for any other name.
pub fn make_app(name: &str, paper: bool) -> Option<Box<dyn App>> {
    use sycl_sim::quirks::apps::*;
    Some(match (name, paper) {
        (CLOVERLEAF2D, true) => Box::new(CloverLeaf2d::paper()),
        (CLOVERLEAF2D, false) => Box::new(CloverLeaf2d::test()),
        (CLOVERLEAF3D, true) => Box::new(CloverLeaf3d::paper()),
        (CLOVERLEAF3D, false) => Box::new(CloverLeaf3d::test()),
        (OPENSBLI_SA, true) => Box::new(OpenSbli::paper(SbliVariant::StoreAll)),
        (OPENSBLI_SA, false) => Box::new(OpenSbli::test(SbliVariant::StoreAll)),
        (OPENSBLI_SN, true) => Box::new(OpenSbli::paper(SbliVariant::StoreNone)),
        (OPENSBLI_SN, false) => Box::new(OpenSbli::test(SbliVariant::StoreNone)),
        (RTM, true) => Box::new(Rtm::paper()),
        (RTM, false) => Box::new(Rtm::test()),
        (ACOUSTIC, true) => Box::new(Acoustic::paper()),
        (ACOUSTIC, false) => Box::new(Acoustic::test()),
        (MGCFD, true) => Box::new(Mgcfd::paper()),
        (MGCFD, false) => Box::new(Mgcfd::test()),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use sycl_sim::quirks::apps;

    #[test]
    fn every_app_name_resolves_at_both_sizes_to_its_own_app() {
        for name in apps::ALL {
            for paper in [true, false] {
                let app = super::make_app(name, paper).expect("a paper app name");
                assert_eq!(app.name(), name);
            }
        }
        assert!(super::make_app("lulesh", true).is_none());
    }
}
