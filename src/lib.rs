//! # sycl-portability — a simulated reproduction of
//! *"Evaluating the performance portability of SYCL across CPUs and GPUs
//! on bandwidth-bound applications"* (Reguly, SC-W 2023)
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`parkit`] — the parallel substrate (thread pool, deterministic
//!   reductions) that executes every kernel functionally;
//! * [`machine_model`] — calibrated analytic models of the six platforms
//!   (A100, MI250X, Max 1100, Xeon 8360Y, Genoa-X, Ampere Altra);
//! * [`sycl_sim`] — the SYCL-like portable programming model with
//!   toolchain simulations of DPC++ and OpenSYCL plus native baselines;
//! * [`ops_dsl`] / [`op2_dsl`] — the structured/unstructured mesh DSLs
//!   (the OPS and OP2 analogues);
//! * [`babelstream`] — the bandwidth yardstick behind Table 1;
//! * [`miniapps`] — CloverLeaf 2D/3D, OpenSBLI SA/SN, RTM, Acoustic and
//!   MG-CFD at the paper's problem sizes;
//! * [`portability`] — the study harness, efficiency accounting and the
//!   Pennycook–Sewall PP̄ metric.
//!
//! ## Quickstart
//!
//! ```
//! use sycl_portability::prelude::*;
//!
//! // "Compile" BabelStream with DPC++ for the A100 and run Triad.
//! let session = Session::create(
//!     SessionConfig::new(PlatformId::A100, Toolchain::Dpcpp).app("quickstart"),
//! )
//! .unwrap();
//! let mut stream = babelstream::BabelStream::new(1 << 20);
//! stream.run(&session, babelstream::StreamKernel::Triad);
//! assert!(session.elapsed() > 0.0);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and the
//! `bench-harness` crate's `regenerate_all` binary, which prices the
//! paper's cross-product once and writes every table and figure into
//! `results/`.

pub use babelstream;
pub use machine_model;
pub use miniapps;
pub use op2_dsl;
pub use ops_dsl;
pub use parkit;
pub use portability;
pub use sycl_sim;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use miniapps::{App, AppRun};
    pub use ops_dsl::prelude::*;
    pub use sycl_sim::prelude::*;
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        let p = machine_model::Platform::get(machine_model::PlatformId::A100);
        assert_eq!(p.id.label(), "a100");
        assert!(parkit::global_pool().lanes() >= 1);
    }
}
