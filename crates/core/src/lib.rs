//! # sycl-sim — a SYCL-like portable programming model with simulated
//! performance on six HPC platforms
//!
//! This crate is the reproduction's analogue of "SYCL + its two compilers".
//! It provides:
//!
//! * a **portable execution model** — queues, buffers, 1/2/3-D ranges,
//!   `parallel_for` in both the *flat* (`range`) and *nd_range*
//!   (work-group-shaped) formulations, and reductions — mirroring the SYCL
//!   constructs the paper contrasts;
//! * **functional execution**: every launch really runs its kernel body on
//!   a host thread pool ([`parkit`]), so all application numerics are real
//!   and validated;
//! * **toolchain models** ([`Toolchain`]): DPC++ and OpenSYCL (plus the
//!   native baselines CUDA / HIP / OpenMP offload / MPI / MPI+OpenMP),
//!   each with its own work-group-shape heuristic for the flat
//!   formulation, launch-path overheads (DPC++ reaches CPUs only through
//!   OpenCL; OpenSYCL compiles to OpenMP), vectorisation behaviour, and
//!   reduction strategy;
//! * a **quirk matrix** ([`quirks`]) reproducing the categorical failures
//!   the paper reports (compiler ICEs, wrong results, unsupported
//!   targets), which are facts about specific toolchain releases and
//!   cannot be derived from first principles;
//! * **simulated timing**: each launch's [`machine_model::KernelFootprint`]
//!   is priced by the calibrated platform models, and the session
//!   accumulates a per-kernel timing ledger.
//!
//! ```
//! use sycl_sim::prelude::*;
//!
//! let cfg = SessionConfig::new(PlatformId::A100, Toolchain::Dpcpp)
//!     .variant(SyclVariant::NdRange([256, 1, 1]))
//!     .app("quickstart");
//! let session = Session::create(cfg).unwrap();
//! let n = 1 << 16;
//! let mut a = vec![0.0f64; n];
//! let b = vec![2.0f64; n];
//!
//! let kernel = Kernel::streaming("axpy", n as u64, 3.0 * 8.0 * n as f64, 2.0 * n as f64);
//! session.launch(&kernel, || {
//!     parkit::global_pool().for_each_chunk(&mut a, 4096, |start, chunk| {
//!         for (i, x) in chunk.iter_mut().enumerate() {
//!             *x += 1.5 * b[start + i];
//!         }
//!     });
//! });
//! assert_eq!(a[17], 3.0);
//! assert!(session.elapsed() > 0.0);
//! ```

pub mod buffer;
pub mod error;
pub mod graph;
pub mod kernel;
pub mod launch;
pub mod quirks;
pub mod real;
pub mod service;
pub mod session;
pub mod toolchain;
pub mod tune;

pub use buffer::Buffer;
pub use error::{Failure, FailureKind};
pub use graph::{replay_all, GraphBuilder, GraphNodeInfo, GraphSummary, LaunchGraph, LaunchTarget};
pub use kernel::{Kernel, KernelTraits};
pub use launch::{AccessMode, DatAccess, LaunchMeta, LaunchNode, Residency, TransferStats};
pub use real::Real;
pub use service::{Batch, Rejected, Service, ServiceConfig, ServiceShard, ShedPolicy};
pub use session::{GraphObserver, LaunchRecord, Records, Session, SessionConfig};
pub use toolchain::{Scheme, SyclVariant, Toolchain};

// Re-export the hardware model so downstream crates need only one import.
pub use machine_model::{
    AccessProfile, AtomicKind, AtomicProfile, BackendKind, ExecProfile, IndirectProfile,
    Interconnect, KernelFootprint, KernelTime, LinkBandwidth, Platform, PlatformId, Precision,
    ReductionStrategy, StencilProfile, TransferDir,
};

/// Convenience prelude for examples and apps.
pub mod prelude {
    pub use crate::{
        Buffer, Failure, FailureKind, Kernel, KernelTraits, PlatformId, Precision, Real, Scheme,
        Session, SessionConfig, SyclVariant, Toolchain,
    };
}
