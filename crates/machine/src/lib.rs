//! # machine-model — calibrated performance models of six HPC platforms
//!
//! The paper measured seven bandwidth-bound applications on three GPUs
//! (NVIDIA A100 40 GB, AMD MI250X single GCD, Intel Data Center GPU Max
//! 1100) and three CPUs (Intel Xeon Platinum 8360Y, AMD EPYC 9V33X
//! "Genoa-X", Ampere Altra). None of that hardware (nor SYCL) is available
//! to this reproduction, so this crate provides *analytic, calibrated*
//! models of those machines: enough fidelity that the paper's qualitative
//! results — who wins, by what factor, where the crossovers fall — emerge
//! from mechanism rather than from hard-coded answers.
//!
//! The modelling chain is:
//!
//! 1. The DSL layer describes each kernel launch with a [`KernelFootprint`]:
//!    compulsory DRAM bytes (computed with the paper's own §4.3
//!    effective-bandwidth accounting), FLOPs, iteration-space shape, stencil
//!    radii, atomic counts, indirect-access locality descriptors.
//! 2. The SYCL runtime simulation picks an [`ExecProfile`] — backend kind,
//!    work-group shape, vectorisation efficiency, reduction strategy —
//!    according to the toolchain being modelled.
//! 3. [`predict`] combines platform + footprint + profile
//!    into a simulated kernel time:
//!    `max(memory, compute, atomics) + launch + reduction`.
//!
//! The memory term uses a layer-condition cache model (Stengel et al.-style)
//! so that cache-capacity effects the paper highlights — the Max 1100's
//! 208 MB L2, Genoa-X's 2×1.1 GB L3, MI250X's small 16 MB L2 — shape the
//! results the same way they did on the real machines.

pub mod caches;
pub mod exec;
pub mod footprint;
pub mod interconnect;
pub mod model;
pub mod platform;
pub mod roofline;

pub use caches::{CacheOutcome, MemoryTraffic};
pub use exec::{BackendKind, ExecProfile, ReductionStrategy};
pub use footprint::{
    AccessProfile, AtomicKind, AtomicProfile, IndirectProfile, KernelFootprint, Precision,
    StencilProfile,
};
pub use interconnect::{Interconnect, LinkBandwidth, TransferDir};
pub use model::{predict, KernelTime};
pub use platform::{all_platforms, ChipKind, Platform, PlatformId};
pub use roofline::{roofline_text, Bound, RooflinePoint};

/// Gigabytes-per-second to bytes-per-second.
pub const GB: f64 = 1.0e9;
/// Microseconds to seconds.
pub const US: f64 = 1.0e-6;
