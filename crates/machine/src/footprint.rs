//! Kernel footprints: what a launch *is*, independent of how it is run.
//!
//! The DSLs construct one [`KernelFootprint`] per `par_loop`. Byte counts
//! follow the paper's §4.3 effective-bandwidth rule: the total size of the
//! datasets accessed (counted twice if read-write), plus the size of any
//! mapping tables used. Everything else describes *structure* (stencil
//! radii, indirection, atomics) that the cache and throughput models need.

use std::borrow::Cow;

/// Floating-point width of a kernel's primary datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    F32,
    F64,
}

impl Precision {
    /// Bytes per element.
    pub fn bytes(self) -> f64 {
        match self {
            Precision::F32 => 4.0,
            Precision::F64 => 8.0,
        }
    }
}

/// Structured-mesh stencil description (per kernel, merged over its args).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StencilProfile {
    /// Iteration-space extents; unused trailing dims are 1.
    pub domain: [usize; 3],
    /// Maximum stencil radius per dimension over all read args.
    pub radius: [usize; 3],
    /// Distinct datasets read (each streamed once if caching is perfect).
    pub dats_read: usize,
    /// Distinct datasets written.
    pub dats_written: usize,
}

impl StencilProfile {
    /// Number of points in the iteration space.
    pub fn points(&self) -> usize {
        self.domain[0].max(1) * self.domain[1].max(1) * self.domain[2].max(1)
    }

    /// True when the loop only walks a lower-dimensional boundary slab
    /// (one extent is tiny relative to the others).
    pub fn is_boundary_like(&self) -> bool {
        let d: Vec<usize> = self.domain.iter().copied().filter(|&x| x > 1).collect();
        if d.is_empty() {
            return true;
        }
        let max = *d.iter().max().unwrap();
        let min = *d.iter().min().unwrap();
        max > 64 && min <= 8 || self.points() < 4096
    }
}

/// Unstructured indirect-access description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndirectProfile {
    /// Elements of the *from* set (e.g. edges) this loop iterates over.
    pub from_size: usize,
    /// Elements of the *to* set (e.g. vertices/cells) reached indirectly.
    pub to_size: usize,
    /// Average arity of the mapping (vertices per edge, etc.).
    pub arity: f64,
    /// Ordering quality in [0, 1]: 1 means consecutive from-elements touch
    /// consecutive to-elements (renumbered mesh), 0 means random access.
    pub locality: f64,
    /// Bytes of indirect data gathered/scattered per from-element.
    pub indirect_bytes_per_item: f64,
}

/// Memory-access structure of a kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessProfile {
    /// Pure unit-stride streaming (BabelStream, field copies).
    Streamed,
    /// Structured-mesh stencil.
    Stencil(StencilProfile),
    /// Unstructured gather/scatter through mapping tables.
    Indirect(IndirectProfile),
}

/// What kind of atomic resolves the kernel's races.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicKind {
    /// Hardware floating-point atomic add (CUDA `atomicAdd`, HIP
    /// "unsafe" atomics).
    NativeFp,
    /// Compare-and-swap loop ("safe" atomics; the only option on CPUs).
    CasLoop,
}

/// Atomic-update volume of a kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtomicProfile {
    /// Total atomic scalar updates issued by the launch.
    pub updates: u64,
    pub kind: AtomicKind,
}

/// A complete, backend-independent description of one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelFootprint {
    /// Kernel name (for reports and per-kernel breakdowns). The DSLs
    /// name their loops with literals, so a footprint borrows the name
    /// and building one per launch copies nothing.
    pub name: Cow<'static, str>,
    /// Iteration count (mesh points / set elements).
    pub items: u64,
    /// Compulsory DRAM bytes by the paper's effective-bytes rule: datasets
    /// read once + written once (+ twice for read-write) + mapping tables.
    pub effective_bytes: f64,
    /// Floating-point operations in the launch.
    pub flops: f64,
    /// Expensive intrinsic evaluations (sqrt/exp/sin...) in the launch.
    pub transcendentals: f64,
    pub precision: Precision,
    pub access: AccessProfile,
    pub atomics: Option<AtomicProfile>,
    /// Scalar reduction results produced by this launch (0 for none).
    pub reductions: usize,
}

impl KernelFootprint {
    /// A streaming kernel touching `bytes` with `flops` total FLOPs.
    pub fn streaming(
        name: impl Into<Cow<'static, str>>,
        items: u64,
        bytes: f64,
        flops: f64,
        precision: Precision,
    ) -> Self {
        KernelFootprint {
            name: name.into(),
            items,
            effective_bytes: bytes,
            flops,
            transcendentals: 0.0,
            precision,
            access: AccessProfile::Streamed,
            atomics: None,
            reductions: 0,
        }
    }

    /// Arithmetic intensity in FLOP/byte.
    pub fn intensity(&self) -> f64 {
        if self.effective_bytes > 0.0 {
            self.flops / self.effective_bytes
        } else {
            f64::INFINITY
        }
    }

    /// True when this launch is a small boundary-style loop whose cost is
    /// dominated by launch latency rather than data volume.
    pub fn is_boundary(&self) -> bool {
        match &self.access {
            AccessProfile::Stencil(s) => s.is_boundary_like(),
            _ => self.items < 4096,
        }
    }

    /// Achieved bandwidth if this footprint's compulsory bytes moved in
    /// `seconds` — the per-kernel GB/s the telemetry aggregate table and
    /// the paper's profiling views report.
    pub fn achieved_gbps(&self, seconds: f64) -> f64 {
        if seconds > 0.0 {
            self.effective_bytes / seconds / 1e9
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_bytes() {
        assert_eq!(Precision::F32.bytes(), 4.0);
        assert_eq!(Precision::F64.bytes(), 8.0);
    }

    #[test]
    fn achieved_gbps_is_bytes_over_time() {
        let fp = KernelFootprint::streaming("triad", 1 << 20, 24e9, 0.0, Precision::F64);
        assert_eq!(fp.achieved_gbps(2.0), 12.0);
        assert_eq!(fp.achieved_gbps(0.0), 0.0);
    }

    #[test]
    fn stencil_points_and_boundary_detection() {
        let interior = StencilProfile {
            domain: [320, 320, 320],
            radius: [4, 4, 4],
            dats_read: 2,
            dats_written: 1,
        };
        assert_eq!(interior.points(), 320 * 320 * 320);
        assert!(!interior.is_boundary_like());

        let face = StencilProfile {
            domain: [7680, 2, 1],
            radius: [0, 0, 0],
            dats_read: 1,
            dats_written: 1,
        };
        assert!(face.is_boundary_like());
    }

    #[test]
    fn streaming_constructor_and_intensity() {
        let fp = KernelFootprint::streaming(
            "triad",
            1 << 20,
            3.0 * 8.0 * (1 << 20) as f64,
            2.0 * (1 << 20) as f64,
            Precision::F64,
        );
        let ai = fp.intensity();
        assert!((ai - 2.0 / 24.0).abs() < 1e-12);
        assert!(!fp.is_boundary());
    }

    #[test]
    fn tiny_loops_count_as_boundary() {
        let fp = KernelFootprint::streaming("bc", 128, 1024.0, 0.0, Precision::F64);
        assert!(fp.is_boundary());
    }

    #[test]
    fn zero_byte_kernel_has_infinite_intensity() {
        let fp = KernelFootprint::streaming("empty", 1, 0.0, 1.0, Precision::F32);
        assert!(fp.intensity().is_infinite());
    }
}
