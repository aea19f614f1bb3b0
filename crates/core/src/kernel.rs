//! Kernel descriptions handed to the runtime at launch.

use machine_model::{AccessProfile, KernelFootprint, Precision, StencilProfile};

/// Source-level properties of a kernel body that determine how well compilers
/// vectorise it. Set by the DSL code generators (which can see the loop
/// body), consumed by the toolchain vectorisation model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelTraits {
    /// Innermost loop walks memory with stride one.
    pub stride_one_inner: bool,
    /// Kernel scatters through a mapping table (blocks vectorisation of
    /// racy loops for most compilers).
    pub indirect_writes: bool,
    /// Long, branchy or deeply-nested body (OpenSYCL's CPU pipeline gives
    /// up on these; armclang fails on the OpenSBLI store-none kernels).
    pub complex_body: bool,
    /// Known auto-vectorisation failure on NEON/aarch64 regardless of
    /// compiler (paper §4.2: OpenSBLI SN "failed to vectorize across all
    /// variants" on the Ampere Altra).
    pub hard_on_neon: bool,
}

impl Default for KernelTraits {
    fn default() -> Self {
        KernelTraits {
            stride_one_inner: true,
            indirect_writes: false,
            complex_body: false,
            hard_on_neon: false,
        }
    }
}

/// A launchable kernel: footprint + codegen traits + tuning hints.
#[derive(Debug, Clone)]
pub struct Kernel {
    pub footprint: KernelFootprint,
    pub traits: KernelTraits,
    /// Work-group shape the *nd_range* formulation uses (tuned once per
    /// application, exactly as the paper did). `None` falls back to the
    /// toolchain's flat heuristic even under `SyclVariant::NdRange`.
    pub nd_shape: Option<[usize; 3]>,
}

impl Kernel {
    /// Build from an explicit footprint.
    pub fn new(footprint: KernelFootprint) -> Self {
        Kernel {
            footprint,
            traits: KernelTraits::default(),
            nd_shape: None,
        }
    }

    /// Convenience constructor for simple streaming kernels (f64).
    pub fn streaming(
        name: impl Into<std::borrow::Cow<'static, str>>,
        items: u64,
        bytes: f64,
        flops: f64,
    ) -> Self {
        Kernel::new(KernelFootprint::streaming(
            name,
            items,
            bytes,
            flops,
            Precision::F64,
        ))
    }

    /// Set codegen traits.
    pub fn with_traits(mut self, traits: KernelTraits) -> Self {
        self.traits = traits;
        self
    }

    /// Set the tuned nd_range shape.
    pub fn with_nd_shape(mut self, shape: [usize; 3]) -> Self {
        self.nd_shape = Some(shape);
        self
    }

    /// The iteration-space extents (for work-group heuristics).
    pub fn domain(&self) -> [usize; 3] {
        match &self.footprint.access {
            AccessProfile::Stencil(StencilProfile { domain, .. }) => *domain,
            _ => [self.footprint.items as usize, 1, 1],
        }
    }

    /// Number of meaningful dimensions in the iteration space.
    pub fn dims(&self) -> usize {
        self.domain().iter().filter(|&&d| d > 1).count().max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_kernel_is_one_dimensional() {
        let k = Kernel::streaming("copy", 1024, 2.0 * 8.0 * 1024.0, 0.0);
        assert_eq!(k.dims(), 1);
        assert_eq!(k.domain(), [1024, 1, 1]);
    }

    #[test]
    fn stencil_kernel_reports_its_domain() {
        let fp = KernelFootprint {
            name: "diff".into(),
            items: 64 * 64 * 64,
            effective_bytes: 1.0,
            flops: 1.0,
            transcendentals: 0.0,
            precision: Precision::F64,
            access: AccessProfile::Stencil(StencilProfile {
                domain: [64, 64, 64],
                radius: [1, 1, 1],
                dats_read: 1,
                dats_written: 1,
            }),
            atomics: None,
            reductions: 0,
        };
        let k = Kernel::new(fp).with_nd_shape([32, 4, 1]);
        assert_eq!(k.dims(), 3);
        assert_eq!(k.nd_shape, Some([32, 4, 1]));
    }

    #[test]
    fn default_traits_are_vector_friendly() {
        let t = KernelTraits::default();
        assert!(t.stride_one_inner);
        assert!(!t.indirect_writes);
        assert!(!t.complex_body);
        assert!(!t.hard_on_neon);
    }
}
