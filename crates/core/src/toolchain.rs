//! Toolchain models: DPC++, OpenSYCL, and the native baselines.
//!
//! A toolchain turns a [`Kernel`] into an
//! [`ExecProfile`]: which driver path the
//! launch takes, what work-group shape it gets (the *flat* formulation
//! leaves this to a runtime heuristic; *nd_range* uses the app-tuned
//! shape), how well the body vectorises on CPUs, and which reduction
//! strategy is available. These mechanisms — not per-result tables — are
//! what make the figures come out the way the paper reports.

use crate::kernel::Kernel;
use machine_model::{BackendKind, ChipKind, ExecProfile, Platform, PlatformId, ReductionStrategy};

/// The programming approaches compared across the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Toolchain {
    /// Native CUDA (A100 baseline).
    NativeCuda,
    /// Native HIP (MI250X baseline).
    NativeHip,
    /// OpenMP offload with the vendor compiler (the "native" bar on the
    /// Max 1100; the Cray-compiled bar on the MI250X).
    OmpOffload,
    /// Pure MPI, one rank per core (CPU baseline).
    Mpi,
    /// Hybrid MPI+OpenMP, one rank per NUMA domain (CPU baseline).
    MpiOpenMp,
    /// Plain OpenMP, single process (used on the single-NUMA Altra).
    OpenMp,
    /// Intel's DPC++ / oneAPI C++ compiler.
    Dpcpp,
    /// OpenSYCL (hipSYCL), `omp.accelerated` on CPUs.
    OpenSycl,
}

impl Toolchain {
    /// Short label used in figures and reports.
    pub fn label(self) -> &'static str {
        match self {
            Toolchain::NativeCuda => "CUDA",
            Toolchain::NativeHip => "HIP",
            Toolchain::OmpOffload => "OMP-offload",
            Toolchain::Mpi => "MPI",
            Toolchain::MpiOpenMp => "MPI+OpenMP",
            Toolchain::OpenMp => "OpenMP",
            Toolchain::Dpcpp => "DPC++",
            Toolchain::OpenSycl => "OpenSYCL",
        }
    }

    /// Parse a label as produced by [`Toolchain::label`] (the study
    /// runner's wire format round-trips toolchains by label).
    pub fn parse(s: &str) -> Option<Toolchain> {
        Some(match s {
            "CUDA" => Toolchain::NativeCuda,
            "HIP" => Toolchain::NativeHip,
            "OMP-offload" => Toolchain::OmpOffload,
            "MPI" => Toolchain::Mpi,
            "MPI+OpenMP" => Toolchain::MpiOpenMp,
            "OpenMP" => Toolchain::OpenMp,
            "DPC++" => Toolchain::Dpcpp,
            "OpenSYCL" => Toolchain::OpenSycl,
            _ => return None,
        })
    }

    /// Is this one of the two SYCL compilers?
    pub fn is_sycl(self) -> bool {
        matches!(self, Toolchain::Dpcpp | Toolchain::OpenSycl)
    }

    /// Is this a platform-specific ("native", non-portable) approach?
    pub fn is_native(self) -> bool {
        !self.is_sycl()
    }

    /// Can this toolchain target the platform at all?
    ///
    /// * DPC++ supports all three GPUs, and CPUs only through Intel's
    ///   x86 OpenCL driver — so not the Ampere Altra (§4.2).
    /// * OpenSYCL targets all GPUs and, via OpenMP, every CPU.
    /// * CUDA/HIP are single-vendor; the OpenMP-offload bars exist only
    ///   where the paper shows them (MI250X via Cray, Max 1100 via icpx).
    /// * MPI/OpenMP family is CPU-only; the paper used MPI+OpenMP on the
    ///   dual-socket machines and plain MPI/OpenMP on the Altra.
    pub fn supports(self, platform: PlatformId) -> bool {
        use PlatformId::*;
        match self {
            Toolchain::NativeCuda => platform == A100,
            Toolchain::NativeHip => platform == Mi250x,
            Toolchain::OmpOffload => matches!(platform, Mi250x | Max1100),
            Toolchain::Mpi => !platform.is_gpu(),
            Toolchain::MpiOpenMp => matches!(platform, Xeon8360Y | GenoaX),
            Toolchain::OpenMp => !platform.is_gpu(),
            Toolchain::Dpcpp => platform != Altra,
            Toolchain::OpenSycl => true,
        }
    }

    /// The driver path kernel launches take on a platform.
    pub fn backend(self, platform: PlatformId) -> BackendKind {
        match self {
            Toolchain::NativeCuda => BackendKind::Cuda,
            Toolchain::NativeHip => BackendKind::Hip,
            Toolchain::OmpOffload => BackendKind::OmpOffload,
            Toolchain::Mpi => BackendKind::MpiRank,
            Toolchain::MpiOpenMp | Toolchain::OpenMp => BackendKind::OmpHost,
            Toolchain::Dpcpp => {
                if platform.is_gpu() {
                    BackendKind::SyclGpu
                } else {
                    // DPC++ reaches CPUs only through the OpenCL driver —
                    // the launch-overhead source the paper measures via
                    // CloverLeaf boundary loops (5.4-8.7 % of runtime).
                    BackendKind::OpenClCpu
                }
            }
            Toolchain::OpenSycl => {
                if platform.is_gpu() {
                    BackendKind::SyclGpu
                } else {
                    // `-opensycl-targets=omp.accelerated`: compiles to
                    // OpenMP, no per-launch driver cost.
                    BackendKind::OmpHost
                }
            }
        }
    }

    /// MPI ranks the execution is decomposed into on a platform.
    pub fn ranks(self, platform: &Platform) -> usize {
        match platform.chip {
            ChipKind::Cpu {
                sockets,
                cores_per_socket,
                numa_domains,
                ..
            } => match self {
                Toolchain::Mpi => sockets * cores_per_socket,
                Toolchain::MpiOpenMp => numa_domains,
                _ => 1,
            },
            ChipKind::Gpu { .. } => 1,
        }
    }

    /// Work-group shape for one kernel under a formulation.
    ///
    /// *Flat* defers to the runtime's heuristic — including its known
    /// pathologies (§4.1: "The DPC++ runtime chooses very poor workgroup
    /// sizes for a few kernels"; "the OpenSYCL version chooses suboptimal
    /// workgroup sizes in 3D"). *NdRange* uses the app-tuned shape.
    pub fn workgroup(
        self,
        platform: &Platform,
        variant: SyclVariant,
        kernel: &Kernel,
    ) -> [usize; 3] {
        let domain = kernel.domain();
        if let ChipKind::Cpu { .. } = platform.chip {
            // On CPUs a "work-group" is the per-thread chunk; shape only
            // matters for vectorisation, which the traits model covers.
            let cores = platform.chip.cores().max(1);
            let chunk = (kernel.footprint.items as usize / (cores * 8)).clamp(1, 4096);
            return [chunk, 1, 1];
        }
        if self.is_native() {
            // Hand-written CUDA/HIP/offload kernels ship with tuned
            // launch bounds — they always use the app's tuned shape.
            return clamp_shape(
                kernel
                    .nd_shape
                    .unwrap_or_else(|| self.flat_heuristic(domain)),
                domain,
            );
        }
        match variant {
            SyclVariant::NdRange(default_shape) => {
                clamp_shape(kernel.nd_shape.unwrap_or(default_shape), domain)
            }
            SyclVariant::Flat => clamp_shape(self.flat_heuristic(domain), domain),
        }
    }

    /// The runtime's automatic work-group choice for a flat
    /// `parallel_for(range)` on GPUs.
    fn flat_heuristic(self, domain: [usize; 3]) -> [usize; 3] {
        let dims = domain.iter().filter(|&&d| d > 1).count().max(1);
        match self {
            Toolchain::Dpcpp => {
                // DPC++/Level-Zero picks shapes from range divisibility.
                // For 2-D ranges whose slow dimension divides 512 it
                // parallelises *that* dimension — uncoalesced in x. This
                // is the CloverLeaf-2D-flat pathology on every GPU.
                if dims == 2 && domain[1].is_multiple_of(512) {
                    [1, 512, 1]
                } else {
                    [256, 1, 1]
                }
            }
            Toolchain::OpenSycl => {
                // OpenSYCL uses a fixed small linear group for 3-D
                // ranges — ~half the occupancy needed (§4.1: "an almost
                // 50% slowdown" on CloverLeaf 3D).
                if dims == 3 {
                    [32, 1, 1]
                } else {
                    [256, 1, 1]
                }
            }
            // Native models hand-pick sane shapes.
            _ => {
                if dims >= 2 {
                    [64, 4, 1]
                } else {
                    [256, 1, 1]
                }
            }
        }
    }

    /// Fraction of SIMD/FLOP peak the generated code reaches on `platform`
    /// for a kernel with the given traits.
    pub fn vector_efficiency(self, platform: &Platform, kernel: &Kernel) -> f64 {
        let ChipKind::Cpu { simd_f64_lanes, .. } = platform.chip else {
            return 1.0; // SIMT GPUs don't auto-vectorise.
        };
        // f32 kernels fit twice the lanes, so scalar code loses more.
        let lanes = match kernel.footprint.precision {
            machine_model::Precision::F32 => 2 * simd_f64_lanes,
            machine_model::Precision::F64 => simd_f64_lanes,
        };
        let scalar = 1.0 / lanes as f64;
        let t = kernel.traits;
        let vectorisable = t.stride_one_inner && !t.indirect_writes;
        // §4.2: OpenSBLI SN "failed to vectorize across all variants" on
        // the Altra — a NEON limitation, not a toolchain one.
        if t.hard_on_neon && platform.id == PlatformId::Altra {
            return scalar;
        }
        match self {
            Toolchain::Mpi => {
                // §4.3: the owner-compute MPI variant has no intra-rank
                // races, so OP2's generated code vectorises even the
                // indirect kernels ("auto-vectorizing MPI") — unlike the
                // OpenMP-based variants.
                if t.stride_one_inner {
                    1.0
                } else {
                    scalar
                }
            }
            Toolchain::MpiOpenMp | Toolchain::OpenMp | Toolchain::OmpOffload => {
                if vectorisable {
                    1.0
                } else {
                    scalar
                }
            }
            Toolchain::Dpcpp => {
                // The OpenCL CPU compiler vectorises aggressively — the
                // paper measures DPC++ ~10 % faster than MPI/OpenMP on the
                // compute-heavy RTM/Acoustic thanks to "better
                // vectorization efficiency"; it even vectorises racy
                // hierarchical loops. But it is "not optimized" for
                // Genoa-X (§4.2).
                let quality = match platform.id {
                    PlatformId::Xeon8360Y => 1.1,
                    PlatformId::GenoaX => 0.85,
                    _ => 1.0,
                };
                if vectorisable || t.indirect_writes {
                    quality
                } else {
                    scalar
                }
            }
            Toolchain::OpenSycl => {
                // LLVM libomp pipeline: fine on simple x86 kernels, gives
                // up on complex bodies on aarch64 (§4.2: Acoustic
                // "auto-vectorization did not work for SYCL" on Altra).
                let gives_up_on_neon = t.complex_body && platform.id == PlatformId::Altra;
                if !vectorisable || gives_up_on_neon {
                    scalar
                } else {
                    0.95
                }
            }
            Toolchain::NativeCuda | Toolchain::NativeHip => 1.0,
        }
    }

    /// Reduction strategy available on a platform.
    ///
    /// §4.2: "we had to use user-defined binary tree reductions as SYCL
    /// 2020's built-in reductions are not yet supported in OpenSYCL for
    /// this target, and had compilation issues with DPC++" — reductions
    /// then cost 6-7× the OpenMP equivalents.
    pub fn reduction_strategy(self, platform: PlatformId) -> ReductionStrategy {
        match self {
            Toolchain::Dpcpp | Toolchain::OpenSycl => {
                if platform.is_gpu() {
                    ReductionStrategy::Native
                } else {
                    ReductionStrategy::UserBinaryTree
                }
            }
            _ => ReductionStrategy::Native,
        }
    }

    /// Compiler-stack maturity on a platform: the multiplier behind the
    /// small but consistent nd_range-vs-native gaps the paper averages
    /// (§4.1: DPC++ −1.2 % vs CUDA, OpenSYCL −5.3 %; DPC++ −15.9 % vs
    /// HIP; OMP-offload ~30 % behind SYCL on the Max 1100).
    pub fn codegen_efficiency(self, platform: PlatformId, kernel: &Kernel) -> f64 {
        use PlatformId::*;
        // §5: "SYCL implementations outperform native ones in a handful
        // of notable cases - on GPUs (NVIDIA in particular) ... mainly
        // due to the difference in the compiler stack, with LLVM
        // applying more powerful optimizations". The gain shows on long,
        // complex kernel bodies (MG-CFD flux, Acoustic).
        if platform == A100 && self.is_sycl() && kernel.traits.complex_body {
            return match self {
                Toolchain::OpenSycl => 1.10, // §4.3: atomics beat CUDA's
                _ => 1.06,                   // §4.1: Acoustic +10 % over CUDA
            };
        }
        match (self, platform) {
            // SYCL GPU plugins: near-native through PTX on NVIDIA,
            // less tuned through ROCm, native-grade on Level Zero.
            (Toolchain::Dpcpp, A100) => 0.99,
            (Toolchain::OpenSycl, A100) => 0.96,
            (Toolchain::Dpcpp, Mi250x) => 0.88,
            (Toolchain::OpenSycl, Mi250x) => 0.95,
            (Toolchain::Dpcpp | Toolchain::OpenSycl, Max1100) => 1.0,
            // icpx OpenMP offload on the Max is immature (§4.1: SYCL
            // nd_range ~30 % faster); Cray's on the MI250X is solid.
            (Toolchain::OmpOffload, Max1100) => 0.78,
            (Toolchain::OmpOffload, Mi250x) => 0.97,
            // DPC++ through OpenCL is "not optimized" for Genoa-X (§4.2).
            (Toolchain::Dpcpp, GenoaX) => 0.85,
            // OpenSYCL's omp.accelerated CPU path adds work-item loop
            // and barrier overheads that keep it behind the native
            // OpenMP code it compiles into (§4.2/§4.4: CPU SYCL
            // efficiency trails native by 10-20 points).
            (Toolchain::OpenSycl, Xeon8360Y | GenoaX | Altra) => 0.72,
            _ => 1.0,
        }
    }

    /// Assemble the complete execution profile for one launch.
    pub fn exec_profile(
        self,
        platform: &Platform,
        variant: SyclVariant,
        kernel: &Kernel,
    ) -> ExecProfile {
        ExecProfile {
            backend: self.backend(platform.id),
            workgroup: self.workgroup(platform, variant, kernel),
            vector_efficiency: self.vector_efficiency(platform, kernel),
            reduction: if kernel.footprint.reductions > 0 {
                self.reduction_strategy(platform.id)
            } else {
                ReductionStrategy::None
            },
            codegen_efficiency: self.codegen_efficiency(platform.id, kernel),
            ranks: self.ranks(platform),
        }
    }
}

/// SYCL kernel formulation: `parallel_for(range)` vs
/// `parallel_for(nd_range)` with an explicit work-group shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyclVariant {
    /// Runtime picks the work-group shape per kernel.
    Flat,
    /// Programmer-specified shape (the app-wide tuned default; individual
    /// kernels may override via [`Kernel::with_nd_shape`]).
    NdRange([usize; 3]),
}

impl SyclVariant {
    /// Label used in figures ("flat" / "ndrange").
    pub fn label(self) -> &'static str {
        match self {
            SyclVariant::Flat => "flat",
            SyclVariant::NdRange(_) => "ndrange",
        }
    }
}

/// Race-resolution scheme for unstructured (OP2) loops — Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Device-wide atomics.
    Atomics,
    /// Global edge colouring: no two same-colour edges share a vertex.
    GlobalColor,
    /// Hierarchical: blocks coloured against each other, edges coloured
    /// within blocks.
    HierColor,
}

impl Scheme {
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Atomics => "atomics",
            Scheme::GlobalColor => "global",
            Scheme::HierColor => "hierarchical",
        }
    }

    pub fn all() -> [Scheme; 3] {
        [Scheme::Atomics, Scheme::GlobalColor, Scheme::HierColor]
    }

    /// Parse a label as produced by [`Scheme::label`].
    pub fn parse(s: &str) -> Option<Scheme> {
        Scheme::all().into_iter().find(|k| k.label() == s)
    }
}

/// Clamp a work-group shape to the iteration domain.
fn clamp_shape(shape: [usize; 3], domain: [usize; 3]) -> [usize; 3] {
    [
        shape[0].clamp(1, domain[0].max(1)),
        shape[1].clamp(1, domain[1].max(1)),
        shape[2].clamp(1, domain[2].max(1)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine_model::{platform, AccessProfile, KernelFootprint, Precision, StencilProfile};

    #[test]
    fn labels_round_trip_through_parse() {
        use Toolchain::*;
        for tc in [
            NativeCuda, NativeHip, OmpOffload, Mpi, MpiOpenMp, OpenMp, Dpcpp, OpenSycl,
        ] {
            assert_eq!(Toolchain::parse(tc.label()), Some(tc));
        }
        assert_eq!(Toolchain::parse("C++"), None);
        for s in Scheme::all() {
            assert_eq!(Scheme::parse(s.label()), Some(s));
        }
        assert_eq!(Scheme::parse("colour"), None);
    }

    fn stencil_kernel(domain: [usize; 3]) -> Kernel {
        let pts: usize = domain.iter().map(|&d| d.max(1)).product();
        Kernel::new(KernelFootprint {
            name: "k".into(),
            items: pts as u64,
            effective_bytes: pts as f64 * 24.0,
            flops: pts as f64 * 10.0,
            transcendentals: 0.0,
            precision: Precision::F64,
            access: AccessProfile::Stencil(StencilProfile {
                domain,
                radius: [1, 1, if domain[2] > 1 { 1 } else { 0 }],
                dats_read: 2,
                dats_written: 1,
            }),
            atomics: None,
            reductions: 0,
        })
    }

    #[test]
    fn support_matrix_matches_the_paper() {
        use PlatformId::*;
        assert!(!Toolchain::Dpcpp.supports(Altra), "oneAPI is x86-only");
        assert!(Toolchain::OpenSycl.supports(Altra));
        assert!(Toolchain::NativeCuda.supports(A100));
        assert!(!Toolchain::NativeCuda.supports(Mi250x));
        assert!(Toolchain::OmpOffload.supports(Max1100));
        assert!(
            !Toolchain::OmpOffload.supports(A100),
            "LLVM offload to NVIDIA had runtime errors"
        );
        assert!(!Toolchain::Mpi.supports(A100));
        assert!(!Toolchain::MpiOpenMp.supports(Altra), "single NUMA node");
    }

    #[test]
    fn dpcpp_cpu_path_is_opencl_and_opensycl_is_openmp() {
        assert_eq!(
            Toolchain::Dpcpp.backend(PlatformId::Xeon8360Y),
            BackendKind::OpenClCpu
        );
        assert_eq!(
            Toolchain::OpenSycl.backend(PlatformId::Xeon8360Y),
            BackendKind::OmpHost
        );
        assert_eq!(
            Toolchain::Dpcpp.backend(PlatformId::A100),
            BackendKind::SyclGpu
        );
    }

    #[test]
    fn dpcpp_flat_pathology_fires_on_cloverleaf2d_shapes() {
        // 7680 divides 512 ⇒ the uncoalesced shape.
        let k2d = stencil_kernel([7680, 7680, 1]);
        let a100 = platform::a100();
        let wg = Toolchain::Dpcpp.workgroup(&a100, SyclVariant::Flat, &k2d);
        assert_eq!(wg, [1, 512, 1]);
        // 408 does not ⇒ sane shape.
        let k3d = stencil_kernel([408, 408, 408]);
        let wg = Toolchain::Dpcpp.workgroup(&a100, SyclVariant::Flat, &k3d);
        assert_eq!(wg, [256, 1, 1]);
    }

    #[test]
    fn opensycl_flat_picks_small_groups_in_3d() {
        let a100 = platform::a100();
        let k3d = stencil_kernel([408, 408, 408]);
        let wg = Toolchain::OpenSycl.workgroup(&a100, SyclVariant::Flat, &k3d);
        assert_eq!(wg, [32, 1, 1]);
        let k2d = stencil_kernel([7680, 7680, 1]);
        let wg = Toolchain::OpenSycl.workgroup(&a100, SyclVariant::Flat, &k2d);
        assert_eq!(wg, [256, 1, 1]);
    }

    #[test]
    fn nd_range_uses_tuned_shape_and_clamps_to_domain() {
        let a100 = platform::a100();
        let k = stencil_kernel([100, 8, 1]).with_nd_shape([256, 16, 1]);
        let wg = Toolchain::Dpcpp.workgroup(&a100, SyclVariant::NdRange([64, 4, 1]), &k);
        assert_eq!(wg, [100, 8, 1]);
    }

    #[test]
    fn sycl_reductions_fall_back_to_user_trees_on_cpus_only() {
        assert_eq!(
            Toolchain::Dpcpp.reduction_strategy(PlatformId::Xeon8360Y),
            ReductionStrategy::UserBinaryTree
        );
        assert_eq!(
            Toolchain::OpenSycl.reduction_strategy(PlatformId::GenoaX),
            ReductionStrategy::UserBinaryTree
        );
        assert_eq!(
            Toolchain::Dpcpp.reduction_strategy(PlatformId::A100),
            ReductionStrategy::Native
        );
        assert_eq!(
            Toolchain::MpiOpenMp.reduction_strategy(PlatformId::Xeon8360Y),
            ReductionStrategy::Native
        );
    }

    #[test]
    fn vectorisation_model_matches_paper_observations() {
        let xeon = platform::xeon8360y();
        let altra = platform::altra();
        let simple = stencil_kernel([320, 320, 320]);
        // DPC++ on Xeon beats native vectorisation by ~10 %.
        let dpcpp = Toolchain::Dpcpp.vector_efficiency(&xeon, &simple);
        let native = Toolchain::MpiOpenMp.vector_efficiency(&xeon, &simple);
        assert!(dpcpp > native);
        // OpenSYCL on Altra gives up on complex bodies (Acoustic).
        let mut complex = simple.clone();
        complex.traits.complex_body = true;
        let os_altra = Toolchain::OpenSycl.vector_efficiency(&altra, &complex);
        let omp_altra = Toolchain::OpenMp.vector_efficiency(&altra, &complex);
        assert!(os_altra < omp_altra);
        // SN-style kernels fail for everyone on NEON.
        let mut sn = simple.clone();
        sn.traits.hard_on_neon = true;
        assert!(Toolchain::OpenMp.vector_efficiency(&altra, &sn) < 1.0);
        assert!((Toolchain::OpenMp.vector_efficiency(&xeon, &sn) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mpi_ranks_follow_platform_topology() {
        let xeon = platform::xeon8360y();
        let genoa = platform::genoax();
        assert_eq!(Toolchain::Mpi.ranks(&xeon), 72);
        assert_eq!(Toolchain::MpiOpenMp.ranks(&xeon), 2);
        assert_eq!(Toolchain::MpiOpenMp.ranks(&genoa), 4);
        assert_eq!(Toolchain::OpenSycl.ranks(&xeon), 1);
        assert_eq!(Toolchain::NativeCuda.ranks(&platform::a100()), 1);
    }

    #[test]
    fn cpu_workgroups_are_thread_chunks() {
        let xeon = platform::xeon8360y();
        let k = stencil_kernel([320, 320, 320]);
        let wg = Toolchain::OpenSycl.workgroup(&xeon, SyclVariant::Flat, &k);
        assert!(wg[0] >= 1 && wg[1] == 1 && wg[2] == 1);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Toolchain::Dpcpp.label(), "DPC++");
        assert_eq!(SyclVariant::Flat.label(), "flat");
        assert_eq!(SyclVariant::NdRange([1, 1, 1]).label(), "ndrange");
        assert_eq!(Scheme::HierColor.label(), "hierarchical");
    }
}
