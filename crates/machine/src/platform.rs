//! Descriptions of the six benchmarked platforms.
//!
//! Every number here is taken from the paper (§2 "Test hardware", Table 1,
//! and the cache sizes quoted in §4.1/§4.3) or, where the paper is silent
//! (e.g. L2 bandwidths, launch latencies), from public vendor documentation
//! of the same parts. These are *calibration inputs*, not results.

use crate::{GB, US};

/// Identifier for one of the six benchmarked machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformId {
    /// NVIDIA A100 40 GB PCIe.
    A100,
    /// AMD MI250X, a single GCD, as on LUMI.
    Mi250x,
    /// Intel Data Center GPU Max 1100.
    Max1100,
    /// Dual-socket Intel Xeon Platinum 8360Y (Ice Lake), 2×36 cores.
    Xeon8360Y,
    /// Dual-socket AMD EPYC 9V33X (Genoa-X), 2×88 cores, 3D V-Cache.
    GenoaX,
    /// Single-socket Ampere Altra, 64 cores (Azure D64ps v5).
    Altra,
}

impl PlatformId {
    /// All six platforms in the paper's presentation order: the GPUs,
    /// then the CPUs, each in figure order. Every list of platforms in
    /// the workspace is this one, or a filter of it.
    pub const ALL: [PlatformId; 6] = [
        PlatformId::A100,
        PlatformId::Mi250x,
        PlatformId::Max1100,
        PlatformId::Xeon8360Y,
        PlatformId::GenoaX,
        PlatformId::Altra,
    ];

    /// Short machine-readable label used in reports and benches.
    pub fn label(self) -> &'static str {
        match self {
            PlatformId::A100 => "a100",
            PlatformId::Mi250x => "mi250x",
            PlatformId::Max1100 => "max1100",
            PlatformId::Xeon8360Y => "xeon8360y",
            PlatformId::GenoaX => "genoax",
            PlatformId::Altra => "altra",
        }
    }

    /// Parse a label as produced by [`PlatformId::label`].
    pub fn parse(s: &str) -> Option<PlatformId> {
        PlatformId::ALL.into_iter().find(|p| p.label() == s)
    }

    /// True for the three GPU platforms.
    pub fn is_gpu(self) -> bool {
        matches!(
            self,
            PlatformId::A100 | PlatformId::Mi250x | PlatformId::Max1100
        )
    }
}

/// Processor organisation.
#[derive(Debug, Clone, Copy)]
pub enum ChipKind {
    /// Multicore CPU (possibly multi-socket).
    Cpu {
        /// Sockets in the node.
        sockets: usize,
        /// Physical cores per socket.
        cores_per_socket: usize,
        /// NUMA domains in the node.
        numa_domains: usize,
        /// f64 lanes per SIMD unit (AVX-512 = 8, NEON = 2).
        simd_f64_lanes: usize,
        /// Sustained all-core clock in GHz.
        freq_ghz: f64,
    },
    /// Massively-parallel GPU.
    Gpu {
        /// Compute units (SMs / CUs / Xe-cores).
        compute_units: usize,
        /// SIMT lanes per compute unit.
        lanes_per_cu: usize,
        /// Boost clock in GHz.
        freq_ghz: f64,
    },
}

impl ChipKind {
    /// Total hardware parallel lanes (cores or CUs×lanes).
    pub fn total_lanes(&self) -> usize {
        match *self {
            ChipKind::Cpu {
                sockets,
                cores_per_socket,
                simd_f64_lanes,
                ..
            } => sockets * cores_per_socket * simd_f64_lanes,
            ChipKind::Gpu {
                compute_units,
                lanes_per_cu,
                ..
            } => compute_units * lanes_per_cu,
        }
    }

    /// Physical cores (CPU) or compute units (GPU).
    pub fn cores(&self) -> usize {
        match *self {
            ChipKind::Cpu {
                sockets,
                cores_per_socket,
                ..
            } => sockets * cores_per_socket,
            ChipKind::Gpu { compute_units, .. } => compute_units,
        }
    }
}

/// One level of the cache hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct CacheLevel {
    /// 1, 2, or 3.
    pub level: u8,
    /// Total capacity in bytes across the chip.
    pub size_bytes: f64,
    /// Cache line size in bytes.
    pub line_bytes: f64,
    /// Aggregate bandwidth of this level in bytes/s.
    pub bandwidth: f64,
}

/// Main-memory characteristics.
#[derive(Debug, Clone, Copy)]
pub struct MemorySystem {
    /// Achieved STREAM-Triad bandwidth (paper Table 1), bytes/s.
    pub stream_bw: f64,
    /// Main-memory access latency in seconds.
    pub latency: f64,
    /// Fraction of STREAM that real (stencil/indirect) applications
    /// sustain — 1.0 on most parts; the Max 1100's low-clocked L2
    /// fabric caps real kernels well below its STREAM figure (its best
    /// paper efficiency is 82 % where the A100 reaches 92 %).
    pub app_sustained: f64,
}

/// Atomic-operation throughput.
#[derive(Debug, Clone, Copy)]
pub struct AtomicsSpec {
    /// Hardware floating-point atomic adds per second ("unsafe"/native).
    pub fp_add_per_s: f64,
    /// CAS-loop atomic updates per second (the "safe" path, and the only
    /// path on CPUs).
    pub cas_per_s: f64,
    /// Whether the fast FP path exists at all.
    pub has_native_fp: bool,
}

/// A complete platform description.
#[derive(Debug, Clone)]
pub struct Platform {
    pub id: PlatformId,
    /// Human-readable name as used in the paper.
    pub name: &'static str,
    pub chip: ChipKind,
    pub mem: MemorySystem,
    /// Host↔device interconnect bandwidth in bytes/s (`None` for CPUs —
    /// host memory *is* device memory). The calibration anchor of the
    /// pinned H2D link rate; pricing goes through
    /// [`interconnect`](Platform::interconnect).
    pub interconnect_bw: Option<f64>,
    /// Direction- and allocation-aware link model (the second tier of the
    /// cost hierarchy next to the STREAM roofs).
    pub interconnect: crate::interconnect::Interconnect,
    /// Cache hierarchy, outermost (last-level) first.
    pub caches: Vec<CacheLevel>,
    /// Native kernel-launch / parallel-region overhead in seconds.
    pub native_launch: f64,
    pub atomics: AtomicsSpec,
    /// Peak FP32 throughput, FLOP/s.
    pub fp32_flops: f64,
    /// Peak FP64 throughput, FLOP/s.
    pub fp64_flops: f64,
}

impl Platform {
    /// Last-level (largest) cache.
    pub fn llc(&self) -> CacheLevel {
        *self
            .caches
            .first()
            .expect("platforms always have at least one cache level")
    }

    /// Peak FLOP/s for the given precision.
    pub fn peak_flops(&self, prec: crate::footprint::Precision) -> f64 {
        match prec {
            crate::footprint::Precision::F32 => self.fp32_flops,
            crate::footprint::Precision::F64 => self.fp64_flops,
        }
    }

    /// Look up a platform model by id.
    pub fn get(id: PlatformId) -> Platform {
        match id {
            PlatformId::A100 => a100(),
            PlatformId::Mi250x => mi250x(),
            PlatformId::Max1100 => max1100(),
            PlatformId::Xeon8360Y => xeon8360y(),
            PlatformId::GenoaX => genoax(),
            PlatformId::Altra => altra(),
        }
    }
}

/// The models of [`PlatformId::ALL`], in its order.
pub fn all_platforms() -> Vec<Platform> {
    PlatformId::ALL.map(Platform::get).to_vec()
}

/// NVIDIA A100 40 GB PCIe: 108 SMs @ 1.41 GHz, 19.49 FP32 TFLOP/s,
/// STREAM 1310 GB/s, 40 MB L2.
pub fn a100() -> Platform {
    Platform {
        id: PlatformId::A100,
        name: "NVIDIA A100 40GB",
        chip: ChipKind::Gpu {
            compute_units: 108,
            lanes_per_cu: 64,
            freq_ghz: 1.41,
        },
        mem: MemorySystem {
            stream_bw: 1310.0 * GB,
            latency: 400.0e-9,
            app_sustained: 1.0,
        },
        interconnect_bw: Some(25.0 * GB),
        interconnect: crate::interconnect::Interconnect::pcie4(),
        caches: vec![
            CacheLevel {
                level: 2,
                size_bytes: 40.0e6,
                line_bytes: 32.0,
                bandwidth: 4500.0 * GB,
            },
            CacheLevel {
                level: 1,
                size_bytes: 108.0 * 192.0e3,
                line_bytes: 32.0,
                bandwidth: 19000.0 * GB,
            },
        ],
        native_launch: 6.0 * US,
        atomics: AtomicsSpec {
            // L2-resident FP atomics stream at close to memory rate —
            // this is why SYCL/CUDA atomics are the *fastest* MG-CFD
            // scheme on the A100 (paper Fig. 8).
            fp_add_per_s: 150.0e9,
            cas_per_s: 20.0e9,
            has_native_fp: true,
        },
        fp32_flops: 19.49e12,
        fp64_flops: 9.7e12,
    }
}

/// AMD MI250X, one GCD: 110 CUs @ 1.7 GHz, 23.95 FP32 TFLOP/s, STREAM
/// 1290 GB/s, 16 MB L2 (the figure the paper uses when contrasting cache
/// capacities). Kernel launch latency is notably higher than the A100 —
/// the paper attributes the larger boundary-loop fractions to it.
pub fn mi250x() -> Platform {
    Platform {
        id: PlatformId::Mi250x,
        name: "AMD MI250X (1 GCD)",
        chip: ChipKind::Gpu {
            compute_units: 110,
            lanes_per_cu: 64,
            freq_ghz: 1.7,
        },
        mem: MemorySystem {
            stream_bw: 1290.0 * GB,
            latency: 500.0e-9,
            app_sustained: 1.0,
        },
        interconnect_bw: Some(36.0 * GB),
        interconnect: crate::interconnect::Interconnect::infinity_fabric(),
        caches: vec![
            CacheLevel {
                level: 2,
                size_bytes: 16.0e6,
                line_bytes: 64.0,
                bandwidth: 3500.0 * GB,
            },
            CacheLevel {
                level: 1,
                size_bytes: 110.0 * 16.0e3,
                line_bytes: 64.0,
                bandwidth: 11000.0 * GB,
            },
        ],
        native_launch: 14.0 * US,
        atomics: AtomicsSpec {
            // "Unsafe" FP atomics are fast; the "safe" CAS path (all
            // OpenSYCL could reach, §4.3) is an order of magnitude off.
            fp_add_per_s: 100.0e9,
            cas_per_s: 22.0e9,
            has_native_fp: true,
        },
        fp32_flops: 23.95e12,
        fp64_flops: 23.95e12,
    }
}

/// Intel Data Center GPU Max 1100: 56 Xe-cores @ 1.55 GHz, STREAM
/// 803 GB/s, and — decisive for the paper's results — a 208 MB L2.
pub fn max1100() -> Platform {
    Platform {
        id: PlatformId::Max1100,
        name: "Intel Data Center GPU Max 1100",
        chip: ChipKind::Gpu {
            compute_units: 56,
            lanes_per_cu: 128,
            freq_ghz: 1.55,
        },
        mem: MemorySystem {
            stream_bw: 803.0 * GB,
            latency: 450.0e-9,
            app_sustained: 0.82,
        },
        interconnect_bw: Some(25.0 * GB),
        interconnect: crate::interconnect::Interconnect::pcie5(),
        caches: vec![
            CacheLevel {
                level: 2,
                size_bytes: 208.0e6,
                line_bytes: 64.0,
                bandwidth: 3200.0 * GB,
            },
            CacheLevel {
                level: 1,
                size_bytes: 56.0 * 512.0e3,
                line_bytes: 64.0,
                bandwidth: 8000.0 * GB,
            },
        ],
        native_launch: 4.0 * US,
        atomics: AtomicsSpec {
            // §4.3: "Atomics throughput in the Max 1100 appears to be
            // the limiting factor".
            fp_add_per_s: 40.0e9,
            cas_per_s: 8.0e9,
            has_native_fp: true,
        },
        fp32_flops: 22.2e12,
        fp64_flops: 11.1e12,
    }
}

/// Dual-socket Intel Xeon Platinum 8360Y (Ice Lake): 2×36 cores @ 2.4–2.8
/// GHz, AVX-512, STREAM 296 GB/s, 54 MB L3 per socket.
pub fn xeon8360y() -> Platform {
    Platform {
        id: PlatformId::Xeon8360Y,
        name: "Intel Xeon Platinum 8360Y (2S)",
        chip: ChipKind::Cpu {
            sockets: 2,
            cores_per_socket: 36,
            numa_domains: 2,
            simd_f64_lanes: 8,
            freq_ghz: 2.6,
        },
        mem: MemorySystem {
            stream_bw: 296.0 * GB,
            latency: 90.0e-9,
            app_sustained: 1.0,
        },
        interconnect_bw: None,
        interconnect: crate::interconnect::Interconnect::in_package(296.0 * GB),
        caches: vec![
            CacheLevel {
                level: 3,
                size_bytes: 2.0 * 54.0e6,
                line_bytes: 64.0,
                bandwidth: 900.0 * GB,
            },
            CacheLevel {
                level: 2,
                size_bytes: 72.0 * 1.25e6,
                line_bytes: 64.0,
                bandwidth: 2400.0 * GB,
            },
        ],
        native_launch: 3.0 * US,
        atomics: AtomicsSpec {
            // Uncontended CAS ≈ 0.4 G/s per core, aggregated.
            fp_add_per_s: 72.0 * 0.4e9,
            cas_per_s: 72.0 * 0.4e9,
            has_native_fp: false,
        },
        fp32_flops: 12.0e12,
        fp64_flops: 6.0e12,
    }
}

/// Dual-socket AMD EPYC 9V33X "Genoa-X": 2×88 cores @ 2.4–3.7 GHz,
/// AVX-512 (double-pumped), STREAM 561 GB/s, and 2×1.1 GB of stacked L3 —
/// the cache that produces the paper's >100 % "efficiency" results.
pub fn genoax() -> Platform {
    Platform {
        id: PlatformId::GenoaX,
        name: "AMD EPYC 9V33X Genoa-X (2S)",
        chip: ChipKind::Cpu {
            sockets: 2,
            cores_per_socket: 88,
            numa_domains: 4,
            simd_f64_lanes: 8,
            freq_ghz: 2.55,
        },
        mem: MemorySystem {
            stream_bw: 561.0 * GB,
            latency: 100.0e-9,
            app_sustained: 1.0,
        },
        interconnect_bw: None,
        interconnect: crate::interconnect::Interconnect::in_package(561.0 * GB),
        caches: vec![
            CacheLevel {
                level: 3,
                size_bytes: 2.0 * 1.1e9,
                line_bytes: 64.0,
                // Sustained, not peak: V-cache streaming bandwidth is
                // roughly 2× DRAM in practice.
                bandwidth: 1200.0 * GB,
            },
            CacheLevel {
                level: 2,
                size_bytes: 176.0 * 1.0e6,
                line_bytes: 64.0,
                bandwidth: 5200.0 * GB,
            },
        ],
        native_launch: 4.0 * US,
        atomics: AtomicsSpec {
            fp_add_per_s: 176.0 * 0.4e9,
            cas_per_s: 176.0 * 0.4e9,
            has_native_fp: false,
        },
        fp32_flops: 11.7e12,
        fp64_flops: 5.85e12,
    }
}

/// Single-socket Ampere Altra: 64 Neoverse-N1 cores @ 3.0 GHz, 2×128-bit
/// NEON, STREAM 167 GB/s, 32 MB system-level cache, single NUMA node.
pub fn altra() -> Platform {
    Platform {
        id: PlatformId::Altra,
        name: "Ampere Altra (1S)",
        chip: ChipKind::Cpu {
            sockets: 1,
            cores_per_socket: 64,
            numa_domains: 1,
            simd_f64_lanes: 2,
            freq_ghz: 3.0,
        },
        mem: MemorySystem {
            stream_bw: 167.0 * GB,
            latency: 110.0e-9,
            app_sustained: 1.0,
        },
        interconnect_bw: None,
        interconnect: crate::interconnect::Interconnect::in_package(167.0 * GB),
        caches: vec![
            CacheLevel {
                level: 3,
                size_bytes: 32.0e6,
                line_bytes: 64.0,
                bandwidth: 500.0 * GB,
            },
            CacheLevel {
                level: 2,
                size_bytes: 64.0 * 1.0e6,
                line_bytes: 64.0,
                bandwidth: 1500.0 * GB,
            },
        ],
        native_launch: 3.0 * US,
        atomics: AtomicsSpec {
            fp_add_per_s: 64.0 * 0.3e9,
            cas_per_s: 64.0 * 0.3e9,
            has_native_fp: false,
        },
        fp32_flops: 3.0e12,
        fp64_flops: 1.5e12,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_stream_bandwidths_match_the_paper() {
        // Paper Table 1, GB/s.
        let expect = [
            (PlatformId::Mi250x, 1290.0),
            (PlatformId::A100, 1310.0),
            (PlatformId::Max1100, 803.0),
            (PlatformId::Xeon8360Y, 296.0),
            (PlatformId::GenoaX, 561.0),
            (PlatformId::Altra, 167.0),
        ];
        for (id, gbs) in expect {
            let p = Platform::get(id);
            assert!(
                (p.mem.stream_bw / GB - gbs).abs() < 1e-9,
                "{}: {} GB/s",
                p.name,
                p.mem.stream_bw / GB
            );
        }
    }

    #[test]
    fn cache_capacity_ordering_matches_the_papers_narrative() {
        // §4.1: Max 1100 L2 (208 MB) > A100 L2 (40 MB) > MI250X L2 (16 MB);
        // §4.3: Genoa-X L3 = 2 × 1.1 GB dwarfs everything.
        let llc = |id| Platform::get(id).llc().size_bytes;
        assert!(llc(PlatformId::Max1100) > llc(PlatformId::A100));
        assert!(llc(PlatformId::A100) > llc(PlatformId::Mi250x));
        assert!(llc(PlatformId::GenoaX) > llc(PlatformId::Max1100));
    }

    #[test]
    fn labels_round_trip() {
        for p in all_platforms() {
            assert_eq!(PlatformId::parse(p.id.label()), Some(p.id));
        }
        assert_eq!(PlatformId::parse("notamachine"), None);
    }

    #[test]
    fn gpu_flag_is_correct() {
        assert!(PlatformId::A100.is_gpu());
        assert!(PlatformId::Mi250x.is_gpu());
        assert!(PlatformId::Max1100.is_gpu());
        assert!(!PlatformId::Xeon8360Y.is_gpu());
        assert!(!PlatformId::GenoaX.is_gpu());
        assert!(!PlatformId::Altra.is_gpu());
    }

    #[test]
    fn launch_latency_mi250x_exceeds_a100_and_max() {
        // §4.1: boundary loops cost more on the MI250X "due to higher
        // kernel launch latencies"; the Max 1100 spends the least time
        // in boundary computations.
        assert!(mi250x().native_launch > a100().native_launch);
        assert!(max1100().native_launch < a100().native_launch);
    }

    #[test]
    fn paper_fp32_peaks_are_respected() {
        assert!((a100().fp32_flops - 19.49e12).abs() < 1e9);
        assert!((mi250x().fp32_flops - 23.95e12).abs() < 1e9);
        assert!((altra().fp32_flops - 3.0e12).abs() < 1e9);
    }

    #[test]
    fn total_lanes_are_positive_and_gpu_exceeds_cpu() {
        let gpu = a100().chip.total_lanes();
        let cpu = xeon8360y().chip.total_lanes();
        assert!(gpu > cpu);
        for p in all_platforms() {
            assert!(p.chip.total_lanes() > 0);
            assert!(p.chip.cores() > 0);
        }
    }
}
