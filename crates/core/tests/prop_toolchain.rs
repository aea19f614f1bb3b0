//! Property-style tests of the toolchain models and session machinery,
//! driven by deterministic parameter sweeps (no external property-test
//! framework: the workspace builds offline with the standard library).

use machine_model::{AccessProfile, KernelFootprint, Precision, StencilProfile};
use sycl_sim::{
    Kernel, KernelTraits, Platform, PlatformId, Session, SessionConfig, SyclVariant, Toolchain,
};

const ALL_TOOLCHAINS: [Toolchain; 8] = [
    Toolchain::NativeCuda,
    Toolchain::NativeHip,
    Toolchain::OmpOffload,
    Toolchain::Mpi,
    Toolchain::MpiOpenMp,
    Toolchain::OpenMp,
    Toolchain::Dpcpp,
    Toolchain::OpenSycl,
];

fn stencil_kernel(nx: usize, ny: usize, nz: usize, radius: usize) -> Kernel {
    let pts = nx * ny * nz;
    Kernel::new(KernelFootprint {
        name: "prop".into(),
        items: pts as u64,
        effective_bytes: 24.0 * pts as f64,
        flops: 10.0 * pts as f64,
        transcendentals: 0.0,
        precision: Precision::F64,
        access: AccessProfile::Stencil(StencilProfile {
            domain: [nx, ny, nz],
            radius: [radius, radius, if nz > 1 { radius } else { 0 }],
            dats_read: 2,
            dats_written: 1,
        }),
        atomics: None,
        reductions: 0,
    })
}

/// Deterministic xorshift64* stream for test inputs.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn int(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo)
    }

    fn flag(&mut self) -> bool {
        self.next_u64().is_multiple_of(2)
    }
}

#[test]
fn workgroups_fit_the_domain() {
    let mut rng = XorShift::new(7);
    for _ in 0..64 {
        let nx = rng.int(1, 2048);
        let ny = rng.int(1, 512);
        let nz = rng.int(1, 64);
        let radius = rng.int(0, 5);
        let tc = ALL_TOOLCHAINS[rng.int(0, 8)];
        let nd = rng.flag();
        let sx = rng.int(1, 2048);
        let sy = rng.int(1, 64);
        let kernel = stencil_kernel(nx, ny, nz, radius);
        let variant = if nd {
            SyclVariant::NdRange([sx, sy, 1])
        } else {
            SyclVariant::Flat
        };
        for pid in PlatformId::ALL {
            let p = Platform::get(pid);
            let wg = tc.workgroup(&p, variant, &kernel);
            assert!(wg[0] >= 1 && wg[1] >= 1 && wg[2] >= 1);
            if pid.is_gpu() {
                // GPU work-groups are sub-tiles of the iteration domain.
                assert!(wg[0] <= nx.max(1), "{wg:?} vs domain x {nx}");
                assert!(wg[1] <= ny.max(1));
                assert!(wg[2] <= nz.max(1));
            } else {
                // CPU "work-groups" are linear per-thread chunks.
                assert_eq!(wg[1], 1);
                assert_eq!(wg[2], 1);
                assert!(wg[0] <= 4096);
            }
        }
    }
}

#[test]
fn vector_efficiency_bounds() {
    for tc in ALL_TOOLCHAINS {
        // All 16 trait combinations, exhaustively.
        for bits in 0u32..16 {
            let mut kernel = stencil_kernel(64, 64, 64, 1);
            kernel.traits = KernelTraits {
                stride_one_inner: bits & 1 != 0,
                indirect_writes: bits & 2 != 0,
                complex_body: bits & 4 != 0,
                hard_on_neon: bits & 8 != 0,
            };
            for pid in PlatformId::ALL {
                let p = Platform::get(pid);
                let eff = tc.vector_efficiency(&p, &kernel);
                if pid.is_gpu() {
                    assert_eq!(eff, 1.0);
                } else {
                    assert!((0.01..=1.2).contains(&eff), "{pid:?} {tc:?}: {eff}");
                }
            }
        }
    }
}

#[test]
fn session_creation_is_total() {
    // Exhaustive: 6 platforms × 8 toolchains × 2 variants × 7 apps × 4 schemes.
    for pid in PlatformId::ALL {
        for tc in ALL_TOOLCHAINS {
            for nd in [false, true] {
                for app in sycl_sim::quirks::apps::ALL {
                    for scheme_i in 0..4 {
                        let mut cfg = SessionConfig::new(pid, tc)
                            .variant(if nd {
                                SyclVariant::NdRange([64, 4, 1])
                            } else {
                                SyclVariant::Flat
                            })
                            .app(app);
                        if scheme_i < 3 {
                            cfg = cfg.scheme(sycl_sim::Scheme::all()[scheme_i]);
                        }
                        match Session::create(cfg) {
                            Ok(s) => assert!(s.elapsed() == 0.0),
                            Err(f) => assert!(!f.detail.is_empty()),
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn launches_keep_the_ledger_consistent() {
    let mut rng = XorShift::new(37);
    for _ in 0..32 {
        let n_kernels = rng.int(1, 12);
        let sizes: Vec<u64> = (0..rng.int(1, 12))
            .map(|_| rng.int(1, 1 << 22) as u64)
            .collect();
        let s = Session::create(SessionConfig::new(PlatformId::A100, Toolchain::Dpcpp).app("prop"))
            .unwrap();
        let mut expect_total = 0.0;
        for &size in sizes.iter().take(n_kernels) {
            let k = Kernel::streaming("k", size, 24.0 * size as f64, 0.0);
            let (_, t) = s.launch_timed(&k, || ());
            expect_total += t.total;
        }
        assert!((s.elapsed() - expect_total).abs() < 1e-12);
        assert_eq!(s.records().len(), n_kernels.min(sizes.len()));
        let bf = s.boundary_fraction();
        assert!((0.0..=1.0).contains(&bf));
    }
}

#[test]
fn backend_matches_platform_kind() {
    for pid in PlatformId::ALL {
        for tc in ALL_TOOLCHAINS {
            if tc.supports(pid) {
                let backend = tc.backend(pid);
                assert_eq!(
                    backend.is_host(),
                    !pid.is_gpu(),
                    "{tc:?} on {pid:?} -> {backend:?}"
                );
            }
        }
    }
}
