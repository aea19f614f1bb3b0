//! Figure-level integration tests: the paper's qualitative claims must
//! hold in the simulation. Each test cites the section it reproduces.
//!
//! These run the paper-sized problems through dry-run sessions, so they
//! exercise the full pipeline (apps → DSLs → toolchains → machine
//! models) without allocating paper-sized fields.

use portability::{measure_structured, variants_for, StudyVariant};
use sycl_sim::{quirks::apps, PlatformId, Scheme, Toolchain};

/// The six structured-mesh apps at paper size, figure order.
fn structured_apps() -> impl Iterator<Item = Box<dyn miniapps::App>> {
    apps::STRUCTURED
        .into_iter()
        .map(|name| miniapps::make_app(name, true).expect("a paper app"))
}

fn runtime(app: &dyn miniapps::App, p: PlatformId, tc: Toolchain, nd: bool) -> Option<f64> {
    measure_structured(
        app,
        p,
        StudyVariant {
            toolchain: tc,
            nd_range: nd,
        },
    )
    .runtime
    .ok()
}

fn efficiency(app: &dyn miniapps::App, p: PlatformId, tc: Toolchain, nd: bool) -> Option<f64> {
    measure_structured(
        app,
        p,
        StudyVariant {
            toolchain: tc,
            nd_range: nd,
        },
    )
    .efficiency
}

#[test]
fn table1_bandwidths_are_within_10pct_of_the_paper() {
    let expect = [
        (PlatformId::Mi250x, 1290.0),
        (PlatformId::A100, 1310.0),
        (PlatformId::Max1100, 803.0),
        (PlatformId::Xeon8360Y, 296.0),
        (PlatformId::GenoaX, 561.0),
        (PlatformId::Altra, 167.0),
    ];
    let rows = bench_harness_rows();
    for (p, paper) in expect {
        let (_, _, got) = rows.iter().find(|(id, _, _)| *id == p).unwrap();
        assert!(
            (got - paper).abs() / paper < 0.10,
            "{p:?}: {got:.0} vs paper {paper:.0} GB/s"
        );
    }
}

fn bench_harness_rows() -> Vec<(PlatformId, Toolchain, f64)> {
    // Recompute Table 1 the same way the harness binary does.
    use babelstream::BabelStream;
    use sycl_sim::{Session, SessionConfig};
    [
        (PlatformId::Mi250x, Toolchain::NativeHip),
        (PlatformId::A100, Toolchain::NativeCuda),
        (PlatformId::Max1100, Toolchain::Dpcpp),
        (PlatformId::Xeon8360Y, Toolchain::MpiOpenMp),
        (PlatformId::GenoaX, Toolchain::MpiOpenMp),
        (PlatformId::Altra, Toolchain::OpenMp),
    ]
    .into_iter()
    .map(|(p, tc)| {
        let s = Session::create(SessionConfig::new(p, tc).app("babelstream").dry_run()).unwrap();
        let n = babelstream::table1_len(s.platform());
        (p, tc, BabelStream::triad_bandwidth(&s, n, 5) / 1e9)
    })
    .collect()
}

#[test]
fn fig2_a100_native_cuda_wins_but_sycl_ndrange_is_within_10pct() {
    // §4.1: "While the native CUDA does perform best, the SYCL nd_range
    // versions with both compilers are within 10%."
    for app in structured_apps() {
        let cuda = runtime(app.as_ref(), PlatformId::A100, Toolchain::NativeCuda, false).unwrap();
        for tc in [Toolchain::Dpcpp, Toolchain::OpenSycl] {
            let sycl = runtime(app.as_ref(), PlatformId::A100, tc, true).unwrap();
            assert!(
                sycl < cuda * 1.12,
                "{}: {} nd_range {sycl:.3}s vs CUDA {cuda:.3}s",
                app.name(),
                tc.label()
            );
        }
    }
}

#[test]
fn fig2_dpcpp_flat_is_pathological_on_cloverleaf2d() {
    // §4.1: "The DPC++ runtime chooses very poor workgroup sizes for a
    // few kernels, making the 2D version with the flat formulation
    // perform very poorly."
    let app = miniapps::CloverLeaf2d::paper();
    for gpu in [PlatformId::A100, PlatformId::Mi250x, PlatformId::Max1100] {
        let flat = runtime(&app, gpu, Toolchain::Dpcpp, false).unwrap();
        let nd = runtime(&app, gpu, Toolchain::Dpcpp, true).unwrap();
        assert!(flat > 2.0 * nd, "{gpu:?}: flat {flat:.2}s vs nd {nd:.2}s");
    }
}

#[test]
fn fig2_opensycl_flat_slows_cloverleaf3d_by_about_half() {
    // §4.1: "the OpenSYCL version chooses suboptimal workgroup sizes in
    // 3D, resulting in an almost 50% slowdown."
    let app = miniapps::CloverLeaf3d::paper();
    let flat = runtime(&app, PlatformId::A100, Toolchain::OpenSycl, false).unwrap();
    let nd = runtime(&app, PlatformId::A100, Toolchain::OpenSycl, true).unwrap();
    let slowdown = flat / nd;
    assert!(
        (1.3..3.0).contains(&slowdown),
        "OpenSYCL flat 3D slowdown = {slowdown:.2}"
    );
}

#[test]
fn fig2_dpcpp_outperforms_cuda_on_acoustic() {
    // §4.1: "SYCL compiled with DPC++ is highly competitive,
    // outperforming CUDA on Acoustic by 10%."
    let app = miniapps::Acoustic::paper();
    let cuda = runtime(&app, PlatformId::A100, Toolchain::NativeCuda, false).unwrap();
    let dpcpp = runtime(&app, PlatformId::A100, Toolchain::Dpcpp, true).unwrap();
    assert!(dpcpp < cuda, "DPC++ {dpcpp:.3}s vs CUDA {cuda:.3}s");
}

#[test]
fn fig3_mi250x_efficiency_is_consistently_below_the_a100() {
    // §4.1: "in contrast to the A100, the achieved architectural
    // efficiency is consistently lower" on the MI250X.
    for app in structured_apps() {
        let a100 = efficiency(app.as_ref(), PlatformId::A100, Toolchain::NativeCuda, false);
        let mi = efficiency(
            app.as_ref(),
            PlatformId::Mi250x,
            Toolchain::NativeHip,
            false,
        );
        assert!(
            mi.unwrap() < a100.unwrap() + 0.02,
            "{}: MI {:?} vs A100 {:?}",
            app.name(),
            mi,
            a100
        );
    }
}

#[test]
fn fig3_cray_offload_fails_only_cloverleaf3d() {
    // §4.1: OpenMP offload (Cray) is competitive "though failing on
    // CloverLeaf 3D".
    for app in structured_apps() {
        let r = measure_structured(
            app.as_ref(),
            PlatformId::Mi250x,
            StudyVariant {
                toolchain: Toolchain::OmpOffload,
                nd_range: false,
            },
        );
        if app.name() == "cloverleaf3d" {
            assert!(r.runtime.is_err());
        } else {
            assert!(r.runtime.is_ok(), "{} must run", app.name());
        }
    }
}

#[test]
fn fig4_max1100_sycl_ndrange_beats_omp_offload_by_about_30pct() {
    // §4.1: "On average, the DPC++ compiler with nd_range is 30.2%
    // faster than OpenMP offload."
    let mut ratios = Vec::new();
    for app in structured_apps() {
        let omp = runtime(
            app.as_ref(),
            PlatformId::Max1100,
            Toolchain::OmpOffload,
            false,
        )
        .unwrap();
        let dpcpp = runtime(app.as_ref(), PlatformId::Max1100, Toolchain::Dpcpp, true).unwrap();
        ratios.push(omp / dpcpp);
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        (1.15..1.8).contains(&avg),
        "Max 1100 offload/DPC++-nd ratio = {avg:.2}"
    );
}

#[test]
fn fig5_xeon_sycl_trails_native_on_cloverleaf_due_to_reductions() {
    // §4.2: reductions take 6-7x longer with SYCL on CPUs; CloverLeaf's
    // per-iteration dt reduction makes SYCL clearly slower there.
    let app = miniapps::CloverLeaf2d::paper();
    let native = runtime(&app, PlatformId::Xeon8360Y, Toolchain::MpiOpenMp, false).unwrap();
    for tc in [Toolchain::Dpcpp, Toolchain::OpenSycl] {
        let sycl = runtime(&app, PlatformId::Xeon8360Y, tc, true).unwrap();
        assert!(
            sycl > 1.3 * native,
            "{}: {sycl:.2}s vs native {native:.2}s",
            tc.label()
        );
    }
}

#[test]
fn fig6_genoax_cloverleaf2d_only_works_with_dpcpp_ndrange() {
    // §4.2 + §4.4.
    let app = miniapps::CloverLeaf2d::paper();
    let cases = [
        (Toolchain::Dpcpp, true, true),
        (Toolchain::Dpcpp, false, false),
        (Toolchain::OpenSycl, true, false),
        (Toolchain::OpenSycl, false, false),
    ];
    for (tc, nd, works) in cases {
        let m = measure_structured(
            &app,
            PlatformId::GenoaX,
            StudyVariant {
                toolchain: tc,
                nd_range: nd,
            },
        );
        assert_eq!(m.runtime.is_ok(), works, "{} nd={nd}", tc.label());
    }
}

#[test]
fn fig6_genoax_exceeds_100pct_efficiency_on_cloverleaf2d() {
    // §4.2: "Genoa-X achieves up to 107% efficiency on CloverLeaf 2D
    // thanks to its large L3 cache."
    let app = miniapps::CloverLeaf2d::paper();
    let best = [Toolchain::Mpi, Toolchain::MpiOpenMp]
        .into_iter()
        .filter_map(|tc| efficiency(&app, PlatformId::GenoaX, tc, false))
        .fold(0.0, f64::max);
    assert!(best > 0.95, "Genoa-X CloverLeaf 2D efficiency = {best:.2}");
}

#[test]
fn fig7_altra_has_no_dpcpp_and_sycl_acoustic_loses_vectorisation() {
    // §4.2.
    let app = miniapps::Acoustic::paper();
    let m = measure_structured(
        &app,
        PlatformId::Altra,
        StudyVariant {
            toolchain: Toolchain::Dpcpp,
            nd_range: true,
        },
    );
    assert!(m.runtime.is_err(), "oneAPI only supports x86");
    let omp = runtime(&app, PlatformId::Altra, Toolchain::OpenMp, false).unwrap();
    let sycl = runtime(&app, PlatformId::Altra, Toolchain::OpenSycl, true).unwrap();
    assert!(sycl > 1.2 * omp, "SYCL {sycl:.2}s vs OpenMP {omp:.2}s");
}

#[test]
fn fig8_gpu_scheme_ordering_atomics_beats_hierarchical_beats_global() {
    // §4.3: atomics (good ordering) fastest or tied, global colouring
    // far behind on every GPU.
    for gpu in [PlatformId::A100, PlatformId::Mi250x, PlatformId::Max1100] {
        let tc = match gpu {
            PlatformId::A100 => Toolchain::NativeCuda,
            PlatformId::Mi250x => Toolchain::NativeHip,
            _ => Toolchain::Dpcpp,
        };
        let t = |scheme| {
            portability::measure_mgcfd(
                gpu,
                StudyVariant {
                    toolchain: tc,
                    nd_range: true,
                },
                scheme,
            )
            .runtime
            .unwrap()
        };
        let atomics = t(Scheme::Atomics);
        let hier = t(Scheme::HierColor);
        let global = t(Scheme::GlobalColor);
        // §4.3: "Atomics throughput in the Max 1100 appears to be the
        // limiting factor" — there hierarchical may edge atomics out.
        let slack = if gpu == PlatformId::Max1100 {
            1.4
        } else {
            1.05
        };
        assert!(atomics <= hier * slack, "{gpu:?}");
        // Runtimes now include the staged H2D upload of the hierarchy,
        // a fixed cost both schemes pay — it compresses the ratio a
        // little, but global colouring must still be far behind.
        assert!(
            global > 1.4 * hier,
            "{gpu:?}: global {global:.2} hier {hier:.2}"
        );
    }
}

#[test]
fn fig8_mi250x_opensycl_atomics_suffer_from_safe_atomics() {
    // §4.3: OpenSYCL could not access the unsafe atomics on the MI250X.
    let hip = portability::measure_mgcfd(
        PlatformId::Mi250x,
        StudyVariant {
            toolchain: Toolchain::NativeHip,
            nd_range: true,
        },
        Scheme::Atomics,
    )
    .runtime
    .unwrap();
    let os = portability::measure_mgcfd(
        PlatformId::Mi250x,
        StudyVariant {
            toolchain: Toolchain::OpenSycl,
            nd_range: true,
        },
        Scheme::Atomics,
    )
    .runtime
    .unwrap();
    assert!(os > 1.5 * hip, "OpenSYCL {os:.2}s vs HIP {hip:.2}s");
}

#[test]
fn fig8_a100_opensycl_atomics_outperform_cuda() {
    // §4.3: "with OpenSYCL+atomics 18% faster than CUDA+atomics" on the
    // A100 (LLVM optimising the flux kernel harder).
    let cuda = portability::measure_mgcfd(
        PlatformId::A100,
        StudyVariant {
            toolchain: Toolchain::NativeCuda,
            nd_range: true,
        },
        Scheme::Atomics,
    )
    .runtime
    .unwrap();
    let os = portability::measure_mgcfd(
        PlatformId::A100,
        StudyVariant {
            toolchain: Toolchain::OpenSycl,
            nd_range: true,
        },
        Scheme::Atomics,
    )
    .runtime
    .unwrap();
    assert!(os < cuda, "OpenSYCL {os:.3}s vs CUDA {cuda:.3}s");
}

#[test]
fn fig9_cpu_mgcfd_mpi_beats_every_sycl_variant() {
    // §4.3/§4.4: auto-vectorising MPI is the best CPU implementation;
    // SYCL is 20-30%+ behind on every CPU platform.
    for cpu in [PlatformId::Xeon8360Y, PlatformId::GenoaX, PlatformId::Altra] {
        let mpi = portability::measure_mgcfd(
            cpu,
            StudyVariant {
                toolchain: Toolchain::Mpi,
                nd_range: false,
            },
            Scheme::Atomics,
        )
        .runtime
        .unwrap();
        for tc in [Toolchain::Dpcpp, Toolchain::OpenSycl] {
            for scheme in Scheme::all() {
                let m = portability::measure_mgcfd(
                    cpu,
                    StudyVariant {
                        toolchain: tc,
                        nd_range: true,
                    },
                    scheme,
                );
                if let Ok(t) = m.runtime {
                    assert!(
                        t > mpi,
                        "{cpu:?} {} {scheme:?}: {t:.2} vs MPI {mpi:.2}",
                        tc.label()
                    );
                }
            }
        }
    }
}

#[test]
fn section44_there_is_a_working_sycl_config_everywhere() {
    // §4.4: "there is at least one compiler and SYCL formulation that
    // works across all architectures and applications."
    for app in structured_apps() {
        for p in PlatformId::ALL {
            let works = variants_for(p)
                .into_iter()
                .filter(|v| v.toolchain.is_sycl())
                .any(|v| measure_structured(app.as_ref(), p, v).runtime.is_ok());
            assert!(works, "{} on {p:?}", app.name());
        }
    }
}

#[test]
fn section44_nd_range_is_never_slower_than_flat() {
    // Tuned shapes can only help (the paper's iterative-development
    // recommendation rests on this).
    for app in structured_apps() {
        for p in [PlatformId::A100, PlatformId::Mi250x, PlatformId::Max1100] {
            for tc in [Toolchain::Dpcpp, Toolchain::OpenSycl] {
                let (Some(flat), Some(nd)) = (
                    runtime(app.as_ref(), p, tc, false),
                    runtime(app.as_ref(), p, tc, true),
                ) else {
                    continue;
                };
                assert!(
                    nd <= flat * 1.01,
                    "{} {} on {p:?}: nd {nd:.3} vs flat {flat:.3}",
                    app.name(),
                    tc.label()
                );
            }
        }
    }
}
