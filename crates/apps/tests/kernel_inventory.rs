//! Kernel-inventory tests: each application must launch exactly the
//! kernels its real counterpart is known for, with sensible per-kernel
//! cost ordering (interior sweeps dominate, boundary loops are flagged).

use miniapps::App;
use sycl_sim::{quirks::apps, PlatformId, Scheme, Session, SessionConfig, Toolchain};

fn dry(app: &str, scheme: Option<Scheme>) -> Session {
    let mut cfg = SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda)
        .app(app)
        .dry_run();
    if let Some(s) = scheme {
        cfg = cfg.scheme(s);
    }
    Session::create(cfg).unwrap()
}

fn kernel_names(session: &Session) -> Vec<String> {
    session
        .kernel_summary()
        .into_iter()
        .map(|(n, _, _)| n)
        .collect()
}

#[test]
fn cloverleaf2d_launches_the_hydro_kernel_chain() {
    let s = dry("cloverleaf2d", None);
    miniapps::CloverLeaf2d::paper().run(&s);
    let names = kernel_names(&s);
    for expect in [
        "ideal_gas",
        "viscosity",
        "update_halo",
        "calc_dt",
        "accelerate",
        "flux_calc",
        "advec_cell",
        "advec_mom",
        "pdv",
        "field_summary",
    ] {
        assert!(
            names.iter().any(|n| n == expect),
            "missing {expect}: {names:?}"
        );
    }
    // update_halo launches: 4 faces × 3 fields × 2 calls × 50 iters.
    let (_, _, halo_launches) = s
        .kernel_summary()
        .into_iter()
        .find(|(n, _, _)| n == "update_halo")
        .unwrap();
    assert_eq!(halo_launches, 4 * 3 * 2 * 50);
}

#[test]
fn cloverleaf3d_has_six_face_halo_updates() {
    let s = dry("cloverleaf3d", None);
    miniapps::CloverLeaf3d::paper().run(&s);
    let (_, _, halo_launches) = s
        .kernel_summary()
        .into_iter()
        .find(|(n, _, _)| n == "update_halo")
        .unwrap();
    assert_eq!(halo_launches, 6 * 3 * 2 * 50);
}

#[test]
fn opensbli_variants_have_their_signature_kernels() {
    let sa = dry("opensbli_sa", None);
    miniapps::OpenSbli::paper(miniapps::SbliVariant::StoreAll).run(&sa);
    let names = kernel_names(&sa);
    assert!(names.iter().any(|n| n == "sa_deriv"));
    assert!(names.iter().any(|n| n == "sa_rk_update"));
    assert!(!names.iter().any(|n| n == "sn_fused"));

    let sn = dry("opensbli_sn", None);
    miniapps::OpenSbli::paper(miniapps::SbliVariant::StoreNone).run(&sn);
    let names = kernel_names(&sn);
    assert!(names.iter().any(|n| n == "sn_fused"));
    assert!(!names.iter().any(|n| n == "sa_deriv"));
    // SA launches far more kernels (15 derivative sweeps per stage).
    assert!(sa.records().len() > sn.records().len());
}

#[test]
fn wave_apps_are_dominated_by_their_stencil_kernel() {
    for (app, main_kernel) in [("rtm", "wave_step"), ("acoustic", "acoustic_step")] {
        let s = dry(app, None);
        match app {
            "rtm" => {
                miniapps::Rtm::paper().run(&s);
            }
            _ => {
                miniapps::Acoustic::paper().run(&s);
            }
        }
        let summary = s.kernel_summary();
        assert_eq!(summary[0].0, main_kernel, "{app}: {summary:?}");
        // Dominance among *kernels*: staging/halo traffic is priced
        // into elapsed now, so compare against compute time only.
        let kernel_time = s.elapsed() - s.comm_time();
        assert!(
            summary[0].1 > 0.8 * kernel_time,
            "{app}: the wave kernel must dominate"
        );
    }
}

#[test]
fn mgcfd_visits_every_level_every_iteration() {
    let s = dry("mgcfd", Some(Scheme::Atomics));
    let app = miniapps::Mgcfd::paper();
    app.run(&s);
    let flux = s
        .kernel_summary()
        .into_iter()
        .find(|(n, _, _)| n == "compute_flux")
        .unwrap();
    assert_eq!(
        flux.2,
        app.iterations * app.levels,
        "one flux per level per iter"
    );
    let names = kernel_names(&s);
    for expect in ["time_step", "restrict", "residual_norm"] {
        assert!(names.iter().any(|n| n == expect), "missing {expect}");
    }
}

#[test]
fn explain_output_shows_the_costliest_kernel_first() {
    let s = dry("cloverleaf2d", None);
    miniapps::CloverLeaf2d::paper().run(&s);
    let text = s.explain();
    assert!(text.contains("update_halo"));
    assert!(text.contains("%"));
    // First data row is the top kernel by time.
    let top = s.kernel_summary()[0].0.clone();
    let first_data_line = text.lines().nth(2).unwrap();
    assert!(
        first_data_line.starts_with(&top),
        "explain must sort by cost: {first_data_line}"
    );
}

#[test]
fn every_app_prices_identically_across_repeat_runs() {
    // Determinism of the whole pricing pipeline.
    for name in apps::STRUCTURED {
        let app = miniapps::make_app(name, true).expect("a paper app");
        let t1 = {
            let s = dry(app.name(), None);
            app.run(&s).elapsed
        };
        let t2 = {
            let s = dry(app.name(), None);
            app.run(&s).elapsed
        };
        assert_eq!(t1.to_bits(), t2.to_bits(), "{}", app.name());
    }
}
