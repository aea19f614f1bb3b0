//! Cross-crate functional tests: the *numerics* of every application must
//! be identical no matter which platform/toolchain session prices them —
//! the whole point of a portable programming model.

use miniapps::App;
use op2_dsl::Ordering;
use sycl_sim::{quirks::apps, PlatformId, Scheme, Session, SessionConfig, SyclVariant, Toolchain};

/// Sessions spanning GPU/CPU, native/SYCL, flat/nd_range.
fn sessions_for(app: &str) -> Vec<Session> {
    let mk =
        |p, tc, v: SyclVariant| Session::create(SessionConfig::new(p, tc).variant(v).app(app)).ok();
    [
        mk(PlatformId::A100, Toolchain::NativeCuda, SyclVariant::Flat),
        mk(
            PlatformId::Mi250x,
            Toolchain::Dpcpp,
            SyclVariant::NdRange([64, 4, 1]),
        ),
        mk(PlatformId::Xeon8360Y, Toolchain::Mpi, SyclVariant::Flat),
        mk(PlatformId::Altra, Toolchain::OpenSycl, SyclVariant::Flat),
    ]
    .into_iter()
    .flatten()
    .collect()
}

fn assert_validation_identical(app: &dyn App) {
    let mut reference: Option<f64> = None;
    for session in sessions_for(app.name()) {
        let run = app.run(&session);
        assert!(run.validation.is_finite(), "{}", app.name());
        match reference {
            None => reference = Some(run.validation),
            Some(r) => assert_eq!(
                r.to_bits(),
                run.validation.to_bits(),
                "{}: validation differs across sessions ({r} vs {})",
                app.name(),
                run.validation
            ),
        }
    }
}

#[test]
fn cloverleaf2d_numerics_are_platform_independent() {
    assert_validation_identical(&miniapps::CloverLeaf2d::test());
}

#[test]
fn cloverleaf3d_numerics_are_platform_independent() {
    assert_validation_identical(&miniapps::CloverLeaf3d::test());
}

#[test]
fn opensbli_numerics_are_platform_independent() {
    assert_validation_identical(&miniapps::OpenSbli::test(miniapps::SbliVariant::StoreAll));
    assert_validation_identical(&miniapps::OpenSbli::test(miniapps::SbliVariant::StoreNone));
}

#[test]
fn rtm_numerics_are_platform_independent() {
    assert_validation_identical(&miniapps::Rtm::test());
}

#[test]
fn acoustic_numerics_are_platform_independent() {
    assert_validation_identical(&miniapps::Acoustic::test());
}

#[test]
fn mgcfd_colouring_numerics_are_platform_independent() {
    // Colour-based schemes are deterministic, so the residual must be
    // bit-identical across sessions.
    let app = miniapps::Mgcfd::test();
    let mut reference: Option<f64> = None;
    for p in [PlatformId::A100, PlatformId::GenoaX] {
        let tc = if p.is_gpu() {
            Toolchain::Dpcpp
        } else {
            Toolchain::OpenSycl
        };
        let s = Session::create(
            SessionConfig::new(p, tc)
                .app("mgcfd")
                .scheme(Scheme::HierColor),
        )
        .unwrap();
        let run = app.run(&s);
        match reference {
            None => reference = Some(run.validation),
            Some(r) => assert_eq!(r.to_bits(), run.validation.to_bits()),
        }
    }
}

#[test]
fn timing_differs_even_when_numerics_agree() {
    // The other half of the contract: identical results, different
    // simulated clocks.
    let app = miniapps::Rtm::test();
    let mut times = Vec::new();
    for session in sessions_for(app.name()) {
        app.run(&session);
        times.push(session.elapsed());
    }
    times.sort_by(f64::total_cmp);
    assert!(
        times.last().unwrap() > &(times[0] * 1.05),
        "platforms must differ in simulated time: {times:?}"
    );
}

#[test]
fn dry_and_live_runs_price_identically() {
    // A dry run must commit, by bits, the ledger its executing run
    // commits: footprints, colour passes and transfers depend only on
    // sizes and meshes, never on the values a body computes. Every app
    // at test size, MG-CFD under every scheme and on a shuffled mesh.
    let mut cases: Vec<(String, Box<dyn App>, Option<Scheme>)> = Vec::new();
    for name in apps::ALL {
        let schemes = if name == apps::MGCFD {
            Scheme::all().map(Some).to_vec()
        } else {
            vec![None]
        };
        for scheme in schemes {
            let app = miniapps::make_app(name, false).expect("an app name");
            cases.push((format!("{name}/{scheme:?}"), app, scheme));
        }
    }
    for scheme in [Scheme::GlobalColor, Scheme::HierColor] {
        let shuffled = miniapps::Mgcfd {
            grid: Some((24, 24, 12)),
            levels: 3,
            ordering: Ordering::Shuffled(5),
            ..miniapps::Mgcfd::test()
        };
        cases.push((
            format!("mgcfd/shuffled/{scheme:?}"),
            Box::new(shuffled),
            Some(scheme),
        ));
    }
    let mut differing = Vec::new();
    for (label, app, scheme) in &cases {
        let priced = |dry: bool| {
            let mut cfg =
                SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app(app.name());
            if let Some(s) = scheme {
                cfg = cfg.scheme(*s);
            }
            if dry {
                cfg = cfg.dry_run();
            }
            let session = Session::create(cfg).unwrap();
            let elapsed = app.run(&session).elapsed;
            (
                session.launch_digest(),
                session.ledger_digest(),
                elapsed.to_bits(),
            )
        };
        let (live, dry) = (priced(false), priced(true));
        if live != dry {
            differing.push(format!("{label}: live {live:x?} vs dry {dry:x?}"));
        }
    }
    assert!(
        differing.is_empty(),
        "(launch digest, ledger digest, elapsed bits) differ:\n{}",
        differing.join("\n")
    );
}

#[test]
fn pricing_cache_is_launch_for_launch_equivalent() {
    // The launch-pricing cache is a pure memoisation: a session with it
    // disabled must produce the identical ledger — every record's name,
    // time, and byte accounting, in the same order — and identical
    // numerics.
    let app = miniapps::CloverLeaf2d::test();
    let cached = Session::create(
        SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app(app.name()),
    )
    .unwrap();
    let uncached = Session::create(
        SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda)
            .app(app.name())
            .no_pricing_cache(),
    )
    .unwrap();
    let run_cached = app.run(&cached);
    let run_uncached = app.run(&uncached);
    assert_eq!(
        run_cached.validation.to_bits(),
        run_uncached.validation.to_bits()
    );
    {
        // `records()` borrows the ledger; both guards must drop before
        // `elapsed()` below takes the same locks again.
        let rc = cached.records();
        let ru = uncached.records();
        assert_eq!(rc.len(), ru.len());
        assert!(
            rc.len() > 50,
            "CloverLeaf must relaunch kernels enough to exercise the cache"
        );
        for (a, b) in rc.iter().zip(ru.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.items, b.items);
            assert_eq!(a.boundary, b.boundary);
            assert_eq!(a.time.total.to_bits(), b.time.total.to_bits(), "{}", a.name);
            assert_eq!(
                a.effective_bytes.to_bits(),
                b.effective_bytes.to_bits(),
                "{}",
                a.name
            );
        }
    }
    assert_eq!(cached.elapsed().to_bits(), uncached.elapsed().to_bits());
}
