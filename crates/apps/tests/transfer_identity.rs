//! Bit-identity invariants of the priced-transfer model: how data
//! movement is priced must not perturb a single kernel record — only the
//! clock (comm time) may move. Pinned and pageable host allocations
//! price the same staging uploads, readbacks and halo copies at
//! different link rates, so their launch digests must agree while the
//! pageable clock runs strictly longer. The per-app ledgers themselves
//! are pinned in the root package's `tests/launch_digests.rs`.

use miniapps::App;
use sycl_sim::{PlatformId, Scheme, Session, SessionConfig, Toolchain};

fn config(app: &str) -> SessionConfig {
    SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app(app)
}

/// Run `app` on a pinned and a pageable session built from `cfg` and
/// check that only the clock differs.
fn assert_only_the_clock_moves(app: &dyn App, cfg: SessionConfig, label: &str) {
    let pinned = Session::create(cfg.clone()).unwrap();
    let pageable = Session::create(cfg.pageable_transfers()).unwrap();
    let a = app.run(&pinned);
    let b = app.run(&pageable);
    // The launch digest covers every record (name, time, bytes) but not
    // the clock: transfer pricing must be invisible to kernel pricing.
    assert_eq!(
        pinned.launch_digest(),
        pageable.launch_digest(),
        "{label}: kernel records diverge"
    );
    assert_eq!(a.validation.to_bits(), b.validation.to_bits(), "{label}");
    // Residency decisions do not depend on the link rate.
    assert_eq!(
        pinned.transfer_stats(),
        pageable.transfer_stats(),
        "{label}"
    );
    // But the pageable clock pays the bounce-buffer rate on every
    // staged upload and readback.
    assert!(pinned.comm_time() > 0.0, "{label}");
    assert!(
        pageable.elapsed() > pinned.elapsed(),
        "{label}: pageable {} vs pinned {}",
        pageable.elapsed(),
        pinned.elapsed()
    );
}

#[test]
fn cloverleaf2d_kernel_records_are_identical_pinned_or_pageable() {
    assert_only_the_clock_moves(
        &miniapps::CloverLeaf2d::test(),
        config("cloverleaf2d"),
        "cloverleaf2d",
    );
}

#[test]
fn mgcfd_kernel_records_are_identical_pinned_or_pageable() {
    for scheme in Scheme::all() {
        assert_only_the_clock_moves(
            &miniapps::Mgcfd::test(),
            config("mgcfd").scheme(scheme),
            &format!("mgcfd {scheme:?}"),
        );
    }
}

#[test]
fn transfers_and_exchanges_are_nonzero_on_every_platform() {
    // The acceptance bar for the interconnect model: no platform rides
    // for free any more — CPUs pay an in-package copy for staging.
    let toolchain_for = |p: PlatformId| match p {
        PlatformId::A100 => Toolchain::NativeCuda,
        PlatformId::Mi250x => Toolchain::NativeHip,
        PlatformId::Max1100 => Toolchain::Dpcpp,
        _ => Toolchain::OpenMp,
    };
    for p in [
        PlatformId::A100,
        PlatformId::Mi250x,
        PlatformId::Max1100,
        PlatformId::Xeon8360Y,
        PlatformId::GenoaX,
        PlatformId::Altra,
    ] {
        let s = Session::create(
            SessionConfig::new(p, toolchain_for(p))
                .app("cloverleaf2d")
                .dry_run(),
        )
        .unwrap();
        miniapps::CloverLeaf2d::paper().run(&s);
        assert!(s.comm_time() > 0.0, "{p:?}: staging/halos must be priced");
        let stats = s.transfer_stats();
        assert!(stats.real > 0, "{p:?}: no real transfer recorded");
    }
}
