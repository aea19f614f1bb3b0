//! End-to-end graphlint checks against the real applications.
//!
//! These mirror the `graphlint` binary's pipeline — dry-run session,
//! shadow registry on before the app allocates, graph observer, static
//! lint — and pin the two acceptance properties: the paper apps lint
//! clean, and the analysis finds the known-fusable CloverLeaf 2D
//! kernel pair with a modelled saving.

use bench_harness::{make_app, native_toolchain, APP_NAMES};
use std::sync::{Arc, Mutex};
use sycl_sim::{AtomicKind, GraphSummary, PlatformId, Session, SessionConfig};
use telemetry::shadow::Shadow;
use verify::dataflow::{lint_graph, LintContext};
use verify::{Diagnostic, Severity};

/// Run `app` at test size on a dry-run session and lint every graph it
/// records, exactly as the `graphlint` binary does.
fn lint_app(app_name: &str, platform: PlatformId) -> Vec<Diagnostic> {
    let toolchain = native_toolchain(platform);
    let session = Session::create(
        SessionConfig::new(platform, toolchain)
            .app(app_name)
            .dry_run(),
    )
    .unwrap();
    let shadow = Shadow::enter(None);

    let summaries: Arc<Mutex<Vec<GraphSummary>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&summaries);
    session.set_graph_observer(Some(Arc::new(move |s: &GraphSummary| {
        let mut v = sink.lock().unwrap_or_else(|e| e.into_inner());
        if !v.iter().any(|g| g.id == s.id) {
            v.push(s.clone());
        }
    })));
    let app = make_app(app_name, false).expect("known app");
    app.run(&session);
    session.set_graph_observer(None);

    let ctx = LintContext {
        ranks: session.ranks(),
        stream_bw: session.platform().mem.stream_bw,
        launch_overhead: toolchain
            .backend(session.config().platform)
            .launch_overhead(session.platform()),
        cas_atomics: session.atomic_kind() == AtomicKind::CasLoop,
        platform: session.platform().name.to_owned(),
    };
    let summaries = summaries.lock().unwrap_or_else(|e| e.into_inner());
    let diags = summaries
        .iter()
        .flat_map(|g| lint_graph(g, &ctx, &|id| shadow.dat_name(id)))
        .collect();
    diags
}

/// The acceptance fusion chain: CloverLeaf 2D's `ideal_gas` and
/// `viscosity` are adjacent, same-range, hazard-free point/stencil
/// launches sharing density, energy and pressure — the lint must
/// surface the pair with a modelled bytes-saved estimate.
#[test]
fn cloverleaf2d_reports_the_known_fusable_kernel_pair() {
    let diags = lint_app("cloverleaf2d", PlatformId::A100);
    assert!(
        !diags.iter().any(|d| d.severity == Severity::Error),
        "{diags:?}"
    );
    let fusion = diags
        .iter()
        .find(|d| d.kernel.contains("ideal_gas") && d.kernel.contains("viscosity"))
        .expect("ideal_gas+viscosity fusion candidate");
    assert_eq!(fusion.severity, Severity::Info);
    assert!(
        fusion.detail.contains("fusion candidate"),
        "{}",
        fusion.detail
    );
    assert!(fusion.detail.contains("MB"), "{}", fusion.detail);
}

/// Every app's recorded graphs lint free of Error-severity findings on
/// both a single-rank GPU and a multi-rank CPU decomposition (where the
/// halo-coverage lints are live).
#[test]
fn every_app_lints_clean_on_gpu_and_cpu() {
    for platform in [PlatformId::A100, PlatformId::Xeon8360Y] {
        for app_name in APP_NAMES {
            let diags = lint_app(app_name, platform);
            let errors: Vec<&Diagnostic> = diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            assert!(
                errors.is_empty(),
                "{app_name} on {}: {errors:?}",
                platform.label()
            );
        }
    }
}
