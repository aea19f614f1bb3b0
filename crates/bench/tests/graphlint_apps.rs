//! End-to-end graphlint checks against the real applications, through
//! the pipeline behind `graphlint` and `results/LINT_<app>.json`
//! ([`bench_harness::reports::lint`]). They pin the two acceptance
//! properties: the paper apps lint clean, and the analysis finds the
//! known-fusable CloverLeaf 2D kernel pair with a modelled saving.

use bench_harness::reports;
use sycl_sim::{quirks::apps, PlatformId};
use verify::{Diagnostic, Severity};

/// Every finding of `app`'s recorded graphs on `platform`.
fn lint_app(app_name: &str, platform: PlatformId) -> Vec<Diagnostic> {
    reports::lint(app_name, platform)
        .expect("paper apps run on their platform's native toolchain")
        .into_iter()
        .flat_map(|r| r.diagnostics)
        .collect()
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
        for app_name in apps::ALL {
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
