//! Graph-lint regression fixtures: each test records a real launch
//! graph through the DSL with exactly one seeded defect — a dead
//! transfer, a removed halo exchange, a tampered write-write ordering,
//! unbalanced phases, a duplicated exchange — and asserts the static
//! dataflow lint reports it at the right severity naming the offending
//! kernel.
//!
//! Unlike the unit tests in `verify::dataflow`, these go through the
//! full record pipeline: `ParLoop::record` derives the declarative
//! metadata, `GraphBuilder` snapshots it, and `lint_graph` analyses the
//! summary — so a regression anywhere in that chain trips them.

use ops_dsl::prelude::*;
use sycl_sim::{GraphSummary, PlatformId, Session, SessionConfig, Toolchain};
use telemetry::shadow::{Scope, Shadow};
use verify::dataflow::{lint_graph, LintContext};
use verify::{has_errors, Diagnostic, Severity};

/// A dry-run session plus a sink-less shadow, current on this thread
/// until the scope drops, that names the dats the fixture allocates.
fn shadow_session(app: &str) -> (Session, Scope) {
    let shadow = Shadow::enter(None);
    let s = Session::create(
        SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda)
            .app(app)
            .dry_run(),
    )
    .unwrap();
    (s, shadow)
}

fn ctx() -> LintContext {
    LintContext {
        ranks: 4,
        stream_bw: 1e12,
        launch_overhead: 5e-6,
        cas_atomics: false,
        platform: "fixture".to_owned(),
    }
}

fn lint(shadow: &Shadow, summary: &GraphSummary) -> Vec<Diagnostic> {
    lint_graph(summary, &ctx(), &|id| shadow.dat_name(id))
}

/// `a -> exchange -> stencil read`, with `b` draining the result: the
/// healthy shape every defect fixture perturbs.
#[test]
fn the_healthy_fixture_graph_lints_clean() {
    let (s, shadow) = shadow_session("fix_clean");
    let block = Block::new_2d(8, 8, 2);
    let a = ops_dsl::Dat::<f64>::zeroed(&block, "a");
    let b = ops_dsl::Dat::<f64>::zeroed(&block, "b");
    let (am, bm) = (a.meta(), b.meta());
    let mut g = s.record();
    ParLoop::new("producer", block.interior())
        .read(bm, Stencil::point())
        .write(am)
        .flops(1.0)
        .record(&mut g, |_t| {});
    g.exchange_dats(64.0, 4, vec![am.id]);
    ParLoop::new("consumer", block.interior())
        .read(am, Stencil::star_2d(1))
        .write(bm)
        .flops(1.0)
        .record(&mut g, |_t| {});
    let summary = g.finish().summary();
    drop(s);

    // Lint while the registry still holds the dat names.
    let diags = lint(&shadow, &summary);
    assert!(
        !diags.iter().any(|d| d.severity >= Severity::Warning),
        "{diags:?}"
    );
}

#[test]
fn an_injected_dead_transfer_is_an_error_naming_the_clobbering_kernel() {
    let (s, shadow) = shadow_session("fix_transfer");
    let block = Block::new_2d(8, 8, 2);
    let a = ops_dsl::Dat::<f64>::zeroed(&block, "a");
    let b = ops_dsl::Dat::<f64>::zeroed(&block, "b");
    let (am, bm) = (a.meta(), b.meta());
    let mut g = s.record();
    // The defect: a transfer delivers `a`, then `clobber` overwrites it
    // before anything reads the transferred bytes.
    g.upload_dats(512.0, vec![am.id]);
    ParLoop::new("clobber", block.interior())
        .read(bm, Stencil::point())
        .write(am)
        .flops(1.0)
        .record(&mut g, |_t| {});
    ParLoop::new("drain", block.interior())
        .read(am, Stencil::point())
        .write(bm)
        .flops(1.0)
        .record(&mut g, |_t| {});
    let summary = g.finish().summary();
    drop(s);

    // Lint while the registry still holds the dat names.
    let diags = lint(&shadow, &summary);
    assert!(has_errors(&diags), "{diags:?}");
    let d = diags
        .iter()
        .find(|d| d.detail.contains("transfer delivers"))
        .expect("dead transfer finding");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.detail.contains(" a "), "{}", d.detail);
    assert!(d.detail.contains("clobber"), "{}", d.detail);
}

#[test]
fn a_removed_halo_exchange_is_an_error_naming_the_stencil_reader() {
    let (s, shadow) = shadow_session("fix_halo");
    let block = Block::new_2d(8, 8, 2);
    let a = ops_dsl::Dat::<f64>::zeroed(&block, "a");
    let b = ops_dsl::Dat::<f64>::zeroed(&block, "b");
    let (am, bm) = (a.meta(), b.meta());
    let mut g = s.record();
    // Same shape as the healthy graph minus its exchange.
    ParLoop::new("producer", block.interior())
        .read(bm, Stencil::point())
        .write(am)
        .flops(1.0)
        .record(&mut g, |_t| {});
    ParLoop::new("halo_reader", block.interior())
        .read(am, Stencil::star_2d(2))
        .write(bm)
        .flops(1.0)
        .record(&mut g, |_t| {});
    let summary = g.finish().summary();
    drop(s);

    // Lint while the registry still holds the dat names.
    let diags = lint(&shadow, &summary);
    assert!(has_errors(&diags), "{diags:?}");
    let d = diags
        .iter()
        .find(|d| d.severity == Severity::Error)
        .unwrap();
    assert_eq!(d.kernel, "halo_reader");
    assert!(d.detail.contains("no recorded exchange"), "{}", d.detail);

    // On a single rank there is no halo to refresh: the same graph is
    // clean.
    let single = LintContext { ranks: 1, ..ctx() };
    let diags = lint_graph(&summary, &single, &|_| None);
    assert!(!has_errors(&diags), "{diags:?}");
}

#[test]
fn a_tampered_write_write_ordering_is_a_dead_write_error() {
    let (s, shadow) = shadow_session("fix_waw");
    let block = Block::new_2d(8, 8, 2);
    let a = ops_dsl::Dat::<f64>::zeroed(&block, "a");
    let b = ops_dsl::Dat::<f64>::zeroed(&block, "b");
    let (am, bm) = (a.meta(), b.meta());
    let mut g = s.record();
    // The defect: `stale_writer`'s output is clobbered by `fresh_writer`
    // before any launch reads it — a WAW pair the recorded order makes
    // pointless on every replay.
    ParLoop::new("stale_writer", block.interior())
        .read(bm, Stencil::point())
        .write(am)
        .flops(1.0)
        .record(&mut g, |_t| {});
    ParLoop::new("fresh_writer", block.interior())
        .read(bm, Stencil::point())
        .write(am)
        .flops(1.0)
        .record(&mut g, |_t| {});
    ParLoop::new("drain", block.interior())
        .read(am, Stencil::point())
        .write(bm)
        .flops(1.0)
        .record(&mut g, |_t| {});
    let summary = g.finish().summary();
    drop(s);

    // Lint while the registry still holds the dat names.
    let diags = lint(&shadow, &summary);
    assert!(has_errors(&diags), "{diags:?}");
    let d = diags
        .iter()
        .find(|d| d.detail.contains("dead on every replay"))
        .expect("dead write finding");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.kernel, "stale_writer");
    assert!(d.detail.contains("fresh_writer"), "{}", d.detail);
}

#[test]
fn unbalanced_phases_recorded_by_the_builder_are_lint_errors() {
    let (s, shadow) = shadow_session("fix_phase");
    let block = Block::new_2d(8, 8, 2);
    let a = ops_dsl::Dat::<f64>::zeroed(&block, "a");
    let b = ops_dsl::Dat::<f64>::zeroed(&block, "b");
    let (am, bm) = (a.meta(), b.meta());
    let mut g = s.record();
    g.phase("left_open");
    ParLoop::new("producer", block.interior())
        .read(bm, Stencil::point())
        .write(am)
        .flops(1.0)
        .record(&mut g, |_t| {});
    ParLoop::new("drain", block.interior())
        .read(am, Stencil::point())
        .write(bm)
        .flops(1.0)
        .record(&mut g, |_t| {});
    // No end_phase: the builder records the structural defect.
    let summary = g.finish().summary();
    drop(s);

    // Lint while the registry still holds the dat names.
    let diags = lint(&shadow, &summary);
    assert!(has_errors(&diags), "{diags:?}");
    let d = diags
        .iter()
        .find(|d| d.detail.contains("unbalanced phase nesting"))
        .expect("phase defect finding");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.detail.contains("left_open"), "{}", d.detail);
}

#[test]
fn a_duplicated_exchange_is_a_redundancy_warning() {
    let (s, shadow) = shadow_session("fix_redundant");
    let block = Block::new_2d(8, 8, 2);
    let a = ops_dsl::Dat::<f64>::zeroed(&block, "a");
    let b = ops_dsl::Dat::<f64>::zeroed(&block, "b");
    let (am, bm) = (a.meta(), b.meta());
    let mut g = s.record();
    ParLoop::new("producer", block.interior())
        .read(bm, Stencil::point())
        .write(am)
        .flops(1.0)
        .record(&mut g, |_t| {});
    g.exchange_dats(64.0, 4, vec![am.id]);
    g.exchange_dats(64.0, 4, vec![am.id]);
    ParLoop::new("consumer", block.interior())
        .read(am, Stencil::star_2d(1))
        .write(bm)
        .flops(1.0)
        .record(&mut g, |_t| {});
    let summary = g.finish().summary();
    drop(s);

    // Lint while the registry still holds the dat names.
    let diags = lint(&shadow, &summary);
    assert!(!has_errors(&diags), "redundancy is a warning: {diags:?}");
    assert!(
        diags.iter().any(|d| d.severity == Severity::Warning
            && d.detail.contains("identical halo bytes")
            && d.detail.contains("[a]")),
        "{diags:?}"
    );
}
