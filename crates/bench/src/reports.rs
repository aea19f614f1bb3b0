//! The static and the dynamic correctness pass over the paper apps.
//!
//! [`lint`] records an app's launch graphs at its paper size on a dry
//! run and lints every distinct graph with `verify::dataflow`;
//! [`verify()`] runs the app live at its test size under the shadow
//! [`Verifier`]. Both run on the platform's native toolchain, and
//! `mgcfd` once per race-resolution scheme. [`lint_report`] and
//! [`verify_report`] render the committed `results/LINT_<app>.json`
//! and `results/VERIFY_<app>.json` (A100); the `graphlint` and
//! `analyze` binaries print the same findings for any platform.

use crate::native_toolchain;
use miniapps::make_app;
use std::sync::{Arc, Mutex};
use sycl_sim::{AtomicKind, Failure, GraphSummary, PlatformId, Scheme, Session, SessionConfig};
use telemetry::shadow::Shadow;
use verify::dataflow::{lint_graph, LintContext};
use verify::{report, Diagnostic, Verifier};

/// One linted run: the distinct graphs it replayed and their findings.
pub struct Linted {
    pub graphs: Vec<GraphSummary>,
    pub diagnostics: Vec<Diagnostic>,
}

/// One verified run: its ledger length, validation scalar and findings.
pub struct Verified {
    pub scheme: Option<Scheme>,
    pub launches: usize,
    pub validation: f64,
    pub diagnostics: Vec<Diagnostic>,
}

/// The runs behind one app's report: `mgcfd` under each scheme (its
/// report merges the three), every other app once.
fn schemes(app: &str) -> Vec<Option<Scheme>> {
    if app == "mgcfd" {
        [Scheme::Atomics, Scheme::GlobalColor, Scheme::HierColor]
            .map(Some)
            .to_vec()
    } else {
        vec![None]
    }
}

fn session(
    app: &str,
    platform: PlatformId,
    scheme: Option<Scheme>,
    dry: bool,
) -> Result<Session, Failure> {
    let mut cfg = SessionConfig::new(platform, native_toolchain(platform)).app(app);
    if let Some(s) = scheme {
        cfg = cfg.scheme(s);
    }
    if dry {
        cfg = cfg.dry_run();
    }
    Session::create(cfg)
}

fn lint_context(session: &Session) -> LintContext {
    let platform = session.platform();
    LintContext {
        ranks: session.ranks(),
        stream_bw: platform.mem.stream_bw,
        launch_overhead: session
            .config()
            .toolchain
            .backend(session.config().platform)
            .launch_overhead(platform),
        cas_atomics: session.atomic_kind() == AtomicKind::CasLoop,
        platform: platform.name.to_owned(),
    }
}

/// Lint every distinct graph `app` (one of `quirks::apps::ALL`)
/// replays at its paper size on `platform`. Fails if the app does not
/// run there.
pub fn lint(app: &str, platform: PlatformId) -> Result<Vec<Linted>, Failure> {
    schemes(app)
        .into_iter()
        .map(|scheme| {
            let session = session(app, platform, scheme, true)?;
            // Dats only acquire shadow ids (and names for diagnostics)
            // at creation time: enter a sink-less shadow before the app
            // allocates. Dry-run bodies never execute, so no per-access
            // instrumentation ever runs.
            let shadow = Shadow::enter(None);
            let seen: Arc<Mutex<Vec<GraphSummary>>> = Arc::default();
            let sink = Arc::clone(&seen);
            session.set_graph_observer(Some(Arc::new(move |s: &GraphSummary| {
                let mut v = sink.lock().unwrap_or_else(|e| e.into_inner());
                if !v.iter().any(|g| g.id == s.id) {
                    v.push(s.clone());
                }
            })));
            make_app(app, true).expect("a paper app").run(&session);
            session.set_graph_observer(None);

            let ctx = lint_context(&session);
            let graphs = std::mem::take(&mut *seen.lock().unwrap_or_else(|e| e.into_inner()));
            let diagnostics = graphs
                .iter()
                .flat_map(|g| lint_graph(g, &ctx, &|id| shadow.dat_name(id)))
                .collect();
            Ok(Linted {
                graphs,
                diagnostics,
            })
        })
        .collect()
}

/// Run `app` (one of `quirks::apps::ALL`) live at its test size on
/// `platform` under the access, plan and footprint passes. Fails if
/// the app does not run there.
pub fn verify(app: &str, platform: PlatformId) -> Result<Vec<Verified>, Failure> {
    schemes(app)
        .into_iter()
        .map(|scheme| {
            let session = session(app, platform, scheme, false)?;
            // Attach before the app allocates: datasets only register
            // with the shadow layer at creation time.
            let verifier = Verifier::attach(&session);
            let run = make_app(app, false).expect("a paper app").run(&session);
            let diagnostics = verifier.finish(&session);
            let launches = session.records().len();
            Ok(Verified {
                scheme,
                launches,
                validation: run.validation,
                diagnostics,
            })
        })
        .collect()
}

/// `results/LINT_<app>.json`: the A100 lint findings, repeats counted.
pub fn lint_report(app: &str) -> String {
    let runs = lint(app, PlatformId::A100).expect("every paper app runs on the A100");
    let diags: Vec<Diagnostic> = runs.into_iter().flat_map(|r| r.diagnostics).collect();
    report::render_app_report(app, &diags)
}

/// `results/VERIFY_<app>.json`: the A100 verifier findings, repeats
/// counted.
pub fn verify_report(app: &str) -> String {
    let runs = verify(app, PlatformId::A100).expect("every paper app runs on the A100");
    let diags: Vec<Diagnostic> = runs.into_iter().flat_map(|r| r.diagnostics).collect();
    report::render_app_report(app, &diags)
}
