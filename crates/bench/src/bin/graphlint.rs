//! `graphlint` — static dataflow and hazard/fusion linting over the
//! launch graphs the applications record.
//!
//! ```text
//! graphlint [--app <name>] [--platform <label>] [--smoke]
//!           [--deny-warnings] [--cross-check]
//! ```
//!
//! * default — lint all seven applications at their paper sizes
//!   (`mgcfd` under all three race-resolution schemes);
//! * `--app <name>` — lint one of `cloverleaf2d`, `cloverleaf3d`,
//!   `opensbli_sa`, `opensbli_sn`, `rtm`, `acoustic`, `mgcfd`;
//! * `--platform` — `a100` (default), `mi250x`, `max1100`, `xeon8360y`,
//!   `genoax`, `altra`; the platform's best native toolchain is used.
//!   Halo lints need a multi-rank decomposition, so run a CPU platform
//!   to exercise them;
//! * `--smoke` — all seven apps at their functional test sizes (CI);
//! * `--deny-warnings` — treat `Warning` findings like `Error`s;
//! * `--cross-check` — additionally run each app live (test size) under
//!   the shadow verifier and reconcile static verdicts with dynamic
//!   evidence: kernels that lint clean statically but race dynamically
//!   have under-declared stencils.
//!
//! The apps run under `dry_run` sessions: graphs are recorded, priced
//! and replayed, but no kernel body executes — linting the full paper
//! configuration takes well under a second per app. Each replayed graph
//! is snapshotted once (by process-unique graph id) through the
//! session's graph observer and analysed by `verify::dataflow`.
//!
//! Findings land on stdout and in `results/LINT_<app>.json`. Exit
//! status: 2 for an unknown app, 1 when any `Error`-severity finding
//! (or any warning under `--deny-warnings`) was found, 0 otherwise.

use bench_harness::json::{validate, write_results_file};
use bench_harness::{make_app, native_toolchain, APP_NAMES};
use std::sync::{Arc, Mutex};
use sycl_sim::{AtomicKind, GraphSummary, PlatformId, Scheme, Session, SessionConfig};
use telemetry::shadow::Shadow;
use verify::dataflow::{cross_check, lint_graph, LintContext};
use verify::{report, Diagnostic, Severity, Verifier};

/// One lint target: an app, under one scheme if it has one.
struct Target {
    app: &'static str,
    scheme: Option<Scheme>,
}

fn targets_for(app: &str) -> Vec<Target> {
    if app == "mgcfd" {
        [Scheme::Atomics, Scheme::GlobalColor, Scheme::HierColor]
            .into_iter()
            .map(|s| Target {
                app: "mgcfd",
                scheme: Some(s),
            })
            .collect()
    } else {
        vec![Target {
            app: APP_NAMES
                .iter()
                .find(|n| **n == app)
                .expect("validated by make_app"),
            scheme: None,
        }]
    }
}

/// Collect each distinct recorded graph (by process-unique id) that the
/// app replays on `session`.
fn observe_graphs(session: &Session) -> Arc<Mutex<Vec<GraphSummary>>> {
    let summaries: Arc<Mutex<Vec<GraphSummary>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&summaries);
    session.set_graph_observer(Some(Arc::new(move |s: &GraphSummary| {
        let mut v = sink.lock().unwrap_or_else(|e| e.into_inner());
        if !v.iter().any(|g| g.id == s.id) {
            v.push(s.clone());
        }
    })));
    summaries
}

fn lint_context(session: &Session) -> LintContext {
    let platform = session.platform();
    let toolchain = session.config().toolchain;
    LintContext {
        ranks: session.ranks(),
        stream_bw: platform.mem.stream_bw,
        launch_overhead: toolchain
            .backend(session.config().platform)
            .launch_overhead(platform),
        cas_atomics: session.atomic_kind() == AtomicKind::CasLoop,
        platform: platform.name.to_owned(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    let do_cross = args.iter().any(|a| a == "--cross-check");
    let platform = args
        .iter()
        .position(|a| a == "--platform")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| PlatformId::parse(s))
        .unwrap_or(PlatformId::A100);
    let only = args
        .iter()
        .position(|a| a == "--app")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let app_names: Vec<&str> = match &only {
        Some(name) => match APP_NAMES.iter().find(|n| *n == name) {
            Some(n) => vec![n],
            None => {
                eprintln!(
                    "unknown app {name:?}; expected one of {}",
                    APP_NAMES.join(", ")
                );
                std::process::exit(2);
            }
        },
        None => APP_NAMES.to_vec(),
    };
    // Paper configurations by default; `--smoke` lints the functional
    // test sizes (same graph structure, smaller ranges) for CI.
    let paper = !smoke;

    let toolchain = native_toolchain(platform);
    let mut failing = false;

    for app_name in app_names {
        let started = std::time::Instant::now();
        let mut app_diags: Vec<Diagnostic> = Vec::new();
        let mut graphs_seen = 0usize;

        for target in targets_for(app_name) {
            let mut cfg = SessionConfig::new(platform, toolchain)
                .app(target.app)
                .dry_run();
            if let Some(s) = target.scheme {
                cfg = cfg.scheme(s);
            }
            let session = match Session::create(cfg) {
                Ok(s) => s,
                Err(fail) => {
                    eprintln!("{app_name} does not run on {}: {fail}", platform.label());
                    std::process::exit(2);
                }
            };
            // Dats only acquire shadow ids (and names for diagnostics)
            // at creation time: enter a sink-less shadow before the app
            // allocates. Dry-run bodies never execute, so no per-access
            // instrumentation ever runs.
            let shadow = Shadow::enter(None);

            let summaries = observe_graphs(&session);
            let app = make_app(target.app, paper).expect("validated above");
            app.run(&session);
            session.set_graph_observer(None);

            let ctx = lint_context(&session);
            let resolve = |id: u32| shadow.dat_name(id);
            let summaries = summaries.lock().unwrap_or_else(|e| e.into_inner());
            graphs_seen += summaries.len();
            for g in summaries.iter() {
                app_diags.extend(lint_graph(g, &ctx, &resolve));
            }

            if do_cross {
                app_diags.extend(cross_check_target(&target, platform, &summaries));
            }
        }

        let unique = report::dedup(&app_diags);
        let (mut errors, mut warnings, mut infos) = (0usize, 0usize, 0usize);
        for (d, _) in &unique {
            match d.severity {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
                Severity::Info => infos += 1,
            }
        }
        println!(
            "# {app_name} on {} ({}): {graphs_seen} graph(s) linted in {:.0} ms — \
             {errors} error(s), {warnings} warning(s), {infos} info(s)",
            platform.label(),
            toolchain.label(),
            started.elapsed().as_secs_f64() * 1e3,
        );
        for (d, count) in &unique {
            let times = if *count > 1 {
                format!(" (x{count})")
            } else {
                String::new()
            };
            println!(
                "  [{}] {} `{}`: {}{times}",
                d.severity, d.pass, d.kernel, d.detail
            );
        }

        failing |= app_diags.iter().any(|d| {
            d.severity == Severity::Error || (deny_warnings && d.severity == Severity::Warning)
        });

        let doc = report::render_app_report(app_name, &app_diags);
        debug_assert!(validate(&doc).is_ok());
        let file = format!("LINT_{app_name}.json");
        match write_results_file(&file, &doc) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("could not write results/{file}: {e}");
                std::process::exit(1);
            }
        }
    }

    if failing {
        eprintln!("graphlint: failing findings (see above)");
        std::process::exit(1);
    }
    println!("graphlint OK: no Error-severity findings");
}

/// Re-run one target live at test size under the shadow verifier and
/// reconcile its dynamic findings with the statically linted graphs.
fn cross_check_target(
    target: &Target,
    platform: PlatformId,
    summaries: &[GraphSummary],
) -> Vec<Diagnostic> {
    let mut cfg = SessionConfig::new(platform, native_toolchain(platform)).app(target.app);
    if let Some(s) = target.scheme {
        cfg = cfg.scheme(s);
    }
    let Ok(session) = Session::create(cfg) else {
        return Vec::new();
    };
    let verifier = Verifier::attach(&session);
    let app = make_app(target.app, false).expect("validated above");
    app.run(&session);
    let dynamic = verifier.finish(&session);
    cross_check(summaries, &dynamic)
}
