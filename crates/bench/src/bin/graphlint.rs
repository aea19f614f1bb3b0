//! `graphlint` — static dataflow and hazard/fusion linting over the
//! launch graphs the applications record.
//!
//! ```text
//! graphlint [--app <name>] [--platform <label>] [--deny-warnings] [--cross-check]
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
//! * `--deny-warnings` — treat `Warning` findings like `Error`s;
//! * `--cross-check` — additionally run each app live (test size) under
//!   the shadow verifier and reconcile static verdicts with dynamic
//!   evidence: kernels that lint clean statically but race dynamically
//!   have under-declared stencils.
//!
//! The apps run under `dry_run` sessions
//! ([`bench_harness::reports::lint`]): graphs are recorded, priced and
//! replayed, but no kernel body executes. Each replayed graph is
//! snapshotted once through the session's graph observer and analysed
//! by `verify::dataflow`. Findings land on stdout; the A100 findings
//! are also the committed `results/LINT_<app>.json`, which
//! `regenerate_all` writes. Exit status: 2 for an unknown flag,
//! platform or app, a flag missing its value, or an app that does not
//! run on the platform; 1 when any `Error`-severity finding (or any
//! warning under `--deny-warnings`) was found; 0 otherwise.

use bench_harness::cli::Cli;
use bench_harness::{native_toolchain, reports, APP_NAMES};
use verify::dataflow::cross_check;
use verify::{report, Diagnostic, Severity};

const CLI: Cli = Cli {
    usage: "graphlint [--app <name>] [--platform <label>] [--deny-warnings] [--cross-check]",
    switches: &["--deny-warnings", "--cross-check"],
    options: &["--app", "--platform"],
};

fn main() {
    let flags = CLI.from_env();
    let deny_warnings = flags.has("--deny-warnings");
    let do_cross = flags.has("--cross-check");
    let platform = CLI.platform(&flags);
    let apps: Vec<&str> = match flags.value("--app") {
        Some(name) if APP_NAMES.contains(&name) => vec![name],
        Some(name) => {
            eprintln!(
                "unknown app {name:?}; expected one of {}",
                APP_NAMES.join(", ")
            );
            std::process::exit(2);
        }
        None => APP_NAMES.to_vec(),
    };
    let does_not_run = |app: &str, fail| -> ! {
        eprintln!("{app} does not run on {}: {fail}", platform.label());
        std::process::exit(2);
    };

    let mut failing = false;
    for app in apps {
        let runs = reports::lint(app, platform).unwrap_or_else(|f| does_not_run(app, f));
        let graphs: usize = runs.iter().map(|r| r.graphs.len()).sum();
        let mut diags: Vec<Diagnostic> = Vec::new();
        if do_cross {
            let live = reports::verify(app, platform).unwrap_or_else(|f| does_not_run(app, f));
            for (lint, live) in runs.into_iter().zip(live) {
                let dynamic = cross_check(&lint.graphs, &live.diagnostics);
                diags.extend(lint.diagnostics.into_iter().chain(dynamic));
            }
        } else {
            diags.extend(runs.into_iter().flat_map(|r| r.diagnostics));
        }

        let unique = report::dedup(&diags);
        let tally = |s: Severity| unique.iter().filter(|(d, _)| d.severity == s).count();
        println!(
            "# {app} on {} ({}): {graphs} graph(s) linted — \
             {} error(s), {} warning(s), {} info(s)",
            platform.label(),
            native_toolchain(platform).label(),
            tally(Severity::Error),
            tally(Severity::Warning),
            tally(Severity::Info),
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
        failing |= diags.iter().any(|d| {
            d.severity == Severity::Error || (deny_warnings && d.severity == Severity::Warning)
        });
    }

    if failing {
        eprintln!("graphlint: failing findings (see above)");
        std::process::exit(1);
    }
    println!("graphlint OK: no Error-severity findings");
}
