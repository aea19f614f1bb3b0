//! `analyze` — run every application under the `sycl-verify` passes.
//!
//! ```text
//! analyze [--app <name>] [--platform <label>] [--deny-warnings]
//! ```
//!
//! * default — verify all seven applications (`mgcfd` under all three
//!   race-resolution schemes);
//! * `--app <name>` — verify one of `cloverleaf2d`, `cloverleaf3d`,
//!   `opensbli_sa`, `opensbli_sn`, `rtm`, `acoustic`, `mgcfd`;
//! * `--platform` — `a100` (default), `mi250x`, `max1100`, `xeon8360y`,
//!   `genoax`, `altra`; the platform's best native toolchain is used;
//! * `--deny-warnings` — treat `Warning` findings like `Error`s for the
//!   exit status.
//!
//! Each app runs its functional test size with shadow-access recording
//! attached ([`bench_harness::reports::verify`]); the access / plan /
//! footprint findings land on stdout. The A100 findings are also the
//! committed `results/VERIFY_<app>.json`, which `regenerate_all`
//! writes. Exit status: 2 for an unknown flag, platform or app, a flag
//! missing its value, or an app that does not run on the platform; 1
//! when any `Error`-severity diagnostic was found; 0 otherwise.

use bench_harness::cli::Cli;
use bench_harness::{native_toolchain, reports, APP_NAMES};
use verify::{report, Severity};

const CLI: Cli = Cli {
    usage: "analyze [--app <name>] [--platform <label>] [--deny-warnings]",
    switches: &["--deny-warnings"],
    options: &["--app", "--platform"],
};

fn main() {
    let flags = CLI.from_env();
    let deny_warnings = flags.has("--deny-warnings");
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

    let mut failing = false;
    for app in apps {
        let runs = reports::verify(app, platform).unwrap_or_else(|fail| {
            eprintln!("{app} does not run on {}: {fail}", platform.label());
            std::process::exit(2);
        });
        for run in runs {
            let diags = &run.diagnostics;
            let (errors, warnings, infos) = report::tally(diags);
            let label = match run.scheme {
                Some(s) => format!("{app} [{}]", s.label()),
                None => app.to_owned(),
            };
            println!(
                "# {label} on {} ({}): {} launches, validation {:.3e} — \
                 {errors} error(s), {warnings} warning(s), {infos} info(s)",
                platform.label(),
                native_toolchain(platform).label(),
                run.launches,
                run.validation,
            );
            for d in diags {
                println!("  [{}] {} `{}`: {}", d.severity, d.pass, d.kernel, d.detail);
            }
            failing |= diags.iter().any(|d| {
                d.severity == Severity::Error || (deny_warnings && d.severity == Severity::Warning)
            });
        }
    }

    if failing {
        eprintln!("analyze: failing findings (see above)");
        std::process::exit(1);
    }
    println!("analyze OK: no Error-severity findings");
}
