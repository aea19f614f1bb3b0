//! `profile` — run one application with the telemetry subsystem enabled
//! and export the trace.
//!
//! ```text
//! profile [<app>] [--platform <label>] [--paper] [--smoke]
//! ```
//!
//! * `<app>` — one of `cloverleaf2d` (default), `cloverleaf3d`,
//!   `opensbli_sa`, `opensbli_sn`, `rtm`, `acoustic`, `mgcfd`;
//! * `--platform` — `a100` (default), `mi250x`, `max1100`, `xeon8360y`,
//!   `genoax`, `altra`; the app runs under the platform's best native
//!   toolchain, like Table 1;
//! * `--paper` — price the paper-sized problem through a dry-run
//!   session instead of executing the test-sized one functionally;
//! * `--smoke` — self-checking mode for CI: after the run, exit
//!   non-zero unless the trace parses as JSON, contains at least one
//!   launch span, and the aggregate table is non-empty.
//!
//! Output: the per-kernel aggregate table on stdout, and
//! `results/PROFILE_<app>.json` — a Chrome `trace_event` document
//! (loadable as-is in Perfetto / `chrome://tracing`) whose extra
//! top-level keys carry the aggregate table and the engine counters.
//!
//! An unknown flag or platform, a second operand, or `--platform`
//! without its value prints the usage and exits 2.

use bench_harness::cli::Cli;
use bench_harness::{native_toolchain, write_results_file};
use miniapps::make_app;
use sycl_sim::{Scheme, Session, SessionConfig};
use telemetry::json::{validate, JsonWriter};
use telemetry::TelemetryConfig;

const CLI: Cli = Cli {
    usage: "profile [<app>] [--platform <label>] [--paper] [--smoke]",
    operand: true,
    switches: &["--paper", "--smoke"],
    options: &["--platform"],
};

fn main() {
    let flags = CLI.from_env();
    let smoke = flags.has("--smoke");
    let paper = flags.has("--paper");
    let platform = CLI.platform(&flags);
    let app_name = flags.operand().unwrap_or("cloverleaf2d");

    let Some(app) = make_app(app_name, paper) else {
        CLI.fail(&format!(
            "unknown app {app_name:?}; expected one of cloverleaf2d, cloverleaf3d, \
             opensbli_sa, opensbli_sn, rtm, acoustic, mgcfd"
        ));
    };

    let toolchain = native_toolchain(platform);
    let mut cfg = SessionConfig::new(platform, toolchain).app(app.name());
    if app.name() == "mgcfd" {
        cfg = cfg.scheme(Scheme::Atomics);
    }
    if paper {
        cfg = cfg.dry_run();
    }
    let session = match Session::create(cfg) {
        Ok(s) => s,
        Err(fail) => {
            eprintln!("{app_name} does not run on {}: {fail}", platform.label());
            std::process::exit(2);
        }
    };

    TelemetryConfig::enabled().install();
    let before = telemetry::counters().snapshot();
    let run = app.run(&session);
    let delta = telemetry::counters().snapshot().delta(&before);
    TelemetryConfig::disabled().install();
    let events = telemetry::flush();

    let aggs = telemetry::export::aggregate(&events);
    let launch_spans = events
        .iter()
        .filter(|e| e.kind == telemetry::SpanKind::Launch)
        .count();

    println!(
        "# {} on {} ({}), {} — sim {:.3} ms, {} launches, {} trace events",
        app.name(),
        session.platform().name,
        toolchain.label(),
        if paper {
            "paper size (dry run)"
        } else {
            "test size (functional)"
        },
        run.elapsed * 1e3,
        session.records().len(),
        events.len(),
    );
    print!(
        "{}",
        telemetry::export::aggregate_text(&aggs, delta.spans_dropped)
    );
    println!(
        "cache {} hits / {} misses | {} regions, {} steals, {} parks, {} wakes | {} spans dropped",
        delta.pricing_cache_hits,
        delta.pricing_cache_misses,
        delta.regions,
        delta.steals,
        delta.parks,
        delta.wakes,
        delta.spans_dropped,
    );

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("app").string(app.name());
    w.key("platform").string(platform.label());
    w.key("toolchain").string(toolchain.label());
    w.key("mode").string(if paper { "paper" } else { "test" });
    w.key("sim_elapsed_secs").number(run.elapsed);
    w.key("ledger_launches").int(session.records().len() as u64);
    w.key("validation").number(run.validation);
    w.key("counters");
    telemetry::export::counters_json(&mut w, &delta);
    w.key("aggregate");
    telemetry::export::aggregate_json(&mut w, &aggs, delta.spans_dropped);
    w.key("displayTimeUnit").string("ms");
    w.key("traceEvents");
    telemetry::export::chrome_trace_events(&mut w, &events);
    w.end_object();
    let doc = w.finish();

    let file = format!("PROFILE_{}.json", app.name());
    match write_results_file(&file, &doc) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write results/{file}: {e}");
            std::process::exit(1);
        }
    }

    if smoke {
        if let Err(e) = validate(&doc) {
            eprintln!("smoke: trace document is malformed JSON: {e}");
            std::process::exit(1);
        }
        if launch_spans == 0 || aggs.is_empty() {
            eprintln!(
                "smoke: empty trace ({launch_spans} launch spans, {} aggregate rows)",
                aggs.len()
            );
            std::process::exit(1);
        }
        if launch_spans != session.records().len() {
            eprintln!(
                "smoke: {} ledger records but {launch_spans} launch spans",
                session.records().len()
            );
            std::process::exit(1);
        }
        println!(
            "smoke OK: {launch_spans} launch spans across {} kernels",
            aggs.len()
        );
    }
}
