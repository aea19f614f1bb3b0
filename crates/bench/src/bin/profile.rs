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
//! * `--smoke` — self-checking mode for CI: exit non-zero unless the
//!   trace parses as JSON and the ledger table is non-empty, and a
//!   functional run wrote one launch span per ledger record (and a
//!   non-empty aggregate) while a `--paper` run wrote none.
//!
//! Output: on stdout the span aggregate, or for a `--paper` run, whose
//! launches run no body and write no span, the ledger's per-kernel
//! table ([`Session::explain`]); and `results/PROFILE_<app>.json`, a
//! Chrome `trace_event` document (loadable as-is in Perfetto /
//! `chrome://tracing`) whose extra top-level keys carry the ledger
//! table, the span aggregate and the engine counters.
//!
//! An unknown flag or platform, a second operand, or `--platform`
//! without its value prints the usage and exits 2.

use bench_harness::cli::Cli;
use bench_harness::{native_toolchain, write_results_file};
use miniapps::make_app;
use sycl_sim::{quirks::apps, Scheme, Session, SessionConfig};
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
            "unknown app {app_name:?}; expected one of {}",
            apps::ALL.join(", ")
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
    let delta = telemetry::counters().snapshot().since(&before);
    TelemetryConfig::disabled().install();
    let events = telemetry::flush();

    let aggs = telemetry::export::aggregate(&events);
    let launch_spans = events
        .iter()
        .filter(|e| e.kind == telemetry::SpanKind::Launch)
        .count();
    let ledger = session.kernel_summary();
    let records = session.records().len();

    let (mode, size) = if paper {
        ("paper", "paper size (dry run)")
    } else {
        ("test", "test size (functional)")
    };
    println!(
        "# {} on {} ({}), {size} — sim {:.3} ms, {} launches, {} trace events",
        app.name(),
        session.platform().name,
        toolchain.label(),
        run.elapsed * 1e3,
        records,
        events.len(),
    );
    if paper {
        print!("{}", session.explain());
    } else {
        print!(
            "{}",
            telemetry::export::aggregate_text(&aggs, delta.spans_dropped)
        );
    }
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
    w.key("mode").string(mode);
    w.key("sim_elapsed_secs").number(run.elapsed);
    w.key("ledger_launches").int(records as u64);
    w.key("validation").number(run.validation);
    w.key("ledger").begin_array();
    for (kernel, secs, launches) in &ledger {
        w.begin_object();
        w.key("kernel").string(kernel);
        w.key("launches").int(*launches as u64);
        w.key("sim_secs").number(*secs);
        w.end_object();
    }
    w.end_array();
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
        let spans_ok = if paper {
            launch_spans == 0
        } else {
            launch_spans == records && !aggs.is_empty()
        };
        let tally = format!(
            "{launch_spans} launch spans, {records} ledger records, {} ledger rows, {} aggregate rows",
            ledger.len(),
            aggs.len()
        );
        if !spans_ok || ledger.is_empty() {
            eprintln!("smoke: {tally}");
            std::process::exit(1);
        }
        println!("smoke OK: {tally}");
    }
}
