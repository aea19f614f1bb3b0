//! `dashboard` — build the self-contained HTML performance dashboard.
//!
//! ```text
//! dashboard [--apps <a,b,...>] [--platform <label>] [--out <path>]
//! ```
//!
//! * `--apps` — comma-separated list of apps to trace for the per-kernel
//!   tables (default: all seven paper apps);
//! * `--platform` — platform whose native toolchain the traced apps run
//!   under (default `a100`);
//! * `--out` — output path (default `results/DASHBOARD.html`).
//!
//! An unknown flag, platform or app, or a flag missing its value, exits 2.
//!
//! The output is ONE html file with every byte inline — CSS, SVG charts
//! and a small sorting script — so it can be attached to a CI run or
//! mailed around and opened offline. Sections:
//!
//! 1. per-kernel wall/sim tables + counter deltas for each traced app,
//!    with a deep-link into the matching `PROFILE_<app>.json` Perfetto
//!    trace when one sits next to the dashboard and records the same
//!    kind of run (test size, on the dashboard's platform);
//! 2. scheduler health: chunks per pool region and region wall time,
//!    summarised from the traced runs' Region spans;
//! 3. achieved-bandwidth scatter against each platform's STREAM roof;
//! 4. the portability (efficiency) heatmap and PP̄ table;
//! 5. data movement: the interconnect pricing of
//!    `bench_harness::transfer` (the rows of `TRANSFER.json`) — stacked
//!    kernel-vs-transfer time per app × platform, the pinned-vs-pageable
//!    bandwidth delta, and the CPU-vs-GPU crossover table;
//! 6. the cross-product study from the last `study` run (`STUDY.json`):
//!    per-cell status grid, retries, fleet utilisation and its PP̄ rows;
//! 7. graph lint: the static dataflow findings of
//!    `bench_harness::reports::lint` on the A100 (the findings of
//!    `LINT_<app>.json`) — per-app severity tallies plus every
//!    Error/Warning and fusion-candidate finding.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use bench_harness::cli::Cli;
use bench_harness::hist::Histogram;
use bench_harness::{native_toolchain, reports, transfer};
use machine_model::Platform;
use miniapps::make_app;
use portability::{paper_measurements, pennycook, Measurement};
use sycl_sim::{quirks::apps, PlatformId, Scheme, Session, SessionConfig};
use telemetry::export::KernelAgg;
use telemetry::json::{self, Json};
use telemetry::{CounterSnapshot, Event, TelemetryConfig};
use verify::{report, Diagnostic, Severity};

/// One traced application run feeding the per-kernel tables.
struct AppTrace {
    app: String,
    platform: String,
    toolchain: String,
    sim_secs: f64,
    validation: f64,
    aggs: Vec<KernelAgg>,
    /// The session ledger's launch count and effective bytes.
    launches: usize,
    bytes: f64,
    delta: CounterSnapshot,
}

/// Scheduler-health histograms keyed by metric.
type SchedHists = BTreeMap<&'static str, Histogram>;

const CLI: Cli = Cli {
    usage: "dashboard [--apps <a,b,...>] [--platform <label>] [--out <path>]",
    operand: false,
    switches: &[],
    options: &["--apps", "--platform", "--out"],
};

fn main() {
    let flags = CLI.from_env();
    let platform = CLI.platform(&flags);
    let apps: Vec<String> = flags
        .value("--apps")
        .map(|s| s.split(',').map(|a| a.trim().to_owned()).collect())
        .unwrap_or_else(|| apps::ALL.iter().map(|s| (*s).to_owned()).collect());
    let out = flags.value("--out").unwrap_or("results/DASHBOARD.html");

    if let Some(a) = apps.iter().find(|a| !apps::ALL.contains(&a.as_str())) {
        CLI.fail(&format!(
            "unknown app {a:?}; expected one of {}",
            apps::ALL.join(", ")
        ));
    }

    let mut traces = Vec::new();
    let mut sched = SchedHists::new();
    for a in &apps {
        match trace_app(a, platform, &mut sched) {
            Some(t) => traces.push(t),
            None => eprintln!("note: {a} does not run on {}; skipped", platform.label()),
        }
    }

    let table = paper_measurements();
    let study: Vec<(PlatformId, Vec<Measurement>)> = PlatformId::ALL
        .into_iter()
        .map(|p| {
            (
                p,
                table.iter().filter(|m| m.platform == p).cloned().collect(),
            )
        })
        .collect();

    let path = Path::new(&out);
    let out_dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let html = render(&traces, &sched, &study, &out_dir);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("could not create {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }
    if let Err(e) = std::fs::write(path, &html) {
        eprintln!("could not write {out}: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote {out} ({} traced apps, {} study platforms)",
        traces.len(),
        study.len()
    );
}

/// Run one app (test size, functional) under telemetry and aggregate;
/// its pool Region spans feed `sched`.
fn trace_app(name: &str, platform: PlatformId, sched: &mut SchedHists) -> Option<AppTrace> {
    let app = make_app(name, false)?;
    let toolchain = native_toolchain(platform);
    let mut cfg = SessionConfig::new(platform, toolchain).app(app.name());
    if app.name() == "mgcfd" {
        cfg = cfg.scheme(Scheme::Atomics);
    }
    let session = Session::create(cfg).ok()?;

    TelemetryConfig::enabled().install();
    let before = telemetry::counters().snapshot();
    let run = app.run(&session);
    let delta = telemetry::counters().snapshot().since(&before);
    TelemetryConfig::disabled().install();
    let events = telemetry::flush();
    record_regions(sched, &events);
    let records = session.records();

    Some(AppTrace {
        app: name.to_owned(),
        platform: platform.label().to_owned(),
        toolchain: toolchain.label().to_owned(),
        sim_secs: run.elapsed,
        validation: run.validation,
        aggs: telemetry::export::aggregate(&events),
        launches: records.len(),
        bytes: records.iter().map(|r| r.effective_bytes).sum(),
        delta,
    })
}

/// Fold the pool's Region spans (`pool.region`) into histograms:
/// chunks per region (the span's item count)
/// and region wall time.
fn record_regions(sched: &mut SchedHists, events: &[Event]) {
    for e in events.iter().filter(|e| e.name.as_str() == "pool.region") {
        sched
            .entry("pool.chunks_per_region")
            .or_default()
            .record(e.items as f64);
        sched
            .entry("pool.region_wall_us")
            .or_default()
            .record(e.dur_ns as f64 / 1e3);
    }
}

/// Escape text for embedding in HTML bodies and attributes.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Colour for an efficiency fraction: red (0) through green (≥1).
fn eff_colour(eff: f64) -> String {
    let t = (eff / 1.1).clamp(0.0, 1.0);
    let hue = 120.0 * t;
    format!("hsl({hue:.0}, 70%, {:.0}%)", 88.0 - 38.0 * t)
}

/// The distinct items, in first-seen order.
fn distinct<T: PartialEq>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut seen = Vec::new();
    for x in items {
        if !seen.contains(&x) {
            seen.push(x);
        }
    }
    seen
}

/// One `<table>`: a header row of the escaped `head` labels, then
/// `rows`, each a whole `<tr>…</tr>`. An empty `class` writes a plain
/// table.
fn table<S: AsRef<str>>(
    h: &mut String,
    class: &str,
    head: impl IntoIterator<Item = S>,
    rows: impl IntoIterator<Item = String>,
) {
    if class.is_empty() {
        h.push_str("<table>");
    } else {
        let _ = write!(h, "<table class=\"{class}\">");
    }
    h.push_str("<thead><tr>");
    for th in head {
        let _ = write!(h, "<th>{}</th>", esc(th.as_ref()));
    }
    h.push_str("</tr></thead><tbody>");
    for row in rows {
        h.push_str(&row);
    }
    h.push_str("</tbody></table>");
}

fn fmt_secs(s: f64) -> String {
    if s == 0.0 {
        "0".to_owned()
    } else if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

fn render(
    traces: &[AppTrace],
    sched: &SchedHists,
    study: &[(PlatformId, Vec<Measurement>)],
    out_dir: &Path,
) -> String {
    let mut h = String::with_capacity(1 << 18);
    h.push_str(HEAD);
    let _ = write!(
        h,
        "<header><h1>sycl-sim performance dashboard</h1>\
         <p class=\"meta\">git <code>{}</code> · generated at unix \
         <span class=\"ts\" data-unix=\"{}\"></span> · self-contained, no network</p></header>",
        esc(&bench_harness::manifest::git_rev()),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
    );

    render_traces(&mut h, traces, out_dir);
    render_scheduler(&mut h, sched);
    render_roofline(&mut h, study);
    render_heatmap(&mut h, study);
    render_data_movement(&mut h);
    render_study_run(&mut h, out_dir);
    render_graphlint(&mut h);

    h.push_str(SCRIPT);
    h.push_str("</body></html>\n");
    h
}

/// Does the `profile` document `text` record a functional test-size run
/// on `platform`, the run a trace table tabulates? `profile --paper`
/// writes a dry paper-size trace under the same file name, and a trace
/// from another platform prices other kernels; neither is linked.
fn traces_test_run(text: &str, platform: &str) -> bool {
    json::parse(text).is_ok_and(|doc| {
        doc.get("mode").and_then(Json::as_str) == Some("test")
            && doc.get("platform").and_then(Json::as_str) == Some(platform)
    })
}

/// Section 1: per-kernel aggregates and counter deltas per traced app.
fn render_traces(h: &mut String, traces: &[AppTrace], out_dir: &Path) {
    h.push_str("<section><h2>Per-kernel aggregates (functional runs)</h2>");
    if traces.is_empty() {
        h.push_str("<p>No apps traced.</p></section>");
        return;
    }
    for t in traces {
        let _ = write!(
            h,
            "<details open><summary><b>{}</b> on {} ({}) — sim {}, validation {:.6e}",
            esc(&t.app),
            esc(&t.platform),
            esc(&t.toolchain),
            fmt_secs(t.sim_secs),
            t.validation,
        );
        // Deep-link to the app's Chrome-trace document when `profile`
        // left one of this run next to the dashboard: a relative href
        // (the file is a sibling), loadable in Perfetto / chrome://tracing.
        let trace_file = format!("PROFILE_{}.json", t.app);
        let trace = std::fs::read_to_string(out_dir.join(&trace_file));
        if trace.is_ok_and(|text| traces_test_run(&text, &t.platform)) {
            let _ = write!(
                h,
                " — <a href=\"{0}\" download=\"{0}\">Perfetto trace</a>",
                esc(&trace_file),
            );
        }
        h.push_str("</summary>");
        if t.delta.spans_dropped > 0 {
            let _ = write!(
                h,
                "<p class=\"warn\">⚠ {} span(s) dropped by ring overwrite — \
                 the aggregates below are incomplete</p>",
                t.delta.spans_dropped
            );
        }
        let head = [
            "kernel",
            "launches",
            "total wall",
            "p50",
            "p95",
            "p99",
            "sim time",
            "sim GB/s",
        ];
        let rows = t.aggs.iter().map(|a| {
            format!(
                "<tr><td>{}</td><td class=\"n\">{}</td><td class=\"n\" data-v=\"{}\">{}</td>\
                 <td class=\"n\" data-v=\"{}\">{}</td><td class=\"n\" data-v=\"{}\">{}</td>\
                 <td class=\"n\" data-v=\"{}\">{}</td><td class=\"n\" data-v=\"{}\">{}</td>\
                 <td class=\"n\">{:.1}</td></tr>",
                esc(&a.name),
                a.count,
                a.total_secs,
                fmt_secs(a.total_secs),
                a.p50_secs,
                fmt_secs(a.p50_secs),
                a.p95_secs,
                fmt_secs(a.p95_secs),
                a.p99_secs,
                fmt_secs(a.p99_secs),
                a.sim_secs,
                fmt_secs(a.sim_secs),
                a.sim_gbps(),
            )
        });
        table(h, "sortable", head, rows);
        h.push_str("</details>");
    }

    h.push_str("<h3>Counter deltas per run</h3>");
    let head = [
        "app",
        "launches",
        "cache hits",
        "cache misses",
        "regions",
        "steals",
        "parks",
        "wakes",
        "bytes moved",
        "spans dropped",
    ];
    let rows = traces.iter().map(|t| {
        let d = &t.delta;
        let cells: String = [
            t.launches as u64,
            d.pricing_cache_hits,
            d.pricing_cache_misses,
            d.regions,
            d.steals,
            d.parks,
            d.wakes,
            t.bytes as u64,
            d.spans_dropped,
        ]
        .iter()
        .map(|n| format!("<td class=\"n\">{n}</td>"))
        .collect();
        format!("<tr><td>{}</td>{cells}</tr>", esc(&t.app))
    });
    table(h, "", head, rows);
    h.push_str("</section>");
}

/// Section 2: scheduler health — chunks per pool region and region
/// wall time, over the traced apps' Region spans.
fn render_scheduler(h: &mut String, sched: &SchedHists) {
    h.push_str(
        "<section><h2>Scheduler health</h2>\
         <p>Pool Region spans recorded during the traced runs: \
         chunks per region and region wall time. Units are in the metric \
         name; many tiny regions or a wall time drifting up across runs is \
         scheduler overhead the per-kernel tables cannot show.</p>",
    );
    if sched.is_empty() {
        h.push_str("<p>No pool regions recorded.</p></section>");
        return;
    }
    let rows = sched.iter().map(|(metric, hist)| {
        format!(
            "<tr><td>{}</td><td class=\"n\">{}</td>\
             <td class=\"n\" data-v=\"{2}\">{2:.2}</td>\
             <td class=\"n\" data-v=\"{3}\">{3:.2}</td>\
             <td class=\"n\" data-v=\"{4}\">{4:.2}</td>\
             <td class=\"n\" data-v=\"{5}\">{5:.2}</td></tr>",
            metric,
            hist.count(),
            hist.mean(),
            hist.quantile(0.5),
            hist.quantile(0.95),
            hist.max(),
        )
    });
    let head = ["metric", "count", "mean", "p50", "p95", "max"];
    table(h, "sortable", head, rows);
    h.push_str("</section>");
}

/// Section 3: achieved GB/s per (app, variant) against the STREAM roof.
fn render_roofline(h: &mut String, study: &[(PlatformId, Vec<Measurement>)]) {
    h.push_str(
        "<section><h2>Achieved bandwidth vs STREAM roof</h2>\
         <p>Each point is one (app, variant) configuration priced at paper size; \
         the dashed line is the platform's STREAM-Triad roof (Table 1). \
         Blue = native toolchain, orange = SYCL. Hover points for details.</p>\
         <div class=\"panels\">",
    );
    const W: f64 = 380.0;
    const H: f64 = 230.0;
    const ML: f64 = 52.0;
    const MR: f64 = 10.0;
    const MT: f64 = 26.0;
    const MB: f64 = 56.0;
    for (pid, ms) in study {
        let plat = Platform::get(*pid);
        let roof = plat.mem.stream_bw / 1e9;
        let y_max = roof * 1.18;
        let apps = distinct(ms.iter().map(|m| m.app));
        let sx = |slot: f64| ML + (W - ML - MR) * slot;
        let sy = |gbps: f64| MT + (H - MT - MB) * (1.0 - (gbps / y_max).clamp(0.0, 1.0));
        let _ = write!(
            h,
            "<svg viewBox=\"0 0 {W} {H}\" role=\"img\">\
             <text x=\"{}\" y=\"16\" class=\"title\">{}</text>\
             <line x1=\"{ML}\" y1=\"{MT}\" x2=\"{ML}\" y2=\"{}\" class=\"axis\"/>\
             <line x1=\"{ML}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" class=\"axis\"/>",
            W / 2.0,
            esc(plat.name),
            H - MB,
            H - MB,
            W - MR,
            H - MB,
        );
        // Roof line + y ticks.
        let _ = write!(
            h,
            "<line x1=\"{ML}\" y1=\"{0:.1}\" x2=\"{1}\" y2=\"{0:.1}\" class=\"roof\"/>\
             <text x=\"{1}\" y=\"{2:.1}\" class=\"rooflab\" text-anchor=\"end\">roof {3:.0} GB/s</text>",
            sy(roof),
            W - MR,
            sy(roof) - 4.0,
            roof,
        );
        for frac in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let v = roof * frac;
            let _ = write!(
                h,
                "<text x=\"{:.1}\" y=\"{:.1}\" class=\"tick\" text-anchor=\"end\">{v:.0}</text>",
                ML - 4.0,
                sy(v) + 3.0,
            );
        }
        // X category labels.
        for (i, app) in apps.iter().enumerate() {
            let x = sx((i as f64 + 0.5) / apps.len() as f64);
            let _ = write!(
                h,
                "<text x=\"{x:.1}\" y=\"{:.1}\" class=\"tick\" \
                 transform=\"rotate(-35 {x:.1} {:.1})\" text-anchor=\"end\">{}</text>",
                H - MB + 12.0,
                H - MB + 12.0,
                esc(app),
            );
        }
        // Points.
        for m in ms {
            let (Ok(_), Some(eff)) = (&m.runtime, m.efficiency) else {
                continue;
            };
            let slot = apps.iter().position(|a| *a == m.app).unwrap_or(0);
            let vs = ms
                .iter()
                .filter(|x| x.app == m.app)
                .position(|x| std::ptr::eq(x, m))
                .unwrap_or(0);
            let n_var = ms.iter().filter(|x| x.app == m.app).count().max(1);
            let x = sx(
                (slot as f64 + 0.18 + 0.64 * (vs as f64 + 0.5) / n_var as f64) / apps.len() as f64,
            );
            let gbps = eff * roof;
            let class = if m.variant.is_native() {
                "pnat"
            } else {
                "psyc"
            };
            let scheme = m.scheme.map(|s| format!(" [{s:?}]")).unwrap_or_default();
            let _ = write!(
                h,
                "<circle cx=\"{x:.1}\" cy=\"{:.1}\" r=\"3.2\" class=\"{class}\">\
                 <title>{} · {}{}: {gbps:.0} GB/s ({:.0}% of roof)</title></circle>",
                sy(gbps),
                esc(m.app),
                esc(&m.variant.label()),
                esc(&scheme),
                eff * 100.0,
            );
        }
        h.push_str("</svg>");
    }
    h.push_str("</div></section>");
}

/// Best (highest-efficiency) cell for (app, variant label) on a platform.
fn best_cell<'m>(ms: &'m [Measurement], app: &str, variant: &str) -> Option<&'m Measurement> {
    ms.iter()
        .filter(|m| m.app == app && m.variant.label() == variant)
        .max_by(|a, b| {
            let ea = a.efficiency.unwrap_or(-1.0);
            let eb = b.efficiency.unwrap_or(-1.0);
            ea.partial_cmp(&eb).unwrap_or(std::cmp::Ordering::Equal)
        })
}

/// Section 4: efficiency heatmap per platform + Pennycook PP̄ table.
fn render_heatmap(h: &mut String, study: &[(PlatformId, Vec<Measurement>)]) {
    h.push_str(
        "<section><h2>Portability heatmap (achieved efficiency)</h2>\
         <p>Efficiency = effective bandwidth / STREAM roof, per (app, variant); \
         MG-CFD shows its best race-resolution scheme. Holes are failed or \
         unsupported configurations, as in Figures 10–11.</p>",
    );
    for (pid, ms) in study {
        let plat = Platform::get(*pid);
        let variants = distinct(ms.iter().map(|m| m.variant.label()));
        let rows = distinct(ms.iter().map(|m| m.app)).into_iter().map(|app| {
            let mut row = format!("<tr><td>{}</td>", esc(app));
            for v in &variants {
                match best_cell(ms, app, v).map(|m| (&m.runtime, m.efficiency)) {
                    Some((Ok(_), Some(eff))) => {
                        let _ = write!(
                            row,
                            "<td class=\"n\" style=\"background:{}\">{:.0}%</td>",
                            eff_colour(eff),
                            eff * 100.0,
                        );
                    }
                    Some((Err(k), _)) => {
                        let _ = write!(row, "<td class=\"hole\">{k:?}</td>");
                    }
                    Some(_) => row.push_str("<td class=\"hole\">?</td>"),
                    None => row.push_str("<td class=\"hole\">-</td>"),
                }
            }
            row + "</tr>"
        });
        let _ = write!(h, "<h3>{}</h3>", esc(plat.name));
        let head = std::iter::once("").chain(variants.iter().map(String::as_str));
        table(h, "heat", head, rows);
    }

    // PP̄ across the full platform set, per app: best-native vs best-SYCL.
    h.push_str("<h3>Pennycook PP̄ across all six platforms</h3>");
    let apps = distinct(study.iter().flat_map(|(_, ms)| ms.iter().map(|m| m.app)));
    let rows = apps.into_iter().map(|app| {
        let best = |native: bool| -> Vec<Option<f64>> {
            study
                .iter()
                .map(|(_, ms)| {
                    ms.iter()
                        .filter(|m| m.app == app && m.variant.is_native() == native)
                        .filter_map(|m| m.efficiency)
                        .fold(None, |acc: Option<f64>, e| {
                            Some(acc.map_or(e, |a| a.max(e)))
                        })
                })
                .collect()
        };
        let fmt_pp = |effs: Vec<Option<f64>>| {
            let pp = pennycook(&effs, false);
            if pp == 0.0 {
                "—".to_owned()
            } else {
                format!("{:.0}%", pp * 100.0)
            }
        };
        format!(
            "<tr><td>{}</td><td class=\"n\">{}</td><td class=\"n\">{}</td></tr>",
            esc(app),
            fmt_pp(best(true)),
            fmt_pp(best(false)),
        )
    });
    table(h, "", ["app", "best native", "best SYCL"], rows);
    h.push_str("</section>");
}

/// Section 5 — "Data movement": what the interconnect costs every app,
/// priced by [`bench_harness::transfer`] (the rows of `TRANSFER.json`)
/// — stacked kernel-vs-transfer bars per app × platform, the
/// pinned-vs-pageable bandwidth delta per link, and the CPU-vs-GPU
/// crossover table with and without transfers priced.
fn render_data_movement(h: &mut String) {
    h.push_str("<section><h2>Data movement</h2>");

    // Stacked kernel-vs-transfer bars, one panel per app, one bar per
    // platform (total run time, interconnect share on top).
    let splits = transfer::app_splits();
    h.push_str(
        "<p>Per-app kernel vs interconnect time (native toolchains, paper sizes, \
         pinned allocations): <span style=\"color:#1f77b4\">&#9632;</span> kernels, \
         <span style=\"color:#ff7f0e\">&#9632;</span> transfers + halo exchanges. \
         The historic model gave the orange share away for free.</p>\
         <div class=\"panels\">",
    );
    for app in apps::ALL {
        let rows: Vec<&transfer::AppSplit> = splits.iter().filter(|s| s.app == app).collect();
        let max_total = rows.iter().map(|s| s.total_secs).fold(1e-12f64, f64::max);
        const W: f64 = 380.0;
        const H: f64 = 230.0;
        const ML: f64 = 10.0;
        const MT: f64 = 24.0;
        const MB: f64 = 30.0;
        let bw = (W - 2.0 * ML) / rows.len().max(1) as f64;
        let _ = write!(
            h,
            "<svg viewBox=\"0 0 {W} {H}\" role=\"img\">\
             <text x=\"{:.0}\" y=\"14\" class=\"title\">{}</text>",
            W / 2.0,
            esc(app),
        );
        for (i, s) in rows.iter().enumerate() {
            let platform = s.platform.label();
            let x = ML + bw * i as f64 + bw * 0.12;
            let wid = bw * 0.76;
            let hk = (H - MT - MB) * s.kernel_secs / max_total;
            let ht = (H - MT - MB) * s.transfer_secs / max_total;
            let y_t = H - MB - hk - ht;
            let _ = write!(
                h,
                "<rect x=\"{x:.1}\" y=\"{:.1}\" width=\"{wid:.1}\" height=\"{hk:.1}\" class=\"pnat\">\
                 <title>{platform} kernels: {}</title></rect>\
                 <rect x=\"{x:.1}\" y=\"{y_t:.1}\" width=\"{wid:.1}\" height=\"{ht:.1}\" class=\"psyc\">\
                 <title>{platform} transfers: {}</title></rect>\
                 <text x=\"{:.1}\" y=\"{:.1}\" class=\"tick\" text-anchor=\"middle\">{platform}</text>",
                H - MB - hk,
                fmt_secs(s.kernel_secs),
                fmt_secs(s.transfer_secs),
                x + wid / 2.0,
                H - MB + 12.0,
            );
        }
        h.push_str("</svg>");
    }
    h.push_str("</div>");

    // Pinned vs pageable: the allocation-kind delta per platform × dir.
    h.push_str(
        "<h3>Pinned vs pageable host allocations</h3>\
         <p>Sustained link bandwidth at the largest calibrated copy; in-package \
         (CPU) links have no allocation distinction.</p>",
    );
    let curves = transfer::curves(&transfer::LADDER);
    let rows = transfer::pinned_deltas(&curves)
        .into_iter()
        .map(|(platform, dir, pin, page)| {
            format!(
                "<tr><td>{}</td><td><code>{}</code></td><td class=\"n\">{pin:.1}</td>\
                 <td class=\"n\">{page:.1}</td><td class=\"n\">{:.2}&times;</td></tr>",
                platform.label(),
                dir.label(),
                pin / page,
            )
        });
    let head = [
        "platform",
        "dir",
        "pinned GB/s",
        "pageable GB/s",
        "pinned speedup",
    ];
    table(h, "", head, rows);

    // The crossover table: how pricing data movement shifts the best
    // CPU vs best GPU comparison per app.
    h.push_str(
        "<h3>CPU-vs-GPU crossover</h3>\
         <p>GPU speedup over the best CPU (&gt; 1 = GPU wins), kernels only \
         (the historic free-transfer comparison) against the full priced \
         clock. A negative shift means the GPU advantage shrank once its \
         staging traffic was priced.</p>",
    );
    let rows = transfer::crossovers(&splits).into_iter().map(|c| {
        let (kernels, priced) = (c.speedup_kernels(), c.speedup_total());
        // A crossover *flip* (GPU wins one model, loses the other)
        // is the headline finding — flag the row.
        let flipped = (kernels > 1.0) != (priced > 1.0);
        let cls = if flipped { "n bad" } else { "n" };
        format!(
            "<tr><td><code>{}</code></td><td>{}</td><td>{}</td>\
             <td class=\"n\">{kernels:.2}&times;</td><td class=\"n\">{priced:.2}&times;</td>\
             <td class=\"{cls}\">{:+.1}%{}</td></tr>",
            c.cpu.app,
            c.gpu.platform.label(),
            c.cpu.platform.label(),
            c.shift_pct(),
            if flipped { " (crossover flips)" } else { "" },
        )
    });
    let head = [
        "app",
        "best GPU",
        "best CPU",
        "speedup (kernels)",
        "speedup (priced)",
        "shift",
    ];
    table(h, "", head, rows);
    h.push_str("</section>");
}

/// Section 6: the cross-product study from the last `study` run — a
/// per-cell status grid (app × platform over every variant), the fleet
/// counters (retries, restarts, timeouts, utilisation) and the PP̄ rows
/// computed over exactly what that study executed.
///
/// Parsed generically from `STUDY.json` (schema `sycl-study/v1`): the
/// study crate sits *above* this one in the dependency graph, so the
/// dashboard reads the document rather than the types.
fn render_study_run(h: &mut String, out_dir: &Path) {
    h.push_str("<section><h2>Cross-product study</h2>");
    let path = out_dir.join("STUDY.json");
    let doc = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| json::parse(&t).ok());
    let Some(doc) = doc else {
        h.push_str(
            "<p>No <code>STUDY.json</code> next to the dashboard — run \
             <code>cargo run --release -p sycl-study --bin study -- --paper --workers 4</code> \
             to execute the full cross-product under the crash-tolerant \
             orchestrator.</p></section>",
        );
        return;
    };
    let records: Vec<&Json> = match doc.get("records") {
        Some(Json::Arr(a)) => a.iter().collect(),
        _ => Vec::new(),
    };
    if records.is_empty() || doc.str_of("schema") != Some("sycl-study/v1") {
        let _ = write!(
            h,
            "<p><code>{}</code> is not a readable study document.</p></section>",
            esc(&path.display().to_string()),
        );
        return;
    }

    let (mut ok, mut holes, mut crashed, mut retried) = (0usize, 0usize, 0usize, 0usize);
    for r in &records {
        match r.str_of("status") {
            Some("ok") => ok += 1,
            Some("hole") => holes += 1,
            _ => crashed += 1,
        }
        if r.u64_of("attempt").unwrap_or(1) > 1 {
            retried += 1;
        }
    }
    let _ = write!(
        h,
        "<p>Scope <b>{}</b> from <code>{}</code>: {} units — \
         <b>{ok}</b> measured, <b>{holes}</b> modelled paper holes, \
         <b>{crashed}</b> crashed after bounded retries; {retried} unit(s) \
         recovered on attempt &gt; 1.</p>",
        esc(doc.str_of("scope").unwrap_or("?")),
        esc(&path.display().to_string()),
        records.len(),
    );
    if let Some(s) = doc.get("stats") {
        let workers = s.u64_of("workers").unwrap_or(0);
        let elapsed = s.f64_of("elapsedSecs").unwrap_or(0.0);
        let busy = s.f64_of("busySecs").unwrap_or(0.0);
        let util = if workers > 0 && elapsed > 0.0 {
            busy / (workers as f64 * elapsed) * 100.0
        } else {
            0.0
        };
        let _ = write!(
            h,
            "<p>Fleet: {workers} worker process(es), elapsed {}, busy {}, \
             utilisation {util:.0}%, retries {}, worker restarts {}, \
             timeouts {}, resumed from journal {}.</p>",
            fmt_secs(elapsed),
            fmt_secs(busy),
            s.u64_of("retries").unwrap_or(0),
            s.u64_of("restarts").unwrap_or(0),
            s.u64_of("timeouts").unwrap_or(0),
            s.u64_of("resumed").unwrap_or(0),
        );
        let rss = s.u64_of("peakRssKb").unwrap_or(0);
        if rss > 0 {
            let _ = write!(
                h,
                "<p>Peak worker RSS (VmHWM from the exit frames): \
                 <b>{:.1} MiB</b>.</p>",
                rss as f64 / 1024.0
            );
        }
    }

    // Status grid: apps × platforms, each cell summarising that cell's
    // variant column ("measured/total", ✗ if any variant crashed, ⟲ if
    // any needed a retry; hover for the per-variant breakdown).
    let platforms = distinct(records.iter().filter_map(|r| r.str_of("platform")));
    let apps = distinct(records.iter().filter_map(|r| r.str_of("app")));
    let rows = apps.into_iter().map(|app| {
        let mut row = format!("<tr><td>{}</td>", esc(app));
        for &plat in &platforms {
            let cell: Vec<&&Json> = records
                .iter()
                .filter(|r| r.str_of("app") == Some(app) && r.str_of("platform") == Some(plat))
                .collect();
            if cell.is_empty() {
                row.push_str("<td class=\"hole\">-</td>");
                continue;
            }
            let c_ok = cell
                .iter()
                .filter(|r| r.str_of("status") == Some("ok"))
                .count();
            let c_crash = cell
                .iter()
                .filter(|r| r.str_of("status") == Some("crashed"))
                .count();
            let c_retry = cell
                .iter()
                .filter(|r| r.u64_of("attempt").unwrap_or(1) > 1)
                .count();
            let mut tip = String::new();
            for r in &cell {
                let _ = writeln!(
                    tip,
                    "{} {}{}: {}{}",
                    r.str_of("toolchain").unwrap_or("?"),
                    if r.get("ndRange").map(|b| matches!(b, Json::Bool(true))) == Some(true) {
                        "ndrange"
                    } else {
                        "flat"
                    },
                    r.str_of("scheme")
                        .map(|s| format!(" #{s}"))
                        .unwrap_or_default(),
                    r.str_of("status").unwrap_or("?"),
                    r.str_of("failure")
                        .map(|f| format!(" ({f})"))
                        .unwrap_or_default(),
                );
            }
            let bg = if c_crash > 0 {
                "#f3c2c2".to_owned()
            } else {
                eff_colour(c_ok as f64 / cell.len() as f64)
            };
            let _ = write!(
                row,
                "<td class=\"n\" style=\"background:{bg}\" title=\"{}\">{c_ok}/{}{}{}</td>",
                esc(tip.trim_end()),
                cell.len(),
                if c_crash > 0 { " ✗" } else { "" },
                if c_retry > 0 { " ⟲" } else { "" },
            );
        }
        row + "</tr>"
    });
    let head = std::iter::once("").chain(platforms.iter().copied());
    table(h, "heat", head, rows);

    if let Some(Json::Arr(pp)) = doc.get("pp") {
        if !pp.is_empty() {
            h.push_str(
                "<h3>PP̄ over the study</h3>\
                 <p>Harmonic-mean performance portability computed from the \
                 journaled records — exactly the cells this study ran, crashes \
                 excluded.</p>",
            );
            let rows = pp.iter().map(|row| {
                format!(
                    "<tr><td>{}</td><td class=\"n\">{:.2}</td></tr>",
                    esc(row.str_of("label").unwrap_or("?")),
                    row.f64_of("value").unwrap_or(0.0),
                )
            });
            table(h, "", ["configuration", "PP̄"], rows);
        }
    }
    h.push_str("</section>");
}

/// Section 7: static graph-lint findings over every app on the A100.
fn render_graphlint(h: &mut String) {
    h.push_str(
        "<section><h2>Graph lint</h2>\
         <p>Static dataflow analysis over the recorded launch graphs: \
         hazards, halo-exchange coverage, dead code and fusion \
         candidates with modelled savings.</p>",
    );
    let linted: Vec<(&str, Vec<Diagnostic>)> = apps::ALL
        .iter()
        .map(|&app| {
            let runs = reports::lint(app, PlatformId::A100).expect("paper apps run on the A100");
            (app, runs.into_iter().flat_map(|r| r.diagnostics).collect())
        })
        .collect();
    let rows = linted.iter().map(|(app, diags)| {
        let unique = report::dedup(diags);
        let tally = |s: Severity| unique.iter().filter(|(d, _)| d.severity == s).count();
        let errors = tally(Severity::Error);
        let cls = if errors > 0 { " class=\"bad\"" } else { "" };
        format!(
            "<tr><td><code>{}</code></td><td{cls}>{errors}</td><td>{}</td><td>{}</td></tr>",
            esc(app),
            tally(Severity::Warning),
            tally(Severity::Info),
        )
    });
    table(h, "", ["app", "errors", "warnings", "infos"], rows);

    // Every Error/Warning, plus the fusion candidates: the findings a
    // reader acts on.
    let mut shown = false;
    for (app, diags) in &linted {
        for (d, count) in report::dedup(diags) {
            let interesting =
                d.severity != Severity::Info || d.detail.starts_with("fusion candidate");
            if !interesting {
                continue;
            }
            if !shown {
                h.push_str("<ul>");
                shown = true;
            }
            let times = if count > 1 {
                format!(" (&times;{count})")
            } else {
                String::new()
            };
            let _ = write!(
                h,
                "<li><b>{}</b> <code>{}</code> <code>{}</code>: {}{times}</li>",
                d.severity,
                esc(app),
                esc(&d.kernel),
                esc(&d.detail),
            );
        }
    }
    if shown {
        h.push_str("</ul>");
    } else {
        h.push_str("<p>No Error or Warning findings and no fusion candidates.</p>");
    }
    h.push_str("</section>");
}

const HEAD: &str = r#"<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>sycl-sim performance dashboard</title>
<style>
body { font: 13px/1.45 system-ui, sans-serif; margin: 1.2rem 2rem; color: #1c2330; }
h1 { font-size: 1.3rem; margin: 0; }
h2 { font-size: 1.05rem; border-bottom: 1px solid #d5dbe4; padding-bottom: .25rem; margin-top: 1.6rem; }
h3 { font-size: .92rem; margin: 1rem 0 .3rem; }
.meta { color: #5a6575; margin: .2rem 0 0; }
code { background: #f0f2f6; padding: 0 .25em; border-radius: 3px; }
table { border-collapse: collapse; margin: .4rem 0 .8rem; }
th, td { border: 1px solid #d5dbe4; padding: .18rem .5rem; text-align: left; }
th { background: #f0f2f6; cursor: pointer; user-select: none; }
td.n { text-align: right; font-variant-numeric: tabular-nums; }
td.hole { background: #eceef2; color: #8a93a1; text-align: center; font-size: .82em; }
.warn { background: #fff3cd; border: 1px solid #e5c75a; padding: .3rem .6rem; border-radius: 4px; }
td.bad { background: #fde8e6; color: #c0392b; font-weight: 600; }
.panels { display: flex; flex-wrap: wrap; gap: .6rem; }
.panels svg { width: 380px; height: 230px; }
svg { background: #fbfcfe; border: 1px solid #d5dbe4; border-radius: 4px; }
svg .axis { stroke: #7a8494; stroke-width: 1; }
svg .roof { stroke: #c0392b; stroke-width: 1; stroke-dasharray: 5 3; }
svg .rooflab { fill: #c0392b; font-size: 9px; }
svg .title { font-size: 11px; font-weight: 600; text-anchor: middle; fill: #1c2330; }
svg .tick { font-size: 8.5px; fill: #5a6575; }
svg .pnat { fill: #1f77b4; opacity: .85; }
svg .psyc { fill: #ff7f0e; opacity: .85; }
details summary { margin: .5rem 0 .2rem; }
</style></head><body>
"#;

const SCRIPT: &str = r#"<script>
// Render unix timestamps in the reader's locale.
for (const el of document.querySelectorAll('.ts')) {
  const s = Number(el.dataset.unix);
  el.textContent = s ? new Date(s * 1000).toISOString().replace('T', ' ').slice(0, 19) + 'Z' : '?';
}
// Click-to-sort for kernel tables: numeric via data-v, else text.
for (const th of document.querySelectorAll('table.sortable th')) {
  th.addEventListener('click', () => {
    const table = th.closest('table');
    const idx = [...th.parentNode.children].indexOf(th);
    const dir = th.dataset.dir === 'asc' ? -1 : 1;
    th.dataset.dir = dir === 1 ? 'asc' : 'desc';
    const rows = [...table.tBodies[0].rows];
    rows.sort((a, b) => {
      const [ca, cb] = [a.cells[idx], b.cells[idx]];
      const [va, vb] = [ca.dataset.v ?? ca.textContent, cb.dataset.v ?? cb.textContent];
      const [na, nb] = [parseFloat(va), parseFloat(vb)];
      return (isNaN(na) || isNaN(nb)) ? dir * va.localeCompare(vb) : dir * (na - nb);
    });
    rows.forEach(r => table.tBodies[0].appendChild(r));
  });
}
</script>
"#;

#[cfg(test)]
mod tests {
    use super::traces_test_run;

    #[test]
    fn only_a_test_size_trace_of_the_same_platform_is_linked() {
        let doc = |mode: &str, platform: &str| {
            format!(
                r#"{{"app": "mgcfd", "platform": "{platform}", "mode": "{mode}", "traceEvents": []}}"#
            )
        };
        assert!(traces_test_run(&doc("test", "a100"), "a100"));
        assert!(!traces_test_run(&doc("paper", "a100"), "a100"));
        assert!(!traces_test_run(&doc("test", "genoax"), "a100"));
        assert!(!traces_test_run("{\"mode\": \"test\"", "a100"));
    }
}
