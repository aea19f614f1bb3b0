//! `blackbox` — fleet forensics over a study's crash artefacts.
//!
//! ```text
//! blackbox                             # results/study.journal + results/flight/
//! blackbox --journal J --flight DIR    # explicit inputs
//! blackbox --out results               # where the artefacts land
//! blackbox --gate                      # nonzero exit if any crashed
//!                                      # unit lacks a kill-site span
//! blackbox --runs                      # list the retained run dirs
//! blackbox --run run-0002-study        # forensics over one older run
//! blackbox --diff cloverleaf2d/a100/sycl-usm
//!                                      # one unit's dispatches across
//!                                      # every retained run
//! ```
//!
//! The study keeps the last N runs' recordings in `run-<seq>-<journal>`
//! subdirectories under the flight dir (`study --retain`, default 3).
//! `blackbox` reads the newest run by default; `--run` selects an
//! older one and `--diff` compares a flaky unit across all of them.
//!
//! Reads the resume journal and every per-process flight recording,
//! attributes each crashed/timed-out unit to the span it died in,
//! runs the straggler/tail analysis, and writes:
//!
//! * `<out>/BLACKBOX_study.json` — the forensics document
//!   (`schema: "sycl-blackbox/v1"`), rendered by the dashboard's
//!   "Fleet forensics" section.
//! * `<out>/TRACE_study.json` — the merged cross-process Chrome trace
//!   (open in Perfetto; flow arrows join dispatch → execution →
//!   result across pids).

use std::path::PathBuf;
use std::process::ExitCode;
use study::forensics::{analyze, chrome_fleet_trace, load_flight_dir, unit_history};
use study::orchestrator::{flight_run_dirs, latest_flight_run, read_journal};

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("blackbox: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut journal = PathBuf::from("results/study.journal");
    let mut flight = PathBuf::from("results/flight");
    let mut out_dir = PathBuf::from("results");
    let mut gate = false;
    let mut list_runs = false;
    let mut run_name: Option<String> = None;
    let mut diff_unit: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |what: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{what} needs a value"))
        };
        match a.as_str() {
            "--journal" => journal = PathBuf::from(val("--journal")?),
            "--flight" => flight = PathBuf::from(val("--flight")?),
            "--out" => out_dir = PathBuf::from(val("--out")?),
            "--gate" => gate = true,
            "--runs" => list_runs = true,
            "--run" => run_name = Some(val("--run")?.clone()),
            "--diff" => diff_unit = Some(val("--diff")?.clone()),
            other => return Err(format!("unknown flag '{other}' (see crate docs)")),
        }
    }

    let retained = flight_run_dirs(&flight);
    if list_runs {
        if retained.is_empty() {
            println!("no retained runs under {} (flat layout?)", flight.display());
        }
        for (_, path) in &retained {
            let n = load_flight_dir(path).len();
            println!(
                "{}  ({n} recording(s))",
                path.file_name().unwrap_or_default().to_string_lossy()
            );
        }
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(unit_id) = diff_unit {
        return diff_across_runs(&flight, &retained, &unit_id);
    }

    // The newest retained run is the default subject; `--run` picks an
    // older one; a dir with no run subdirectories is read as-is.
    let flight = match run_name {
        Some(name) => {
            let dir = flight.join(&name);
            if !dir.is_dir() {
                return Err(format!("no run '{name}' under {}", flight.display()));
            }
            dir
        }
        None => latest_flight_run(&flight),
    };

    let records = read_journal(&journal);
    if records.is_empty() {
        return Err(format!(
            "no terminal records in {} — run a study first",
            journal.display()
        ));
    }
    let recordings = load_flight_dir(&flight);
    let doc = analyze(&records, &recordings);

    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let doc_path = out_dir.join("BLACKBOX_study.json");
    std::fs::write(&doc_path, doc.to_json()).map_err(|e| e.to_string())?;
    let trace_path = out_dir.join("TRACE_study.json");
    std::fs::write(&trace_path, chrome_fleet_trace(&recordings)).map_err(|e| e.to_string())?;

    println!(
        "blackbox: {} units ({} ok, {} holes, {} crashed) over {} recording(s)",
        doc.units,
        doc.ok,
        doc.holes,
        doc.crashed,
        doc.recordings.len()
    );
    for a in &doc.attributions {
        match (&a.span_kind, &a.span_name) {
            (Some(kind), Some(name)) => println!(
                "  {} (worker {}, attempt {}, trace {}): died in {kind} '{name}' after {:.3}s — {}",
                a.unit_id, a.worker, a.attempt, a.trace, a.in_span_secs, a.note
            ),
            _ => println!(
                "  {} (worker {}, attempt {}, trace {}): NO ATTRIBUTION — {}",
                a.unit_id, a.worker, a.attempt, a.trace, a.note
            ),
        }
    }
    println!(
        "stragglers (unit wall >= p99 = {:.3}s): {}",
        doc.tail_p99_secs,
        doc.tail_units.join(", ")
    );
    if doc.tail_kernels.is_empty() {
        println!("  no launch spans in their windows (dry-run studies record none)");
    }
    for k in &doc.tail_kernels {
        println!("  {:24} {:8.3}s  {:5.1}%", k.name, k.secs, k.share * 100.0);
    }
    println!("wrote {} and {}", doc_path.display(), trace_path.display());

    if gate && doc.unattributed > 0 {
        eprintln!(
            "blackbox --gate: {} crashed unit(s) without kill-site attribution",
            doc.unattributed
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `--diff`: one unit's dispatch history in every retained run — the
/// view that separates "flaky unit" (dies in different places, or only
/// under one scheduler mix) from "deterministic crash" (same kill site
/// every run). Needs no journal; verdicts come from the orchestrator's
/// result marks inside each run's own recordings.
fn diff_across_runs(
    flight: &std::path::Path,
    retained: &[(u64, PathBuf)],
    unit_id: &str,
) -> Result<ExitCode, String> {
    // Flat legacy layout: treat the flight dir itself as the only run.
    let runs: Vec<PathBuf> = if retained.is_empty() {
        vec![flight.to_path_buf()]
    } else {
        retained.iter().map(|(_, p)| p.clone()).collect()
    };
    let mut seen = 0usize;
    for dir in &runs {
        let name = dir.file_name().unwrap_or_default().to_string_lossy();
        let hist = unit_history(&load_flight_dir(dir), unit_id);
        if hist.is_empty() {
            println!("{name}: unit not dispatched");
            continue;
        }
        seen += 1;
        println!("{name}:");
        for d in hist {
            let verdict = d.result.as_deref().unwrap_or("no result (run died)");
            let site = match &d.open_span {
                Some(span) => format!("  [open at end: {span}]"),
                None => String::new(),
            };
            let worker = if d.worker == study::orchestrator::ORCH_SLOT {
                "orch".to_owned()
            } else {
                d.worker.to_string()
            };
            println!(
                "  trace {:>4}  attempt {}  worker {:>4}  {:>9.3}s  {verdict}{site}",
                d.trace, d.attempt, worker, d.wall_secs
            );
        }
    }
    if seen == 0 {
        return Err(format!(
            "unit '{unit_id}' appears in no retained run under {}",
            flight.display()
        ));
    }
    Ok(ExitCode::SUCCESS)
}
