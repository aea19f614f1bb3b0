//! `study` — run the paper's cross-product as one command.
//!
//! ```text
//! study --paper --workers 4            # the full study, 4 processes
//! study --smoke                        # CI-sized subset
//! study --paper --resume               # continue an interrupted run
//! study --chaos 0.2 --chaos-seed 7     # fault-injected run
//! study --no-flight                    # disable flight recordings
//! ```
//!
//! Each worker of a fleet run keeps a crash-surviving flight recording
//! of its unit spans in `<out>/flight/` by default (`--flight-dir`
//! moves them). A fresh run clears the previous run's recordings there;
//! `--resume` keeps them.
//!
//! Writes `<out>/STUDY.json` (the study document) and prints the
//! per-status counts, fleet stats and PP̄ table. If stdout closes early
//! (`study ... | head`), the summary stops there and the exit code is
//! non-zero; the document is already written.
//!
//! `--worker <id>` is the internal mode the orchestrator re-executes
//! this binary into; it speaks the framed protocol on stdin/stdout.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use study::orchestrator::{run_study, StudyConfig};
use study::report::{pp_rows, StudyDoc};
use study::unit::Scope;
use study::{worker_cli, UnitStatus};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--worker") {
        return ExitCode::from(worker_cli(&args) as u8);
    }
    let (doc, study_path) = match study_cli(&args) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("study: {e}");
            return ExitCode::FAILURE;
        }
    };
    match print_summary(&mut io::stdout().lock(), &doc, &study_path) {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that went away (`study | head`) wants no more output.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("study: stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run the study and write its document. Returns the document and the
/// path written.
fn study_cli(args: &[String]) -> Result<(StudyDoc, PathBuf), String> {
    let mut cfg = StudyConfig::new(Scope::Smoke);
    let mut out_dir = PathBuf::from("results");
    let mut no_flight = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |what: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{what} needs a value"))
        };
        match a.as_str() {
            "--paper" => cfg.scope = Scope::Paper,
            "--smoke" => cfg.scope = Scope::Smoke,
            "--workers" => cfg.workers = parse(val("--workers")?)?,
            "--reps" => cfg.reps = parse(val("--reps")?)?,
            "--chaos" => cfg.chaos = parse(val("--chaos")?)?,
            "--chaos-seed" => cfg.chaos_seed = parse(val("--chaos-seed")?)?,
            "--timeout-secs" => cfg.timeout = Duration::from_secs(parse(val("--timeout-secs")?)?),
            "--max-attempts" => cfg.max_attempts = parse::<u32>(val("--max-attempts")?)?.max(1),
            "--journal" => cfg.journal = Some(PathBuf::from(val("--journal")?)),
            "--resume" => cfg.resume = true,
            "--flight-dir" => cfg.flight_dir = Some(PathBuf::from(val("--flight-dir")?)),
            "--no-flight" => no_flight = true,
            "--out" => out_dir = PathBuf::from(val("--out")?),
            other => return Err(format!("unknown flag '{other}' (see crate docs)")),
        }
    }
    if cfg.journal.is_none() {
        cfg.journal = Some(out_dir.join("study.journal"));
    }
    // Flight recordings are on by default for fleet runs and live next
    // to the other artefacts unless pointed elsewhere.
    if no_flight {
        cfg.flight_dir = None;
    } else if cfg.flight_dir.is_none() && cfg.workers > 0 {
        cfg.flight_dir = Some(out_dir.join("flight"));
    }
    if cfg.workers > 0 {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        cfg.worker_cmd = vec![exe.to_string_lossy().into_owned()];
    }

    let outcome = run_study(&cfg)?;
    let doc = StudyDoc {
        scope: cfg.scope,
        workers: cfg.workers as u32,
        stats: outcome.stats,
        records: outcome.records,
    };
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let study_path = out_dir.join("STUDY.json");
    std::fs::write(&study_path, doc.to_json()).map_err(|e| e.to_string())?;
    Ok((doc, study_path))
}

fn print_summary(out: &mut impl Write, doc: &StudyDoc, study_path: &Path) -> io::Result<()> {
    let (ok, holes, crashed) = doc.status_counts();
    writeln!(
        out,
        "study scope={} units={} ok={} holes={} crashed={}",
        doc.scope.label(),
        doc.records.len(),
        ok,
        holes,
        crashed
    )?;
    let s = &doc.stats;
    let util = if s.workers > 0 && s.elapsed_secs > 0.0 {
        s.busy_secs / (s.workers as f64 * s.elapsed_secs)
    } else {
        0.0
    };
    writeln!(
        out,
        "fleet: workers={} elapsed={:.2}s busy={:.2}s utilisation={:.0}% retries={} restarts={} timeouts={} resumed={}",
        s.workers, s.elapsed_secs, s.busy_secs, util * 100.0, s.retries, s.restarts, s.timeouts, s.resumed
    )?;
    if s.peak_rss_kb > 0 {
        writeln!(
            out,
            "memory: peak worker RSS {:.1} MiB",
            s.peak_rss_kb as f64 / 1024.0
        )?;
    }
    let max_attempt = doc.records.iter().map(|r| r.attempt).max().unwrap_or(1);
    if max_attempt > 1 {
        let retried = doc.records.iter().filter(|r| r.attempt > 1).count();
        writeln!(
            out,
            "recovery: {retried} unit(s) completed on attempt > 1 (max attempt {max_attempt})"
        )?;
    }
    writeln!(out, "\nPP̄ over the study (harmonic mean of efficiencies):")?;
    for (label, value) in pp_rows(&doc.records) {
        writeln!(out, "  {label:28} {value:.2}")?;
    }
    let crashed_ids: Vec<String> = doc
        .records
        .iter()
        .filter(|r| matches!(r.status, UnitStatus::Crashed))
        .map(|r| r.id())
        .collect();
    if !crashed_ids.is_empty() {
        writeln!(out, "\ncrashed units: {}", crashed_ids.join(", "))?;
    }
    writeln!(out, "\nwrote {}", study_path.display())?;
    if crashed > 0 {
        writeln!(
            out,
            "note: {crashed} unit(s) crashed after bounded retries — see 'crashed' records"
        )?;
    }
    out.flush()
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("cannot parse '{s}'"))
}
