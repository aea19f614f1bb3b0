//! `fleet_study`: `study::run_study` over the paper scope with `nproc`
//! worker processes, default repetitions, a journal and flight recording
//! on — as `study --paper` runs it. The only workload that reaches the
//! orchestrator, the framed pipe protocol, worker respawn, the journal
//! and `telemetry::flight`; `paper_sweep` prices the same cells without
//! any of them.

use crate::pace::{Paced, Pacer};
use crate::trace::Tracer;
use crate::{
    another, guarded, host, mib, out_dir, stopwatch, sweep, Report, Timed, Traced, SETUP_REPS,
};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;
use study::{run_study, Scope, StudyConfig, StudyOutcome, UnitStatus};

fn config(workers: usize) -> StudyConfig {
    let dir = out_dir().join("fleet");
    let mut cfg = StudyConfig::new(Scope::Paper);
    cfg.workers = workers;
    cfg.journal = Some(dir.join("study.journal"));
    if workers > 0 {
        cfg.flight_dir = Some(dir.join("flight"));
        let exe = std::env::current_exe().expect("the benchmark knows its own path");
        cfg.worker_cmd = vec![exe.to_string_lossy().into_owned()];
    }
    cfg
}

/// Each cell's `paper_sweep` outcome: the modelled runtime, or the hole.
struct Expected(HashMap<String, Result<f64, sycl_sim::FailureKind>>);

impl Expected {
    fn measure() -> Expected {
        Expected(
            sweep::cells(0)
                .iter()
                .map(|c| (c.id(), c.measure().runtime))
                .collect(),
        )
    }

    /// Failed units: not terminal-and-matching. Every unit must end `ok`
    /// or a modelled hole, with the status and simulated seconds that
    /// `paper_sweep` computes for the same cell.
    fn failures(&self, out: &StudyOutcome) -> (u64, Option<String>) {
        let mut failed = 0;
        let mut first = None;
        let mut fail = |why: String| {
            failed += 1;
            first.get_or_insert(why);
        };
        for r in &out.records {
            let want = self.0.get(&r.id());
            let ok = match (&r.status, want) {
                (UnitStatus::Ok, Some(Ok(t))) => r.sim_secs.map(f64::to_bits) == Some(t.to_bits()),
                (UnitStatus::Hole(kind), Some(Err(want))) => kind == want,
                _ => false,
            };
            if !ok {
                fail(format!(
                    "unit {} ended {:?} with {:?}, expected {want:?}",
                    r.id(),
                    r.status,
                    r.sim_secs
                ));
            }
        }
        let missing = self.0.len().saturating_sub(out.records.len()) as u64;
        if missing > 0 {
            failed += missing;
            first.get_or_insert(format!("{missing} units never became terminal"));
        }
        (failed, first)
    }
}

/// Run one study and check it; `Err` when the study itself failed.
fn study_once(
    cfg: &StudyConfig,
    expected: &Expected,
    report: &mut Report,
) -> Result<(StudyOutcome, f64), String> {
    let (out, wall) = stopwatch(|| guarded(|| run_study(cfg)));
    let units = expected.0.len() as u64;
    let out = match out.and_then(|r| r) {
        Ok(out) => out,
        Err(e) => {
            report.ops(units, Err(format!("study failed: {e}")));
            return Err(e);
        }
    };
    let (failed, first) = expected.failures(&out);
    report.attempted += units;
    report.failed += failed;
    if let Some(why) = first {
        eprintln!("simbench: output check failed: {why} ({failed} units)");
    }
    Ok((out, wall))
}

fn set_up() -> (StudyConfig, Expected) {
    let cfg = config(host::nproc());
    let expected = Expected::measure();
    // Warm-up study: spawns and retires one fleet before timing starts.
    let _ = study_once(&cfg, &expected, &mut Report::default());
    (cfg, expected)
}

pub fn timed(args: &crate::Args) -> Timed {
    let mut pacer = Pacer::cpu();
    let mut setup = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        let (r, p) = pacer.time(set_up);
        setup.push(p);
        ready = Some(r);
    }
    let (cfg, expected) = ready.expect("SETUP_REPS >= 1");
    let mut report = Report::default();
    let mut ops: Vec<Paced> = Vec::new();
    let mut worker_rss_kb = 0;
    let mut failed_studies = 0;
    let started = Instant::now();
    let last = |ops: &[Paced]| ops.last().map_or(0.0, |p| p.wall);
    while failed_studies < 3 && another(started, args.budget, ops.len(), 1, last(&ops)) {
        let (study, round) = pacer.time(|| study_once(&cfg, &expected, &mut report));
        match study {
            Ok((out, wall)) => {
                ops.push(Paced {
                    wall,
                    slowdown: round.slowdown,
                });
                worker_rss_kb = worker_rss_kb.max(out.stats.peak_rss_kb);
            }
            Err(_) => failed_studies += 1,
        }
    }
    Timed {
        report,
        setup,
        rounds: ops.iter().map(|&p| (expected.0.len() as f64, p)).collect(),
        ops,
        op_name: "study (run_study, paper scope)",
        work_name: "units",
        child_rss_mib: worker_rss_kb as f64 / 1024.0,
        pacer_mib: mib(pacer.resident_bytes()),
        notes: vec![format!("{} workers", cfg.workers)],
    }
}

pub fn untraced_wall() -> f64 {
    let (cfg, expected) = set_up();
    study_once(&cfg, &expected, &mut Report::default()).map_or(f64::NAN, |(_, wall)| wall)
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.file_type() {
                Ok(t) if t.is_dir() => dir_bytes(&e.path()),
                Ok(_) => e.metadata().map_or(0, |m| m.len()),
                Err(_) => 0,
            })
            .sum()
    })
}

pub fn traced(tracer: &Tracer) -> Traced {
    let (mut cfg, expected) = set_up();
    let mut report = Report::default();
    let flight = cfg.flight_dir.clone().expect("fleet runs record flights");
    // Only this run's recordings, so their size is per unit of this run.
    let _ = std::fs::remove_dir_all(&flight);
    let units = expected.0.len() as f64;
    let fleet = tracer.span("study.fleet", 0, 0, |_| {
        study_once(&cfg, &expected, &mut report)
    });
    let Ok((out, wall_s)) = fleet else {
        return Traced {
            report,
            wall_s: f64::NAN,
        };
    };
    let s = out.stats;
    report.metric(
        "study.utilisation",
        s.busy_secs / (s.workers.max(1) as f64 * s.elapsed_secs),
        "ratio",
    );
    report.metric("study.retries", s.retries as f64, "count");
    report.metric("study.restarts", s.restarts as f64, "count");
    report.metric("study.timeouts", s.timeouts as f64, "count");
    report.metric(
        "study.worker_rss_mb",
        s.peak_rss_kb as f64 / 1024.0 * 1.048576,
        "MB",
    );
    report.metric(
        "flight.bytes_per_unit",
        dir_bytes(&flight) as f64 / units,
        "B",
    );

    // The orchestrator bypass: the same study in-process, untraced like
    // the fleet's workers are.
    cfg = config(0);
    telemetry::TelemetryConfig::disabled().install();
    let serial = tracer.span("study.serial", 0, 0, |_| {
        study_once(&cfg, &expected, &mut report)
    });
    telemetry::TelemetryConfig::enabled().install();
    if let Ok((_, serial_s)) = serial {
        let serial_rate = units / serial_s;
        report.metric("study.serial_units_per_s", serial_rate, "1/s");
        report.metric("study.fleet_gain", units / wall_s / serial_rate, "ratio");
    }
    Traced { report, wall_s }
}
