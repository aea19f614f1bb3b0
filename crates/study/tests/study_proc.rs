//! Process-level study tests: real forked workers, real crashes.
//!
//! `harness = false`: this binary doubles as the worker executable.
//! When the orchestrator under test spawns `current_exe() --worker N`,
//! `main` routes straight into `worker_cli` — the same re-exec trick
//! the production `study` binary uses.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;
use study::orchestrator::{run_study, StudyConfig, StudyOutcome};
use study::record::UnitStatus;
use study::unit::{smoke_units, Scope};
use study::worker_cli;
use telemetry::{FlightEvent, FlightRecording, SpanKind};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--worker") {
        std::process::exit(worker_cli(&args));
    }
    // `cargo test` passes filter/format flags; this binary ignores
    // them and always runs its full (fast) suite.
    parallel_study_matches_serial_modulo_timing();
    println!("test parallel_study_matches_serial_modulo_timing ... ok");
    chaos_kills_are_recovered_and_every_unit_is_accounted_for();
    println!("test chaos_kills_are_recovered_and_every_unit_is_accounted_for ... ok");
    resume_skips_journaled_units_and_tolerates_torn_lines();
    println!("test resume_skips_journaled_units_and_tolerates_torn_lines ... ok");
    hung_workers_hit_the_deadline_and_the_unit_is_retried();
    println!("test hung_workers_hit_the_deadline_and_the_unit_is_retried ... ok");
    crashed_units_are_attributed_to_their_kill_site();
    println!("test crashed_units_are_attributed_to_their_kill_site ... ok");
    stale_worker_binaries_are_rejected_at_hello();
    println!("test stale_worker_binaries_are_rejected_at_hello ... ok");
    a_closed_stdout_exits_non_zero_without_a_panic();
    println!("test a_closed_stdout_exits_non_zero_without_a_panic ... ok");
    println!("study_proc: 7 passed");
}

fn base_config() -> StudyConfig {
    let mut cfg = StudyConfig::new(Scope::Smoke);
    cfg.reps = 1;
    cfg.timeout = Duration::from_secs(60);
    cfg.worker_cmd = vec![std::env::current_exe()
        .expect("own path")
        .to_string_lossy()
        .into_owned()];
    cfg
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("study-proc-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The seeded determinism contract: N workers produce the same study
/// as a serial in-process run — identical units, statuses, simulated
/// quantities and sample counts; only wall-clock sample values and
/// worker/attempt/trace provenance may differ.
fn assert_equivalent_modulo_timing(par: &StudyOutcome, ser: &StudyOutcome) {
    assert_eq!(par.records.len(), ser.records.len());
    for (a, b) in par.records.iter().zip(&ser.records) {
        assert_eq!(a.unit, b.unit);
        assert_eq!(a.status, b.status, "{}", a.id());
        assert_eq!(a.sim_secs, b.sim_secs, "{}", a.id());
        assert_eq!(a.efficiency, b.efficiency, "{}", a.id());
        assert_eq!(a.gbps, b.gbps, "{}", a.id());
        assert_eq!(a.samples.len(), b.samples.len(), "{}: sample count", a.id());
    }
}

fn parallel_study_matches_serial_modulo_timing() {
    let mut serial = base_config();
    serial.workers = 0;
    let ser = run_study(&serial).expect("serial study");

    let mut parallel = base_config();
    parallel.workers = 3;
    let par = run_study(&parallel).expect("parallel study");

    assert_equivalent_modulo_timing(&par, &ser);
    assert_eq!(par.stats.retries, 0);
    assert_eq!(par.stats.restarts, 0);
    // Workers report VmHWM in their `bye` exit frame.
    if cfg!(target_os = "linux") {
        assert!(par.stats.peak_rss_kb > 0, "no worker reported peak RSS");
    }
    // Work actually spread across processes.
    let workers: std::collections::HashSet<u32> = par.records.iter().map(|r| r.worker).collect();
    assert!(workers.len() > 1, "only worker(s) {workers:?} did any work");
}

fn chaos_kills_are_recovered_and_every_unit_is_accounted_for() {
    let mut cfg = base_config();
    cfg.workers = 3;
    cfg.chaos = 0.35;
    cfg.chaos_seed = 7;
    cfg.max_attempts = 5;
    let out = run_study(&cfg).expect("chaos study");

    // Every unit of the scope is terminal, in canonical order.
    let units = cfg.units();
    assert_eq!(out.records.len(), units.len());
    for (r, u) in out.records.iter().zip(&units) {
        assert_eq!(&r.unit, u);
    }
    // With p=0.35 over the smoke scope some attempt-1 kills are
    // certain; the decision is a seeded hash, so this is stable, not
    // flaky.
    let retried = out.records.iter().filter(|r| r.attempt > 1).count();
    assert!(retried >= 1, "chaos killed nobody — injection is broken");
    assert!(out.stats.retries >= retried as u64);
    assert!(out.stats.restarts >= 1, "no worker was ever respawned");

    // Any exhausted unit must carry the full attempt budget.
    for r in &out.records {
        match r.status {
            UnitStatus::Crashed => assert_eq!(r.attempt, cfg.max_attempts, "{}", r.id()),
            _ => assert!(r.attempt <= cfg.max_attempts),
        }
    }

    // And the surviving measurements agree with a chaos-free serial
    // run — crashes never corrupt data, they only cost retries.
    let mut serial = base_config();
    serial.workers = 0;
    let ser = run_study(&serial).expect("serial study");
    for (a, b) in out.records.iter().zip(&ser.records) {
        if !matches!(a.status, UnitStatus::Crashed) {
            assert_eq!(a.status, b.status, "{}", a.id());
            assert_eq!(a.sim_secs, b.sim_secs, "{}", a.id());
        }
    }
}

fn resume_skips_journaled_units_and_tolerates_torn_lines() {
    let dir = tmp_dir("resume");
    let journal = dir.join("study.journal");

    let mut cfg = base_config();
    cfg.workers = 2;
    cfg.journal = Some(journal.clone());
    let first = run_study(&cfg).expect("first study");

    // Tear the journal as a crash would: keep K full lines, then half
    // of the next one.
    let text = std::fs::read_to_string(&journal).expect("journal exists");
    let lines: Vec<&str> = text.lines().collect();
    let keep = lines.len() / 2;
    let mut torn: String = lines[..keep].join("\n");
    torn.push('\n');
    torn.push_str(&lines[keep][..lines[keep].len() / 2]);
    std::fs::write(&journal, torn).expect("tear journal");

    cfg.resume = true;
    let second = run_study(&cfg).expect("resumed study");
    assert_eq!(second.stats.resumed as usize, keep, "torn line discarded");
    assert_equivalent_modulo_timing(&second, &first);

    std::fs::remove_dir_all(&dir).ok();
}

/// Chaos with no retry budget turns kills into terminal `crashed`
/// records, and the SIGKILL'd workers still leave readable flight
/// recordings: the worker flushes its unit-span open *before* the chaos
/// check, so every recording holds the unit it was running.
fn crashed_units_are_attributed_to_their_kill_site() {
    let dir = tmp_dir("crashed");
    let flight = dir.join("flight");

    let mut cfg = base_config();
    cfg.workers = 3;
    cfg.chaos = 0.35;
    cfg.chaos_seed = 7;
    cfg.max_attempts = 1;
    cfg.flight_dir = Some(flight.clone());
    let out = run_study(&cfg).expect("chaos study");

    assert!(
        out.records
            .iter()
            .any(|r| matches!(r.status, UnitStatus::Crashed)),
        "seeded chaos with max_attempts=1 must leave terminal crashes"
    );
    // Every dispatch got a distinct causal trace id.
    let traces: std::collections::HashSet<u64> = out.records.iter().map(|r| r.trace).collect();
    assert_eq!(traces.len(), out.records.len(), "trace ids not unique");
    assert!(!traces.contains(&0), "a record missed its trace stamp");

    // Workers record flat in the flight dir, one file per process. The
    // three initial workers recorded; chaos respawns add more, but a
    // worker killed with no pending work left is not respawned, so 3 is
    // the firm floor.
    let recordings: Vec<FlightRecording> = std::fs::read_dir(&flight)
        .expect("flight dir exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .map(|p| FlightRecording::read(&p).expect("recording parses"))
        .collect();
    assert!(
        recordings.len() >= 3,
        "expected worker recordings, got {}",
        recordings.len()
    );
    for rec in &recordings {
        assert!(
            rec.events.iter().any(|e| matches!(
                e,
                FlightEvent::SpanOpen {
                    kind: SpanKind::Unit,
                    ..
                }
            )),
            "worker {} (pid {}) recorded no unit span",
            rec.worker,
            rec.pid
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// A worker built from a stale checkout announces an old protocol
/// version in its `hello`; the orchestrator must refuse to run the
/// study rather than mis-frame messages mid-flight.
fn stale_worker_binaries_are_rejected_at_hello() {
    let mut cfg = base_config();
    cfg.workers = 2;
    cfg.worker_cmd.extend(["--proto-force".into(), "1".into()]);
    let err = run_study(&cfg).expect_err("version skew must be fatal");
    assert!(
        err.contains("protocol"),
        "error should name the protocol mismatch: {err}"
    );
}

fn hung_workers_hit_the_deadline_and_the_unit_is_retried() {
    let hang_id = smoke_units()
        .into_iter()
        .find(|u| u.scheme.is_none())
        .unwrap()
        .id();
    let mut cfg = base_config();
    cfg.workers = 2;
    cfg.timeout = Duration::from_secs(3);
    // Every worker gets the flag, but only attempt 1 of this unit
    // hangs — the retry after the deadline kill measures it normally.
    cfg.worker_cmd
        .extend(["--hang-once".into(), hang_id.clone()]);
    let out = run_study(&cfg).expect("study with a hung worker");

    assert_eq!(out.stats.timeouts, 1, "exactly one deadline expiry");
    assert!(out.stats.retries >= 1);
    let rec = out
        .records
        .iter()
        .find(|r| r.id() == hang_id)
        .expect("hung unit is terminal");
    assert_eq!(rec.attempt, 2, "completed on the retry");
    assert!(
        !matches!(rec.status, UnitStatus::Crashed),
        "retry measured the unit"
    );
}

/// `study ... | head`: the reader closes the pipe before the summary is
/// printed. The artefacts are written, and the binary exits non-zero
/// instead of panicking on the broken pipe.
fn a_closed_stdout_exits_non_zero_without_a_panic() {
    let out = tmp_dir("closed-stdout");
    let mut child = Command::new(env!("CARGO_BIN_EXE_study"))
        .args(["--smoke", "--workers", "0", "--out"])
        .arg(&out)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn study");
    drop(child.stdout.take());
    let done = child.wait_with_output().expect("wait for study");
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert!(!done.status.success(), "a closed stdout must fail the run");
    assert!(!stderr.contains("panicked"), "study panicked:\n{stderr}");
    // One document next to the resume journal, and nothing else.
    let mut written: Vec<String> = std::fs::read_dir(&out)
        .expect("read --out")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    written.sort();
    assert_eq!(
        written,
        ["STUDY.json", "study.journal"],
        "a study writes one document"
    );
    std::fs::remove_dir_all(&out).ok();
}
