//! The orchestrator: a fleet of worker processes, driven to completion.
//!
//! One event loop owns everything. Per worker slot it keeps the child
//! process, its stdin, a *generation* counter, and the in-flight
//! (unit, attempt, deadline). A reader thread per child turns stdout
//! frames into events on one mpsc channel; the loop multiplexes those
//! against per-unit deadlines with `recv_timeout`.
//!
//! Crash tolerance is one invariant: **a unit leaves the system only
//! via a journaled terminal record** — measured (`ok`), a modelled
//! paper hole (`hole`), or exhausted retries (`crashed`). A worker
//! dying (EOF mid-unit), hanging (deadline expiry → kill), or exiting
//! nonzero all funnel into the same path: bump the attempt, requeue or
//! exhaust, respawn the slot. Generation counters make late events
//! from killed workers inert, so a unit can never be double-counted
//! against a stale process.
//!
//! The journal is an append-only JSONL of terminal records, flushed
//! per line; `resume` replays it, tolerating a torn final line (the
//! write that was in flight when the previous study died).

use crate::proto::{read_frame, write_frame, Msg, PROTO_VERSION};
use crate::record::{UnitRecord, UnitStatus};
use crate::runner::run_unit;
use crate::unit::{Scope, StudyUnit};
use std::collections::{BTreeMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// Everything a study run needs to know.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    pub scope: Scope,
    /// Worker processes; 0 runs every unit serially in-process.
    pub workers: usize,
    /// Timing repetitions per unit.
    pub reps: u32,
    /// Wall-clock budget per unit attempt.
    pub timeout: Duration,
    /// Attempts per unit before it is recorded `crashed`.
    pub max_attempts: u32,
    /// Probability a worker dies after `start` (fault injection).
    pub chaos: f64,
    pub chaos_seed: u64,
    /// Append-only terminal-record journal (JSONL).
    pub journal: Option<PathBuf>,
    /// Replay the journal and skip already-terminal units.
    pub resume: bool,
    /// Directory where each worker keeps its crash-surviving flight
    /// recording (`flight-w<slot>-p<pid>.bin`). `None` disables flight
    /// recording; a serial run has no workers and records nothing. A
    /// fresh run clears the stale recordings there, a resumed run keeps
    /// them.
    pub flight_dir: Option<PathBuf>,
    /// Argv prefix used to spawn workers (the binary re-executes
    /// itself; tests point this at the test executable).
    pub worker_cmd: Vec<String>,
}

impl StudyConfig {
    pub fn new(scope: Scope) -> StudyConfig {
        StudyConfig {
            scope,
            workers: 4,
            reps: 3,
            timeout: Duration::from_secs(120),
            max_attempts: 3,
            chaos: 0.0,
            chaos_seed: 0,
            journal: None,
            resume: false,
            flight_dir: None,
            worker_cmd: vec![],
        }
    }

    /// The units this run is responsible for.
    pub fn units(&self) -> Vec<StudyUnit> {
        self.scope.units()
    }

    /// Paper-size apps for the paper scope, test-size for smoke.
    pub fn paper_size(&self) -> bool {
        self.scope == Scope::Paper
    }
}

/// Counters the dashboard's study section reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StudyStats {
    pub elapsed_secs: f64,
    /// Sum of worker-side wall-clock across completed units — divided
    /// by `workers × elapsed` this is the fleet utilisation.
    pub busy_secs: f64,
    pub workers: u32,
    /// Unit attempts re-queued after a crash or timeout.
    pub retries: u64,
    /// Worker processes spawned beyond the initial fleet.
    pub restarts: u64,
    /// Deadline expiries (a subset of retries' causes).
    pub timeouts: u64,
    /// Units adopted from the journal instead of executed.
    pub resumed: u32,
    /// Largest peak RSS (VmHWM, KiB) any worker reported in its `bye`
    /// exit frame. 0 when no worker signed off (serial runs, crashes).
    pub peak_rss_kb: u64,
}

/// A completed study: every unit terminal.
#[derive(Debug)]
pub struct StudyOutcome {
    /// Terminal records in canonical (unit-index) order.
    pub records: Vec<UnitRecord>,
    pub stats: StudyStats,
}

/// Run a study to completion. Every unit in `cfg.units()` is terminal
/// in the outcome — this is the property the chaos tests pin down.
pub fn run_study(cfg: &StudyConfig) -> Result<StudyOutcome, String> {
    let units = cfg.units();
    let started = Instant::now();
    let mut stats = StudyStats {
        workers: cfg.workers as u32,
        ..Default::default()
    };
    let mut done: BTreeMap<usize, UnitRecord> = BTreeMap::new();

    if cfg.resume {
        if let Some(path) = &cfg.journal {
            for rec in read_journal(path) {
                let known = units
                    .iter()
                    .any(|u| u.index == rec.unit.index && *u == rec.unit);
                if known {
                    done.insert(rec.unit.index, rec);
                }
            }
            stats.resumed = done.len() as u32;
        }
    }

    let mut journal = match &cfg.journal {
        Some(path) if cfg.resume => Some(open_journal(path, true)?),
        Some(path) => Some(open_journal(path, false)?),
        None => None,
    };
    let mut record_done = |rec: &UnitRecord, stats: &mut StudyStats| -> Result<(), String> {
        stats.busy_secs += rec.wall_secs;
        if let Some(j) = &mut journal {
            writeln!(j, "{}", rec.to_json()).map_err(|e| format!("journal write: {e}"))?;
            j.flush().map_err(|e| format!("journal flush: {e}"))?;
        }
        Ok(())
    };

    let pending: VecDeque<(StudyUnit, u32)> = units
        .iter()
        .filter(|u| !done.contains_key(&u.index))
        .map(|u| (u.clone(), 1))
        .collect();

    if cfg.workers == 0 {
        for (trace, (unit, attempt)) in (1..).zip(pending) {
            let rec = run_unit(&unit, cfg.reps, cfg.paper_size(), 0, attempt, trace);
            record_done(&rec, &mut stats)?;
            done.insert(unit.index, rec);
        }
    } else {
        run_fleet(
            cfg,
            &units,
            pending,
            &mut done,
            &mut stats,
            &mut |rec, st| record_done(rec, st),
        )?;
    }

    stats.elapsed_secs = started.elapsed().as_secs_f64();
    debug_assert_eq!(done.len(), units.len());
    Ok(StudyOutcome {
        records: done.into_values().collect(),
        stats,
    })
}

// ---------------------------------------------------------------- fleet

enum Ev {
    Msg(usize, u64, Msg),
    Eof(usize, u64),
}

struct Inflight {
    unit: StudyUnit,
    attempt: u32,
    /// Causal trace id stamped on this dispatch.
    trace: u64,
    deadline: Instant,
}

#[derive(Default)]
struct Slot {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    gen: u64,
    inflight: Option<Inflight>,
}

fn run_fleet(
    cfg: &StudyConfig,
    units: &[StudyUnit],
    mut pending: VecDeque<(StudyUnit, u32)>,
    done: &mut BTreeMap<usize, UnitRecord>,
    stats: &mut StudyStats,
    record_done: &mut dyn FnMut(&UnitRecord, &mut StudyStats) -> Result<(), String>,
) -> Result<(), String> {
    if cfg.worker_cmd.is_empty() {
        return Err("no worker command configured".into());
    }
    if pending.is_empty() {
        return Ok(());
    }
    if let Some(dir) = &cfg.flight_dir {
        prepare_flight_dir(dir, cfg.resume)?;
    }
    let (tx, rx): (Sender<Ev>, Receiver<Ev>) = channel();
    let fleet = cfg.workers.min(pending.len().max(1));
    let mut slots: Vec<Slot> = (0..fleet).map(|_| Slot::default()).collect();
    // Backstop against a worker binary that can never make progress
    // (fails at spawn, dies before `hello`, …): generous, then fatal.
    let mut spawn_budget = units.len() * cfg.max_attempts as usize + fleet * 2 + 8;

    let mut spawn = |s: usize,
                     slots: &mut Vec<Slot>,
                     stats: &mut StudyStats|
     -> Result<(), String> {
        if spawn_budget == 0 {
            return Err("worker restart budget exhausted — workers are dying faster than they complete units".into());
        }
        spawn_budget -= 1;
        let slot = &mut slots[s];
        slot.gen += 1;
        let gen = slot.gen;
        let mut cmd = Command::new(&cfg.worker_cmd[0]);
        cmd.args(&cfg.worker_cmd[1..])
            .arg("--worker")
            .arg(s.to_string());
        if cfg.chaos > 0.0 {
            cmd.args(["--chaos", &cfg.chaos.to_string()])
                .args(["--chaos-seed", &cfg.chaos_seed.to_string()]);
        }
        if let Some(dir) = &cfg.flight_dir {
            cmd.arg("--flight-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn worker: {e}"))?;
        slot.stdin = child.stdin.take();
        let mut stdout = child.stdout.take().expect("stdout piped");
        slot.child = Some(child);
        if gen > 1 {
            stats.restarts += 1;
        }
        let tx = tx.clone();
        std::thread::spawn(move || {
            while let Ok(Some(payload)) = read_frame(&mut stdout) {
                let Ok(msg) = Msg::parse(&payload) else { break };
                if tx.send(Ev::Msg(s, gen, msg)).is_err() {
                    return;
                }
            }
            let _ = tx.send(Ev::Eof(s, gen));
        });
        Ok(())
    };

    // Hand the next pending unit to an idle slot (or retire the worker
    // with `exit` when the queue is dry). The handed unit becomes the
    // slot's in-flight with a fresh deadline and a fresh trace id —
    // every dispatch (including a retry of the same unit) gets its own
    // id, so the journal never conflates two attempts.
    fn assign(
        cfg: &StudyConfig,
        slot: &mut Slot,
        pending: &mut VecDeque<(StudyUnit, u32)>,
        next_trace: &mut u64,
    ) {
        let Some(stdin) = &mut slot.stdin else { return };
        match pending.pop_front() {
            Some((unit, attempt)) => {
                *next_trace += 1;
                let trace = *next_trace;
                let msg = Msg::Run {
                    unit: unit.clone(),
                    attempt,
                    reps: cfg.reps,
                    paper: cfg.paper_size(),
                    trace,
                };
                if write_frame(stdin, &msg.to_json()).is_ok() {
                    slot.inflight = Some(Inflight {
                        unit,
                        attempt,
                        trace,
                        deadline: Instant::now() + cfg.timeout,
                    });
                } else {
                    // Dead child: requeue untouched; its EOF event
                    // respawns the slot and re-assigns.
                    pending.push_front((unit, attempt));
                    slot.stdin = None;
                }
            }
            None => {
                let _ = write_frame(stdin, &Msg::Exit.to_json());
                slot.stdin = None; // EOF doubles as shutdown
            }
        }
    }

    // One failed attempt: requeue with the next attempt number, or
    // exhaust into a terminal `crashed` record.
    let exhaust_or_requeue =
        |inf: Inflight,
         slot_id: usize,
         why: &str,
         pending: &mut VecDeque<(StudyUnit, u32)>,
         done: &mut BTreeMap<usize, UnitRecord>,
         stats: &mut StudyStats,
         record_done: &mut dyn FnMut(&UnitRecord, &mut StudyStats) -> Result<(), String>|
         -> Result<(), String> {
            if inf.attempt >= cfg.max_attempts {
                let rec = UnitRecord {
                    unit: inf.unit.clone(),
                    status: UnitStatus::Crashed,
                    note: Some(format!(
                        "{why} (attempt {}/{})",
                        inf.attempt, cfg.max_attempts
                    )),
                    worker: slot_id as u32,
                    attempt: inf.attempt,
                    trace: inf.trace,
                    wall_secs: 0.0,
                    samples: vec![],
                    sim_secs: None,
                    efficiency: None,
                    gbps: None,
                };
                record_done(&rec, stats)?;
                done.insert(rec.unit.index, rec);
            } else {
                stats.retries += 1;
                pending.push_front((inf.unit, inf.attempt + 1));
            }
            Ok(())
        };

    let mut next_trace = 0u64;
    for s in 0..fleet {
        spawn(s, &mut slots, stats)?;
        assign(cfg, &mut slots[s], &mut pending, &mut next_trace);
    }

    while done.len() < units.len() {
        let now = Instant::now();
        let next_deadline = slots
            .iter()
            .filter_map(|sl| sl.inflight.as_ref().map(|i| i.deadline))
            .min();
        let wait = next_deadline
            .map(|d| d.saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(500))
            .min(Duration::from_millis(500));

        match rx.recv_timeout(wait) {
            // `start` is informational here; it matters after a crash,
            // when the *absence* of `done` for a started unit is what
            // triggers the retry.
            Ok(Ev::Msg(s, gen, msg)) if slots[s].gen == gen => match msg {
                Msg::Hello { proto, .. } if proto != PROTO_VERSION => {
                    return Err(format!(
                        "worker {s} speaks protocol v{proto}, orchestrator requires \
                         v{PROTO_VERSION} — the worker command runs a stale binary"
                    ));
                }
                Msg::Done(rec) => {
                    if slots[s]
                        .inflight
                        .as_ref()
                        .is_some_and(|i| i.unit.index == rec.unit.index)
                    {
                        slots[s].inflight = None;
                    }
                    record_done(&rec, stats)?;
                    done.insert(rec.unit.index, rec);
                    assign(cfg, &mut slots[s], &mut pending, &mut next_trace);
                }
                Msg::Bye { peak_rss_kb, .. } => {
                    stats.peak_rss_kb = stats.peak_rss_kb.max(peak_rss_kb);
                }
                _ => {}
            },
            Ok(Ev::Msg(..)) => {} // stale generation: killed worker
            Ok(Ev::Eof(s, gen)) if slots[s].gen == gen => {
                let had = slots[s].inflight.take();
                reap(&mut slots[s]);
                if let Some(inf) = had {
                    exhaust_or_requeue(
                        inf,
                        s,
                        "worker exited mid-unit",
                        &mut pending,
                        done,
                        stats,
                        record_done,
                    )?;
                }
                if !pending.is_empty() {
                    spawn(s, &mut slots, stats)?;
                    assign(cfg, &mut slots[s], &mut pending, &mut next_trace);
                }
            }
            Ok(Ev::Eof(..)) => {}
            Err(RecvTimeoutError::Timeout) => {
                let now = Instant::now();
                for s in 0..fleet {
                    let expired = slots[s]
                        .inflight
                        .as_ref()
                        .is_some_and(|i| i.deadline <= now);
                    if !expired {
                        continue;
                    }
                    stats.timeouts += 1;
                    let inf = slots[s].inflight.take().expect("checked above");
                    kill(&mut slots[s]); // gen bump makes the EOF inert
                    exhaust_or_requeue(
                        inf,
                        s,
                        &format!("timeout after {:?}", cfg.timeout),
                        &mut pending,
                        done,
                        stats,
                        record_done,
                    )?;
                    if !pending.is_empty() {
                        spawn(s, &mut slots, stats)?;
                        assign(cfg, &mut slots[s], &mut pending, &mut next_trace);
                    }
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err("all worker readers disconnected with units outstanding".into())
            }
        }
    }

    // Retire the fleet: closing stdin tells each worker to exit, and
    // an orderly worker answers with a `bye` exit frame (peak RSS)
    // before dying. Collect those farewells — bounded, because a
    // worker wedged at shutdown must not wedge the study.
    let mut live = 0usize;
    for slot in &mut slots {
        if let Some(stdin) = &mut slot.stdin {
            let _ = write_frame(stdin, &Msg::Exit.to_json());
        }
        slot.stdin = None;
        if slot.child.is_some() {
            live += 1;
        }
    }
    let goodbye = Instant::now() + Duration::from_secs(5);
    while live > 0 && Instant::now() < goodbye {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(Ev::Msg(s, gen, Msg::Bye { peak_rss_kb, .. })) if slots[s].gen == gen => {
                stats.peak_rss_kb = stats.peak_rss_kb.max(peak_rss_kb);
            }
            Ok(Ev::Eof(s, gen)) if slots[s].gen == gen && slots[s].child.is_some() => {
                reap(&mut slots[s]);
                live -= 1;
            }
            Ok(_) => {}
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    for slot in &mut slots {
        reap(slot);
    }
    Ok(())
}

/// Bump the generation (so pending events from this child are stale)
/// and kill it.
fn kill(slot: &mut Slot) {
    slot.gen += 1;
    slot.stdin = None;
    if let Some(child) = &mut slot.child {
        let _ = child.kill();
    }
    reap(slot);
}

fn reap(slot: &mut Slot) {
    if let Some(mut child) = slot.child.take() {
        let _ = child.wait();
    }
}

// ------------------------------------------------------- flight layout

/// Create the flight directory workers record into. A fresh run clears
/// the stale `flight-*.bin` recordings a previous run left there; a
/// resumed run keeps them, since they hold the interrupted run's spans.
fn prepare_flight_dir(dir: &Path, resume: bool) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("flight dir: {e}"))?;
    if resume {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir).map_err(|e| format!("flight dir: {e}"))? {
        let path = entry.map_err(|e| format!("flight dir: {e}"))?.path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if name.starts_with("flight-") && name.ends_with(".bin") {
            let _ = std::fs::remove_file(&path);
        }
    }
    Ok(())
}

// -------------------------------------------------------------- journal

fn open_journal(path: &Path, append: bool) -> Result<BufWriter<File>, String> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("journal dir: {e}"))?;
        }
    }
    let file = OpenOptions::new()
        .create(true)
        .append(append)
        .write(true)
        .truncate(!append)
        .open(path)
        .map_err(|e| format!("journal open {}: {e}", path.display()))?;
    Ok(BufWriter::new(file))
}

/// Replay a journal, tolerating a torn trailing line (and, defensively,
/// any other unparseable line — a journal is a recovery aid, not a
/// source of truth the run must die over).
pub fn read_journal(path: &Path) -> Vec<UnitRecord> {
    let Ok(file) = File::open(path) else {
        return vec![];
    };
    BufReader::new(file)
        .lines()
        .map_while(Result::ok)
        .filter_map(|line| UnitRecord::parse(line.trim()).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::UnitStatus;

    /// Serial mode exercises journal plumbing without processes
    /// (the multi-process paths live in `tests/study_proc.rs`).
    #[test]
    fn serial_study_completes_every_unit() {
        let mut cfg = StudyConfig::new(Scope::Smoke);
        cfg.workers = 0;
        cfg.reps = 1;
        let out = run_study(&cfg).unwrap();
        let units = cfg.units();
        assert_eq!(out.records.len(), units.len());
        for (r, u) in out.records.iter().zip(&units) {
            assert_eq!(&r.unit, u, "records in canonical order");
            assert!(!matches!(r.status, UnitStatus::Crashed));
        }
        assert!(out.stats.busy_secs > 0.0);
    }

    #[test]
    fn serial_journal_resume_skips_done_units() {
        let dir = std::env::temp_dir().join(format!("study-orch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("journal.jsonl");

        let mut cfg = StudyConfig::new(Scope::Smoke);
        cfg.workers = 0;
        cfg.reps = 1;
        cfg.journal = Some(journal.clone());
        let first = run_study(&cfg).unwrap();

        // Tear the journal: drop the last full line, leave half a line.
        let text = std::fs::read_to_string(&journal).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let keep = lines.len() - 2;
        let mut torn: String = lines[..keep].join("\n");
        torn.push('\n');
        torn.push_str(&lines[keep][..lines[keep].len() / 2]);
        std::fs::write(&journal, torn).unwrap();

        cfg.resume = true;
        let second = run_study(&cfg).unwrap();
        assert_eq!(second.stats.resumed as usize, keep);
        assert_eq!(second.records.len(), first.records.len());
        // Simulated quantities agree with the uninterrupted run.
        for (a, b) in first.records.iter().zip(&second.records) {
            assert_eq!(a.unit, b.unit);
            assert_eq!(a.status, b.status);
            assert_eq!(a.sim_secs, b.sim_secs);
            assert_eq!(a.efficiency, b.efficiency);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flight_retention_keeps_the_newest_runs_and_resume_reenters() {
        let dir = std::env::temp_dir().join(format!("study-flight-retain-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let stale = dir.join("flight-w0-p1.bin");
        let other = dir.join("notes.txt");
        std::fs::write(&stale, b"stale").unwrap();
        std::fs::write(&other, b"kept").unwrap();

        // Resume keeps the interrupted run's recordings…
        prepare_flight_dir(&dir, true).unwrap();
        assert!(stale.exists(), "resume keeps the recordings");
        // …while a fresh run clears them, and only them.
        prepare_flight_dir(&dir, false).unwrap();
        assert!(!stale.exists(), "a fresh run clears stale recordings");
        assert!(other.exists(), "non-recordings are left alone");
        // A missing directory is created.
        let nested = dir.join("nested");
        prepare_flight_dir(&nested, false).unwrap();
        assert!(nested.is_dir());
        std::fs::remove_dir_all(&dir).ok();
    }
}
