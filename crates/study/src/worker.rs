//! The worker side of the protocol: a loop over stdin frames.
//!
//! A worker is this same binary re-executed with `--worker <id>` and
//! piped stdin/stdout. It greets with `hello` (carrying
//! [`PROTO_VERSION`] for the handshake), then serves `run` requests
//! until `exit` or EOF, and signs off with `bye` (peak RSS). Before
//! executing a unit it sends `start` — the crash anchor: if the
//! process dies after `start`, the orchestrator knows exactly which
//! (unit, attempt) to retry.
//!
//! When the orchestrator passes `--flight-dir`, the worker keeps a
//! crash-surviving flight recording there: the `unit` span open is
//! written to disk *before* the fault-injection checks below, so even a
//! unit that is killed or hangs instantly leaves its open span on disk.
//!
//! Fault injection lives here too, behind flags the orchestrator (or a
//! test) passes on the worker command line:
//!
//! * `--chaos p --chaos-seed s` — die with exit code 101 after
//!   `start`, decided by a seeded hash of (unit id, attempt), so a
//!   given attempt either always or never dies: retries make progress
//!   and chaos runs are reproducible.
//! * `--hang-once <unit-id>` — hang (rather than die) on attempt 1 of
//!   one unit, to exercise the orchestrator's timeout path.
//! * `--proto-force v` — claim protocol version `v` in `hello`, to
//!   exercise the orchestrator's handshake rejection.

use crate::proto::{read_frame, write_frame, Msg, PROTO_VERSION};
use crate::runner::run_unit;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use telemetry::flight;
use telemetry::SpanKind;

/// Worker behaviour flags (all from the command line).
#[derive(Debug, Clone, Default)]
pub struct WorkerOpts {
    pub id: u32,
    pub chaos: f64,
    pub chaos_seed: u64,
    pub hang_unit: Option<String>,
    /// Directory for the crash-surviving flight recording (none = off).
    pub flight_dir: Option<PathBuf>,
    /// Claim this protocol version in `hello` (testing the handshake).
    pub proto_force: Option<u32>,
}

/// Does chaos kill this (unit, attempt)? Deterministic in the seed:
/// a 64-bit mix of the unit id and attempt, compared against `p`.
pub fn chaos_strikes(seed: u64, unit_id: &str, attempt: u32, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for b in unit_id.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= attempt as u64;
    // splitmix64 finalizer.
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    ((h >> 11) as f64 / (1u64 << 53) as f64) < p
}

/// This process's peak resident set size (VmHWM), in KiB. 0 when the
/// platform offers no `/proc/self/status` to read.
pub fn peak_rss_kb() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let digits: String = rest.chars().filter(|c| c.is_ascii_digit()).collect();
                    return digits.parse().unwrap_or(0);
                }
            }
        }
    }
    0
}

/// Serve the worker loop over arbitrary streams (stdin/stdout in
/// production, in-memory pipes in tests). Returns the exit code.
pub fn serve(opts: &WorkerOpts, input: &mut impl Read, output: &mut impl Write) -> i32 {
    if let Some(dir) = &opts.flight_dir {
        let path = dir.join(format!("flight-w{}-p{}.bin", opts.id, std::process::id()));
        if let Err(e) = flight::start(&path, opts.id, &format!("study-worker-{}", opts.id)) {
            // Recording is best-effort; losing it must not fail runs.
            eprintln!("worker {}: flight recorder unavailable: {e}", opts.id);
        }
    }
    let send = |output: &mut dyn Write, m: &Msg| write_frame(&mut { output }, &m.to_json()).is_ok();
    // Orderly shutdown: close the recording and send the `bye` exit
    // frame. A crashed worker reaches neither — its recording ends with
    // the unit span still open.
    let finish = |output: &mut dyn Write, opts: &WorkerOpts| -> i32 {
        flight::stop();
        send(
            output,
            &Msg::Bye {
                worker: opts.id,
                peak_rss_kb: peak_rss_kb(),
            },
        );
        0
    };
    if !send(
        output,
        &Msg::Hello {
            worker: opts.id,
            pid: std::process::id(),
            proto: opts.proto_force.unwrap_or(PROTO_VERSION),
        },
    ) {
        return 1;
    }
    loop {
        let payload = match read_frame(input) {
            Ok(Some(p)) => p,
            Ok(None) => return finish(output, opts), // orchestrator closed our stdin
            Err(e) => {
                eprintln!("worker {}: {e}", opts.id);
                return 1;
            }
        };
        match Msg::parse(&payload) {
            Ok(Msg::Exit) => return finish(output, opts),
            Ok(Msg::Run {
                unit,
                attempt,
                reps,
                paper,
                trace,
            }) => {
                if !send(
                    output,
                    &Msg::Start {
                        index: unit.index,
                        worker: opts.id,
                        attempt,
                        trace,
                    },
                ) {
                    return 1;
                }
                let id = unit.id();
                // The unit span open hits the disk (written through)
                // before any way this attempt can die.
                flight::span_open(SpanKind::Unit, &id);
                if attempt == 1 && opts.hang_unit.as_deref() == Some(id.as_str()) {
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                }
                if chaos_strikes(opts.chaos_seed, &id, attempt, opts.chaos) {
                    // Simulated crash: abrupt, mid-protocol, nonzero.
                    std::process::exit(101);
                }
                let rec = run_unit(&unit, reps, paper, opts.id, attempt, trace);
                flight::span_close(SpanKind::Unit, &id);
                if !send(output, &Msg::Done(rec)) {
                    return 1;
                }
            }
            Ok(other) => {
                eprintln!("worker {}: unexpected message {other:?}", opts.id);
                return 1;
            }
            Err(e) => {
                eprintln!("worker {}: bad message: {e}", opts.id);
                return 1;
            }
        }
    }
}

/// Entry point for a `--worker` invocation: parse worker flags from
/// `args` and serve stdin/stdout. Returns the process exit code.
pub fn worker_cli(args: &[String]) -> i32 {
    let mut opts = WorkerOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut grab = |what: &str| -> Option<&String> {
            let v = it.next();
            if v.is_none() {
                eprintln!("--{what} needs a value");
            }
            v
        };
        match a.as_str() {
            "--worker" => match grab("worker").and_then(|v| v.parse().ok()) {
                Some(id) => opts.id = id,
                None => return 2,
            },
            "--chaos" => match grab("chaos").and_then(|v| v.parse().ok()) {
                Some(p) => opts.chaos = p,
                None => return 2,
            },
            "--chaos-seed" => match grab("chaos-seed").and_then(|v| v.parse().ok()) {
                Some(s) => opts.chaos_seed = s,
                None => return 2,
            },
            "--hang-once" => match grab("hang-once") {
                Some(id) => opts.hang_unit = Some(id.clone()),
                None => return 2,
            },
            "--flight-dir" => match grab("flight-dir") {
                Some(dir) => opts.flight_dir = Some(PathBuf::from(dir)),
                None => return 2,
            },
            "--proto-force" => match grab("proto-force").and_then(|v| v.parse().ok()) {
                Some(v) => opts.proto_force = Some(v),
                None => return 2,
            },
            _ => {}
        }
    }
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve(&opts, &mut stdin.lock(), &mut stdout.lock())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::UnitStatus;
    use crate::unit::smoke_units;
    use std::io::Cursor;

    #[test]
    fn chaos_is_deterministic_and_roughly_calibrated() {
        let units = crate::unit::paper_units();
        for p in [0.0, 0.2, 0.5] {
            let strikes = units
                .iter()
                .filter(|u| chaos_strikes(7, &u.id(), 1, p))
                .count();
            let expect = (units.len() as f64 * p) as isize;
            assert!(
                (strikes as isize - expect).abs() <= units.len() as isize / 5,
                "p={p}: {strikes}/{} strikes",
                units.len()
            );
            // Same seed, same verdicts.
            let again = units
                .iter()
                .filter(|u| chaos_strikes(7, &u.id(), 1, p))
                .count();
            assert_eq!(strikes, again);
        }
        // Attempts are hashed independently: a doomed attempt 1 does
        // not doom attempt 2 (checked over many units).
        let doomed: Vec<_> = units
            .iter()
            .filter(|u| chaos_strikes(7, &u.id(), 1, 0.5))
            .collect();
        assert!(doomed.iter().any(|u| !chaos_strikes(7, &u.id(), 2, 0.5)));
    }

    #[test]
    fn peak_rss_is_readable_on_linux() {
        let kb = peak_rss_kb();
        if cfg!(target_os = "linux") {
            assert!(kb > 0, "a running test process has a nonzero VmHWM");
        }
    }

    #[test]
    fn serve_executes_runs_and_exits_cleanly() {
        let unit = smoke_units().into_iter().next().unwrap();
        let mut input = Vec::new();
        write_frame(
            &mut input,
            &Msg::Run {
                unit: unit.clone(),
                attempt: 1,
                reps: 1,
                paper: false,
                trace: 5,
            }
            .to_json(),
        )
        .unwrap();
        write_frame(&mut input, &Msg::Exit.to_json()).unwrap();

        let mut output = Vec::new();
        let code = serve(
            &WorkerOpts {
                id: 9,
                ..Default::default()
            },
            &mut Cursor::new(input),
            &mut output,
        );
        assert_eq!(code, 0);

        let mut r = Cursor::new(output);
        let mut msgs = Vec::new();
        while let Some(p) = read_frame(&mut r).unwrap() {
            msgs.push(Msg::parse(&p).unwrap());
        }
        assert!(matches!(
            msgs[0],
            Msg::Hello {
                worker: 9,
                proto: PROTO_VERSION,
                ..
            }
        ));
        assert!(matches!(
            msgs[1],
            Msg::Start {
                index,
                worker: 9,
                attempt: 1,
                trace: 5,
            } if index == unit.index
        ));
        match &msgs[2] {
            Msg::Done(rec) => {
                assert_eq!(rec.unit, unit);
                assert_eq!(rec.status, UnitStatus::Ok);
                assert_eq!(rec.worker, 9);
                assert_eq!(rec.trace, 5, "dispatch trace rides through");
            }
            other => panic!("expected done, got {other:?}"),
        }
        match &msgs[3] {
            Msg::Bye { worker, .. } => assert_eq!(*worker, 9),
            other => panic!("expected bye, got {other:?}"),
        }
        assert_eq!(msgs.len(), 4);
    }

    #[test]
    fn eof_on_stdin_is_a_clean_shutdown() {
        let mut output = Vec::new();
        let code = serve(
            &WorkerOpts::default(),
            &mut Cursor::new(Vec::new()),
            &mut output,
        );
        assert_eq!(code, 0);
        // Even with nothing to do, the worker greets and signs off.
        let mut r = Cursor::new(output);
        let mut msgs = Vec::new();
        while let Some(p) = read_frame(&mut r).unwrap() {
            msgs.push(Msg::parse(&p).unwrap());
        }
        assert!(matches!(msgs[0], Msg::Hello { .. }));
        assert!(matches!(msgs[1], Msg::Bye { .. }));
    }
}
