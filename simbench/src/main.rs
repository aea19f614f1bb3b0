//! `simbench` — the simulator's own wall-clock, end to end and per layer.
//!
//! ```text
//! simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `README.md` for why each was chosen):
//!
//! * `paper_sweep` — the paper's 306 cells priced on fresh dry-run
//!   sessions, single-threaded, in a seed-permuted order;
//! * `live_structured` — CloverLeaf 2D executed functionally at a size
//!   well beyond the last-level cache;
//! * `live_unstructured` — MG-CFD executed functionally on a shuffled
//!   multigrid mesh, once per race-resolution scheme;
//! * `fleet_study` — the whole study through the multi-process
//!   orchestrator, as `study --paper` runs it.
//!
//! `--trace 0` measures the workload with telemetry off and prints the
//! end-to-end metrics. `--trace 1` is a separate run with telemetry
//! counters, benchmark spans and session observers on; it measures every
//! layer (each on the workload that exercises it) and the telemetry tax
//! of the named workload, and writes its spans to
//! `out/spans-<workload>-seed<n>.json` beside this package. Every run
//! checks the simulator's outputs; the last stdout line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.
//!
//! The study orchestrator re-executes this binary with `--worker` to get
//! its worker processes, exactly as it re-executes the `study` binary.

mod fleet;
mod host;
mod inputs;
mod live;
mod pace;
mod roof;
mod stats;
mod sweep;
mod trace;

use pace::Paced;
use stats::Summary;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use telemetry::json::JsonWriter;
use trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSweep,
    LiveStructured,
    LiveUnstructured,
    FleetStudy,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::LiveStructured,
        Workload::LiveUnstructured,
        Workload::FleetStudy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::LiveStructured => "live_structured",
            Workload::LiveUnstructured => "live_unstructured",
            Workload::FleetStudy => "fleet_study",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(value).ok_or(format!("unknown workload '{value}'"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
                "--seconds" => {
                    let s: u64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds '{value}'"))?;
                    if !(1..=600).contains(&s) {
                        return Err(format!("--seconds {s} is outside 1..=600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace wants 0 or 1, got '{value}'")),
                    })
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            budget: Duration::from_secs(seconds.unwrap_or(10)),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Where runs leave their files: `out/` beside this package.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Operation counts and metrics of one run (or one traced pass).
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Count `n` attempted operations, all failed when `verdict` is an
    /// error (which is printed to stderr).
    pub fn ops(&mut self, n: u64, verdict: Result<(), String>) {
        self.attempted += n;
        if let Err(why) = verdict {
            self.failed += n;
            eprintln!("simbench: output check failed: {why}");
        }
    }

    fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
    }
}

/// What an end-to-end run measured, before it becomes metrics. Every
/// timing carries the host's slowdown while it was taken (see `pace`);
/// the gated metrics are paced, the raw walls are printed beside them.
pub struct Timed {
    pub report: Report,
    /// Each set-up repetition.
    pub setup: Vec<Paced>,
    /// Each timed operation.
    pub ops: Vec<Paced>,
    /// What one operation is, for the printout.
    pub op_name: &'static str,
    /// Each round of the timed loop (a sweep, a run, a pass or a study):
    /// the work items it did and its timing. `work_per_s` is the median
    /// of their rates: the stalls a shared host inflicts land in a few
    /// rounds, not in the median.
    pub rounds: Vec<(f64, Paced)>,
    pub work_name: &'static str,
    /// Peak RSS of any child process, MiB (0 when none).
    pub child_rss_mib: f64,
    /// What the pacer keeps resident, MiB: not the simulator's memory.
    pub pacer_mib: f64,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
}

/// A traced pass: its metrics and checks, and the wall of the part that
/// the telemetry tax compares against an untraced run of the same work.
pub struct Traced {
    pub report: Report,
    pub wall_s: f64,
}

/// Run `f`, turning a panic into an error message.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_owned())
    })
}

/// Should the timed loop run another operation? Yes until `min` ran,
/// then while one more as long as the last still fits the budget, so a
/// run ends near `--seconds` however long its operations are.
pub fn another(started: Instant, budget: Duration, done: usize, min: usize, last_s: f64) -> bool {
    done < min || started.elapsed().as_secs_f64() + last_s <= budget.as_secs_f64()
}

/// Bytes in MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// Time `f` in seconds.
pub fn stopwatch<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Reads a timing in seconds: paced or raw.
type Clock = fn(&Paced) -> f64;

fn end_to_end(args: &Args) -> Report {
    let t = match args.workload {
        Workload::PaperSweep => sweep::timed(args),
        Workload::LiveStructured => live::structured_timed(args),
        Workload::LiveUnstructured => live::unstructured_timed(args),
        Workload::FleetStudy => fleet::timed(args),
    };
    // VmHWM of this process without the pacer's buffers, or of a worker
    // when one peaked higher. Read before the summaries below copy the
    // samples, whose number depends on how fast the host ran.
    let own_mib = study::worker::peak_rss_kb() as f64 / 1024.0 - t.pacer_mib;
    let rss_mib = own_mib.max(t.child_rss_mib);
    let times = |v: &[Paced], time: Clock| {
        Summary::of(&v.iter().map(time).collect::<Vec<_>>()).expect("timed at least once")
    };
    let rates = |time: Clock| {
        let rates: Vec<f64> = t.rounds.iter().map(|(w, p)| w / time(p)).collect();
        Summary::of(&rates).expect("at least one round")
    };
    let (setup, ops, rate) = (
        times(&t.setup, Paced::paced),
        times(&t.ops, Paced::paced),
        rates(Paced::paced),
    );
    let slowdowns: Vec<f64> = t.rounds.iter().map(|(_, p)| p.slowdown).collect();
    println!("workload {} seed {}", args.workload.name(), args.seed);
    let clocks: [(&str, Clock); 2] = [
        ("paced (seconds of the quiet sizing host)", Paced::paced),
        ("raw wall", |p| p.wall),
    ];
    for (label, time) in clocks {
        println!("  {label}:");
        println!("    set-up: {}", times(&t.setup, time).describe(1.0, "s"));
        let op = times(&t.ops, time).describe(1e3, "ms");
        println!("    {}: {op}", t.op_name);
        let rate = rates(time).describe(1.0, "/s");
        println!("    {}/s per round: {rate}", t.work_name);
    }
    println!(
        "  host slowdown per round: median {:.4} (min {:.4}, max {:.4})",
        stats::median(&slowdowns),
        slowdowns.iter().copied().fold(f64::INFINITY, f64::min),
        slowdowns.iter().copied().fold(0.0, f64::max)
    );
    for n in &t.notes {
        println!("  {n}");
    }
    let mut r = t.report;
    println!(
        "  checks: {} attempted, {} failed, failed_frac {:.6}",
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted.max(1) as f64
    );
    r.metric("setup_s", setup.median, "s");
    r.metric("peak_rss_mb", rss_mib * 1.048576, "MB");
    r.metric("work_per_s", rate.median, "1/s");
    r.metric("op_p50_ms", ops.median * 1e3, "ms");
    r
}

fn traced(args: &Args) -> Report {
    // The same work untraced first, for the telemetry tax.
    let untraced = match args.workload {
        Workload::PaperSweep => sweep::untraced_wall(args),
        Workload::LiveStructured => live::structured_untraced_wall(),
        Workload::LiveUnstructured => live::unstructured_untraced_wall(args),
        Workload::FleetStudy => fleet::untraced_wall(),
    };
    telemetry::TelemetryConfig::enabled().install();
    let tracer = Tracer::new();
    let mut report = Report::default();
    let mut wall = f64::NAN;
    for w in Workload::ALL {
        let pass = tracer.span(w.name(), 0, 0, |_| match w {
            Workload::PaperSweep => sweep::traced(args, &tracer),
            Workload::LiveStructured => live::structured_traced(&tracer),
            Workload::LiveUnstructured => live::unstructured_traced(args, &tracer),
            Workload::FleetStudy => fleet::traced(&tracer),
        });
        if w == args.workload {
            wall = pass.wall_s;
        }
        report.absorb(pass.report);
    }
    report.metric("telemetry.tax_frac", (wall - untraced) / untraced, "ratio");
    let path = out_dir().join(format!(
        "spans-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    match tracer.write(&path) {
        Ok(()) => println!("wrote {} spans to {}", tracer.len(), path.display()),
        Err(e) => eprintln!("simbench: cannot write {}: {e}", path.display()),
    }
    for (name, value, unit) in &report.metrics {
        println!("  {name:36} {value:>14.6} {unit}");
    }
    report
}

fn print_result(r: &Report) {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("correct").bool(r.failed == 0);
    w.key("attempted").int(r.attempted);
    w.key("failed").int(r.failed);
    w.key("metrics").begin_object();
    for (name, value, unit) in &r.metrics {
        w.key(name).begin_object();
        w.key("value").number(*value);
        w.key("unit").string(unit);
        w.end_object();
    }
    w.end_object().end_object();
    println!("{}", w.finish());
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--worker") {
        return ExitCode::from(study::worker_cli(&argv) as u8);
    }
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    if report.attempted == 0 || report.metrics.iter().any(|m| !m.1.is_finite()) {
        eprintln!("simbench: the run measured nothing usable");
        return ExitCode::FAILURE;
    }
    print_result(&report);
    ExitCode::SUCCESS
}
