//! `paper_sweep`: the paper's 306 cells, each priced on a fresh dry-run
//! session — record, price and commit with a cold price cache and no
//! kernel execution, the work `regenerate_all` and every study worker do.

use crate::pace::{Paced, Pacer};
use crate::trace::{self, Tracer};
use crate::{
    another, guarded, inputs, mib, stats, stopwatch, Args, Report, Timed, Traced, SETUP_REPS,
};
use miniapps::App;
use portability::{measure_mgcfd, measure_structured, write_csv, Measurement};
use std::collections::HashMap;
use std::time::Instant;
use study::StudyUnit;
use sycl_sim::{Session, SessionConfig, SyclVariant};

/// `portability::write_csv` rows of every cell, generated by the
/// repository's `export_all` binary at the commit that defined this
/// benchmark.
const REFERENCE_CSV: &str = include_str!("../reference/paper_sweep.csv");

/// One cell of the cross-product with its paper-size app.
pub struct Cell {
    pub unit: StudyUnit,
    app: Box<dyn App>,
}

impl Cell {
    pub fn id(&self) -> String {
        self.unit.id()
    }

    /// Price the cell exactly as the figures and the study do.
    pub fn measure(&self) -> Measurement {
        let u = &self.unit;
        match u.scheme {
            Some(scheme) => measure_mgcfd(u.platform, u.variant, scheme),
            None => measure_structured(self.app.as_ref(), u.platform, u.variant),
        }
    }

    /// The session config `measure_*` builds for this cell.
    fn config(&self) -> SessionConfig {
        let u = &self.unit;
        let variant = if u.variant.toolchain.is_sycl() && u.variant.nd_range {
            SyclVariant::NdRange(self.app.nd_shape())
        } else {
            SyclVariant::Flat
        };
        let cfg = SessionConfig::new(u.platform, u.variant.toolchain)
            .variant(variant)
            .app(self.app.name())
            .dry_run();
        match u.scheme {
            Some(s) => cfg.scheme(s),
            None => cfg,
        }
    }
}

/// Every paper cell, in the seed's order.
pub fn cells(seed: u64) -> Vec<Cell> {
    let units = study::paper_units();
    inputs::permutation(units.len(), seed)
        .into_iter()
        .map(|i| {
            let unit = units[i].clone();
            let app = bench_harness::make_app(&unit.app, true).expect("paper app names resolve");
            Cell { unit, app }
        })
        .collect()
}

/// Reference rows keyed by their first four fields (the cell).
pub struct Reference(HashMap<String, String>);

fn cell_key(row: &str) -> String {
    row.splitn(5, ',').take(4).collect::<Vec<_>>().join(",")
}

impl Reference {
    pub fn load() -> Reference {
        Reference(
            REFERENCE_CSV
                .lines()
                .skip(1)
                .map(|row| (cell_key(row), row.to_owned()))
                .collect(),
        )
    }

    /// Does the cell's CSV row equal the reference row?
    pub fn check(&self, m: &Measurement) -> Result<(), String> {
        let csv = write_csv(std::slice::from_ref(m));
        let row = csv.lines().nth(1).unwrap_or("");
        match self.0.get(&cell_key(row)) {
            Some(want) if want == row => Ok(()),
            Some(want) => Err(format!("row '{row}' differs from reference '{want}'")),
            None => Err(format!("row '{row}' has no reference")),
        }
    }
}

/// Sweep every cell once: (measurement, wall seconds) per cell, or the
/// panic message of a cell that panicked.
fn sweep(cells: &[Cell]) -> Vec<Result<(Measurement, f64), String>> {
    cells
        .iter()
        .map(|c| guarded(|| stopwatch(|| c.measure())))
        .collect()
}

fn set_up(seed: u64) -> (Vec<Cell>, Reference) {
    let cells = cells(seed);
    let reference = Reference::load();
    // Warm-up: lazily built tables and the first allocations of every
    // code path land here, not in the first timed sweep.
    let _ = sweep(&cells);
    (cells, reference)
}

/// Cell timings kept for `op_p50_ms`: a uniform sample of the run's.
const CELL_SAMPLES: usize = 1 << 15;

pub fn timed(args: &Args) -> Timed {
    let mut pacer = Pacer::cpu();
    let mut setup = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        let (r, p) = pacer.time(|| set_up(args.seed));
        setup.push(p);
        ready = Some(r);
    }
    let (cells, reference) = ready.expect("SETUP_REPS >= 1");
    let mut report = Report::default();
    // A fixed-size sample of the cells' timings, so `peak_rss_mb` does
    // not grow with the number of cells the host managed to price.
    let mut ops = stats::Reservoir::new(CELL_SAMPLES);
    let mut rounds = Vec::new();
    let started = Instant::now();
    let mut last_s = 0.0;
    while another(started, args.budget, rounds.len(), 1, last_s) {
        let (results, round) = pacer.time(|| sweep(&cells));
        last_s = round.wall;
        let slowdown = round.slowdown;
        let (mut priced, mut busy) = (0.0, 0.0);
        for r in results {
            match r {
                Ok((m, wall)) => {
                    ops.push(Paced { wall, slowdown });
                    (priced, busy) = (priced + 1.0, busy + wall);
                    report.ops(1, reference.check(&m));
                }
                Err(panic) => report.ops(1, Err(format!("cell panicked: {panic}"))),
            }
        }
        rounds.push((
            priced,
            Paced {
                wall: busy,
                slowdown,
            },
        ));
    }
    let (ops, timed_cells) = ops.into_parts();
    Timed {
        report,
        setup,
        notes: vec![format!(
            "{} sweeps of {} cells; {} of the {timed_cells} cell timings kept",
            rounds.len(),
            cells.len(),
            ops.len()
        )],
        ops,
        op_name: "cell (one measure_* call)",
        rounds,
        work_name: "cells",
        child_rss_mib: 0.0,
        pacer_mib: mib(pacer.resident_bytes()),
    }
}

/// Sweeps per traced pass (and per untraced tax probe).
const TRACED_SWEEPS: usize = 2;

pub fn untraced_wall(args: &Args) -> f64 {
    let (cells, _) = set_up(args.seed);
    stopwatch(|| {
        for _ in 0..TRACED_SWEEPS {
            let _ = sweep(&cells);
        }
    })
    .1
}

pub fn traced(args: &Args, tracer: &Tracer) -> Traced {
    let (cells, reference) = set_up(args.seed);
    let mut report = Report::default();
    let (mut create_us, mut run_us) = (Vec::new(), Vec::new());
    let (mut holes, mut replays, mut launches) = (0u64, 0u64, 0u64);
    let before = telemetry::counters().snapshot();
    let started = Instant::now();
    for sweep_no in 0..TRACED_SWEEPS {
        for (i, cell) in cells.iter().enumerate() {
            let group = (sweep_no * cells.len() + i + 1) as u64;
            let verdict = tracer.span("cell", 0, group, |cell_span| {
                guarded(|| {
                    let t0 = Instant::now();
                    let session = Session::create(cell.config());
                    let t1 = Instant::now();
                    tracer.record("session.create", cell_span, group, t0, t1);
                    create_us.push((t1 - t0).as_secs_f64() * 1e6);
                    let u = &cell.unit;
                    let mut m = Measurement {
                        app: cell.app.name(),
                        platform: u.platform,
                        variant: u.variant,
                        scheme: u.scheme,
                        runtime: Err(sycl_sim::FailureKind::Unsupported),
                        efficiency: None,
                        boundary_fraction: None,
                    };
                    match session {
                        Err(fail) => {
                            holes += 1;
                            m.runtime = Err(fail.kind);
                        }
                        Ok(s) => {
                            let seen = trace::watch(&s);
                            let t2 = Instant::now();
                            let run = cell.app.run(&s);
                            let t3 = Instant::now();
                            tracer.record("app.run", cell_span, group, t2, t3);
                            run_us.push((t3 - t2).as_secs_f64() * 1e6);
                            let seen = trace::take(&seen);
                            replays += seen.replays.len() as u64;
                            launches += seen.launches;
                            m.runtime = Ok(run.elapsed);
                            m.efficiency =
                                Some(run.effective_bandwidth / s.platform().mem.stream_bw);
                            m.boundary_fraction = Some(run.boundary_fraction);
                        }
                    }
                    reference.check(&m)
                })
                .and_then(|v| v)
            });
            report.ops(1, verdict);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let c = telemetry::counters().snapshot().since(&before);
    let n = (TRACED_SWEEPS * cells.len()) as f64;
    report.metric("session.create_us", stats::median(&create_us), "us");
    report.metric("quirks.hole_frac", holes as f64 / n, "ratio");
    report.metric("apps.dry_run_us", stats::median(&run_us), "us");
    report.metric("graph.replays_per_cell", replays as f64 / n, "count/cell");
    report.metric("graph.launches_per_cell", launches as f64 / n, "count/cell");
    let priced = (c.pricing_cache_hits + c.pricing_cache_misses).max(1);
    report.metric(
        "price.hit_ratio",
        c.pricing_cache_hits as f64 / priced as f64,
        "ratio",
    );
    report.metric(
        "price.misses_per_cell",
        c.pricing_cache_misses as f64 / n,
        "count/cell",
    );
    Traced { report, wall_s }
}
