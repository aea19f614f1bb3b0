//! The live workloads: kernels executed functionally, not priced only.
//!
//! `live_structured` runs CloverLeaf 2D with ten fields that together
//! span about 5× the 105 MiB last-level cache of the machine the
//! benchmark was sized on, so execute, the `ops` row kernels and large
//! `parkit` regions do nearly all the work; pricing is cache hits after
//! the first replay. `live_unstructured` runs MG-CFD on a multigrid mesh
//! whose numbering the seed shuffles, once per race-resolution scheme:
//! indirect gathers, scatter increments into shared vertices and many
//! small colour regions.

use crate::pace::{Paced, Pacer};
use crate::trace::{self, Step, Tracer};
use crate::{
    another, guarded, inputs, mib, roof, stats, stopwatch, Args, Report, Timed, Traced, SETUP_REPS,
};
use miniapps::{App, CloverLeaf2d, Mgcfd};
use op2_dsl::parloop::ColoredMesh;
use op2_dsl::{MeshStats, MgHierarchy, Ordering};
use std::time::Instant;
use sycl_sim::{quirks::apps, PlatformId, Scheme, Session, SessionConfig, Toolchain};
use telemetry::CounterSnapshot;

/// CloverLeaf 2D at 2560²: 10 fields × 2564² × 8 B ≈ 526 MB.
pub const STRUCTURED: CloverLeaf2d = CloverLeaf2d {
    n: 2560,
    iterations: 10,
};

/// Validation scalar (the conserved mass) and ledger digest of
/// [`STRUCTURED`] on an A100/CUDA session, recorded at the commit that
/// defined this benchmark.
const STRUCTURED_VALIDATION: f64 = 7_143_424.0;
const STRUCTURED_DIGEST: u64 = 0x0046_2ccc_6225_3456;

/// Does a CloverLeaf run match the reference?
fn structured_check(validation: f64, digest: u64) -> Result<(), String> {
    if validation.to_bits() != STRUCTURED_VALIDATION.to_bits() {
        return Err(format!(
            "validation {validation} differs from the reference {STRUCTURED_VALIDATION}"
        ));
    }
    if digest != STRUCTURED_DIGEST {
        return Err(format!(
            "ledger digest {digest:#x} differs from the reference {STRUCTURED_DIGEST:#x}"
        ));
    }
    Ok(())
}

/// MG-CFD grid, levels and iterations (1M vertices on the finest level).
/// Three iterations, not more, keep a pass near 4 s, so a 30-second run
/// has the seven or so passes its median needs.
const GRID: (usize, usize, usize) = (128, 128, 64);
const LEVELS: usize = 4;
const ITERATIONS: usize = 3;

/// Hierarchical-colouring block size MG-CFD uses on GPUs.
const GPU_BLOCK: usize = 256;

fn live_session(app: &str, scheme: Option<Scheme>) -> Session {
    let cfg = SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app(app);
    let cfg = match scheme {
        Some(s) => cfg.scheme(s),
        None => cfg,
    };
    Session::create(cfg).expect("A100/CUDA supports every app")
}

/// Short scheme names used in metric suffixes.
fn short(s: Scheme) -> &'static str {
    match s {
        Scheme::Atomics => "atomics",
        Scheme::GlobalColor => "global",
        Scheme::HierColor => "hier",
    }
}

fn mgcfd(grid: (usize, usize, usize), levels: usize, iterations: usize, mesh_seed: u64) -> Mgcfd {
    Mgcfd {
        finest: MeshStats {
            n_vertices: 0,
            n_edges: 0,
            locality: 0.0,
        },
        grid: Some(grid),
        levels,
        iterations,
        ordering: Ordering::Shuffled(mesh_seed),
    }
}

// ------------------------------------------------------------ structured

/// One functional CloverLeaf run: its timing and check verdict.
fn structured_pass(
    pacer: &mut Pacer,
    first_digest: &mut Option<u64>,
) -> (Paced, Result<(), String>) {
    let session = live_session(apps::CLOVERLEAF2D, None);
    let (run, wall) = pacer.time(|| guarded(|| STRUCTURED.run(&session)));
    let verdict = run.and_then(|run| {
        let digest = session.ledger_digest();
        if *first_digest.get_or_insert(digest) != digest {
            return Err(format!("ledger digest {digest:#x} changed between passes"));
        }
        structured_check(run.validation, digest)
    });
    (wall, verdict)
}

fn structured_set_up() {
    // Spins the pool up and walks every kernel once at a small size —
    // large enough (~40 MB) that scheduling jitter does not dominate it.
    let session = live_session(apps::CLOVERLEAF2D, None);
    CloverLeaf2d {
        n: 1024,
        iterations: 2,
    }
    .run(&session);
}

pub fn structured_timed(args: &Args) -> Timed {
    let mut pacer = Pacer::cpu_and_memory();
    let setup = (0..SETUP_REPS)
        .map(|_| pacer.time(structured_set_up).1)
        .collect();
    let mut report = Report::default();
    let mut ops: Vec<Paced> = Vec::new();
    let mut digest = None;
    let started = Instant::now();
    // Two passes at least: the ledger digest must repeat across passes.
    while another(
        started,
        args.budget,
        ops.len(),
        2,
        ops.last().map_or(0.0, |p| p.wall),
    ) {
        let (wall, verdict) = structured_pass(&mut pacer, &mut digest);
        ops.push(wall);
        report.ops(1, verdict);
    }
    let n = STRUCTURED.n as f64;
    Timed {
        report,
        setup,
        rounds: ops
            .iter()
            .map(|&p| (n * n * STRUCTURED.iterations as f64, p))
            .collect(),
        op_name: "App::run (10 steps at 2560²)",
        ops,
        work_name: "cell updates",
        child_rss_mib: 0.0,
        pacer_mib: mib(pacer.resident_bytes()),
        notes: vec![],
    }
}

pub fn structured_untraced_wall() -> f64 {
    structured_set_up();
    structured_pass(&mut Pacer::cpu(), &mut None).0.wall
}

/// Per-step launch and parkit counts, averaged over `steps`.
fn per_step(report: &mut Report, steps: &[Step], suffix: &str, with_wakes: bool) {
    let n = steps.len().max(1) as f64;
    let launches: u64 = steps.iter().map(|s| s.launches).sum();
    report.metric(
        format!("graph.launches_per_step{suffix}"),
        launches as f64 / n,
        "count/step",
    );
    let sum = steps
        .iter()
        .fold(CounterSnapshot::default(), |acc, s| CounterSnapshot {
            regions: acc.regions + s.counters.regions,
            steals: acc.steals + s.counters.steals,
            parks: acc.parks + s.counters.parks,
            wakes: acc.wakes + s.counters.wakes,
            ..acc
        });
    report.metric(
        format!("parkit.regions_per_step{suffix}"),
        sum.regions as f64 / n,
        "count/step",
    );
    report.metric(
        format!("parkit.steals_per_step{suffix}"),
        sum.steals as f64 / n,
        "count/step",
    );
    report.metric(
        format!("parkit.parks_per_step{suffix}"),
        sum.parks as f64 / n,
        "count/step",
    );
    if with_wakes {
        report.metric(
            format!("parkit.wakes_per_step{suffix}"),
            sum.wakes as f64 / n,
            "count/step",
        );
    }
}

fn median_step_s(steps: &[Step]) -> f64 {
    stats::median(&steps.iter().map(|s| s.wall_s).collect::<Vec<_>>())
}

fn hit_ratio(c: &CounterSnapshot) -> f64 {
    c.pricing_cache_hits as f64 / (c.pricing_cache_hits + c.pricing_cache_misses).max(1) as f64
}

pub fn structured_traced(tracer: &Tracer) -> Traced {
    let mut report = Report::default();
    let roof = tracer.span("roof.triad", 0, 0, |_| roof::probe());
    let n = STRUCTURED.n + 4; // 2-deep halo on each side
    let fields_bytes = 10 * (n * n * 8) as u64;
    println!(
        "roof: triad {:.2} GB/s on {} threads, {:.2} GB/s on one; 3 arrays of {:.1} MiB vs LLC {:.1} MiB; \
         live_structured fields {:.1} MiB",
        roof.triad_gbps,
        crate::host::nproc(),
        roof.triad_1t_gbps,
        mib(roof.array_bytes),
        mib(roof.llc_bytes),
        mib(fields_bytes),
    );
    structured_set_up();
    let session = live_session(apps::CLOVERLEAF2D, None);
    let seen = trace::watch(&session);
    let before = telemetry::counters().snapshot();
    let started = Instant::now();
    let (run, run_span) = tracer.span("app.run", 0, 10_000, |id| {
        (guarded(|| STRUCTURED.run(&session)), id)
    });
    let ended = Instant::now();
    let c = telemetry::counters().snapshot().since(&before);
    let seen = trace::take(&seen);
    seen.record_replays(tracer, run_span, 10_001, ended);
    let steps = seen.steps(ended);
    report.ops(
        1,
        run.and_then(|run| structured_check(run.validation, session.ledger_digest())),
    );
    let main = seen.main_graph();
    let first_step = seen.replays.iter().find(|r| Some(r.graph) == main);
    let init_ms = first_step.map_or(f64::NAN, |r| (r.at - started).as_secs_f64() * 1e3);
    let step_s = median_step_s(&steps);
    let computed_gbps = seen.main_graph_bytes() / step_s / 1e9;
    report.metric("apps.init_ms", init_ms, "ms");
    report.metric("apps.step_ms", step_s * 1e3, "ms");
    report.metric("execute.computed_gbps", computed_gbps, "GB/s");
    report.metric("roof.triad_gbps", roof.triad_gbps, "GB/s");
    report.metric("roof.triad_1t_gbps", roof.triad_1t_gbps, "GB/s");
    report.metric("roof.array_mib", mib(roof.array_bytes), "MiB");
    report.metric("roof.llc_mib", mib(roof.llc_bytes), "MiB");
    report.metric(
        "execute.roof_frac",
        computed_gbps / roof.triad_gbps,
        "ratio",
    );
    per_step(&mut report, &steps, "", true);
    report.metric(
        "ops.boundary_launch_frac",
        seen.boundary_launches as f64 / seen.launches.max(1) as f64,
        "ratio",
    );
    report.metric("price.hit_ratio.live_structured", hit_ratio(&c), "ratio");
    Traced {
        report,
        wall_s: (ended - started).as_secs_f64(),
    }
}

// ---------------------------------------------------------- unstructured

/// Edge visits of one run: Σ over levels of edges × iterations.
fn edge_visits(h: &MgHierarchy) -> f64 {
    h.levels.iter().map(|l| l.n_edges as f64).sum::<f64>() * ITERATIONS as f64
}

/// One run per scheme on the same mesh numbering: per-scheme timings and
/// the agreement check `schemes_agree_on_the_final_state` uses.
fn unstructured_pass(pacer: &mut Pacer, app: &Mgcfd) -> ([Paced; 3], Result<(), String>) {
    let mut walls = [Paced {
        wall: 0.0,
        slowdown: 1.0,
    }; 3];
    let mut finals = [f64::NAN; 3];
    let mut panicked = None;
    for (i, scheme) in Scheme::all().into_iter().enumerate() {
        let session = live_session(apps::MGCFD, Some(scheme));
        let (run, wall) = pacer.time(|| guarded(|| app.run(&session)));
        walls[i] = wall;
        match run {
            Ok(run) => finals[i] = run.validation,
            Err(p) => panicked = Some(format!("{scheme:?} panicked: {p}")),
        }
    }
    (walls, panicked.map_or_else(|| agree(finals), Err))
}

fn agree([a, g, h]: [f64; 3]) -> Result<(), String> {
    let ok = g.is_finite()
        && g > 0.0
        && (g - h).abs() / g.abs() < 1e-12
        && (a - g).abs() / g.abs() < 1e-9;
    if ok {
        Ok(())
    } else {
        Err(format!(
            "schemes disagree: atomics {a}, global {g}, hier {h}"
        ))
    }
}

fn unstructured_set_up(args: &Args) -> (Mgcfd, MgHierarchy) {
    let seed = inputs::mesh_seed(args.seed);
    // The finest mesh and its coarsenings: the input, and its edge counts.
    let h = MgHierarchy::build(GRID.0, GRID.1, GRID.2, LEVELS, Ordering::Shuffled(seed));
    let warm = mgcfd((24, 24, 12), 2, 1, seed);
    for scheme in Scheme::all() {
        warm.run(&live_session(apps::MGCFD, Some(scheme)));
    }
    (mgcfd(GRID, LEVELS, ITERATIONS, seed), h)
}

pub fn unstructured_timed(args: &Args) -> Timed {
    let mut pacer = Pacer::cpu_and_memory();
    let mut setup = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        let (r, p) = pacer.time(|| unstructured_set_up(args));
        setup.push(p);
        ready = Some(r);
    }
    let (app, h) = ready.expect("SETUP_REPS >= 1");
    let visits = edge_visits(&h);
    let mut report = Report::default();
    let mut ops: Vec<Paced> = Vec::new();
    let mut per_scheme: [Vec<f64>; 3] = Default::default();
    let started = Instant::now();
    while another(
        started,
        args.budget,
        ops.len(),
        1,
        ops.last().map_or(0.0, |p| p.wall),
    ) {
        let (walls, verdict) = unstructured_pass(&mut pacer, &app);
        for (rates, w) in per_scheme.iter_mut().zip(walls) {
            rates.push(visits / w.paced());
        }
        ops.push(Paced::sum(&walls));
        report.ops(3, verdict);
    }
    let notes = Scheme::all()
        .into_iter()
        .zip(per_scheme)
        .map(|(s, rates)| {
            format!(
                "{}_edges_per_s {:.4e} 1/s (paced median)",
                short(s),
                stats::median(&rates)
            )
        })
        .collect();
    Timed {
        report,
        setup,
        rounds: ops.iter().map(|&p| (visits * 3.0, p)).collect(),
        ops,
        op_name: "pass (App::run under each of the 3 schemes)",
        work_name: "edge visits",
        child_rss_mib: 0.0,
        pacer_mib: mib(pacer.resident_bytes()),
        notes,
    }
}

pub fn unstructured_untraced_wall(args: &Args) -> f64 {
    let (app, _) = unstructured_set_up(args);
    Paced::sum(&unstructured_pass(&mut Pacer::cpu(), &app).0).wall
}

pub fn unstructured_traced(args: &Args, tracer: &Tracer) -> Traced {
    let mut report = Report::default();
    let (app, _) = unstructured_set_up(args);
    let seed = inputs::mesh_seed(args.seed);
    let (h, build_s) = stopwatch(|| {
        tracer.span("op2.mesh_build", 0, 0, |_| {
            MgHierarchy::build(GRID.0, GRID.1, GRID.2, LEVELS, Ordering::Shuffled(seed))
        })
    });
    report.metric("op2.mesh_build_ms", build_s * 1e3, "ms");
    let meshes = h.meshes.expect("built hierarchies hold meshes");
    for scheme in Scheme::all() {
        let mut color_s = 0.0;
        let mut colors = 0;
        for (level, mesh) in meshes.iter().enumerate() {
            let mesh = mesh.clone();
            let t = Instant::now();
            let cm = ColoredMesh::prepare(mesh, scheme, GPU_BLOCK);
            let end = Instant::now();
            tracer.record(&format!("op2.color.{}", short(scheme)), 0, 0, t, end);
            color_s += (end - t).as_secs_f64();
            if level == 0 {
                colors = cm.global.as_ref().map_or(0, |g| g.n_colors())
                    + cm.hier.as_ref().map_or(0, |g| g.n_colors());
            }
        }
        report.metric(
            format!("op2.color_ms.{}", short(scheme)),
            color_s * 1e3,
            "ms",
        );
        report.metric(
            format!("op2.colors.{}", short(scheme)),
            colors as f64,
            "count",
        );
    }
    drop(meshes);

    let before = telemetry::counters().snapshot();
    let mut wall_s = 0.0;
    let mut finals = [f64::NAN; 3];
    let mut verdict = Ok(());
    for (i, scheme) in Scheme::all().into_iter().enumerate() {
        let session = live_session(apps::MGCFD, Some(scheme));
        let seen = trace::watch(&session);
        let started = Instant::now();
        let group = 20_000 + 1_000 * i as u64;
        let (run, run_span) = tracer.span("app.run", 0, group, |id| {
            (guarded(|| app.run(&session)), id)
        });
        let ended = Instant::now();
        wall_s += (ended - started).as_secs_f64();
        let seen = trace::take(&seen);
        seen.record_replays(tracer, run_span, group + 1, ended);
        match run {
            Ok(r) => finals[i] = r.validation,
            Err(p) => verdict = Err(format!("{scheme:?} panicked: {p}")),
        }
        let steps = seen.steps(ended);
        let s = short(scheme);
        let step_s = median_step_s(&steps);
        report.metric(format!("apps.step_ms.{s}"), step_s * 1e3, "ms");
        report.metric(
            format!("execute.computed_gbps.{s}"),
            seen.main_graph_bytes() / step_s / 1e9,
            "GB/s",
        );
        per_step(&mut report, &steps, &format!(".{s}"), false);
    }
    let c = telemetry::counters().snapshot().since(&before);
    report.metric("price.hit_ratio.live_unstructured", hit_ratio(&c), "ratio");
    report.ops(3, verdict.and_then(|()| agree(finals)));
    Traced { report, wall_s }
}

/// Launches in each main-graph step of a small functional MG-CFD run
/// (atomics scheme) numbered by `mesh_seed`.
#[cfg(test)]
pub fn launches_per_step(
    ni: usize,
    nj: usize,
    nk: usize,
    levels: usize,
    mesh_seed: u64,
) -> Vec<u64> {
    let session = live_session(apps::MGCFD, Some(Scheme::Atomics));
    let seen = trace::watch(&session);
    mgcfd((ni, nj, nk), levels, 3, mesh_seed).run(&session);
    trace::take(&seen)
        .steps(Instant::now())
        .iter()
        .map(|s| s.launches)
        .collect()
}
