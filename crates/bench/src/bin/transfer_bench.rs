//! `transfer_bench` — the babelstream of the interconnect tier.
//!
//! ```text
//! transfer_bench [--smoke]
//! ```
//!
//! Calibrates the host↔device link of every platform by pricing a size
//! ladder of anonymous transfer nodes **through the product path** (a
//! session records and replays a one-node graph per point, exactly like
//! an app's staging traffic), for every direction (H2D/D2H/D2D) and
//! host-allocation kind (pinned/pageable). Each measured point is
//! cross-checked against [`Interconnect::transfer_time`](machine_model::interconnect::Interconnect::transfer_time) — a divergence
//! means the session's comm pricing drifted from the machine model and
//! the run exits nonzero.
//!
//! On top of the curves the bench reports what the interconnect costs
//! the *applications*: a per-app × platform kernel-vs-transfer split
//! (paper sizes, dry-run priced, native toolchains) and the CPU-vs-GPU
//! crossover table — how much of the GPUs' advantage survives once the
//! staging traffic they depend on is priced.
//!
//! Output: `results/BENCH_transfer.json`, schema `transfer-bench/v1`.
//! `--smoke` shrinks the ladder and runs the apps at test size (same
//! schema, same self-checks) so CI can exercise the whole path in
//! seconds.

use bench_harness::{json, make_app, native_toolchain, APP_NAMES};
use machine_model::{all_platforms, TransferDir};
use sycl_sim::{PlatformId, Scheme, Session, SessionConfig};

const KIB: f64 = 1024.0;
const MIB: f64 = 1024.0 * KIB;

/// The calibration size ladder (bytes per copy).
fn ladder(smoke: bool) -> Vec<f64> {
    if smoke {
        vec![64.0 * KIB, 16.0 * MIB, 256.0 * MIB]
    } else {
        vec![
            4.0 * KIB,
            64.0 * KIB,
            1.0 * MIB,
            16.0 * MIB,
            64.0 * MIB,
            256.0 * MIB,
            1024.0 * MIB,
        ]
    }
}

/// One priced point of one curve.
struct Point {
    bytes: f64,
    secs: f64,
    gbps: f64,
}

/// One (platform × direction × allocation) calibration curve.
struct Curve {
    platform: &'static str,
    link: &'static str,
    dir: TransferDir,
    pinned: bool,
    latency: f64,
    points: Vec<Point>,
}

/// Price one anonymous copy through a session: record a one-node graph,
/// replay it, and read the comm-clock delta.
fn priced_copy(session: &Session, dir: TransferDir, bytes: f64) -> f64 {
    let before = session.comm_time();
    let mut g = session.record();
    g.transfer_dir(bytes, Vec::new(), dir);
    g.finish().replay(session);
    session.comm_time() - before
}

/// Calibrate every platform × direction × allocation over the ladder,
/// verifying each point against the machine model as it is measured.
fn calibrate(smoke: bool) -> Vec<Curve> {
    let sizes = ladder(smoke);
    let mut curves = Vec::new();
    for p in all_platforms() {
        for pinned in [true, false] {
            let cfg = SessionConfig::new(p.id, native_toolchain(p.id))
                .app("transfer-bench")
                .dry_run();
            let cfg = if pinned {
                cfg
            } else {
                cfg.pageable_transfers()
            };
            let session = Session::create(cfg).expect("native toolchains run everywhere");
            for dir in [TransferDir::H2D, TransferDir::D2H, TransferDir::D2D] {
                // The D2D rate has no host allocation to pin; one curve
                // is enough.
                if dir == TransferDir::D2D && !pinned {
                    continue;
                }
                let points = sizes
                    .iter()
                    .map(|&bytes| {
                        let secs = priced_copy(&session, dir, bytes);
                        let model = p.interconnect.transfer_time(dir, pinned, bytes);
                        let drift = (secs - model).abs() / model;
                        if drift > 1e-9 {
                            eprintln!(
                                "FAIL: {} {} pinned={pinned} {bytes:.0} B priced at {secs:.3e}s \
                                 but the interconnect model says {model:.3e}s",
                                p.id.label(),
                                dir.label(),
                            );
                            std::process::exit(1);
                        }
                        Point {
                            bytes,
                            secs,
                            gbps: bytes / secs / 1e9,
                        }
                    })
                    .collect();
                curves.push(Curve {
                    platform: p.id.label(),
                    link: p.interconnect.link,
                    dir,
                    pinned,
                    latency: p.interconnect.latency,
                    points,
                });
            }
        }
    }
    curves
}

/// One app × platform kernel-vs-transfer split.
struct AppSplit {
    app: String,
    platform: PlatformId,
    kernel_secs: f64,
    transfer_secs: f64,
    total_secs: f64,
}

/// Price every app on every platform's native toolchain and split the
/// clock into kernel time and interconnect time.
fn app_splits(smoke: bool) -> Vec<AppSplit> {
    let mut out = Vec::new();
    for name in APP_NAMES {
        let app = make_app(name, !smoke).expect("APP_NAMES entries are exhaustive");
        for p in all_platforms() {
            let mut cfg = SessionConfig::new(p.id, native_toolchain(p.id))
                .app(app.name())
                .dry_run();
            if app.name() == "mgcfd" {
                cfg = cfg.scheme(Scheme::Atomics);
            }
            let session = match Session::create(cfg) {
                Ok(s) => s,
                Err(fail) => {
                    eprintln!("skipping {name} on {}: {fail}", p.id.label());
                    continue;
                }
            };
            app.run(&session);
            let total = session.elapsed();
            let transfer = session.comm_time();
            out.push(AppSplit {
                app: name.to_owned(),
                platform: p.id,
                kernel_secs: total - transfer,
                transfer_secs: transfer,
                total_secs: total,
            });
        }
    }
    out
}

/// One row of the CPU-vs-GPU crossover table: the best CPU against the
/// best GPU, kernels-only (the historic free-transfer comparison)
/// against the full priced clock.
struct Crossover {
    app: String,
    best_cpu: PlatformId,
    best_gpu: PlatformId,
    cpu_kernel_secs: f64,
    cpu_total_secs: f64,
    gpu_kernel_secs: f64,
    gpu_total_secs: f64,
    /// GPU advantage under each model: `cpu / gpu` (> 1 = GPU wins).
    speedup_kernels: f64,
    speedup_total: f64,
}

fn crossovers(splits: &[AppSplit]) -> Vec<Crossover> {
    let mut out = Vec::new();
    for name in APP_NAMES {
        let best = |gpu: bool| -> Option<&AppSplit> {
            splits
                .iter()
                .filter(|s| s.app == name && s.platform.is_gpu() == gpu)
                .min_by(|a, b| a.total_secs.total_cmp(&b.total_secs))
        };
        let (Some(cpu), Some(gpu)) = (best(false), best(true)) else {
            continue;
        };
        out.push(Crossover {
            app: name.to_owned(),
            best_cpu: cpu.platform,
            best_gpu: gpu.platform,
            cpu_kernel_secs: cpu.kernel_secs,
            cpu_total_secs: cpu.total_secs,
            gpu_kernel_secs: gpu.kernel_secs,
            gpu_total_secs: gpu.total_secs,
            speedup_kernels: cpu.kernel_secs / gpu.kernel_secs,
            speedup_total: cpu.total_secs / gpu.total_secs,
        });
    }
    out
}

/// The pinned-over-pageable bandwidth factor per platform × direction
/// at the largest measured size (where the latency term is negligible).
fn pinned_deltas(curves: &[Curve]) -> Vec<(&'static str, TransferDir, f64, f64, f64)> {
    let mut out = Vec::new();
    for c in curves
        .iter()
        .filter(|c| c.pinned && c.dir != TransferDir::D2D)
    {
        let Some(pageable) = curves
            .iter()
            .find(|o| o.platform == c.platform && o.dir == c.dir && !o.pinned)
        else {
            continue;
        };
        let (pin, page) = (
            c.points.last().expect("ladder is never empty").gbps,
            pageable.points.last().expect("ladder is never empty").gbps,
        );
        out.push((c.platform, c.dir, pin, page, pin / page));
    }
    out
}

fn write_document(
    smoke: bool,
    curves: &[Curve],
    splits: &[AppSplit],
    cross: &[Crossover],
) -> String {
    let mut w = json::JsonWriter::new();
    w.begin_object();
    w.key("schema").string("transfer-bench/v1");
    w.key("gitRev").string(&metrics::manifest::git_rev());
    w.key("createdUnixSecs").int(
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
    );
    w.key("smoke").bool(smoke);

    w.key("curves").begin_array();
    for c in curves {
        w.begin_object();
        w.key("platform").string(c.platform);
        w.key("link").string(c.link);
        w.key("dir").string(c.dir.label());
        w.key("alloc").string(if c.dir == TransferDir::D2D {
            "device"
        } else if c.pinned {
            "pinned"
        } else {
            "pageable"
        });
        w.key("latencySecs").number(c.latency);
        w.key("points").begin_array();
        for pt in &c.points {
            w.begin_object();
            w.key("bytes").number(pt.bytes);
            w.key("secs").number(pt.secs);
            w.key("gbps").number(pt.gbps);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();

    w.key("pinnedDelta").begin_array();
    for &(platform, dir, pin, page, speedup) in &pinned_deltas(curves) {
        w.begin_object();
        w.key("platform").string(platform);
        w.key("dir").string(dir.label());
        w.key("pinnedGbps").number(pin);
        w.key("pageableGbps").number(page);
        w.key("speedup").number(speedup);
        w.end_object();
    }
    w.end_array();

    w.key("apps").begin_array();
    for s in splits {
        w.begin_object();
        w.key("app").string(&s.app);
        w.key("platform").string(s.platform.label());
        w.key("chip")
            .string(if s.platform.is_gpu() { "gpu" } else { "cpu" });
        w.key("kernelSecs").number(s.kernel_secs);
        w.key("transferSecs").number(s.transfer_secs);
        w.key("totalSecs").number(s.total_secs);
        w.key("transferFraction")
            .number(s.transfer_secs / s.total_secs);
        w.end_object();
    }
    w.end_array();

    w.key("crossover").begin_array();
    for c in cross {
        w.begin_object();
        w.key("app").string(&c.app);
        w.key("bestCpu").string(c.best_cpu.label());
        w.key("bestGpu").string(c.best_gpu.label());
        w.key("cpuKernelSecs").number(c.cpu_kernel_secs);
        w.key("cpuTotalSecs").number(c.cpu_total_secs);
        w.key("gpuKernelSecs").number(c.gpu_kernel_secs);
        w.key("gpuTotalSecs").number(c.gpu_total_secs);
        w.key("gpuSpeedupKernels").number(c.speedup_kernels);
        w.key("gpuSpeedupTotal").number(c.speedup_total);
        // How far pricing the interconnect moved the crossover, in
        // percent of the free-transfer speedup (negative = the GPU
        // advantage shrank).
        w.key("shiftPct")
            .number((c.speedup_total / c.speedup_kernels - 1.0) * 100.0);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let curves = calibrate(smoke);
    println!(
        "calibrated {} curves ({} points each) against the session pricing path",
        curves.len(),
        ladder(smoke).len()
    );
    for (platform, dir, pin, page, speedup) in pinned_deltas(&curves) {
        println!(
            "  {platform:>10} {}: pinned {pin:6.1} GB/s vs pageable {page:6.1} GB/s ({speedup:.2}x)",
            dir.label()
        );
    }

    let splits = app_splits(smoke);
    let cross = crossovers(&splits);
    for c in &cross {
        println!(
            "  {:>12}: best GPU {:>8} vs best CPU {:>9} — speedup {:.2}x kernels-only, \
             {:.2}x with transfers priced",
            c.app,
            c.best_gpu.label(),
            c.best_cpu.label(),
            c.speedup_kernels,
            c.speedup_total
        );
    }
    // The acceptance bar: pricing transfers must *measurably* move at
    // least one app's CPU-vs-GPU crossover.
    let max_shift = cross
        .iter()
        .map(|c| (c.speedup_total / c.speedup_kernels - 1.0).abs())
        .fold(0.0f64, f64::max);
    if max_shift < 0.001 {
        eprintln!("FAIL: no app's CPU-vs-GPU crossover moved when transfers were priced");
        std::process::exit(1);
    }

    let doc = write_document(smoke, &curves, &splits, &cross);
    json::validate(&doc).expect("the writer emits valid JSON");
    match json::write_results_file("BENCH_transfer.json", &(doc + "\n")) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write results/BENCH_transfer.json: {e}");
            std::process::exit(2);
        }
    }
}
