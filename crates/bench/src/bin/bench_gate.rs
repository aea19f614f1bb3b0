//! `bench_gate` — re-run the engine and app benchmarks and compare
//! against the committed baselines with a statistical test.
//!
//! ```text
//! bench_gate [--smoke] [--bless] [--quick] [--platform <label>]
//!            [--manifest engine|apps|transfer]
//! ```
//!
//! Three manifests are produced per run:
//!
//! * `BENCH_gate_engine.json` — wall-clock of the functional engine
//!   (cached/uncached stencil, row-sliced reduce), gated with the loose
//!   wall tolerance ([`Tolerance::wall`]): host timings are noisy, and
//!   baselines only transfer between runs on the *same* machine;
//! * `BENCH_gate_apps_<platform>.json` — per-kernel **simulated**
//!   seconds of the mini-apps at test size, gated with the tight
//!   per-platform tolerance: the pricing model is deterministic, so any
//!   drift beyond the band is a model/engine change, not noise;
//! * `BENCH_gate_transfer.json` — simulated seconds of one 64 MiB copy
//!   per platform × direction × allocation, priced through the session's
//!   comm path, gated with the sim tolerance (the interconnect model is
//!   pure arithmetic — any drift is a deliberate calibration change).
//!
//! Modes:
//!
//! * default — compare every manifest against
//!   `results/baselines/BENCH_<name>.json`; exit 1 on a confirmed
//!   regression (both the IQR and the bootstrap test agree — see
//!   `metrics::gate`), 2 when a baseline is missing;
//! * `--bless` — overwrite the baselines with this run (after a
//!   deliberate perf change, commit the updated files);
//! * `--smoke` — CI self-test, no baselines involved: each manifest
//!   must pass against itself, and a fixture with a synthetic slowdown
//!   injected into one kernel (3× the tolerance band) must fail naming
//!   exactly that kernel. Exit nonzero if either direction misbehaves.
//!
//! `--manifest <name>` restricts any mode to one manifest. The use case
//! is CI: the wall-clock manifests only gate meaningfully against
//! baselines blessed on the same machine, but the transfer manifest is
//! pure interconnect arithmetic, so `--manifest transfer` gates it
//! against the committed baseline on any host.

use metrics::gate::compare;
use metrics::{GateConfig, Histogram, KernelSummary, RunManifest, Tolerance};
use ops_dsl::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use sycl_sim::{PlatformId, Scheme, Session, SessionConfig, Toolchain};
use telemetry::TelemetryConfig;

/// The platform's best native toolchain (the Table-1 pairing).
fn native_toolchain(p: PlatformId) -> Toolchain {
    match p {
        PlatformId::A100 => Toolchain::NativeCuda,
        PlatformId::Mi250x => Toolchain::NativeHip,
        PlatformId::Max1100 => Toolchain::Dpcpp,
        PlatformId::Xeon8360Y | PlatformId::GenoaX => Toolchain::MpiOpenMp,
        PlatformId::Altra => Toolchain::OpenMp,
    }
}

/// Mini-apps the gate re-runs (test size: functional, seconds-scale).
const GATE_APPS: [&str; 4] = ["cloverleaf2d", "mgcfd", "acoustic", "rtm"];

fn make_app(name: &str) -> Box<dyn miniapps::App> {
    use miniapps::*;
    match name {
        "cloverleaf2d" => Box::new(CloverLeaf2d::test()),
        "mgcfd" => Box::new(Mgcfd::test()),
        "acoustic" => Box::new(Acoustic::test()),
        "rtm" => Box::new(Rtm::test()),
        _ => unreachable!("GATE_APPS entries are exhaustive"),
    }
}

fn now_unix() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

fn finish_manifest(
    name: String,
    platform: String,
    reps: u32,
    kernels: Vec<KernelSummary>,
    counters: telemetry::CounterSnapshot,
) -> RunManifest {
    RunManifest {
        name,
        git_rev: metrics::manifest::git_rev(),
        platform,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get() as u32),
        repetitions: reps,
        created_unix_secs: now_unix(),
        kernels,
        counters,
    }
}

/// Per-kernel simulated seconds of the mini-apps, `reps` repetitions.
/// Telemetry is enabled for the duration; each repetition's flushed
/// launch spans are folded per kernel.
fn apps_manifest(platform: PlatformId, reps: u32, smoke: bool) -> RunManifest {
    let toolchain = native_toolchain(platform);
    let apps: &[&str] = if smoke { &GATE_APPS[..2] } else { &GATE_APPS };

    // name -> (samples of per-rep sim seconds, bytes/rep, gbps).
    let mut acc: BTreeMap<String, (Vec<f64>, f64, f64)> = BTreeMap::new();
    TelemetryConfig::enabled().install();
    let before = telemetry::counters().snapshot();
    for app_name in apps {
        for _ in 0..reps {
            let app = make_app(app_name);
            let mut cfg = SessionConfig::new(platform, toolchain).app(app.name());
            if app.name() == "mgcfd" {
                cfg = cfg.scheme(Scheme::Atomics);
            }
            let session = match Session::create(cfg) {
                Ok(s) => s,
                Err(fail) => {
                    eprintln!("skipping {app_name} on {}: {fail}", platform.label());
                    break;
                }
            };
            telemetry::flush(); // start the repetition from a clean trace
            let run = app.run(&session);
            let events = telemetry::flush();
            for ks in metrics::kernel_stats(&events) {
                let e =
                    acc.entry(format!("{app_name}/{}", ks.name))
                        .or_insert((Vec::new(), 0.0, 0.0));
                e.0.push(ks.sim_secs);
                e.1 = ks.bytes;
                e.2 = ks.sim_gbps();
            }
            acc.entry(format!("{app_name}/__total"))
                .or_insert((Vec::new(), 0.0, 0.0))
                .0
                .push(run.elapsed);
        }
    }
    let delta = telemetry::counters().snapshot().delta(&before);
    TelemetryConfig::disabled().install();
    if delta.spans_dropped > 0 {
        eprintln!(
            "warning: {} spans dropped during the app benchmark — per-kernel samples may be short",
            delta.spans_dropped
        );
    }

    let kernels = acc
        .into_iter()
        .map(|(name, (samples, bytes, gbps))| {
            let mut h = Histogram::new();
            for &s in &samples {
                h.record(s);
            }
            KernelSummary {
                name,
                wall: h.summary(),
                sim_secs: metrics::median(&samples),
                samples,
                bytes,
                gbps,
                origin: None,
            }
        })
        .collect();
    finish_manifest(
        format!("gate_apps_{}", platform.label()),
        platform.label().to_owned(),
        reps,
        kernels,
        delta,
    )
}

/// Wall-clock of the functional engine: the cached row-sliced stencil
/// against the uncached per-point one, plus the row-sliced reduce.
fn engine_manifest(reps: u32, n: usize, launches: usize) -> RunManifest {
    let b = Block::new_2d(n, n, 1);
    let mut a = Dat::<f64>::zeroed(&b, "a");
    let mut c = Dat::<f64>::zeroed(&b, "c");
    a.fill_with(|i, j, _| ((i * 13 + j * 7) % 101) as f64 * 0.01);
    let interior = b.interior();
    let bytes = launches as f64 * (n * n) as f64 * 8.0 * 2.0;

    let session = |cached: bool| {
        let cfg = SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app("bench-gate");
        let cfg = if cached { cfg } else { cfg.no_pricing_cache() };
        Session::create(cfg).unwrap()
    };
    let mut stencil_pass = |cached: bool| {
        let s = session(cached);
        for it in 0..launches {
            let (src, dst) = if it % 2 == 0 {
                (&a, &mut c)
            } else {
                (&c, &mut a)
            };
            let r = src.reader();
            let meta = dst.meta();
            let w = dst.writer();
            let lp = ParLoop::new("star1", interior)
                .read(src.meta(), Stencil::star_2d(1))
                .write(meta)
                .flops(4.0);
            if cached {
                lp.run_rows(&s, |row| {
                    let cen = r.row(row.grow_x(1));
                    let south = r.row(row.shift(0, -1, 0));
                    let north = r.row(row.shift(0, 1, 0));
                    let out = w.row_mut(row);
                    for x in 0..row.len() {
                        out[x] = 0.25 * (cen[x] + cen[x + 2] + south[x] + north[x]);
                    }
                });
            } else {
                lp.run(&s, |tile| {
                    for (i, j, k) in tile.iter() {
                        let v = r.at(i - 1, j, k)
                            + r.at(i + 1, j, k)
                            + r.at(i, j - 1, k)
                            + r.at(i, j + 1, k);
                        w.set(i, j, k, 0.25 * v);
                    }
                });
            }
        }
    };
    // One untimed warmup per workload (pool spin-up, page faults, cold
    // pricing walks), then the timed repetitions.
    let time = |f: &mut dyn FnMut()| -> Vec<f64> {
        f();
        (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64()
            })
            .collect()
    };

    let baseline = time(&mut || stencil_pass(false));
    let fast = time(&mut || stencil_pass(true));

    let mut sink = 0.0f64;
    let u = a.reader();
    let reduce = time(&mut || {
        let s = session(true);
        for _ in 0..launches {
            sink += ParLoop::new("sum", interior)
                .read(a.meta(), Stencil::point())
                .run_rows_reduce(
                    &s,
                    0.0f64,
                    |x, y| x + y,
                    |acc, row| {
                        let mut t = acc;
                        for &v in u.row(row) {
                            t += v;
                        }
                        t
                    },
                );
        }
    });
    assert!(sink.is_finite());

    let kernels = [
        ("stencil/baseline", baseline, bytes),
        ("stencil/fast", fast, bytes),
        ("reduce/fast", reduce, bytes / 2.0),
    ]
    .into_iter()
    .map(|(name, samples, bytes)| {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let best = samples.iter().copied().fold(f64::INFINITY, f64::min);
        KernelSummary {
            name: name.to_owned(),
            wall: h.summary(),
            samples,
            sim_secs: 0.0,
            bytes,
            gbps: bytes / best / 1e9,
            origin: None,
        }
    })
    .collect();
    finish_manifest(
        "gate_engine".to_owned(),
        "host-wall".to_owned(),
        reps,
        kernels,
        telemetry::CounterSnapshot::default(),
    )
}

/// Deterministic simulated seconds of one 64 MiB copy per platform ×
/// direction × allocation, priced through the session path (record one
/// transfer node, replay, read the comm clock). The interconnect model
/// is pure arithmetic, so any drift beyond the sim tolerance is a model
/// or pricing-path change — exactly what this manifest gates.
fn transfer_manifest(reps: u32) -> RunManifest {
    use machine_model::TransferDir;
    const BYTES: f64 = 64.0 * 1024.0 * 1024.0;
    let mut kernels = Vec::new();
    for p in machine_model::all_platforms() {
        for pinned in [true, false] {
            let cfg = SessionConfig::new(p.id, native_toolchain(p.id))
                .app("bench-gate")
                .dry_run();
            let cfg = if pinned {
                cfg
            } else {
                cfg.pageable_transfers()
            };
            let session = Session::create(cfg).expect("native toolchains run everywhere");
            for dir in [TransferDir::H2D, TransferDir::D2H, TransferDir::D2D] {
                if dir == TransferDir::D2D && !pinned {
                    continue; // no host allocation to pin
                }
                let before = session.comm_time();
                let mut g = session.record();
                g.transfer_dir(BYTES, Vec::new(), dir);
                g.finish().replay(&session);
                let secs = session.comm_time() - before;
                let alloc = if dir == TransferDir::D2D {
                    "device"
                } else if pinned {
                    "pinned"
                } else {
                    "pageable"
                };
                let samples = vec![secs; reps as usize];
                let mut h = Histogram::new();
                for &s in &samples {
                    h.record(s);
                }
                kernels.push(KernelSummary {
                    name: format!("{}/{}/{alloc}", p.id.label(), dir.label()),
                    wall: h.summary(),
                    samples,
                    sim_secs: secs,
                    bytes: BYTES,
                    gbps: BYTES / secs / 1e9,
                    origin: None,
                });
            }
        }
    }
    finish_manifest(
        "gate_transfer".to_owned(),
        "all-platforms".to_owned(),
        reps,
        kernels,
        telemetry::CounterSnapshot::default(),
    )
}

/// Clone `m` with one kernel's samples slowed by `factor` — the smoke
/// fixture the gate must catch.
fn inject_slowdown(m: &RunManifest, kernel: &str, factor: f64) -> RunManifest {
    let mut out = m.clone();
    for k in out.kernels.iter_mut().filter(|k| k.name == kernel) {
        let mut h = Histogram::new();
        for s in k.samples.iter_mut() {
            *s *= factor;
            h.record(*s);
        }
        k.wall = h.summary();
        k.sim_secs *= factor;
    }
    out
}

/// Write `m` to `results/BENCH_<name>.json` (and echo the path).
fn persist(m: &RunManifest) -> PathBuf {
    let file = format!("BENCH_{}.json", m.name);
    match bench_harness::json::write_results_file(&file, &(m.to_json() + "\n")) {
        Ok(path) => {
            println!("wrote {}", path.display());
            path
        }
        Err(e) => {
            eprintln!("could not write results/{file}: {e}");
            std::process::exit(2);
        }
    }
}

/// `--smoke`: the gate must pass on identical runs and fail on the
/// injected-slowdown fixture, naming the slowed kernel.
fn smoke(manifests: &[(RunManifest, GateConfig)]) -> bool {
    let mut ok = true;
    for (m, cfg) in manifests {
        // Self-comparison must pass.
        let self_report = compare(m, m, cfg);
        if !self_report.passed() {
            eprintln!("smoke FAIL: {} did not pass against itself:", m.name);
            eprint!("{}", self_report.text());
            ok = false;
        }
        // A slowdown 3× the tolerance band on the largest kernel must
        // be caught and named.
        let Some(victim) = m.kernels.iter().find(|k| metrics::median(&k.samples) > 0.0) else {
            eprintln!("smoke FAIL: {} has no kernel with nonzero samples", m.name);
            ok = false;
            continue;
        };
        let factor = 1.0 + 3.0 * (cfg.tolerance.max_ratio - 1.0);
        let slowed = inject_slowdown(m, &victim.name, factor);
        let report = compare(&slowed, m, cfg);
        let caught = report.regressed().iter().any(|k| k.name == victim.name);
        if report.passed() || !caught {
            eprintln!(
                "smoke FAIL: injected {factor:.2}x slowdown on {}/{} was not confirmed:",
                m.name, victim.name
            );
            eprint!("{}", report.text());
            ok = false;
        } else {
            println!(
                "smoke: {} self-comparison passed; injected {factor:.2}x slowdown on '{}' \
                 confirmed as expected",
                m.name, victim.name
            );
        }
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke_mode = args.iter().any(|a| a == "--smoke");
    let bless = args.iter().any(|a| a == "--bless");
    let quick = args.iter().any(|a| a == "--quick");
    let platform = args
        .iter()
        .position(|a| a == "--platform")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| PlatformId::parse(s))
        .unwrap_or(PlatformId::A100);
    let only = args
        .iter()
        .position(|a| a == "--manifest")
        .and_then(|i| args.get(i + 1))
        .cloned();
    if let Some(o) = &only {
        if !["engine", "apps", "transfer"].contains(&o.as_str()) {
            eprintln!("bench_gate: unknown --manifest '{o}' (engine|apps|transfer)");
            std::process::exit(2);
        }
    }
    let want = |name: &str| only.as_deref().is_none_or(|o| o == name);

    let (reps, n, launches) = if smoke_mode {
        (3, 32, 6)
    } else if quick {
        (5, 64, 20)
    } else {
        (7, 96, 40)
    };

    let engine_cfg = GateConfig {
        tolerance: Tolerance::wall(),
        ..GateConfig::default()
    };
    let apps_cfg = GateConfig {
        tolerance: Tolerance::for_platform(platform.label()),
        ..GateConfig::default()
    };

    // Wall-clock needs more repetitions than the deterministic sim
    // times to give the bootstrap a usable sample. The transfer manifest is fully
    // deterministic (pure interconnect arithmetic), so it gates with
    // the tight sim tolerance.
    let mut pairs: Vec<(RunManifest, GateConfig)> = Vec::new();
    if want("engine") {
        pairs.push((engine_manifest(reps * 3, n, launches), engine_cfg));
    }
    if want("apps") {
        pairs.push((apps_manifest(platform, reps, smoke_mode), apps_cfg));
    }
    if want("transfer") {
        pairs.push((transfer_manifest(reps), GateConfig::default()));
    }
    for (m, _) in &pairs {
        persist(m);
    }

    if smoke_mode {
        if smoke(&pairs) {
            println!("smoke OK: gate fails on injected slowdowns and passes on identical runs");
        } else {
            std::process::exit(1);
        }
        return;
    }

    let baseline_dir = Path::new("results").join("baselines");
    if bless {
        for (m, _) in &pairs {
            let path = baseline_dir.join(format!("BENCH_{}.json", m.name));
            if let Err(e) = m.save(&path) {
                eprintln!("could not bless {}: {e}", path.display());
                std::process::exit(2);
            }
            println!("blessed {}", path.display());
        }
        return;
    }

    let mut failed = false;
    for (m, cfg) in &pairs {
        let path = baseline_dir.join(format!("BENCH_{}.json", m.name));
        let baseline = match RunManifest::load(&path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!(
                    "no baseline for {} ({e}); run `bench_gate --bless` and commit {}",
                    m.name,
                    path.display()
                );
                std::process::exit(2);
            }
        };
        let report = compare(m, &baseline, cfg);
        print!("{}", report.text());
        println!(
            "  (baseline {} @ {}, current @ {})",
            path.display(),
            baseline.git_rev,
            m.git_rev
        );
        failed |= !report.passed();
    }
    if failed {
        std::process::exit(1);
    }
}
