//! The interconnect tier, priced through the product path.
//!
//! [`curves`] prices a size ladder ([`LADDER`]) of anonymous copies on every
//! platform's link, laid out like oneAPI's `bandwidthTest`: direction
//! (H2D/D2H/D2D) × host allocation (pinned/pageable) × size. Each point
//! is a one-node graph a session records and replays, exactly like an
//! app's staging traffic, so it must equal
//! [`Interconnect::transfer_time`](machine_model::interconnect::Interconnect::transfer_time)
//! (Tier-1 holds it there). [`app_splits`] and [`crossovers`] report
//! what the interconnect costs the applications: each app's
//! kernel-vs-transfer split per platform (paper sizes, dry-run priced,
//! native toolchains) and how much of the GPUs' advantage survives
//! once their staging traffic is priced. [`transfer_json`] renders all
//! of it as `results/TRANSFER.json`.

use crate::{json::JsonWriter, make_app, native_toolchain, APP_NAMES};
use machine_model::{all_platforms, Platform, TransferDir};
use sycl_sim::{PlatformId, Scheme, Session, SessionConfig};

const KIB: f64 = 1024.0;
const MIB: f64 = 1024.0 * KIB;

/// The calibration size ladder (bytes per copy), 4 KiB to 1 GiB.
pub const LADDER: [f64; 7] = [
    4.0 * KIB,
    64.0 * KIB,
    1.0 * MIB,
    16.0 * MIB,
    64.0 * MIB,
    256.0 * MIB,
    1024.0 * MIB,
];

/// One (platform × direction × allocation) curve: `(bytes, priced
/// seconds)` of one copy per size.
pub struct Curve {
    pub platform: PlatformId,
    pub dir: TransferDir,
    pub pinned: bool,
    pub points: Vec<(f64, f64)>,
}

impl Curve {
    /// The host allocation the curve copies from or to.
    pub fn alloc(&self) -> &'static str {
        match (self.dir, self.pinned) {
            (TransferDir::D2D, _) => "device",
            (_, true) => "pinned",
            (_, false) => "pageable",
        }
    }
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

/// Every platform × allocation × direction curve over `sizes`, pinned
/// before pageable. D2D has no host allocation, so it has one curve per
/// platform. One session prices a platform's copies per allocation in
/// turn, so a price is a difference of its comm clock and depends, in
/// its last bits, on the copies priced before it.
pub fn curves(sizes: &[f64]) -> Vec<Curve> {
    let mut out = Vec::new();
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
                if dir == TransferDir::D2D && !pinned {
                    continue;
                }
                out.push(Curve {
                    platform: p.id,
                    dir,
                    pinned,
                    points: sizes
                        .iter()
                        .map(|&b| (b, priced_copy(&session, dir, b)))
                        .collect(),
                });
            }
        }
    }
    out
}

/// The pinned and pageable bandwidth (GB/s) per platform × host
/// direction at the largest size, where the latency term is negligible.
pub fn pinned_deltas(curves: &[Curve]) -> Vec<(PlatformId, TransferDir, f64, f64)> {
    let gbps = |c: &Curve| {
        let (bytes, secs) = c.points[c.points.len() - 1];
        bytes / secs / 1e9
    };
    curves
        .iter()
        .filter(|c| c.pinned && c.dir != TransferDir::D2D)
        .filter_map(|c| {
            let pageable = curves
                .iter()
                .find(|o| o.platform == c.platform && o.dir == c.dir && !o.pinned)?;
            Some((c.platform, c.dir, gbps(c), gbps(pageable)))
        })
        .collect()
}

/// One app × platform kernel-vs-transfer split.
pub struct AppSplit {
    pub app: &'static str,
    pub platform: PlatformId,
    pub kernel_secs: f64,
    pub transfer_secs: f64,
    pub total_secs: f64,
}

/// Price every app at its paper size on every platform's native
/// toolchain (MG-CFD with atomics) and split the clock into kernel and
/// interconnect time.
pub fn app_splits() -> Vec<AppSplit> {
    let mut out = Vec::new();
    for app in APP_NAMES {
        let run = make_app(app, true).expect("APP_NAMES entries are exhaustive");
        for p in all_platforms() {
            let mut cfg = SessionConfig::new(p.id, native_toolchain(p.id))
                .app(app)
                .dry_run();
            if app == "mgcfd" {
                cfg = cfg.scheme(Scheme::Atomics);
            }
            let session = Session::create(cfg).expect("native toolchains run every app");
            run.run(&session);
            let (total, transfer) = (session.elapsed(), session.comm_time());
            out.push(AppSplit {
                app,
                platform: p.id,
                kernel_secs: total - transfer,
                transfer_secs: transfer,
                total_secs: total,
            });
        }
    }
    out
}

/// One app's best CPU against its best GPU (by priced total), each
/// with and without its interconnect time.
pub struct Crossover<'a> {
    pub cpu: &'a AppSplit,
    pub gpu: &'a AppSplit,
}

impl Crossover<'_> {
    /// The GPU advantage (`cpu / gpu`, > 1 = GPU wins) over kernels
    /// only: the historic free-transfer comparison.
    pub fn speedup_kernels(&self) -> f64 {
        self.cpu.kernel_secs / self.gpu.kernel_secs
    }

    /// The GPU advantage over the full priced clock.
    pub fn speedup_total(&self) -> f64 {
        self.cpu.total_secs / self.gpu.total_secs
    }

    /// How far pricing the interconnect moved the crossover, in percent
    /// of the free-transfer speedup (negative = the GPU advantage
    /// shrank).
    pub fn shift_pct(&self) -> f64 {
        (self.speedup_total() / self.speedup_kernels() - 1.0) * 100.0
    }
}

/// The crossover row of every app, in [`APP_NAMES`] order.
pub fn crossovers(splits: &[AppSplit]) -> Vec<Crossover<'_>> {
    APP_NAMES
        .iter()
        .filter_map(|&app| {
            let best = |gpu: bool| {
                splits
                    .iter()
                    .filter(|s| s.app == app && s.platform.is_gpu() == gpu)
                    .min_by(|a, b| a.total_secs.total_cmp(&b.total_secs))
            };
            Some(Crossover {
                cpu: best(false)?,
                gpu: best(true)?,
            })
        })
        .collect()
}

/// `results/TRANSFER.json` (schema `transfer-bench/v1`): the curves,
/// the pinned-vs-pageable deltas, the app splits and the crossovers.
pub fn transfer_json() -> String {
    let curves = curves(&LADDER);
    let splits = app_splits();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema").string("transfer-bench/v1");

    w.key("curves").begin_array();
    for c in &curves {
        let link = Platform::get(c.platform).interconnect;
        w.begin_object();
        w.key("platform").string(c.platform.label());
        w.key("link").string(link.link);
        w.key("dir").string(c.dir.label());
        w.key("alloc").string(c.alloc());
        w.key("latencySecs").number(link.latency);
        w.key("points").begin_array();
        for &(bytes, secs) in &c.points {
            w.begin_object();
            w.key("bytes").number(bytes);
            w.key("secs").number(secs);
            w.key("gbps").number(bytes / secs / 1e9);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();

    w.key("pinnedDelta").begin_array();
    for (platform, dir, pin, page) in pinned_deltas(&curves) {
        w.begin_object();
        w.key("platform").string(platform.label());
        w.key("dir").string(dir.label());
        w.key("pinnedGbps").number(pin);
        w.key("pageableGbps").number(page);
        w.key("speedup").number(pin / page);
        w.end_object();
    }
    w.end_array();

    w.key("apps").begin_array();
    for s in &splits {
        w.begin_object();
        w.key("app").string(s.app);
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
    for c in crossovers(&splits) {
        w.begin_object();
        w.key("app").string(c.cpu.app);
        w.key("bestCpu").string(c.cpu.platform.label());
        w.key("bestGpu").string(c.gpu.platform.label());
        w.key("cpuKernelSecs").number(c.cpu.kernel_secs);
        w.key("cpuTotalSecs").number(c.cpu.total_secs);
        w.key("gpuKernelSecs").number(c.gpu.kernel_secs);
        w.key("gpuTotalSecs").number(c.gpu.total_secs);
        w.key("gpuSpeedupKernels").number(c.speedup_kernels());
        w.key("gpuSpeedupTotal").number(c.speedup_total());
        w.key("shiftPct").number(c.shift_pct());
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish() + "\n"
}
