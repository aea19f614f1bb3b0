//! Sessions: the simulated analogue of "compile the app with toolchain X
//! and run it on machine Y".
//!
//! A [`Session`] owns the simulated clock and a per-launch ledger. Every
//! [`Session::launch`] call runs one op through the four launch layers
//! in [`crate::launch`]: **record** fingerprints the kernel with no
//! lock, **price** walks the quirk/toolchain/platform models (served by
//! the fingerprint cache behind its own mutex), **commit** advances the
//! clock and appends one ledger entry under the ledger mutex, and
//! **execute** runs the kernel body *functionally* so the application's
//! numerics are real.
//! [`Session::transfer`], [`Session::upload`], [`Session::download`]
//! and [`Session::exchange`] commit one data-movement op the same way.
//! [`crate::LaunchGraph`] replay calls the same per-op stages over a
//! recorded sequence, with one lock acquisition per stage per replay,
//! and appends the replay's priced plan as one ledger entry.

use crate::error::Failure;
use crate::kernel::Kernel;
use crate::launch::commit::{CommitLocks, Ledger, Op};
use crate::launch::execute::execute;
use crate::launch::price::{PriceCache, PriceContext};
use crate::launch::record::fingerprint;
use crate::launch::residency::{ResidencyTracker, TransferStats};
use crate::quirks;
use crate::toolchain::{Scheme, SyclVariant, Toolchain};
use machine_model::{KernelTime, Platform, PlatformId, TransferDir};
use parkit::sync::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One priced kernel launch: what the pricing layer returns and what
/// the ledger holds. The name is interned (`Arc<str>`), so records of
/// repeat launches share one allocation.
#[derive(Debug, Clone)]
pub struct LaunchRecord {
    pub name: Arc<str>,
    pub time: KernelTime,
    pub items: u64,
    pub effective_bytes: f64,
    /// Small boundary-style loop (latency-dominated)?
    pub boundary: bool,
}

/// Everything needed to create a session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    pub platform: PlatformId,
    pub toolchain: Toolchain,
    pub variant: SyclVariant,
    pub app: String,
    pub scheme: Option<Scheme>,
    /// When set, kernel bodies are *not* executed — launches are priced
    /// analytically only. Used by the figure harness to run paper-sized
    /// problems (e.g. 1000³ Acoustic, 8M-vertex MG-CFD) whose footprints
    /// depend only on sizes; functional validation happens at reduced
    /// sizes in the test suite.
    pub dry_run: bool,
    /// Memoise launch pricing per kernel fingerprint, and each replayed
    /// graph's priced plan per graph id (on by default). Disable to
    /// force a full toolchain-model walk on every launch of every
    /// replay — only useful for benchmarking the cache itself.
    pub pricing_cache: bool,
    /// Host allocations are page-locked (on by default): transfers run
    /// at the link's pinned rate. Disable via
    /// [`SessionConfig::pageable_transfers`] to model ordinary pageable
    /// allocations staged through the driver bounce buffer.
    pub pinned_transfers: bool,
}

impl SessionConfig {
    /// Start a config; variant defaults to `Flat`, app to "unnamed".
    pub fn new(platform: PlatformId, toolchain: Toolchain) -> Self {
        SessionConfig {
            platform,
            toolchain,
            variant: SyclVariant::Flat,
            app: "unnamed".to_owned(),
            scheme: None,
            dry_run: false,
            pricing_cache: true,
            pinned_transfers: true,
        }
    }

    /// Set the SYCL formulation (ignored by native toolchains).
    pub fn variant(mut self, v: SyclVariant) -> Self {
        self.variant = v;
        self
    }

    /// Name the application (drives the quirk matrix).
    pub fn app(mut self, app: &str) -> Self {
        self.app = app.to_owned();
        self
    }

    /// Set the unstructured race-resolution scheme.
    pub fn scheme(mut self, s: Scheme) -> Self {
        self.scheme = Some(s);
        self
    }

    /// Price launches without executing kernel bodies (see `dry_run`).
    pub fn dry_run(mut self) -> Self {
        self.dry_run = true;
        self
    }

    /// Disable the launch-pricing cache (see `pricing_cache`).
    pub fn no_pricing_cache(mut self) -> Self {
        self.pricing_cache = false;
        self
    }

    /// Model pageable host allocations instead of pinned ones (see
    /// `pinned_transfers`).
    pub fn pageable_transfers(mut self) -> Self {
        self.pinned_transfers = false;
        self
    }
}

/// Callback invoked with every launch record as it is appended to the
/// ledger (after the ledger lock is released, so observers may call back
/// into the session).
pub type LaunchObserver = Arc<dyn Fn(&LaunchRecord) + Send + Sync>;

/// Callback invoked with a [`crate::GraphSummary`] each time a recorded
/// graph is replayed on the session (before the replay's own work).
/// Summaries repeat per replay — dedup on [`crate::GraphSummary::id`].
pub type GraphObserver = Arc<dyn Fn(&crate::graph::GraphSummary) + Send + Sync>;

/// A live (platform × toolchain × variant × app) execution context.
pub struct Session {
    platform: Platform,
    cfg: SessionConfig,
    atomic_kind: machine_model::AtomicKind,
    /// Commit-layer state (clock + ledger + observer), its own lock.
    ledger: Mutex<Ledger>,
    /// Price-layer state (fingerprint → memoised price), its own lock —
    /// a cold toolchain walk never blocks ledger readers.
    cache: Mutex<PriceCache>,
    /// Per-dat host/device residency: decides which transfers are real
    /// vs elided. Lock order when multiple are held: ledger → cache →
    /// residency (the batched commit path nests all three).
    residency: Mutex<ResidencyTracker>,
    /// Static-analysis observer for replayed graphs. The flag lets the
    /// replay hot path skip the lock when no observer is installed.
    graph_observer: Mutex<Option<GraphObserver>>,
    graph_observed: std::sync::atomic::AtomicBool,
}

/// Short-lived read view of the launch ledger, returned by
/// [`Session::records`]. It walks the ledger's entries in commit order
/// (an eager launch's record, or every launch of a replay's shared
/// plan) without cloning or collecting them. The guard holds the ledger
/// lock: drop it before calling any session method that appends
/// (launch/transfer/exchange/reset).
pub struct Records<'a>(MutexGuard<'a, Ledger>);

impl Records<'_> {
    /// Launch records in the ledger.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when nothing has been launched since creation or reset.
    pub fn is_empty(&self) -> bool {
        self.0.len() == 0
    }

    /// Every launch record, in commit order.
    pub fn iter(&self) -> impl Iterator<Item = &LaunchRecord> {
        self.0.records()
    }

    /// The `i`-th launch record, if any. Walks the ledger from the
    /// start, so it costs O(`i`).
    pub fn get(&self, i: usize) -> Option<&LaunchRecord> {
        self.iter().nth(i)
    }
}

impl Session {
    /// Create a session, failing exactly when the paper reports the
    /// combination failed (unsupported target, miscompilation, ...).
    pub fn create(cfg: SessionConfig) -> Result<Session, Failure> {
        if let Some(fail) = quirks::check(
            &cfg.app,
            cfg.platform,
            cfg.toolchain,
            cfg.variant,
            cfg.scheme,
        ) {
            return Err(fail);
        }
        Ok(Session {
            platform: Platform::get(cfg.platform),
            atomic_kind: quirks::atomic_kind(cfg.platform, cfg.toolchain),
            cache: Mutex::new(PriceCache::new(cfg.pricing_cache)),
            residency: Mutex::new(ResidencyTracker::new()),
            ledger: Mutex::new(Ledger::new()),
            graph_observer: Mutex::new(None),
            graph_observed: std::sync::atomic::AtomicBool::new(false),
            cfg,
        })
    }

    /// The hardware model this session runs on.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// MPI ranks this toolchain decomposes the node into.
    pub fn ranks(&self) -> usize {
        self.cfg.toolchain.ranks(&self.platform)
    }

    /// The atomic path kernels get in this session.
    pub fn atomic_kind(&self) -> machine_model::AtomicKind {
        self.atomic_kind
    }

    /// Install (or clear) a per-launch observer. The callback sees each
    /// [`LaunchRecord`] right after it is appended to the ledger; it
    /// cannot change pricing, timing, or the ledger itself.
    pub fn set_launch_observer(&self, observer: Option<LaunchObserver>) {
        self.ledger.lock().observer = observer;
    }

    /// Install (or clear) a graph observer: it receives each replayed
    /// graph's [`crate::GraphSummary`] (once per replay — dedup on the
    /// summary id). Purely observational; replay behaviour, pricing and
    /// the ledger are unaffected.
    pub fn set_graph_observer(&self, observer: Option<GraphObserver>) {
        use std::sync::atomic::Ordering;
        self.graph_observed
            .store(observer.is_some(), Ordering::Release);
        *self.graph_observer.lock() = observer;
    }

    /// The installed graph observer, if any. One atomic load when none.
    pub(crate) fn graph_observer(&self) -> Option<GraphObserver> {
        use std::sync::atomic::Ordering;
        if !self.graph_observed.load(Ordering::Acquire) {
            return None;
        }
        self.graph_observer.lock().clone()
    }

    /// Price and record one kernel launch, then run `body` functionally.
    /// Returns whatever the body returns.
    ///
    /// `body` is called in every session, but in a dry-run session (see
    /// [`Session::executes`]) it is expected to do nothing. The ledger
    /// entry is recorded either way; a `Launch` span only when the
    /// session executes.
    pub fn launch<R>(&self, kernel: &Kernel, body: impl FnOnce() -> R) -> R {
        let (r, _) = self.launch_timed(kernel, body);
        r
    }

    /// True when kernel bodies should actually execute.
    pub fn executes(&self) -> bool {
        !self.cfg.dry_run
    }

    /// Start recording a launch graph. Record methods on the builder
    /// capture kernels and functional bodies; [`crate::LaunchGraph::replay`]
    /// then prices the whole sequence once per session and commits it
    /// under a single ledger lock per replay, as one ledger entry.
    pub fn record(&self) -> crate::graph::GraphBuilder<'_> {
        crate::graph::GraphBuilder::new(self.executes())
    }

    /// Like [`Session::launch`], also returning the simulated timing.
    /// When [`telemetry`] is enabled and the session executes, the launch
    /// writes a `Launch` span carrying the kernel name, iteration count,
    /// effective bytes and the simulated seconds, so traces can report
    /// achieved GB/s per kernel.
    pub fn launch_timed<R>(&self, kernel: &Kernel, body: impl FnOnce() -> R) -> (R, KernelTime) {
        // record → price → commit → execute: the ledger entry lands
        // before the body runs. Eager launches declare no accesses, so
        // they leave residency alone.
        let record = self.price_launch(&mut self.cache.lock(), kernel, fingerprint(kernel));
        let mut locks = CommitLocks::new(self);
        locks.launch(&record, None);
        locks.push_launch(record.clone());
        locks.release();
        (execute(&record, self.executes(), body), record.time)
    }

    /// Price stage for one launch, against a caller-held cache lock.
    pub(crate) fn price_launch(
        &self,
        cache: &mut PriceCache,
        kernel: &Kernel,
        key: u64,
    ) -> LaunchRecord {
        cache.price(&self.price_context(), kernel, key)
    }

    /// The fixed pricing context of this session (layer 2 input).
    pub(crate) fn price_context(&self) -> PriceContext<'_> {
        PriceContext {
            platform: &self.platform,
            toolchain: self.cfg.toolchain,
            variant: self.cfg.variant,
            atomic_kind: self.atomic_kind,
        }
    }

    /// Lock the pricing cache (graph replay fetches or builds its
    /// whole plan under one acquisition).
    pub(crate) fn price_cache(&self) -> MutexGuard<'_, PriceCache> {
        self.cache.lock()
    }

    /// Lock the ledger (the commit stage's first lock).
    pub(crate) fn ledger(&self) -> MutexGuard<'_, Ledger> {
        self.ledger.lock()
    }

    /// Commit one data-movement op under its own locks.
    fn commit_comm(&self, op: Op<'_>) {
        CommitLocks::new(self).commit(op);
    }

    /// Account an anonymous host→device transfer of `bytes` (no dat
    /// list, so residency never elides it). Priced through the
    /// interconnect model; see [`Session::upload`]/[`Session::download`]
    /// for residency-aware staging.
    pub fn transfer(&self, bytes: f64) {
        self.upload(bytes, &[]);
    }

    /// Stage `bytes` of the given dats host→device. Elided (free) when
    /// every dat already has a valid device copy.
    pub fn upload(&self, bytes: f64, dats: &[u32]) {
        self.commit_comm(Op::Transfer {
            bytes,
            dats,
            dir: TransferDir::H2D,
        });
    }

    /// Read `bytes` of the given dats back device→host. Elided when
    /// every dat already has a valid host copy (nothing wrote them on
    /// the device since the last transfer).
    pub fn download(&self, bytes: f64, dats: &[u32]) {
        self.commit_comm(Op::Transfer {
            bytes,
            dats,
            dir: TransferDir::D2H,
        });
    }

    /// Account a halo exchange between the session's MPI ranks:
    /// `messages` point-to-point messages moving `bytes` in total.
    /// Multi-rank sessions pay the MPI formula; a single-rank session
    /// with a nonzero halo pays the on-device pack/copy.
    pub fn exchange(&self, bytes: f64, messages: u64) {
        self.commit_comm(Op::Exchange { bytes, messages });
    }

    /// Lock the residency tracker (the commit stage's last lock).
    pub(crate) fn residency_tracker(&self) -> MutexGuard<'_, ResidencyTracker> {
        self.residency.lock()
    }

    /// Real/elided transfer counts so far (elision requires declared
    /// dat lists).
    pub fn transfer_stats(&self) -> TransferStats {
        self.residency.lock().stats()
    }

    /// Total simulated seconds so far.
    pub fn elapsed(&self) -> f64 {
        self.ledger.lock().elapsed
    }

    /// Simulated seconds spent in halo exchanges.
    pub fn comm_time(&self) -> f64 {
        self.ledger.lock().comm_time
    }

    /// Borrow the launch ledger without cloning it. The returned guard
    /// iterates the records in commit order and knows their count, so
    /// readers never copy the ledger. Keep the guard short-lived.
    pub fn records(&self) -> Records<'_> {
        Records(self.ledger.lock())
    }

    /// Order-sensitive digest of the ledger: the clock, the comm time
    /// and every record's name/price/shape, f64s by bit pattern. Two
    /// sessions have equal digests iff their ledgers are bit-identical —
    /// the invariant eager launches and graph replays must share.
    pub fn ledger_digest(&self) -> u64 {
        let led = self.ledger.lock();
        let mut h = std::collections::hash_map::DefaultHasher::new();
        led.elapsed.to_bits().hash(&mut h);
        led.comm_time.to_bits().hash(&mut h);
        hash_records(&led, &mut h);
        h.finish()
    }

    /// Order-sensitive digest of the launch records only — the clock
    /// and comm time are excluded. Two sessions that differ *only* in
    /// how data movement is priced (pinned vs pageable host memory) must
    /// still agree here: pricing transfers changes the simulated clock,
    /// never what the kernels computed.
    pub fn launch_digest(&self) -> u64 {
        let led = self.ledger.lock();
        let mut h = std::collections::hash_map::DefaultHasher::new();
        hash_records(&led, &mut h);
        h.finish()
    }

    /// Fraction of simulated time spent in boundary-style loops — the
    /// quantity the paper uses to expose launch overheads.
    /// Reads the boundary seconds commit sums, so it costs one lock.
    pub fn boundary_fraction(&self) -> f64 {
        let led = self.ledger.lock();
        if led.elapsed <= 0.0 {
            return 0.0;
        }
        led.boundary_secs / led.elapsed
    }

    /// Aggregate (kernel name → total seconds, launches), sorted by cost,
    /// ties by name.
    pub fn kernel_summary(&self) -> Vec<(String, f64, usize)> {
        per_kernel(&self.ledger.lock())
            .into_iter()
            .map(|k| (k.name.to_owned(), k.secs, k.launches))
            .collect()
    }

    /// Weighted-average effective bandwidth over all launches
    /// (the OP2 §4.3 reporting rule), bytes/s. Reads the effective
    /// bytes commit sums, so it costs one lock.
    pub fn effective_bandwidth(&self) -> f64 {
        let led = self.ledger.lock();
        if led.elapsed > 0.0 {
            led.effective_bytes / led.elapsed
        } else {
            0.0
        }
    }

    /// Render a per-kernel cost breakdown (the paper's per-kernel
    /// profiling view: where the time goes, boundary flags, effective
    /// bandwidths). One lock acquisition for the whole render. Rows go
    /// by cost, ties by name, so equal ledgers render equal text.
    pub fn explain(&self) -> String {
        let led = self.ledger.lock();
        let total = led.elapsed.max(1e-30);
        let bfrac = if led.elapsed > 0.0 {
            led.boundary_secs / led.elapsed
        } else {
            0.0
        };
        let mut out = format!(
            "# {} | {} | {} | total {:.3} ms ({} launches, {:.1}% boundary)\n",
            self.platform.name,
            self.cfg.toolchain.label(),
            self.cfg.variant.label(),
            total * 1e3,
            led.len(),
            bfrac * 100.0
        );
        out.push_str("kernel                sec      %time  launches  GB/s(eff)\n");
        for k in per_kernel(&led) {
            out.push_str(&format!(
                "{:20} {:9.5} {:6.1}% {:9} {:10.0}\n",
                k.name,
                k.secs,
                k.secs / total * 100.0,
                k.launches,
                k.bytes / k.secs.max(1e-30) / 1e9
            ));
        }
        out
    }

    /// Reset the clock and ledger (e.g. after warm-up iterations). The
    /// pricing cache survives: warm pricing is a property of the session
    /// config, not of the measured interval.
    pub fn reset(&self) {
        self.ledger.lock().clear();
    }
}

/// One kernel name's share of the ledger.
struct KernelRow<'a> {
    name: &'a str,
    secs: f64,
    launches: usize,
    bytes: f64,
}

/// Fold the ledger by kernel name, summing in commit order, and sort the
/// rows by cost, ties by name (the shared body of
/// [`Session::kernel_summary`] and [`Session::explain`]).
fn per_kernel(led: &Ledger) -> Vec<KernelRow<'_>> {
    let mut agg: HashMap<&str, KernelRow<'_>> = HashMap::new();
    for r in led.records() {
        let k = agg.entry(&*r.name).or_insert(KernelRow {
            name: &r.name,
            secs: 0.0,
            launches: 0,
            bytes: 0.0,
        });
        k.secs += r.time.total;
        k.launches += 1;
        k.bytes += r.effective_bytes;
    }
    let mut rows: Vec<KernelRow<'_>> = agg.into_values().collect();
    rows.sort_by(|a, b| b.secs.total_cmp(&a.secs).then_with(|| a.name.cmp(b.name)));
    rows
}

/// Hash every launch record into `h` in commit order, f64s by bit
/// pattern (the shared body of [`Session::ledger_digest`] and
/// [`Session::launch_digest`]).
fn hash_records(led: &Ledger, h: &mut impl Hasher) {
    led.len().hash(h);
    for r in led.records() {
        r.name.as_bytes().hash(h);
        r.time.total.to_bits().hash(h);
        r.time.memory.to_bits().hash(h);
        r.time.compute.to_bits().hash(h);
        r.items.hash(h);
        r.effective_bytes.to_bits().hash(h);
        r.boundary.hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quirks::apps;

    fn session(p: PlatformId, tc: Toolchain) -> Session {
        Session::create(SessionConfig::new(p, tc).app("test")).unwrap()
    }

    #[test]
    fn launch_advances_the_clock_and_runs_the_body() {
        let s = session(PlatformId::A100, Toolchain::NativeCuda);
        let k = Kernel::streaming("copy", 1 << 20, 2.0 * 8.0 * (1 << 20) as f64, 0.0);
        let mut ran = false;
        s.launch(&k, || ran = true);
        assert!(ran);
        assert!(s.elapsed() > 0.0);
        assert_eq!(s.records().len(), 1);
    }

    #[test]
    fn quirky_configs_refuse_to_build() {
        let cfg = SessionConfig::new(PlatformId::Altra, Toolchain::Dpcpp).app(apps::RTM);
        assert!(Session::create(cfg).is_err());
        let cfg = SessionConfig::new(PlatformId::GenoaX, Toolchain::OpenSycl)
            .app(apps::CLOVERLEAF2D)
            .variant(SyclVariant::NdRange([64, 4, 1]));
        assert!(Session::create(cfg).is_err());
    }

    #[test]
    fn single_rank_exchanges_price_the_on_device_halo_copy() {
        let gpu = session(PlatformId::A100, Toolchain::NativeCuda);
        gpu.exchange(1e9, 100);
        // Priced as a D2D copy: fast, but no longer free.
        assert!(gpu.comm_time() > 0.0 && gpu.comm_time() < 0.01);

        let cpu = session(PlatformId::Xeon8360Y, Toolchain::Mpi);
        cpu.exchange(1e9, 100);
        assert!(cpu.comm_time() > 0.0);
        assert_eq!(cpu.elapsed(), cpu.comm_time());
    }

    #[test]
    fn kernel_summary_aggregates_by_name() {
        let s = session(PlatformId::A100, Toolchain::NativeCuda);
        let k1 = Kernel::streaming("a", 1 << 16, 1e6, 0.0);
        let k2 = Kernel::streaming("b", 1 << 20, 1e8, 0.0);
        for _ in 0..3 {
            s.launch(&k1, || ());
        }
        s.launch(&k2, || ());
        let sum = s.kernel_summary();
        assert_eq!(sum.len(), 2);
        assert_eq!(sum[0].0, "b", "bigger kernel sorts first");
        assert_eq!(sum[1].2, 3);
    }

    #[test]
    fn summary_and_explain_break_cost_ties_by_name() {
        // Identical kernels under different names cost the same bit for
        // bit; a hash map's order must not reach the output.
        let run = || {
            let s = session(PlatformId::A100, Toolchain::NativeCuda);
            for name in ["viscosity", "advec_cell", "ideal_gas", "zeta", "beta"] {
                s.launch(&Kernel::streaming(name, 1 << 20, 3e7, 0.0), || ());
            }
            s.launch(&Kernel::streaming("big", 1 << 22, 1e9, 0.0), || ());
            s
        };
        let s = run();
        let names: Vec<String> = s.kernel_summary().into_iter().map(|r| r.0).collect();
        let by_name = ["advec_cell", "beta", "ideal_gas", "viscosity", "zeta"];
        assert_eq!(names[0], "big");
        assert_eq!(names[1..], by_name);
        let text = s.explain();
        let rows: Vec<&str> = text
            .lines()
            .skip(2)
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(rows, names);
        assert_eq!(text, run().explain(), "two fresh sessions render alike");
    }

    #[test]
    fn boundary_fraction_reflects_tiny_loops() {
        let s = session(PlatformId::Mi250x, Toolchain::NativeHip);
        let big = Kernel::streaming("interior", 1 << 24, 3.0 * 8.0 * (1 << 24) as f64, 0.0);
        let tiny = Kernel::streaming("halo", 512, 2.0 * 8.0 * 512.0, 0.0);
        s.launch(&big, || ());
        for _ in 0..20 {
            s.launch(&tiny, || ());
        }
        let f = s.boundary_fraction();
        assert!(f > 0.0 && f < 1.0);
    }

    #[test]
    fn reset_clears_everything() {
        let s = session(PlatformId::A100, Toolchain::NativeCuda);
        s.launch(&Kernel::streaming("x", 1 << 16, 1e6, 0.0), || ());
        s.reset();
        assert_eq!(s.elapsed(), 0.0);
        assert!(s.records().is_empty());
    }

    #[test]
    fn effective_bandwidth_uses_the_op2_rule() {
        let s = session(PlatformId::A100, Toolchain::NativeCuda);
        let k = Kernel::streaming("triad", 1 << 26, 3.0 * 8.0 * (1 << 26) as f64, 0.0);
        s.launch(&k, || ());
        let bw = s.effective_bandwidth();
        assert!(bw > 0.5 * s.platform().mem.stream_bw);
        assert!(bw <= 1.01 * s.platform().mem.stream_bw);
    }

    #[test]
    fn explain_renders_the_ledger() {
        let s = session(PlatformId::A100, Toolchain::NativeCuda);
        s.launch(&Kernel::streaming("triad", 1 << 20, 3e7, 0.0), || ());
        s.launch(&Kernel::streaming("copy", 1 << 20, 2e7, 0.0), || ());
        let text = s.explain();
        assert!(text.contains("triad"));
        assert!(text.contains("copy"));
        assert!(text.contains("NVIDIA A100"));
        assert!(text.contains("2 launches"));
    }

    #[test]
    fn transfers_are_priced_through_the_interconnect_on_every_platform() {
        let gpu = session(PlatformId::A100, Toolchain::NativeCuda);
        gpu.transfer(1e9);
        // 1 GB over the pinned 25 GB/s H2D link = 40 ms.
        assert!(
            (gpu.elapsed() - 0.04).abs() / 0.04 < 0.01,
            "{}",
            gpu.elapsed()
        );

        // CPUs pay the in-package memcpy — small but nonzero.
        let cpu = session(PlatformId::GenoaX, Toolchain::OpenMp);
        cpu.transfer(1e9);
        assert!(cpu.elapsed() > 0.0 && cpu.elapsed() < gpu.elapsed());

        // Pageable allocations run at the bounce-buffer rate.
        let pageable = Session::create(
            SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda)
                .app("test")
                .pageable_transfers(),
        )
        .unwrap();
        pageable.transfer(1e9);
        assert!(pageable.elapsed() > 1.5 * gpu.elapsed());
    }

    #[test]
    fn residency_elides_repeat_uploads_and_post_writeback_downloads() {
        let s = session(PlatformId::A100, Toolchain::NativeCuda);
        s.upload(1e8, &[1, 2]);
        let first = s.comm_time();
        assert!(first > 0.0);
        s.upload(1e8, &[1, 2]);
        assert_eq!(s.comm_time(), first, "second upload elided");
        // Host copy still valid (nothing wrote on device): free readback.
        s.download(1e8, &[1]);
        assert_eq!(s.comm_time(), first);
        assert_eq!(
            s.transfer_stats(),
            crate::TransferStats { real: 1, elided: 2 }
        );
        // Anonymous transfers always pay.
        s.transfer(1e8);
        assert!(s.comm_time() > first);
    }

    #[test]
    fn launch_digest_ignores_comm_time_but_ledger_digest_does_not() {
        let a = session(PlatformId::A100, Toolchain::NativeCuda);
        let b = session(PlatformId::A100, Toolchain::NativeCuda);
        let k = Kernel::streaming("x", 1 << 16, 1e6, 0.0);
        a.launch(&k, || ());
        b.launch(&k, || ());
        a.transfer(1e6);
        assert_eq!(a.launch_digest(), b.launch_digest());
        assert_ne!(a.ledger_digest(), b.ledger_digest());
    }

    #[test]
    fn mi250x_opensycl_atomics_are_downgraded() {
        let s = session(PlatformId::Mi250x, Toolchain::OpenSycl);
        assert_eq!(s.atomic_kind(), machine_model::AtomicKind::CasLoop);
        let s = session(PlatformId::Mi250x, Toolchain::Dpcpp);
        assert_eq!(s.atomic_kind(), machine_model::AtomicKind::NativeFp);
    }

    #[test]
    fn cached_launches_price_identically_to_cold_ones() {
        let cached = session(PlatformId::A100, Toolchain::NativeCuda);
        let uncached = Session::create(
            SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda)
                .app("test")
                .no_pricing_cache(),
        )
        .unwrap();
        let k1 = Kernel::streaming("triad", 1 << 20, 3e7, 2e6);
        let k2 = Kernel::streaming("copy", 1 << 18, 4e6, 0.0);
        for s in [&cached, &uncached] {
            for _ in 0..5 {
                s.launch(&k1, || ());
                s.launch(&k2, || ());
            }
        }
        assert_eq!(cached.elapsed().to_bits(), uncached.elapsed().to_bits());
        assert_eq!(cached.ledger_digest(), uncached.ledger_digest());
        for (a, b) in cached.records().iter().zip(uncached.records().iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.time.total.to_bits(), b.time.total.to_bits());
        }
    }

    #[test]
    fn cache_distinguishes_same_name_different_shape() {
        // Two kernels sharing a name but differing in size must not
        // collide in the cache.
        let s = session(PlatformId::A100, Toolchain::NativeCuda);
        let big = Kernel::streaming("k", 1 << 24, 3.0 * 8.0 * (1 << 24) as f64, 0.0);
        let small = Kernel::streaming("k", 1 << 10, 3.0 * 8.0 * (1 << 10) as f64, 0.0);
        s.launch(&big, || ());
        s.launch(&small, || ());
        s.launch(&big, || ());
        let r = s.records();
        let t: Vec<f64> = r.iter().map(|rec| rec.time.total).collect();
        assert!(t[0] > t[1] * 10.0);
        assert_eq!(t[0].to_bits(), t[2].to_bits());
    }

    #[test]
    fn cache_survives_reset_and_interns_names() {
        let s = session(PlatformId::A100, Toolchain::NativeCuda);
        let k = Kernel::streaming("triad", 1 << 20, 3e7, 0.0);
        s.launch(&k, || ());
        let t0 = s.records().get(0).unwrap().time.total;
        s.reset();
        s.launch(&k, || ());
        s.launch(&k, || ());
        assert_eq!(
            s.records().get(0).unwrap().time.total.to_bits(),
            t0.to_bits()
        );
        // All records of one kernel share a single interned name.
        let r = s.records();
        assert!(Arc::ptr_eq(
            &r.get(0).unwrap().name,
            &r.get(1).unwrap().name
        ));
    }

    #[test]
    fn records_guard_iterates_without_cloning() {
        let s = session(PlatformId::A100, Toolchain::NativeCuda);
        s.launch(&Kernel::streaming("a", 1 << 16, 1e6, 0.0), || ());
        s.launch(&Kernel::streaming("b", 1 << 16, 1e6, 0.0), || ());
        let r = s.records();
        assert_eq!(r.len(), 2);
        let names: Vec<&str> = r.iter().map(|rec| &*rec.name).collect();
        assert_eq!(names, ["a", "b"]);
        drop(r);
        // Guard released: the session is usable again.
        s.launch(&Kernel::streaming("c", 1 << 16, 1e6, 0.0), || ());
        assert_eq!(s.records().len(), 3);
    }

    #[test]
    fn ledger_digest_tracks_every_field() {
        let a = session(PlatformId::A100, Toolchain::NativeCuda);
        let b = session(PlatformId::A100, Toolchain::NativeCuda);
        assert_eq!(a.ledger_digest(), b.ledger_digest(), "empty ledgers agree");
        let k = Kernel::streaming("x", 1 << 16, 1e6, 0.0);
        a.launch(&k, || ());
        assert_ne!(a.ledger_digest(), b.ledger_digest());
        b.launch(&k, || ());
        assert_eq!(a.ledger_digest(), b.ledger_digest());
        a.transfer(1e6);
        assert_ne!(a.ledger_digest(), b.ledger_digest(), "comm time counts");
        b.transfer(1e6);
        assert_eq!(a.ledger_digest(), b.ledger_digest());
    }
}
