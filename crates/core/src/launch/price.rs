//! Layer 2 — **price**: walk the toolchain model for an `ExecProfile`,
//! apply atomic-path quirks, and run the platform model — memoised per
//! kernel fingerprint so repeat launches cost a hash lookup, and per
//! recorded graph so repeat replays cost one.

use crate::kernel::{Kernel, KernelTraits};
use crate::launch::record::KeyHasher;
use crate::session::LaunchRecord;
use crate::toolchain::{SyclVariant, Toolchain};
use machine_model::{predict, AtomicKind, ExecProfile, KernelTime, Platform, TransferDir};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// Hands a `u64` key to the table as its own hash. The cache's keys are
/// already hashes (kernel and comm fingerprints) or process-unique
/// graph ids, so hashing them again would buy nothing.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, _: &[u8]) {
        unreachable!("price-cache keys are u64s");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A price-cache table keyed by a fingerprint or a graph id.
type KeyMap<V> = HashMap<u64, V, BuildHasherDefault<PassThrough>>;

/// Memoised pricing for one kernel fingerprint: everything the commit
/// layer needs to build a ledger record without re-walking the models.
struct CachedPrice {
    /// The full fingerprint, kept to verify hash-bucket hits exactly.
    footprint: machine_model::KernelFootprint,
    traits: KernelTraits,
    nd_shape: Option<[usize; 3]>,
    name: Arc<str>,
    #[allow(dead_code)]
    exec: ExecProfile,
    time: KernelTime,
    boundary: bool,
}

impl CachedPrice {
    fn matches(&self, kernel: &Kernel) -> bool {
        self.footprint == kernel.footprint
            && self.traits == kernel.traits
            && self.nd_shape == kernel.nd_shape
    }
}

/// The priced ops of one recorded graph, in recorded order: the ledger
/// record of each launch, `None` for every other op. Shared by every
/// replay of the graph on the session that priced it, and committed to
/// the ledger as one entry per replay.
pub(crate) type Plan = Arc<[Option<LaunchRecord>]>;

/// The session pricing context the cold path needs (fixed per session).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PriceContext<'p> {
    pub platform: &'p Platform,
    pub toolchain: Toolchain,
    pub variant: SyclVariant,
    pub atomic_kind: AtomicKind,
}

/// The cold path: toolchain walk, optional atomic downgrade (MI250X +
/// OpenSYCL loses the unsafe atomics), platform model.
fn price_cold(ctx: &PriceContext<'_>, kernel: &Kernel) -> (KernelTime, ExecProfile) {
    let exec = ctx
        .toolchain
        .exec_profile(ctx.platform, ctx.variant, kernel);
    // Only clone the footprint when a downgrade actually applies.
    let time = match kernel.footprint.atomics {
        Some(a) if a.kind != ctx.atomic_kind => {
            let mut fp = kernel.footprint.clone();
            fp.atomics = Some(machine_model::AtomicProfile {
                kind: ctx.atomic_kind,
                ..a
            });
            predict(ctx.platform, &fp, &exec)
        }
        _ => predict(ctx.platform, &kernel.footprint, &exec),
    };
    (time, exec)
}

/// Intra-node MPI message latency (shared-memory transport).
const MSG_LATENCY: f64 = 0.8e-6;

/// Interconnect-priced transfer time: direction- and allocation-aware,
/// nonzero on every platform (CPUs pay an in-package `memcpy`). The
/// cost SYCL buffers hide behind accessor creation.
fn transfer_time(platform: &Platform, dir: TransferDir, pinned: bool, bytes: f64) -> f64 {
    platform.interconnect.transfer_time(dir, pinned, bytes)
}

/// Interconnect-aware halo-exchange time. Multi-rank sessions pay the
/// calibrated MPI formula (message latency + a copy through the memory
/// system, in + out ⇒ half of STREAM); a single-rank session with a
/// nonzero halo pays the on-device pack/copy/unpack — the halo still
/// has to move through device memory even without MPI. `None` when
/// there is nothing to move.
fn exchange_time(
    platform: &Platform,
    ranks: usize,
    bytes: f64,
    messages: u64,
    pinned: bool,
) -> Option<f64> {
    if ranks > 1 {
        Some(messages as f64 * MSG_LATENCY + bytes / (0.5 * platform.mem.stream_bw))
    } else if bytes > 0.0 {
        Some(transfer_time(platform, TransferDir::D2D, pinned, bytes))
    } else {
        None
    }
}

/// One communication operation as the pricing layer sees it — the comm
/// analogue of a kernel fingerprint. Everything that can change the
/// modelled time is in here; f64s compare by bit pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CommOp {
    /// A host↔device (or on-device) copy through the interconnect.
    Transfer { dir: TransferDir, pinned: bool },
    /// A halo exchange between `ranks` MPI ranks (or the on-device halo
    /// copy when single-rank).
    Exchange { ranks: usize, pinned: bool },
}

/// Memoised comm price, kept with its full fingerprint so hash-bucket
/// hits are verified exactly (a collision degrades to a recompute).
#[derive(Debug, Clone, Copy)]
struct CachedComm {
    op: CommOp,
    bytes: f64,
    messages: u64,
    time: Option<f64>,
}

impl CachedComm {
    fn matches(&self, op: CommOp, bytes: f64, messages: u64) -> bool {
        self.op == op && self.bytes.to_bits() == bytes.to_bits() && self.messages == messages
    }
}

fn comm_fingerprint(op: CommOp, bytes: f64, messages: u64) -> u64 {
    let mut h = KeyHasher::default();
    match op {
        CommOp::Transfer { dir, pinned } => {
            0u8.hash(&mut h);
            dir.hash(&mut h);
            pinned.hash(&mut h);
        }
        CommOp::Exchange { ranks, pinned } => {
            1u8.hash(&mut h);
            ranks.hash(&mut h);
            pinned.hash(&mut h);
        }
    }
    bytes.to_bits().hash(&mut h);
    messages.hash(&mut h);
    h.finish()
}

/// Launch-pricing cache: kernel fingerprint hash → memoised price.
/// Hits are verified field-for-field against the stored fingerprint,
/// so a hash collision degrades to a cold launch, never a wrong price.
/// Transfer/exchange nodes get the same treatment in a second map —
/// comm ops are priced through the interconnect model exactly like
/// kernels through the roofline, and memoised the same way. A third map
/// keeps each replayed graph's [`Plan`] by graph id: graph ids are
/// process-unique, a finished graph never changes, and a price depends
/// only on the session's fixed context and the kernel, so a stored plan
/// holds exactly what the per-launch lookups would return.
pub(crate) struct PriceCache {
    map: KeyMap<CachedPrice>,
    comm: KeyMap<CachedComm>,
    plans: KeyMap<Plan>,
    enabled: bool,
}

impl PriceCache {
    pub fn new(enabled: bool) -> PriceCache {
        PriceCache {
            map: KeyMap::default(),
            comm: KeyMap::default(),
            plans: KeyMap::default(),
            enabled,
        }
    }

    /// The plan of graph `id`, which holds `launches` launch ops. The
    /// first request runs `build` (per-launch [`PriceCache::price`]
    /// calls, counted as usual) and keeps the result; later requests
    /// share it and count `launches` cache hits in one add. A disabled
    /// cache stores no plan and runs `build` on every request.
    pub fn plan(&mut self, id: u64, launches: u64, build: impl FnOnce(&mut Self) -> Plan) -> Plan {
        if !self.enabled {
            return build(self);
        }
        if let Some(plan) = self.plans.get(&id) {
            if telemetry::enabled() {
                telemetry::Counters::add(&telemetry::counters().pricing_cache_hits, launches);
            }
            return Arc::clone(plan);
        }
        let plan = build(self);
        self.plans.insert(id, Arc::clone(&plan));
        plan
    }

    /// Price one communication op through the interconnect model,
    /// memoised per comm fingerprint. `None` means the op moves nothing
    /// (e.g. a zero-byte single-rank exchange).
    pub fn price_comm(
        &mut self,
        ctx: &PriceContext<'_>,
        op: CommOp,
        bytes: f64,
        messages: u64,
    ) -> Option<f64> {
        let key = comm_fingerprint(op, bytes, messages);
        self.price_comm_under(ctx, key, op, bytes, messages)
    }

    /// [`PriceCache::price_comm`] under a given `key`. A stored entry
    /// answers only if its fields match; otherwise the op is priced cold
    /// and replaces it.
    fn price_comm_under(
        &mut self,
        ctx: &PriceContext<'_>,
        key: u64,
        op: CommOp,
        bytes: f64,
        messages: u64,
    ) -> Option<f64> {
        if self.enabled {
            if let Some(c) = self.comm.get(&key) {
                if c.matches(op, bytes, messages) {
                    return c.time;
                }
            }
        }
        let time = match op {
            CommOp::Transfer { dir, pinned } => {
                Some(transfer_time(ctx.platform, dir, pinned, bytes))
            }
            CommOp::Exchange { ranks, pinned } => {
                exchange_time(ctx.platform, ranks, bytes, messages, pinned)
            }
        };
        if self.enabled {
            self.comm.insert(
                key,
                CachedComm {
                    op,
                    bytes,
                    messages,
                    time,
                },
            );
        }
        time
    }

    /// Price one launch under `key` (the kernel's fingerprint) into its
    /// ledger record. Repeat launches of a cached fingerprint cost a
    /// hash lookup; cold launches walk the models once and memoise the
    /// result. The name is interned, so records of repeat launches share
    /// one allocation.
    pub fn price(&mut self, ctx: &PriceContext<'_>, kernel: &Kernel, key: u64) -> LaunchRecord {
        if self.enabled {
            if let Some(c) = self.map.get(&key) {
                if c.matches(kernel) {
                    if telemetry::enabled() {
                        telemetry::Counters::add(&telemetry::counters().pricing_cache_hits, 1);
                    }
                    return LaunchRecord {
                        time: c.time,
                        name: Arc::clone(&c.name),
                        items: c.footprint.items,
                        effective_bytes: c.footprint.effective_bytes,
                        boundary: c.boundary,
                    };
                }
            }
            if telemetry::enabled() {
                telemetry::Counters::add(&telemetry::counters().pricing_cache_misses, 1);
            }
        }

        let (time, exec) = price_cold(ctx, kernel);
        let name: Arc<str> = Arc::from(&*kernel.footprint.name);
        let boundary = kernel.footprint.is_boundary();
        if self.enabled {
            self.map.insert(
                key,
                CachedPrice {
                    footprint: kernel.footprint.clone(),
                    traits: kernel.traits,
                    nd_shape: kernel.nd_shape,
                    name: Arc::clone(&name),
                    exec,
                    time,
                    boundary,
                },
            );
        }
        LaunchRecord {
            time,
            name,
            items: kernel.footprint.items,
            effective_bytes: kernel.footprint.effective_bytes,
            boundary,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::record::fingerprint;
    use machine_model::PlatformId;

    fn ctx(p: &Platform) -> PriceContext<'_> {
        PriceContext {
            platform: p,
            toolchain: Toolchain::NativeCuda,
            variant: SyclVariant::Flat,
            atomic_kind: AtomicKind::NativeFp,
        }
    }

    #[test]
    fn cache_hits_return_bit_identical_prices_and_interned_names() {
        let p = Platform::get(PlatformId::A100);
        let ctx = ctx(&p);
        let k = Kernel::streaming("triad", 1 << 20, 3e7, 0.0);
        let key = fingerprint(&k);
        let mut cache = PriceCache::new(true);
        let cold = cache.price(&ctx, &k, key);
        let hit = cache.price(&ctx, &k, key);
        assert_eq!(cold.time.total.to_bits(), hit.time.total.to_bits());
        assert!(Arc::ptr_eq(&cold.name, &hit.name));
    }

    #[test]
    fn comm_prices_memoise_bit_identically() {
        let p = Platform::get(PlatformId::A100);
        let ctx = ctx(&p);
        let mut cache = PriceCache::new(true);
        let op = CommOp::Transfer {
            dir: TransferDir::H2D,
            pinned: true,
        };
        let cold = cache.price_comm(&ctx, op, 1e8, 0).unwrap();
        let hit = cache.price_comm(&ctx, op, 1e8, 0).unwrap();
        assert_eq!(cold.to_bits(), hit.to_bits());
        // Direction and allocation kind are part of the fingerprint.
        let d2h = cache
            .price_comm(
                &ctx,
                CommOp::Transfer {
                    dir: TransferDir::D2H,
                    pinned: true,
                },
                1e8,
                0,
            )
            .unwrap();
        let pageable = cache
            .price_comm(
                &ctx,
                CommOp::Transfer {
                    dir: TransferDir::H2D,
                    pinned: false,
                },
                1e8,
                0,
            )
            .unwrap();
        assert_ne!(cold.to_bits(), d2h.to_bits());
        assert!(pageable > cold);
    }

    #[test]
    fn disabled_cache_stays_cold_but_prices_identically() {
        let p = Platform::get(PlatformId::A100);
        let ctx = ctx(&p);
        let k = Kernel::streaming("copy", 1 << 18, 4e6, 0.0);
        let key = fingerprint(&k);
        let mut on = PriceCache::new(true);
        let mut off = PriceCache::new(false);
        let a = on.price(&ctx, &k, key);
        let b = off.price(&ctx, &k, key);
        let c = off.price(&ctx, &k, key);
        assert_eq!(a.time.total.to_bits(), b.time.total.to_bits());
        assert_eq!(b.time.total.to_bits(), c.time.total.to_bits());
        assert!(!Arc::ptr_eq(&b.name, &c.name), "no interning without cache");
    }

    #[test]
    fn plans_are_built_once_per_graph_and_never_when_disabled() {
        let p = Platform::get(PlatformId::A100);
        let ctx = ctx(&p);
        let k = Kernel::streaming("triad", 1 << 20, 3e7, 0.0);
        let key = fingerprint(&k);
        let builds = std::cell::Cell::new(0);
        let build = |cache: &mut PriceCache| -> Plan {
            builds.set(builds.get() + 1);
            Arc::from(vec![Some(cache.price(&ctx, &k, key)), None])
        };

        let mut on = PriceCache::new(true);
        let first = on.plan(7, 1, build);
        let second = on.plan(7, 1, build);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(builds.get(), 1, "the second request reuses the plan");
        let other = on.plan(8, 1, build);
        assert!(!Arc::ptr_eq(&first, &other), "plans are keyed by graph id");
        assert_eq!(builds.get(), 2);

        let mut off = PriceCache::new(false);
        let a = off.plan(7, 1, build);
        let b = off.plan(7, 1, build);
        assert_eq!(builds.get(), 4, "a disabled cache builds every time");
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(off.plans.is_empty() && off.map.is_empty());
        let (a, b) = (a[0].as_ref().unwrap(), b[0].as_ref().unwrap());
        assert_eq!(a.time.total.to_bits(), b.time.total.to_bits());
    }

    #[test]
    fn colliding_keys_cost_a_reprice_never_a_wrong_price() {
        let p = Platform::get(PlatformId::A100);
        let ctx = ctx(&p);
        let kernels = [
            Kernel::streaming("triad", 1 << 20, 3e7, 0.0),
            Kernel::streaming("copy", 1 << 12, 4e4, 0.0),
        ];
        let comms = [
            (
                CommOp::Transfer {
                    dir: TransferDir::H2D,
                    pinned: true,
                },
                1e8,
                0,
            ),
            (
                CommOp::Exchange {
                    ranks: 1,
                    pinned: true,
                },
                4e6,
                8,
            ),
        ];
        // Each op's price on a cache that has seen nothing else.
        let cold: Vec<u64> = kernels
            .iter()
            .map(|k| {
                let r = PriceCache::new(true).price(&ctx, k, 42);
                r.time.total.to_bits()
            })
            .collect();
        let cold_comm: Vec<Option<u64>> = comms
            .iter()
            .map(|&(op, b, m)| {
                let t = PriceCache::new(true).price_comm_under(&ctx, 42, op, b, m);
                t.map(f64::to_bits)
            })
            .collect();
        assert_ne!(cold[0], cold[1]);
        assert_ne!(cold_comm[0], cold_comm[1]);

        // Both of each kind under one forced key, in either order and
        // back again: every lookup returns that op's own cold price.
        for order in [[0, 1, 0, 1], [1, 0, 1, 0]] {
            let mut cache = PriceCache::new(true);
            for i in order {
                let r = cache.price(&ctx, &kernels[i], 42);
                assert_eq!(r.time.total.to_bits(), cold[i], "kernel {i}");
                assert_eq!(*r.name, *kernels[i].footprint.name);
                let (op, b, m) = comms[i];
                let t = cache.price_comm_under(&ctx, 42, op, b, m);
                assert_eq!(t.map(f64::to_bits), cold_comm[i], "comm op {i}");
            }
        }
    }

    #[test]
    fn transfers_are_nonzero_everywhere_and_direction_aware() {
        for p in machine_model::all_platforms() {
            for dir in [TransferDir::H2D, TransferDir::D2H, TransferDir::D2D] {
                for pinned in [false, true] {
                    let t = transfer_time(&p, dir, pinned, 1e8);
                    assert!(t > 0.0, "{} {dir:?}", p.name);
                }
            }
            let pageable = transfer_time(&p, TransferDir::H2D, false, 1e9);
            let pinned = transfer_time(&p, TransferDir::H2D, true, 1e9);
            if p.id.is_gpu() {
                assert!(pageable > 1.5 * pinned, "{}: pageable pays", p.name);
            } else {
                assert_eq!(pageable.to_bits(), pinned.to_bits());
            }
        }
    }

    #[test]
    fn exchanges_keep_the_mpi_formula_and_price_single_rank_halos() {
        let cpu = Platform::get(PlatformId::GenoaX);
        // Multi-rank: message latency plus a copy at half of STREAM.
        let mpi = exchange_time(&cpu, 4, 1e9, 100, true).unwrap();
        let expect = 100.0 * MSG_LATENCY + 1e9 / (0.5 * cpu.mem.stream_bw);
        assert_eq!(mpi.to_bits(), expect.to_bits());
        // Single-rank with a real halo: the on-device copy is priced.
        let gpu = Platform::get(PlatformId::A100);
        let t = exchange_time(&gpu, 1, 1e9, 100, true).unwrap();
        assert!(
            t > 0.0 && t < 0.01,
            "D2D halo copy is fast but not free: {t}"
        );
        // Single-rank with no halo bytes: nothing to move.
        assert!(exchange_time(&gpu, 1, 0.0, 0, true).is_none());
    }
}
