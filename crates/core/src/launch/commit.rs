//! Layer 4 — **commit**: apply one op to the session's committed state.
//! A launch advances the clock by its priced time and applies its
//! declared writes to residency; a transfer or exchange is priced here,
//! in recorded order (residency decides whether it moves anything), and
//! charged to the clock. The ledger is a list of entries: an eager
//! launch appends its one record, a graph replay appends its shared
//! plan as one entry, while its launches still advance the clock one by
//! one. Next to the clock, each launch adds to two running sums (its
//! boundary seconds and its effective bytes), so the session's boundary
//! fraction and effective bandwidth read them without walking the
//! entries. [`Session::launch`](crate::Session::launch) commits one op
//! at a time, graph replay a whole sequence under one `CommitLocks`.
//! Only when a launch observer is installed are committed records
//! copied aside; the observer sees them after the locks are released.

use crate::launch::price::{CommOp, Plan, PriceCache};
use crate::launch::residency::ResidencyTracker;
use crate::launch::LaunchMeta;
use crate::session::{LaunchObserver, LaunchRecord, Session};
use machine_model::TransferDir;
use parkit::sync::MutexGuard;

/// One ledger entry: the records one commit appended, in launch order.
pub(crate) enum Entry {
    /// An eager launch's record (always `Some`; stored as an `Option`
    /// so it reads as a one-slot plan).
    Launch(Option<LaunchRecord>),
    /// One replay of a recorded graph: the plan it was priced with,
    /// shared with the session's price cache and every other replay.
    Replay(Plan),
}

impl Entry {
    /// The entry's slots in recorded order: `Some` per launch, `None`
    /// per non-launch op of a replayed graph.
    pub fn slots(&self) -> &[Option<LaunchRecord>] {
        match self {
            Entry::Launch(record) => std::slice::from_ref(record),
            Entry::Replay(plan) => plan,
        }
    }
}

/// The session's committed state: the simulated clock and the launch
/// ledger. Lives behind `Session`'s ledger mutex; the pricing cache has
/// its own lock, so a commit never waits on a cold pricing walk.
pub(crate) struct Ledger {
    pub elapsed: f64,
    pub comm_time: f64,
    /// Priced seconds of the boundary launches, summed in commit order.
    pub boundary_secs: f64,
    /// Effective bytes of every launch, summed in commit order.
    pub effective_bytes: f64,
    entries: Vec<Entry>,
    /// Launch records across `entries`.
    len: usize,
    /// Optional per-launch observer (the verifier's footprint pass).
    /// Observes only — pricing and the ledger are unaffected. Invoked
    /// by the caller *after* the ledger lock is released.
    pub observer: Option<LaunchObserver>,
}

/// Where the running sums start: `-0.0`, the start of
/// `Iterator::<f64>::sum`'s fold, so a sum over no launch (or over no
/// boundary launch) keeps the sign bit a fold over the records gives.
const EMPTY_SUM: f64 = -0.0;

impl Ledger {
    pub fn new() -> Ledger {
        Ledger {
            elapsed: 0.0,
            comm_time: 0.0,
            boundary_secs: EMPTY_SUM,
            effective_bytes: EMPTY_SUM,
            entries: Vec::new(),
            len: 0,
            observer: None,
        }
    }

    /// Advance the clock and the running sums by one committed launch.
    /// A non-boundary launch leaves `boundary_secs` untouched: adding
    /// `+0.0` would clear the sign of an empty sum.
    #[inline]
    pub fn advance(&mut self, record: &LaunchRecord) {
        self.elapsed += record.time.total;
        if record.boundary {
            self.boundary_secs += record.time.total;
        }
        self.effective_bytes += record.effective_bytes;
    }

    /// Append one eager launch's record.
    pub fn push_launch(&mut self, record: LaunchRecord) {
        self.len += 1;
        self.entries.push(Entry::Launch(Some(record)));
    }

    /// Append one replay's plan, which holds `launches` records.
    pub fn push_plan(&mut self, plan: Plan, launches: usize) {
        self.len += launches;
        self.entries.push(Entry::Replay(plan));
    }

    /// Charge communication time (transfers, halo exchanges).
    pub fn charge_comm(&mut self, t: f64) {
        self.elapsed += t;
        self.comm_time += t;
    }

    /// Launch records in the ledger.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Every launch record, in commit order.
    pub fn records(&self) -> impl Iterator<Item = &LaunchRecord> {
        self.entries.iter().flat_map(Entry::slots).flatten()
    }

    /// Zero the clock and the running sums and drop every entry.
    pub fn clear(&mut self) {
        self.elapsed = 0.0;
        self.comm_time = 0.0;
        self.boundary_secs = EMPTY_SUM;
        self.effective_bytes = EMPTY_SUM;
        self.entries.clear();
        self.len = 0;
    }
}

/// One data-movement op as the commit stage sees it. Launches commit
/// through [`CommitLocks::launch`] instead.
pub(crate) enum Op<'o> {
    Transfer {
        bytes: f64,
        dats: &'o [u32],
        dir: TransferDir,
    },
    Exchange {
        bytes: f64,
        messages: u64,
    },
}

/// The session locks the commit stage writes through. The ledger is
/// locked up front; the price cache and residency tracker only when an
/// op needs them, always in the order ledger → cache → residency. The
/// launch observer is captured with the ledger lock, and committed
/// records are copied for it only when it exists.
pub(crate) struct CommitLocks<'s> {
    session: &'s Session,
    ledger: MutexGuard<'s, Ledger>,
    cache: Option<MutexGuard<'s, PriceCache>>,
    residency: Option<MutexGuard<'s, ResidencyTracker>>,
    observer: Option<LaunchObserver>,
    observed: Vec<LaunchRecord>,
}

impl<'s> CommitLocks<'s> {
    pub fn new(session: &'s Session) -> CommitLocks<'s> {
        let ledger = session.ledger();
        let observer = ledger.observer.clone();
        CommitLocks {
            session,
            ledger,
            cache: None,
            residency: None,
            observer,
            observed: Vec::new(),
        }
    }

    /// The price cache and residency tracker, locked on first use.
    fn cache_and_residency(&mut self) -> (&mut PriceCache, &mut ResidencyTracker) {
        let session = self.session;
        let cache = self.cache.get_or_insert_with(|| session.price_cache());
        let residency = self
            .residency
            .get_or_insert_with(|| session.residency_tracker());
        (cache, residency)
    }

    /// Commit one priced launch. `meta` is the declared access set of a
    /// recorded launch (eager launches declare none, so they never
    /// change residency). The launch advances the clock and the running
    /// sums but appends nothing: the caller appends its record (or its
    /// replay's plan) with [`CommitLocks::push_launch`] or
    /// [`CommitLocks::push_plan`]. The record is copied for the
    /// observer, if one is installed, until [`CommitLocks::release`]
    /// delivers it.
    #[inline]
    pub fn launch(&mut self, record: &LaunchRecord, meta: Option<&LaunchMeta>) {
        if let Some(meta) = meta {
            self.cache_and_residency().1.apply_launch(meta);
        }
        self.ledger.advance(record);
        if self.observer.is_some() {
            self.observed.push(record.clone());
        }
    }

    /// Commit one transfer or exchange: price it (unless residency
    /// elides a transfer) and charge it to the clock.
    pub fn commit(&mut self, op: Op<'_>) {
        let session = self.session;
        let pinned = session.config().pinned_transfers;
        let t = match op {
            Op::Transfer { bytes, dats, dir } => {
                let (cache, residency) = self.cache_and_residency();
                if !residency.apply_transfer(dir, dats) {
                    return;
                }
                let op = CommOp::Transfer { dir, pinned };
                cache.price_comm(&session.price_context(), op, bytes, 0)
            }
            Op::Exchange { bytes, messages } => {
                let (cache, _) = self.cache_and_residency();
                let op = CommOp::Exchange {
                    ranks: session.ranks(),
                    pinned,
                };
                cache.price_comm(&session.price_context(), op, bytes, messages)
            }
        };
        if let Some(t) = t {
            self.ledger.charge_comm(t);
        }
    }

    /// Append one eager launch's record to the ledger.
    pub fn push_launch(&mut self, record: LaunchRecord) {
        self.ledger.push_launch(record);
    }

    /// Append one replay's plan to the ledger as a single entry.
    pub fn push_plan(&mut self, plan: Plan, launches: usize) {
        self.ledger.push_plan(plan, launches);
    }

    /// Release every lock, then hand the committed launch records to
    /// the observer captured in [`CommitLocks::new`], in ledger order.
    pub fn release(self) {
        let CommitLocks {
            ledger,
            cache,
            residency,
            observer,
            observed,
            ..
        } = self;
        drop((ledger, cache, residency));
        if let Some(obs) = observer {
            for r in &observed {
                obs(r);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use machine_model::KernelTime;
    use std::sync::Arc;

    /// A launch record priced at `total` seconds (7 items, 56 bytes).
    pub(crate) fn record(name: &str, total: f64) -> LaunchRecord {
        LaunchRecord {
            time: KernelTime {
                total,
                memory: total,
                compute: 0.0,
                atomics: 0.0,
                launch: 0.0,
                reduction: 0.0,
                traffic: machine_model::MemoryTraffic {
                    dram_bytes: 0.0,
                    llc_bytes: 0.0,
                    bandwidth_efficiency: 1.0,
                },
            },
            name: Arc::from(name),
            items: 7,
            effective_bytes: 56.0,
            boundary: false,
        }
    }

    #[test]
    fn append_advances_the_clock_in_order() {
        let mut led = Ledger::new();
        let a = record("a", 1.0);
        led.advance(&a);
        led.push_launch(a);
        let plan: Plan = Arc::from(vec![Some(record("b", 2.0)), None, Some(record("c", 4.0))]);
        for r in plan.iter().flatten() {
            led.advance(r);
        }
        led.push_plan(plan, 2);
        assert_eq!(led.elapsed, 7.0);
        assert_eq!(led.len(), 3);
        let names: Vec<&str> = led.records().map(|r| &*r.name).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert_eq!(led.comm_time, 0.0);
        led.clear();
        assert_eq!((led.len(), led.records().count()), (0, 0));
        assert_eq!(led.elapsed, 0.0);
    }
}
