//! Layer 4 — **commit**: apply one op to the session's committed state.
//! A launch appends its priced record and applies its declared writes to
//! residency; a transfer or exchange is priced here, in recorded order
//! (residency decides whether it moves anything), and charged to the
//! clock. [`Session::launch`](crate::Session::launch) commits one op at
//! a time, graph replay a whole sequence under one `CommitLocks`;
//! observers run after the locks are released.

use crate::launch::price::{CommOp, PriceCache, Priced};
use crate::launch::record::LaunchMeta;
use crate::launch::residency::ResidencyTracker;
use crate::session::{LaunchObserver, LaunchRecord, Session};
use machine_model::TransferDir;
use parkit::sync::MutexGuard;
use std::sync::Arc;

/// The session's committed state: the simulated clock and the per-launch
/// ledger. Lives behind `Session`'s ledger mutex; the pricing cache has
/// its own lock, so a commit never waits on a cold pricing walk.
pub(crate) struct Ledger {
    pub elapsed: f64,
    pub comm_time: f64,
    pub records: Vec<LaunchRecord>,
    /// Optional per-launch observer (the verifier's footprint pass).
    /// Observes only — pricing and the ledger are unaffected. Invoked
    /// by the caller *after* the ledger lock is released.
    pub observer: Option<LaunchObserver>,
}

impl Ledger {
    pub fn new() -> Ledger {
        Ledger {
            elapsed: 0.0,
            comm_time: 0.0,
            records: Vec::new(),
            observer: None,
        }
    }

    /// Append one priced launch: advance the clock, push the record.
    /// Returns the record so the caller can invoke the observer after
    /// releasing the lock.
    pub fn append(&mut self, p: &Priced) -> LaunchRecord {
        let record = LaunchRecord {
            name: Arc::clone(&p.name),
            time: p.time,
            items: p.items,
            effective_bytes: p.effective_bytes,
            boundary: p.boundary,
        };
        self.elapsed += p.time.total;
        self.records.push(record.clone());
        record
    }

    /// Charge communication time (transfers, halo exchanges).
    pub fn charge_comm(&mut self, t: f64) {
        self.elapsed += t;
        self.comm_time += t;
    }
}

/// One op as the commit stage sees it. Launches arrive priced; `meta`
/// is the declared access set of a recorded launch (eager launches
/// declare none, so they never change residency).
pub(crate) enum Op<'o> {
    Launch {
        priced: &'o Priced,
        meta: Option<&'o LaunchMeta>,
    },
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
/// op needs them, always in the order ledger → cache → residency.
pub(crate) struct CommitLocks<'s> {
    session: &'s Session,
    ledger: MutexGuard<'s, Ledger>,
    cache: Option<MutexGuard<'s, PriceCache>>,
    residency: Option<MutexGuard<'s, ResidencyTracker>>,
}

impl<'s> CommitLocks<'s> {
    pub fn new(session: &'s Session) -> CommitLocks<'s> {
        CommitLocks {
            session,
            ledger: session.ledger(),
            cache: None,
            residency: None,
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

    /// Commit one op. Returns the appended record of a launch, for
    /// delivery to the observer once [`CommitLocks::release`] has run.
    pub fn commit(&mut self, op: Op<'_>) -> Option<LaunchRecord> {
        let session = self.session;
        let pinned = session.config().pinned_transfers;
        let t = match op {
            Op::Launch { priced, meta } => {
                if let Some(meta) = meta {
                    self.cache_and_residency().1.apply_launch(meta);
                }
                return Some(self.ledger.append(priced));
            }
            Op::Transfer { bytes, dats, dir } => {
                let (cache, residency) = self.cache_and_residency();
                if !residency.apply_transfer(dir, dats) {
                    return None;
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
        None
    }

    /// Release every lock, then hand `records` to the launch observer
    /// in ledger order.
    pub fn release(self, records: &[LaunchRecord]) {
        let observer = self.ledger.observer.clone();
        drop(self);
        if let Some(obs) = observer {
            for r in records {
                obs(r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine_model::KernelTime;

    fn priced(name: &str, total: f64) -> Priced {
        Priced {
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
        led.append(&priced("a", 1.0));
        led.append(&priced("b", 2.0));
        assert_eq!(led.elapsed, 3.0);
        assert_eq!(led.records.len(), 2);
        assert_eq!(&*led.records[1].name, "b");
        assert_eq!(led.comm_time, 0.0);
    }
}
