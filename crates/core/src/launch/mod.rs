//! The launch path, split into four explicit, separately-testable layers:
//!
//! 1. [`record`] — build a [`LaunchNode`] from kernel + traits, no lock.
//! 2. [`price`] — quirks + toolchain `ExecProfile` + platform model,
//!    served by the fingerprint cache (and, for a replayed graph, by
//!    the session's per-graph plan).
//! 3. [`execute`] — the functional body on parkit, timed as a `Launch`
//!    span when telemetry is on and the session executes.
//! 4. [`commit`] — advance the clock and append one ledger entry under
//!    the lock: an eager launch's record, or a replay's whole plan.
//!
//! [`Session::launch`](crate::Session::launch) is the thin eager
//! composition of the four; [`LaunchGraph`](crate::LaunchGraph) records a
//! sequence once and replays it with one ledger lock per replay.

pub mod commit;
pub mod execute;
pub mod price;
pub mod record;
pub mod residency;

pub use record::LaunchNode;
pub use residency::{Residency, TransferStats};
pub use telemetry::shadow::{AccessMode, DatAccess, LaunchMeta};
