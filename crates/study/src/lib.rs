//! # sycl-study — the paper's full cross-product as one command
//!
//! The repo's other crates *can* measure any (app, platform, variant
//! [, scheme]) cell; this crate runs **all** of them — 7 apps × 6
//! platforms × per-platform variant columns (× 3 race-resolution
//! schemes for MG-CFD) — as one reproducible, parallel,
//! crash-tolerant job, the way a real portability study is executed
//! on a cluster.
//!
//! The moving parts, bottom-up:
//!
//! * [`unit`](mod@unit) — the canonical enumeration of the cross-product. Unit
//!   indices depend only on the fixed platform/app/variant tables, so
//!   every process (and every CI shard) agrees on `index ↔ cell`;
//!   `--shard i/n` partitions by `index % n`.
//! * [`proto`] — the length-prefixed framed pipe protocol (magic
//!   `SYF1` + u32 length + JSON) between the orchestrator and its
//!   worker processes, with typed messages (`hello`/`run`/`start`/
//!   `done`/`exit`).
//! * [`runner`] — executes one unit via the same
//!   `portability::measure_*` calls the figure binaries use.
//! * [`worker`] — the `--worker` mode this binary re-executes itself
//!   into, plus the fault-injection hooks (`--chaos`, `--hang-once`)
//!   that prove the recovery paths.
//! * [`orchestrator`] — the event loop: per-unit deadlines, bounded
//!   retries, worker respawn with generation counters, an append-only
//!   resume journal, and the lossless merge of every worker's
//!   manifest rows (with [`metrics::Provenance`] of which worker and
//!   attempt produced each cell).
//! * [`report`] — `results/STUDY.json` (status per cell, fleet stats,
//!   the PP̄ table over the merged study) and shard merging for CI.
//! * [`forensics`] — post-mortem reconstruction from the resume
//!   journal plus the crash-surviving flight recordings every process
//!   keeps (`telemetry::flight`): kill-site attribution for every
//!   crashed/timed-out unit, straggler/tail kernel analysis, and a
//!   merged cross-process Chrome trace with causal flow arrows. The
//!   `blackbox` binary is its CLI.
//!
//! The hard invariant, proven by the process-level tests in
//! `tests/study_proc.rs`: **every unit ends terminal** — measured, a
//! modelled paper hole, or `crashed` after bounded retries — even
//! under `--chaos 0.2` worker kills, and the merged manifest accounts
//! for all of them.

pub mod forensics;
pub mod orchestrator;
pub mod proto;
pub mod record;
pub mod report;
pub mod runner;
pub mod unit;
pub mod worker;

pub use forensics::{analyze, chrome_fleet_trace, load_flight_dir, BlackboxDoc};
pub use orchestrator::{merged_manifest, run_study, StudyConfig, StudyOutcome, StudyStats};
pub use record::{UnitRecord, UnitStatus};
pub use report::StudyDoc;
pub use unit::{paper_units, shard, smoke_units, Scope, StudyUnit};
pub use worker::{worker_cli, WorkerOpts};
