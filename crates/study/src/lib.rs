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
//! * [`unit`](mod@unit) — numbers `portability::paper_cells`, the
//!   canonical enumeration of the cross-product. Unit indices depend
//!   only on the fixed platform/app/variant tables, so the orchestrator
//!   and every worker agree on `index ↔ cell`.
//! * [`proto`] — the length-prefixed framed pipe protocol (magic
//!   `SYF1` + u32 length + JSON) between the orchestrator and its
//!   worker processes, with typed messages (`hello`/`run`/`start`/
//!   `done`/`exit`).
//! * [`runner`] — executes one unit through `portability::measure`,
//!   the pricing `portability::paper_measurements` does.
//! * [`worker`] — the `--worker` mode this binary re-executes itself
//!   into, plus the fault-injection hooks (`--chaos`, `--hang-once`)
//!   that prove the recovery paths. Given a flight directory, each
//!   worker keeps a crash-surviving recording of its unit spans there
//!   (`telemetry::flight`).
//! * [`orchestrator`] — the event loop: per-unit deadlines, bounded
//!   retries, worker respawn with generation counters, and an
//!   append-only resume journal.
//! * [`report`] — `results/STUDY.json`, the one document a study
//!   writes: each cell's status, samples and the worker, attempt and
//!   trace id that produced it, the fleet stats, and the PP̄ table
//!   over the study.
//!
//! The hard invariant, proven by the process-level tests in
//! `tests/study_proc.rs`: **every unit ends terminal** — measured, a
//! modelled paper hole, or `crashed` after bounded retries — even
//! under `--chaos 0.2` worker kills, and the study's records account
//! for all of them.

pub mod orchestrator;
pub mod proto;
pub mod record;
pub mod report;
pub mod runner;
pub mod unit;
pub mod worker;

pub use orchestrator::{run_study, StudyConfig, StudyOutcome, StudyStats};
pub use record::{UnitRecord, UnitStatus};
pub use report::StudyDoc;
pub use unit::{paper_units, smoke_units, Scope, StudyUnit};
pub use worker::{worker_cli, WorkerOpts};
