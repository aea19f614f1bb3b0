//! # metrics — watch the paper's numbers over time
//!
//! The paper's whole argument is quantitative: runtimes, achieved
//! fractions of STREAM-Triad bandwidth, the Pennycook–Sewall PP metric.
//! The rest of the workspace *produces* those numbers; this crate makes
//! them **trackable** — so a silent performance regression in `parkit`,
//! the pricing cache or a toolchain model ships as a red CI gate, not a
//! surprise three PRs later.
//!
//! Four pieces, std-only like everything else here:
//!
//! * **Histograms** ([`hist`]) — log-bucketed, mergeable distribution
//!   sketches with exact count/mean/CI and bucketed p50/p90/p99/max.
//!   Two histograms merge bucket-by-bucket, so per-thread shards or
//!   per-run summaries combine without keeping raw samples.
//! * **Registry** ([`registry()`]) — a process-wide, lock-light home for
//!   named histograms and labelled counters. Recording goes to a
//!   per-thread shard behind the recorder's own (uncontended) mutex and
//!   is guarded by [`telemetry::enabled`], so the disabled path is the
//!   same single relaxed-atomic branch every other instrumentation site
//!   pays. [`registry::ingest_events`] folds a flushed telemetry trace
//!   (launch / region / reduce / phase spans) into the registry, and
//!   [`registry::kernel_stats`] summarises launch spans per kernel.
//! * **Manifests** ([`manifest`]) — one `BENCH_<name>.json` per bench
//!   run: git revision, host, thread count, repetitions, per-kernel
//!   histogram summaries *and* raw repetition samples, achieved GB/s,
//!   and a counter snapshot. Manifests round-trip through the shared
//!   JSON reader ([`telemetry::json::parse`]), so the gate and the
//!   dashboard can read back what earlier runs wrote.
//! * **The gate** ([`gate`], [`stats`]) — compares a current manifest
//!   against a committed baseline with a proper statistical test:
//!   interquartile-range overlap plus bootstrap resampling of
//!   repetition medians, per kernel, under per-platform tolerance
//!   bands. A regression is only *confirmed* when both tests agree, so
//!   one noisy repetition cannot fail CI.
//!
//! The `bench_gate` and `dashboard` binaries in `bench-harness` are the
//! user-facing ends of this crate; `results/baselines/` is the
//! committed baseline store.

pub mod gate;
pub mod hist;
pub mod manifest;
pub mod registry;
pub mod stats;

pub use gate::{GateConfig, GateReport, KernelVerdict, Verdict};
pub use hist::{Histogram, Summary};
pub use manifest::{merge_manifests, KernelSummary, Provenance, RunManifest};
pub use registry::{ingest_events, kernel_stats, registry, Registry};
pub use stats::{bootstrap_ratio_ci, median, quartiles, Tolerance};
