//! # metrics — histograms, a registry and run manifests
//!
//! The paper's whole argument is quantitative: runtimes, achieved
//! fractions of STREAM-Triad bandwidth, the Pennycook–Sewall PP metric.
//! The rest of the workspace *produces* those numbers; this crate gives
//! the simulator's own measurements somewhere to go: distributions that
//! merge across threads and processes, and a document that carries them
//! from a bench run to the dashboard.
//!
//! Three pieces, std-only like everything else here:
//!
//! * **Histograms** ([`hist`]) — log-bucketed, mergeable distribution
//!   sketches with exact count/mean/CI and bucketed p50/p90/p99/max.
//!   Two histograms merge bucket-by-bucket, so per-thread shards or
//!   per-run summaries combine without keeping raw samples.
//! * **Registry** ([`registry()`]) — a process-wide, lock-light home for
//!   named, optionally labelled histograms. Recording goes to a
//!   per-thread shard behind the recorder's own (uncontended) mutex and
//!   is guarded by [`telemetry::enabled`], so the disabled path is the
//!   same single relaxed-atomic branch every other instrumentation site
//!   pays.
//! * **Manifests** ([`manifest`]) — one `BENCH_<name>.json` per bench
//!   run: git revision, host, thread count, repetitions, per-kernel
//!   histogram summaries *and* raw repetition samples, achieved GB/s,
//!   and a counter snapshot. Manifests round-trip through the shared
//!   JSON reader ([`telemetry::json::parse`]), and
//!   [`merge_manifests`] folds a fleet's per-worker manifests into one.
//!
//! `engine_bench` and the `study` orchestrator write manifests; the
//! `dashboard` binary in `bench-harness` renders the registry.

pub mod hist;
pub mod manifest;
pub mod registry;

pub use hist::{Histogram, Summary};
pub use manifest::{merge_manifests, KernelSummary, Provenance, RunManifest};
pub use registry::{registry, Registry};
