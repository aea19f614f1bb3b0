//! # metrics — histograms and run manifests
//!
//! The paper's whole argument is quantitative: runtimes, achieved
//! fractions of STREAM-Triad bandwidth, the Pennycook–Sewall PP metric.
//! The rest of the workspace *produces* those numbers; this crate gives
//! the simulator's own measurements somewhere to go: distributions that
//! merge across runs and processes, and a document that carries them
//! from a bench run to the dashboard.
//!
//! Two pieces, std-only like everything else here:
//!
//! * **Histograms** ([`hist`]) — log-bucketed, mergeable distribution
//!   sketches with exact count/mean/CI and bucketed p50/p90/p99/max.
//!   Two histograms merge bucket-by-bucket, so per-rep or per-run
//!   summaries combine without keeping raw samples.
//! * **Manifests** ([`manifest`]) — one `BENCH_<name>.json` per bench
//!   run: git revision, host, thread count, repetitions, per-kernel
//!   histogram summaries *and* raw repetition samples, achieved GB/s,
//!   and a counter snapshot. Manifests round-trip through the shared
//!   JSON reader ([`telemetry::json::parse`]), and
//!   [`merge_manifests`] folds a fleet's per-worker manifests into one.
//!
//! `engine_bench` and the `study` orchestrator write manifests; the
//! `dashboard` binary in `bench-harness` summarises the traced apps'
//! region spans with [`Histogram`].

pub mod hist;
pub mod manifest;

pub use hist::{Histogram, Summary};
pub use manifest::{merge_manifests, KernelSummary, Provenance, RunManifest};
