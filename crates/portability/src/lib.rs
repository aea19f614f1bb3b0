//! # portability — the paper's cells and their metrics
//!
//! Owns the one list of the cross-product the paper measures —
//! [`paper_cells`]: seven applications × six platforms × the
//! programming approaches available on each — prices it
//! ([`paper_measurements`]) and computes the derived quantities its
//! figures report:
//!
//! * **runtime** per (app, platform, variant) — Figures 2–9;
//! * **achieved architectural efficiency** = effective bandwidth /
//!   STREAM-Triad bandwidth (Table 1 denominators) — Figures 10–11;
//! * the **Pennycook–Sewall performance-portability metric** PP̄ (the
//!   harmonic mean of efficiencies over the platform set) — §4.4;
//! * means/standard deviations of efficiencies — the in-text aggregates.

pub mod metrics;
pub mod report;
pub mod study;

pub use metrics::{harmonic_mean, mean, pennycook, pp_rows, std_dev, PpCell};
pub use report::{format_table, write_csv, MeasCell};
pub use study::{
    measure, measure_mgcfd, measure_structured, paper_cells, paper_measurements, variants_for,
    Measurement, PaperCell, StudyVariant,
};
