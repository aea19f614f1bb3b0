//! Shared application plumbing.

use ops_dsl::{Block, DatMeta};
use sycl_sim::Session;

/// Result of one simulated application run.
#[derive(Debug, Clone, Copy)]
pub struct AppRun {
    /// Total simulated wall-clock seconds.
    pub elapsed: f64,
    /// Fraction of time in boundary-style loops (the paper's launch-
    /// overhead probe).
    pub boundary_fraction: f64,
    /// Effective bandwidth by the OP2 accounting rule, bytes/s.
    pub effective_bandwidth: f64,
    /// App-defined validation scalar (total energy, field norm, ...).
    /// NaN on dry runs (nothing executed).
    pub validation: f64,
}

/// A runnable application instance (size and iteration count baked in).
pub trait App: Send + Sync {
    /// Application id (matches `sycl_sim::quirks::apps`).
    fn name(&self) -> &'static str;
    /// The tuned work-group shape for the nd_range formulation — one
    /// shape per app, exactly as the paper tuned.
    fn nd_shape(&self) -> [usize; 3];
    /// Run the app on a session, returning the timing/validation summary.
    fn run(&self, session: &Session) -> AppRun;
}

/// RAII guard tracing one span of an app: the whole run or one named
/// phase. Records its span when dropped (so early returns and panics
/// still close it); a single-branch no-op when telemetry is disabled,
/// so the functional fast path and its ledger stay untouched.
pub struct AppSpan {
    timer: Option<telemetry::SpanTimer>,
    kind: telemetry::SpanKind,
    name: &'static str,
}

impl AppSpan {
    fn open(kind: telemetry::SpanKind, name: &'static str) -> AppSpan {
        AppSpan {
            timer: telemetry::SpanTimer::start(),
            kind,
            name,
        }
    }
}

impl Drop for AppSpan {
    fn drop(&mut self) {
        if let Some(t) = self.timer.take() {
            t.finish(self.kind, self.name, 0, 0.0);
        }
    }
}

/// Open the app-level `Region` span, named after the app; hold the
/// guard for the whole `run`.
pub fn app_span(name: &'static str) -> AppSpan {
    AppSpan::open(telemetry::SpanKind::Region, name)
}

/// Open a `Phase` span — a group of launches under one algorithmic step
/// (`advec_cell`, `flux_calc`, ...); hold the guard for its launches.
pub fn phase_span(name: &'static str) -> AppSpan {
    AppSpan::open(telemetry::SpanKind::Phase, name)
}

/// The block used for *allocation*: full-size when the session executes
/// kernels, tiny when dry-running (footprints never look at the data).
/// A dry run still allocates and registers every dat at this size, so
/// shadow ids, transfers and launch metadata match a live run, but the
/// apps write no initial condition into it: they call `fill_with` only
/// when [`Session::executes`].
pub fn alloc_block(session: &Session, logical: Block) -> Block {
    if session.executes() {
        logical
    } else {
        Block {
            dims: [
                logical.dims[0].min(4),
                logical.dims[1].min(4),
                logical.dims[2].clamp(1, 4),
            ],
            halo: logical.halo,
        }
    }
}

/// Bytes of one logically-sized field (interior + halo padding) —
/// computed from the *logical* block so dry runs, whose allocations are
/// shrunk by [`alloc_block`], still price the paper-size traffic.
pub fn field_bytes(logical: &Block, elem_bytes: f64) -> f64 {
    (logical.padded(0) * logical.padded(1) * logical.padded(2)) as f64 * elem_bytes
}

/// Record and replay the staging graph: the initial host→device uploads
/// a SYCL buffer runtime performs lazily when a kernel first touches
/// each buffer. One transfer node per dat, so the residency tracker
/// follows each dataset separately and the dataflow lint can see which
/// uploads are real. Priced through the interconnect model — nonzero on
/// CPUs too (an in-package copy).
pub fn stage_uploads(session: &Session, logical: &Block, dats: &[DatMeta]) {
    let mut g = session.record();
    g.phase("staging");
    for m in dats {
        g.upload_dats(field_bytes(logical, m.elem_bytes), vec![m.id]);
    }
    g.end_phase();
    g.finish().replay(session);
}

/// Record and replay the result readback: device→host downloads of the
/// fields the host-side summary reads. Elided per dat when the host
/// copy is still valid (nothing wrote the field on the device).
pub fn read_back(session: &Session, logical: &Block, dats: &[DatMeta]) {
    let mut g = session.record();
    g.phase("readback");
    for m in dats {
        g.download_dats(field_bytes(logical, m.elem_bytes), vec![m.id]);
    }
    g.end_phase();
    g.finish().replay(session);
}

/// Finish a run: collect the session ledger into an [`AppRun`].
pub fn summarise(session: &Session, validation: f64) -> AppRun {
    AppRun {
        elapsed: session.elapsed(),
        boundary_fraction: session.boundary_fraction(),
        effective_bandwidth: session.effective_bandwidth(),
        validation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_sim::{PlatformId, SessionConfig, Toolchain};

    #[test]
    fn alloc_block_shrinks_only_for_dry_runs() {
        let live =
            Session::create(SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app("t"))
                .unwrap();
        let dry = Session::create(
            SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda)
                .app("t")
                .dry_run(),
        )
        .unwrap();
        let logical = Block::new_3d(100, 100, 100, 2);
        assert_eq!(alloc_block(&live, logical).dims, [100, 100, 100]);
        assert_eq!(alloc_block(&dry, logical).dims, [4, 4, 4]);
    }
}
