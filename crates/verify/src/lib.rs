//! # sycl-verify — static/dynamic analysis over the DSL declarations
//!
//! The execution engine *trusts* every loop declaration: `ops::ParLoop`
//! stencils size the priced footprint, `op2::EdgeLoop` args price the
//! gather volume, and the colouring plans justify unsynchronised writes.
//! This crate checks those contracts instead of assuming them. Each
//! shadowed loop hands the sink one [`shadow::LoopTrace`]: its
//! declaration (the same [`sycl_sim::LaunchMeta`] the launch graph
//! keeps), what its views recorded, unit overlaps and notes. Three
//! passes read it:
//!
//! * **Access** — per-dat touched-index bitmaps (recorded by
//!   `telemetry::shadow` inside the views) are compared against the
//!   declared accesses of every loop whose meta is exhaustive:
//!   undeclared writes, stencil under-declaration, reads of
//!   never-initialised cells, and write–write / read–write overlap
//!   between execution units that no race-resolution scheme covers.
//! * **Plan** — a shadowed `op2::EdgeLoop` checks its `GlobalColoring`
//!   / `HierColoring` (block and intra-block colours) when it opens,
//!   and a conflict reaches this crate as a `PlanViolation` note; loops
//!   whose trace shows overlap under their scheme (non-atomic RMW under
//!   atomics, a colour group that raced) are flagged too.
//! * **Footprint** — the declared-bytes `KernelFootprint` (observed via
//!   [`Session::set_launch_observer`]) is cross-checked against shadow-
//!   counted unique bytes with a per-scheme tolerance, plus structural
//!   lints on the declaration itself.
//!
//! Attach a [`Verifier`] around an app run:
//!
//! ```no_run
//! # use sycl_sim::{Session, SessionConfig, PlatformId, Toolchain};
//! let session = Session::create(SessionConfig::new(
//!     PlatformId::A100, Toolchain::NativeCuda)).unwrap();
//! let verifier = verify::Verifier::attach(&session);
//! // ... run the app against `session`, on this thread ...
//! let diags = verifier.finish(&session);
//! assert!(!verify::has_errors(&diags));
//! ```
//!
//! Shadow instrumentation only observes memory the kernels touch anyway,
//! so an instrumented run is bit-identical to a fast-path run (proved in
//! `tests/equivalence.rs`); the cost is one branch per access when off,
//! and one bitmap bit per access when on. A verifier only sees its own
//! thread (and the pool units that thread's loops hand out), so
//! verifiers on different threads run side by side without a lock.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use sycl_sim::{LaunchRecord, Session};
use telemetry::shadow;

mod access;
pub mod dataflow;
pub mod report;

/// How bad a finding is. `Error` findings fail `analyze` (and CI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Info,
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Which analysis pass produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pass {
    Access,
    Plan,
    Footprint,
    /// Static dataflow analysis over recorded launch graphs (graphlint).
    Dataflow,
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Pass::Access => "access",
            Pass::Plan => "plan",
            Pass::Footprint => "footprint",
            Pass::Dataflow => "dataflow",
        })
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub severity: Severity,
    /// Kernel (loop) name the finding is about.
    pub kernel: String,
    pub pass: Pass,
    pub detail: String,
}

/// Does the set contain any `Error`-severity finding?
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Findings accumulated while the instrumented run executes. Loops
/// repeat every iteration, so findings dedup on (kernel, pass, tag).
#[derive(Default)]
pub(crate) struct Collector {
    diags: Vec<Diagnostic>,
    seen: HashSet<(String, Pass, String)>,
    /// kernel → (shadow-counted unique bytes, traces seen).
    touched: HashMap<String, (f64, u64)>,
    /// kernel → op2 scheme label, for footprint tolerances.
    schemes: HashMap<String, &'static str>,
}

impl Collector {
    pub(crate) fn emit(
        &mut self,
        severity: Severity,
        kernel: &str,
        pass: Pass,
        tag: String,
        detail: String,
    ) {
        if self.seen.insert((kernel.to_owned(), pass, tag)) {
            self.diags.push(Diagnostic {
                severity,
                kernel: kernel.to_owned(),
                pass,
                detail,
            });
        }
    }

    fn absorb_trace(&mut self, trace: &shadow::LoopTrace) {
        // Unique bytes this loop actually moved: reads and plain writes
        // once, atomic RMWs twice (the paper's counting for increments).
        let mut bytes = 0.0;
        for d in &trace.dats {
            bytes +=
                (d.read.count() + d.write.count() + 2 * d.atomic.count()) as f64 * d.elem_bytes;
        }
        let e = self
            .touched
            .entry(trace.decl.kernel.to_owned())
            .or_insert((0.0, 0));
        e.0 += bytes;
        e.1 += 1;
        if let Some(s) = trace.decl.meta.scheme {
            self.schemes.insert(trace.decl.kernel.to_owned(), s);
        }
        access::check_trace(trace, self);
    }
}

/// An attached verification context. Create with [`Verifier::attach`]
/// *before* the app allocates its datasets (datasets only register with
/// the shadow layer at creation time), run the app on the same thread,
/// then call [`Verifier::finish`] for the findings. The verifier's
/// [`shadow::Shadow`] is current on the attaching thread only, so runs
/// on other threads — verified or not — never reach its findings.
pub struct Verifier {
    collector: Arc<Mutex<Collector>>,
    /// kernel → (priced effective bytes, launches) from the ledger.
    priced: Arc<Mutex<HashMap<String, (f64, u64)>>>,
    /// Keeps this verifier's shadow current on the attaching thread
    /// until [`Verifier::finish`].
    scope: shadow::Scope,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Verifier {
    /// Attach all passes to `session`.
    pub fn attach(session: &Session) -> Verifier {
        let collector = Arc::new(Mutex::new(Collector::default()));
        let sink_collector = Arc::clone(&collector);
        let scope = shadow::Shadow::enter(Some(Box::new(move |trace| {
            lock(&sink_collector).absorb_trace(&trace);
        })));

        let priced = Arc::new(Mutex::new(HashMap::new()));
        let observer_priced = Arc::clone(&priced);
        session.set_launch_observer(Some(Arc::new(move |r: &LaunchRecord| {
            let mut p = lock(&observer_priced);
            let e = p.entry(r.name.to_string()).or_insert((0.0, 0u64));
            e.0 += r.effective_bytes;
            e.1 += 1;
        })));

        Verifier {
            collector,
            priced,
            scope,
        }
    }

    /// Detach from `session`, run the deferred footprint cross-check,
    /// and return all findings sorted most-severe first.
    pub fn finish(self, session: &Session) -> Vec<Diagnostic> {
        session.set_launch_observer(None);
        drop(self.scope);

        let mut c = lock(&self.collector);
        let priced = lock(&self.priced);
        footprint_cross_check(&mut c, &priced);

        let mut diags = std::mem::take(&mut c.diags);
        diags.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.kernel.cmp(&b.kernel)));
        diags
    }
}

/// Per-scheme tolerance band for priced / shadow-counted bytes. The
/// declared footprint counts whole datasets (the paper's rule) while the
/// shadow count sees unique touched cells plus halo shells, and op2
/// footprints include map tables the shadow cannot see — so agreement
/// within a small factor is the contract, not equality.
fn tolerance(scheme: Option<&str>) -> (f64, f64) {
    match scheme {
        // Atomics keeps one launch per loop; tightest band.
        Some("atomics") => (0.4, 2.5),
        // Colour passes split the dataset unevenly across launches;
        // structured loops have halo shells and rw double-counting.
        _ => (0.3, 3.0),
    }
}

fn footprint_cross_check(c: &mut Collector, priced: &HashMap<String, (f64, u64)>) {
    let touched = std::mem::take(&mut c.touched);
    let schemes = std::mem::take(&mut c.schemes);
    for (kernel, (shadow_bytes, traces)) in touched {
        if shadow_bytes <= 0.0 {
            continue;
        }
        let Some(&(priced_bytes, launches)) = priced.get(&kernel) else {
            continue;
        };
        // Colour schemes launch several passes per traced loop; compare
        // whole loops (all launches vs all traces).
        let ratio = priced_bytes / shadow_bytes;
        let scheme = schemes.get(kernel.as_str()).copied();
        let (lo, hi) = tolerance(scheme);
        if ratio < lo || ratio > hi {
            c.emit(
                Severity::Warning,
                &kernel,
                Pass::Footprint,
                "bytes-mismatch".to_owned(),
                format!(
                    "declared footprint prices {priced_bytes:.0} bytes over {launches} launches \
                     but the shadow trace touched {shadow_bytes:.0} unique bytes over {traces} \
                     loops (ratio {ratio:.2}, tolerance {lo}..{hi})"
                ),
            );
        }
    }
}
