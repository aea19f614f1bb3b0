//! Record-once / replay-many launch graphs.
//!
//! A [`GraphBuilder`] records a sequence of launches (plus transfers,
//! halo exchanges and phase markers) as [`LaunchNode`]s with functional
//! bodies. [`LaunchGraph::replay`] then runs the launch stages in batch:
//! the whole graph is priced under **one** pricing-cache lock
//! acquisition, the bodies execute back-to-back, and the whole sequence
//! commits under **one** ledger lock acquisition. Each stage calls the
//! same per-op function [`Session::launch`] does — only the locking
//! differs — and phase spans exist only here.
//!
//! The non-negotiable invariant: a replayed graph leaves the ledger
//! **bit-identical** to launching the same sequence eagerly. Commit
//! applies ops in recorded order with the same floating-point
//! accumulation, the same interning and the same observer ordering.

use crate::kernel::Kernel;
use crate::launch::commit::{CommitLocks, Op};
use crate::launch::execute::execute;
use crate::launch::price::Priced;
use crate::launch::record::{LaunchMeta, LaunchNode};
use crate::session::Session;
use machine_model::{Precision, TransferDir};
use std::sync::atomic::{AtomicU64, Ordering};

/// One recorded operation.
// Launch dominates real graphs (phases/exchanges are bookkeeping), so
// the large variant stays inline rather than paying a Box per node.
#[allow(clippy::large_enum_variant)]
enum GraphOp<'a> {
    /// A kernel launch: the fingerprinted node plus its functional body.
    /// The body receives `session.executes()` at replay time. `meta` is
    /// the declarative access metadata for static analysis; it never
    /// enters pricing or the ledger.
    Launch {
        node: LaunchNode,
        meta: LaunchMeta,
        body: Box<dyn Fn(bool) + Sync + 'a>,
    },
    /// A halo exchange (`Session::exchange` equivalent). `dats` lists
    /// the shadow-registry ids of the exchanged datasets (empty when
    /// the recorder declared only a volume).
    Exchange {
        bytes: f64,
        messages: u64,
        dats: Vec<u32>,
    },
    /// A host↔device transfer (`Session::transfer` equivalent), with
    /// the transferred datasets when declared and the copy direction.
    Transfer {
        bytes: f64,
        dats: Vec<u32>,
        dir: TransferDir,
    },
    /// Open a named phase span (telemetry only, no ledger effect).
    PhaseBegin { name: &'static str },
    /// Close the innermost open phase span.
    PhaseEnd,
}

/// Graph ids are process-unique so observers can dedup repeated replays
/// of the same recorded graph.
static NEXT_GRAPH_ID: AtomicU64 = AtomicU64::new(1);

/// Records a launch sequence; [`GraphBuilder::finish`] freezes it into a
/// [`LaunchGraph`]. Obtained from [`Session::record`].
#[derive(Default)]
pub struct GraphBuilder<'a> {
    ops: Vec<GraphOp<'a>>,
    /// Names of currently-open phases, for defect reporting.
    open_phases: Vec<&'static str>,
    /// Structural phase-nesting defects observed while recording.
    phase_defects: Vec<String>,
}

impl<'a> GraphBuilder<'a> {
    pub(crate) fn new() -> GraphBuilder<'a> {
        GraphBuilder::default()
    }

    /// Record one launch. `body` is the functional kernel body; it is
    /// called on every replay with `session.executes()` as its argument
    /// (dry-run sessions replay pricing without running bodies).
    ///
    /// The launch carries [`LaunchMeta::opaque`] metadata — static
    /// analysis will not reason about its data accesses. DSLs that know
    /// their access sets record through
    /// [`GraphBuilder::launch_with_meta`] instead.
    pub fn launch(&mut self, kernel: &Kernel, body: impl Fn(bool) + Sync + 'a) {
        self.launch_with_meta(kernel, LaunchMeta::opaque(), body);
    }

    /// Record one launch together with its declared access metadata.
    /// `meta` feeds the static dataflow analyzer only: it is not hashed
    /// into the pricing fingerprint and never reaches the ledger, so
    /// recording it cannot change pricing or execution.
    pub fn launch_with_meta(
        &mut self,
        kernel: &Kernel,
        meta: LaunchMeta,
        body: impl Fn(bool) + Sync + 'a,
    ) {
        self.ops.push(GraphOp::Launch {
            node: LaunchNode::new(kernel),
            meta,
            body: Box::new(body),
        });
    }

    /// Record a halo exchange (see [`Session::exchange`]).
    pub fn exchange(&mut self, bytes: f64, messages: u64) {
        self.exchange_dats(bytes, messages, Vec::new());
    }

    /// Record a halo exchange declaring which datasets it covers (by
    /// shadow-registry id). The ids feed the missing-halo-exchange and
    /// redundant-exchange lints; cost accounting uses `bytes`/`messages`
    /// exactly as [`GraphBuilder::exchange`] does.
    pub fn exchange_dats(&mut self, bytes: f64, messages: u64, dats: Vec<u32>) {
        self.ops.push(GraphOp::Exchange {
            bytes,
            messages,
            dats,
        });
    }

    /// Record an anonymous host→device transfer (see
    /// [`Session::transfer`]). No dat list, so residency never elides
    /// it.
    pub fn transfer(&mut self, bytes: f64) {
        self.transfer_dir(bytes, Vec::new(), TransferDir::H2D);
    }

    /// Record a staging upload (host→device) of the given datasets, for
    /// the dead-transfer and residency lints and for elision.
    pub fn upload_dats(&mut self, bytes: f64, dats: Vec<u32>) {
        self.transfer_dir(bytes, dats, TransferDir::H2D);
    }

    /// Record a result readback (device→host) of the given datasets.
    pub fn download_dats(&mut self, bytes: f64, dats: Vec<u32>) {
        self.transfer_dir(bytes, dats, TransferDir::D2H);
    }

    /// Record a transfer with an explicit direction.
    pub fn transfer_dir(&mut self, bytes: f64, dats: Vec<u32>, dir: TransferDir) {
        self.ops.push(GraphOp::Transfer { bytes, dats, dir });
    }

    /// Open a named phase span covering the ops recorded until the
    /// matching [`GraphBuilder::end_phase`].
    pub fn phase(&mut self, name: &'static str) {
        self.open_phases.push(name);
        self.ops.push(GraphOp::PhaseBegin { name });
    }

    /// Close the innermost open phase. An unmatched call records a
    /// structural defect on the graph (replay tolerates it, the
    /// dataflow lint reports it).
    pub fn end_phase(&mut self) {
        if self.open_phases.pop().is_none() {
            self.phase_defects.push(format!(
                "end_phase with no open phase (after {} recorded ops)",
                self.ops.len()
            ));
        }
        self.ops.push(GraphOp::PhaseEnd);
    }

    /// Ops recorded so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Freeze the recording. Phases left open become structural defects
    /// on the graph.
    pub fn finish(mut self) -> LaunchGraph<'a> {
        for name in self.open_phases.drain(..).rev() {
            self.phase_defects
                .push(format!("phase `{name}` opened but never closed"));
        }
        let launches = self
            .ops
            .iter()
            .filter(|op| matches!(op, GraphOp::Launch { .. }))
            .count() as u64;
        LaunchGraph {
            id: NEXT_GRAPH_ID.fetch_add(1, Ordering::Relaxed),
            ops: self.ops,
            launches,
            phase_defects: self.phase_defects,
        }
    }
}

/// Where a DSL loop sends its launches: straight to a [`Session`]
/// (eager) or into a [`GraphBuilder`] (recorded). DSLs write each loop
/// kind once, against this trait, and their `run*`/`record*` methods
/// only pick the target.
pub trait LaunchTarget<'a> {
    /// Launch (eagerly) or record (into a graph) one kernel. `body`
    /// receives `session.executes()`. A session drops `meta`: eager
    /// launches declare no accesses, so they never touch residency.
    fn launch_node(&mut self, kernel: &Kernel, meta: LaunchMeta, body: impl Fn(bool) + Sync + 'a);
}

impl<'a> LaunchTarget<'a> for &Session {
    fn launch_node(&mut self, kernel: &Kernel, _meta: LaunchMeta, body: impl Fn(bool) + Sync + 'a) {
        self.launch(kernel, || body(self.executes()));
    }
}

impl<'a> LaunchTarget<'a> for GraphBuilder<'a> {
    fn launch_node(&mut self, kernel: &Kernel, meta: LaunchMeta, body: impl Fn(bool) + Sync + 'a) {
        self.launch_with_meta(kernel, meta, body);
    }
}

/// One node of a [`GraphSummary`]: the bodyless mirror of the recorded
/// op, carrying everything static analysis needs and nothing it does
/// not (no closures, no lifetimes).
#[derive(Debug, Clone)]
pub enum GraphNodeInfo {
    Launch {
        kernel: String,
        items: u64,
        effective_bytes: f64,
        reductions: usize,
        fp64: bool,
        /// Atomic RMW updates the kernel declares (op2 atomics scheme).
        atomic_updates: u64,
        meta: LaunchMeta,
    },
    Exchange {
        bytes: f64,
        messages: u64,
        dats: Vec<u32>,
    },
    Transfer {
        bytes: f64,
        dats: Vec<u32>,
        dir: TransferDir,
    },
    PhaseBegin {
        name: &'static str,
    },
    PhaseEnd,
}

/// An owned, analysis-ready snapshot of a recorded graph, delivered to
/// the session's graph observer on replay (see
/// [`Session::set_graph_observer`]).
#[derive(Debug, Clone)]
pub struct GraphSummary {
    /// Process-unique id of the recorded graph — observers seeing the
    /// same id are seeing repeat replays of one recording.
    pub id: u64,
    pub nodes: Vec<GraphNodeInfo>,
    /// Unbalanced `phase`/`end_phase` nesting captured at record time.
    pub phase_defects: Vec<String>,
}

/// A frozen launch sequence, replayable any number of times on any
/// session whose config the recorded kernels are valid for.
pub struct LaunchGraph<'a> {
    id: u64,
    ops: Vec<GraphOp<'a>>,
    launches: u64,
    phase_defects: Vec<String>,
}

impl LaunchGraph<'_> {
    /// Ops in the graph.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the graph records nothing.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Launch ops in the graph.
    pub fn n_launches(&self) -> u64 {
        self.launches
    }

    /// Process-unique id of this recording.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Unbalanced phase nesting captured while recording.
    pub fn phase_defects(&self) -> &[String] {
        &self.phase_defects
    }

    /// Build the owned, bodyless snapshot of this graph for static
    /// analysis. Only built when a graph observer is installed.
    pub fn summary(&self) -> GraphSummary {
        let nodes = self
            .ops
            .iter()
            .map(|op| match op {
                GraphOp::Launch { node, meta, .. } => {
                    let fp = &node.kernel.footprint;
                    GraphNodeInfo::Launch {
                        kernel: fp.name.clone(),
                        items: fp.items,
                        effective_bytes: fp.effective_bytes,
                        reductions: fp.reductions,
                        fp64: fp.precision == Precision::F64,
                        atomic_updates: fp.atomics.as_ref().map_or(0, |a| a.updates),
                        meta: meta.clone(),
                    }
                }
                GraphOp::Exchange {
                    bytes,
                    messages,
                    dats,
                } => GraphNodeInfo::Exchange {
                    bytes: *bytes,
                    messages: *messages,
                    dats: dats.clone(),
                },
                GraphOp::Transfer { bytes, dats, dir } => GraphNodeInfo::Transfer {
                    bytes: *bytes,
                    dats: dats.clone(),
                    dir: *dir,
                },
                GraphOp::PhaseBegin { name } => GraphNodeInfo::PhaseBegin { name },
                GraphOp::PhaseEnd => GraphNodeInfo::PhaseEnd,
            })
            .collect();
        GraphSummary {
            id: self.id,
            nodes,
            phase_defects: self.phase_defects.clone(),
        }
    }

    /// Deliver this graph's summary to the session's graph observer, if
    /// one is installed. Costs one atomic load when none is.
    fn notify_observer(&self, session: &Session) {
        if let Some(obs) = session.graph_observer() {
            obs(&self.summary());
        }
    }

    /// Replay the graph on `session`: price every launch in one pass
    /// (served by the fingerprint cache under a single lock), execute
    /// the functional bodies, then append the whole sequence to the
    /// ledger under a single lock acquisition. Observers fire per record
    /// in ledger order after the lock is released.
    pub fn replay(&self, session: &Session) {
        self.notify_observer(session);
        let replay_span = telemetry::SpanTimer::start();
        replay_graphs(session, &[self]);
        if let Some(t) = replay_span {
            t.finish(
                telemetry::SpanKind::Replay,
                "graph.replay",
                self.launches,
                0.0,
            );
        }
    }

    /// Execute stage: run the launch bodies in recorded order, with the
    /// phase spans bracketing them. Flight brackets (launch and phase)
    /// are written only when the session executes its bodies.
    fn execute_stage(&self, priced: &[Option<Priced>], executes: bool) {
        let mut phases: Vec<(&'static str, Option<telemetry::SpanTimer>)> = Vec::new();
        let flight = executes && telemetry::flight::recording();
        for (op, p) in self.ops.iter().zip(priced) {
            match op {
                GraphOp::Launch { body, .. } => {
                    execute(p.as_ref().expect("launch ops are priced"), executes, || {
                        body(executes)
                    });
                }
                GraphOp::PhaseBegin { name } => {
                    if flight {
                        telemetry::flight::span_open(telemetry::SpanKind::Phase, name);
                    }
                    phases.push((name, telemetry::SpanTimer::start()));
                }
                GraphOp::PhaseEnd => {
                    if let Some((name, t)) = phases.pop() {
                        if flight {
                            telemetry::flight::span_close(telemetry::SpanKind::Phase, name);
                        }
                        if let Some(t) = t {
                            t.finish(telemetry::SpanKind::Phase, name, 0, 0.0);
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

/// Replay several recorded graphs as **one** composed commit: every
/// launch across all graphs is priced under a single pricing-cache lock
/// acquisition, all bodies execute, and the whole concatenated sequence
/// commits under a single ledger lock acquisition, with observers fired
/// in ledger order after the lock drops.
///
/// The ledger ends bit-identical to replaying the graphs one at a time
/// in slice order (same op order, same f64 accumulation), which is what
/// lets the service batch N client submissions per shard without
/// changing any result — property-tested in `tests/service_batch.rs`.
pub fn replay_all(session: &Session, graphs: &[&LaunchGraph<'_>]) {
    if graphs.is_empty() {
        return;
    }
    for g in graphs {
        g.notify_observer(session);
    }
    let span = telemetry::SpanTimer::start();
    replay_graphs(session, graphs);
    if let Some(t) = span {
        t.finish(
            telemetry::SpanKind::Replay,
            "graph.replay_batch",
            graphs.iter().map(|g| g.n_launches()).sum(),
            0.0,
        );
    }
}

/// The graph loop behind [`LaunchGraph::replay`] and [`replay_all`]:
/// price every launch (one cache lock), execute every body, commit
/// every op (one lock set), then deliver the records to the observer.
fn replay_graphs(session: &Session, graphs: &[&LaunchGraph<'_>]) {
    let priced: Vec<Vec<Option<Priced>>> = {
        let mut cache = session.price_cache();
        graphs
            .iter()
            .map(|g| {
                g.ops
                    .iter()
                    .map(|op| match op {
                        GraphOp::Launch { node, .. } => {
                            Some(session.price_launch(&mut cache, &node.kernel, node.key))
                        }
                        _ => None,
                    })
                    .collect()
            })
            .collect()
    };

    let executes = session.executes();
    for (g, p) in graphs.iter().zip(&priced) {
        g.execute_stage(p, executes);
    }

    let mut records = Vec::new();
    let mut locks = CommitLocks::new(session);
    for (g, p) in graphs.iter().zip(&priced) {
        for (op, p) in g.ops.iter().zip(p) {
            let op = match op {
                GraphOp::Launch { meta, .. } => Op::Launch {
                    priced: p.as_ref().expect("launch ops are priced"),
                    meta: Some(meta),
                },
                GraphOp::Transfer { bytes, dats, dir } => Op::Transfer {
                    bytes: *bytes,
                    dats,
                    dir: *dir,
                },
                GraphOp::Exchange {
                    bytes, messages, ..
                } => Op::Exchange {
                    bytes: *bytes,
                    messages: *messages,
                },
                GraphOp::PhaseBegin { .. } | GraphOp::PhaseEnd => continue,
            };
            records.extend(locks.commit(op));
        }
    }
    locks.release(&records);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{LaunchRecord, SessionConfig};
    use crate::toolchain::Toolchain;
    use machine_model::PlatformId;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn session() -> Session {
        Session::create(SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app("graph"))
            .unwrap()
    }

    #[test]
    fn replay_matches_eager_launches_bit_for_bit() {
        let k1 = Kernel::streaming("triad", 1 << 20, 3e7, 2e6);
        let k2 = Kernel::streaming("copy", 1 << 18, 4e6, 0.0);

        let batched = session();
        let eager = session();
        let mut g = batched.record();
        g.phase("step");
        g.launch(&k1, |_| {});
        g.launch(&k2, |_| {});
        g.end_phase();
        g.transfer(1e6);
        g.exchange(1e6, 8);
        let g = g.finish();
        assert_eq!(g.n_launches(), 2);
        for _ in 0..3 {
            g.replay(&batched);
        }
        for _ in 0..3 {
            eager.launch(&k1, || ());
            eager.launch(&k2, || ());
            eager.transfer(1e6);
            eager.exchange(1e6, 8);
        }
        assert_eq!(batched.ledger_digest(), eager.ledger_digest());
        assert_eq!(batched.elapsed().to_bits(), eager.elapsed().to_bits());
    }

    #[test]
    fn bodies_observe_executes_and_run_per_replay() {
        let k = Kernel::streaming("x", 1 << 16, 1e6, 0.0);
        let live = session();
        let dry = Session::create(
            SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda)
                .app("graph")
                .dry_run(),
        )
        .unwrap();
        let ran = AtomicUsize::new(0);
        let mut g = live.record();
        g.launch(&k, |executes| {
            if executes {
                ran.fetch_add(1, Ordering::Relaxed);
            }
        });
        let g = g.finish();
        g.replay(&live);
        g.replay(&live);
        assert_eq!(ran.load(Ordering::Relaxed), 2);
        g.replay(&dry);
        assert_eq!(ran.load(Ordering::Relaxed), 2, "dry runs price only");
        assert_eq!(dry.records().len(), 1);
    }

    #[test]
    fn replay_after_reset_reprices_identically() {
        let k = Kernel::streaming("triad", 1 << 20, 3e7, 0.0);
        let s = session();
        let mut g = s.record();
        g.launch(&k, |_| {});
        let g = g.finish();
        g.replay(&s);
        let first = s.ledger_digest();
        s.reset();
        g.replay(&s);
        assert_eq!(
            s.ledger_digest(),
            first,
            "reset + replay reproduces the ledger"
        );
    }

    #[test]
    fn observers_fire_in_ledger_order_after_commit() {
        let k1 = Kernel::streaming("a", 1 << 16, 1e6, 0.0);
        let k2 = Kernel::streaming("b", 1 << 16, 1e6, 0.0);
        let s = session();
        let seen: Arc<parkit::sync::Mutex<Vec<String>>> =
            Arc::new(parkit::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        s.set_launch_observer(Some(Arc::new(move |r: &LaunchRecord| {
            sink.lock().push(r.name.to_string());
        })));
        let mut g = s.record();
        g.launch(&k1, |_| {});
        g.launch(&k2, |_| {});
        let g = g.finish();
        g.replay(&s);
        assert_eq!(&*seen.lock(), &["a", "b"]);
    }

    #[test]
    fn replay_all_matches_sequential_replays_bit_for_bit() {
        let k1 = Kernel::streaming("triad", 1 << 20, 3e7, 2e6);
        let k2 = Kernel::streaming("copy", 1 << 18, 4e6, 0.0);
        fn make<'s>(
            s: &'s Session,
            k1: &Kernel,
            k2: &Kernel,
        ) -> (LaunchGraph<'s>, LaunchGraph<'s>) {
            let mut a = s.record();
            a.launch(k1, |_| {});
            a.transfer(2e6);
            let mut b = s.record();
            b.launch(k2, |_| {});
            b.exchange(1e6, 4);
            b.launch(k1, |_| {});
            (a.finish(), b.finish())
        }
        let batched = session();
        let serial = session();
        {
            let (a, b) = make(&batched, &k1, &k2);
            replay_all(&batched, &[&a, &b]);
            replay_all(&batched, &[&b, &a]);
        }
        {
            let (a, b) = make(&serial, &k1, &k2);
            a.replay(&serial);
            b.replay(&serial);
            b.replay(&serial);
            a.replay(&serial);
        }
        assert_eq!(batched.ledger_digest(), serial.ledger_digest());
        assert_eq!(batched.elapsed().to_bits(), serial.elapsed().to_bits());
    }

    #[test]
    fn replay_all_of_nothing_is_a_no_op() {
        let s = session();
        replay_all(&s, &[]);
        assert_eq!(s.records().len(), 0);
        assert_eq!(s.elapsed(), 0.0);
    }

    #[test]
    fn unbalanced_phase_nesting_is_a_recorded_defect() {
        let s = session();
        let k = Kernel::streaming("x", 1 << 10, 1e4, 0.0);

        // Balanced nesting: no defects.
        let mut g = s.record();
        g.phase("outer");
        g.phase("inner");
        g.launch(&k, |_| {});
        g.end_phase();
        g.end_phase();
        assert!(g.finish().phase_defects().is_empty());

        // end_phase on an empty stack.
        let mut g = s.record();
        g.launch(&k, |_| {});
        g.end_phase();
        let g = g.finish();
        assert_eq!(g.phase_defects().len(), 1);
        assert!(g.phase_defects()[0].contains("no open phase"));
        // Replay still works (the pop is tolerated at run time).
        g.replay(&s);

        // Phase left open at finish.
        let mut g = s.record();
        g.phase("halo_exchange");
        g.launch(&k, |_| {});
        let g = g.finish();
        assert_eq!(g.phase_defects().len(), 1);
        assert!(g.phase_defects()[0].contains("halo_exchange"));
        assert!(g.phase_defects()[0].contains("never closed"));
        // Defects travel into the summary.
        assert_eq!(g.summary().phase_defects, g.phase_defects());
    }

    #[test]
    fn summary_mirrors_ops_with_metadata_and_without_bodies() {
        use crate::launch::record::{AccessMode, DatAccess, LaunchMeta};
        let s = session();
        let k = Kernel::streaming("triad", 1 << 12, 1e5, 0.0);
        let mut g = s.record();
        g.phase("step");
        g.launch_with_meta(
            &k,
            LaunchMeta::new(
                vec![
                    DatAccess {
                        dat: 7,
                        mode: AccessMode::Read,
                        radius: [1, 1, 0],
                        elem_bytes: 8.0,
                    },
                    DatAccess {
                        dat: 9,
                        mode: AccessMode::Write,
                        radius: [0; 3],
                        elem_bytes: 8.0,
                    },
                ],
                [0, 0, 0],
                [64, 64, 1],
            ),
            |_| {},
        );
        g.launch(&k, |_| {}); // plain launch: opaque metadata
        g.exchange_dats(4096.0, 8, vec![7]);
        g.upload_dats(1024.0, vec![9]);
        g.end_phase();
        let g = g.finish();
        let sum = g.summary();
        assert_eq!(sum.id, g.id());
        assert_eq!(sum.nodes.len(), 6);
        match &sum.nodes[1] {
            GraphNodeInfo::Launch { kernel, meta, .. } => {
                assert_eq!(kernel, "triad");
                assert!(meta.transparent());
                assert_eq!(meta.accesses.len(), 2);
                assert!(meta.accesses[0].stencil());
                assert!(!meta.accesses[1].stencil());
            }
            other => panic!("expected launch, got {other:?}"),
        }
        match &sum.nodes[2] {
            GraphNodeInfo::Launch { meta, .. } => {
                assert!(meta.opaque && !meta.transparent());
            }
            other => panic!("expected launch, got {other:?}"),
        }
        match &sum.nodes[3] {
            GraphNodeInfo::Exchange { dats, bytes, .. } => {
                assert_eq!(dats, &[7]);
                assert_eq!(*bytes, 4096.0);
            }
            other => panic!("expected exchange, got {other:?}"),
        }
        match &sum.nodes[4] {
            GraphNodeInfo::Transfer { dats, .. } => assert_eq!(dats, &[9]),
            other => panic!("expected transfer, got {other:?}"),
        }
    }

    #[test]
    fn graph_observer_sees_each_replay_and_metadata_changes_nothing() {
        use crate::launch::record::{AccessMode, DatAccess, LaunchMeta};
        let k = Kernel::streaming("triad", 1 << 20, 3e7, 2e6);

        // Identical sequences, one with metadata, one without: the
        // ledgers must stay bit-identical (metadata never prices).
        let plain = session();
        let tagged = session();
        let mut g1 = plain.record();
        g1.launch(&k, |_| {});
        g1.exchange(1e6, 8);
        let g1 = g1.finish();
        let mut g2 = tagged.record();
        g2.launch_with_meta(
            &k,
            LaunchMeta::new(
                vec![DatAccess {
                    dat: 3,
                    mode: AccessMode::ReadWrite,
                    radius: [0; 3],
                    elem_bytes: 8.0,
                }],
                [0; 3],
                [8, 8, 8],
            ),
            |_| {},
        );
        g2.exchange_dats(1e6, 8, vec![3]);
        let g2 = g2.finish();

        let seen = Arc::new(parkit::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        tagged.set_graph_observer(Some(Arc::new(move |s: &GraphSummary| {
            sink.lock().push(s.id);
        })));
        for _ in 0..3 {
            g1.replay(&plain);
            g2.replay(&tagged);
        }
        tagged.set_graph_observer(None);
        g2.replay(&tagged);
        g1.replay(&plain);

        assert_eq!(&*seen.lock(), &[g2.id(), g2.id(), g2.id()]);
        assert_eq!(plain.ledger_digest(), tagged.ledger_digest());
        assert_eq!(plain.elapsed().to_bits(), tagged.elapsed().to_bits());
    }
}
