//! Record-once / replay-many launch graphs.
//!
//! A [`GraphBuilder`] records a sequence of launches (plus transfers,
//! halo exchanges and phase markers) as [`LaunchNode`]s with functional
//! bodies. [`LaunchGraph::replay`] then runs the launch stages in batch:
//! the first replay on a session prices the whole graph under **one**
//! pricing-cache lock acquisition and keeps that plan in the session's
//! cache, so later replays there fetch it with one lookup; the bodies
//! execute back-to-back, and the whole sequence commits under **one**
//! ledger lock acquisition. Each stage calls the same per-op function
//! [`Session::launch`] does — only the locking differs — and phase
//! spans exist only here. Like an eager launch, a replay writes its
//! `Launch` and `Phase` spans only when telemetry is on and the session
//! executes; a dry replay writes just its one `Replay` span. The plan
//! itself is the replay's ledger entry: commit appends one `Arc` clone
//! of it instead of one record per launch, while each launch still
//! advances the clock, the boundary seconds and the effective bytes in
//! turn, through the same inlined `CommitLocks::launch` an eager launch
//! commits through. That walk is the only one a dry cell makes over
//! its launches: its boundary fraction and effective bandwidth read the
//! sums it kept.
//!
//! A graph recorded on a dry-run session keeps only the bodies a dry
//! replay calls: those of reducing kernels, which hand their sink the
//! identity. Every other body would return at once, so the builder
//! drops it at record time, and such a graph refuses to replay on an
//! executing session rather than skip work.
//!
//! The non-negotiable invariant: a replayed graph leaves the ledger
//! **bit-identical** to launching the same sequence eagerly. A plan
//! holds exactly the records per-launch lookups would return (graph ids
//! are process-unique, a finished graph is immutable, and a price
//! depends only on the session's fixed context and the kernel); commit
//! applies ops in recorded order with the same floating-point
//! accumulation (into the clock and the running sums alike), the same
//! interning and the same observer ordering, and every ledger reader
//! that walks the entries walks them in that order.

use crate::kernel::Kernel;
use crate::launch::commit::{CommitLocks, Op};
use crate::launch::execute::execute;
use crate::launch::{DatAccess, LaunchMeta, LaunchNode};
use crate::session::{LaunchRecord, Session};
use machine_model::{Precision, TransferDir};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A kept functional kernel body; it receives `session.executes()` at
/// replay time.
type Body<'a> = Box<dyn Fn(bool) + Sync + 'a>;

/// One recorded operation.
// Launch dominates real graphs (phases/exchanges are bookkeeping), so
// the large variant stays inline rather than paying a Box per node.
#[allow(clippy::large_enum_variant)]
enum GraphOp {
    /// A kernel launch: the fingerprinted node. `meta` is the
    /// declarative access metadata for static analysis; it never enters
    /// pricing or the ledger. Its body, if kept, is in the graph's
    /// body list.
    Launch { node: LaunchNode, meta: LaunchMeta },
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

impl GraphOp {
    /// A launch's declared accesses.
    fn meta(&self) -> Option<&LaunchMeta> {
        match self {
            GraphOp::Launch { meta, .. } => Some(meta),
            _ => None,
        }
    }
}

/// Graph ids are process-unique so observers can dedup repeated replays
/// of the same recorded graph.
static NEXT_GRAPH_ID: AtomicU64 = AtomicU64::new(1);

/// Records a launch sequence; [`GraphBuilder::finish`] freezes it into a
/// [`LaunchGraph`]. Obtained from [`Session::record`].
pub struct GraphBuilder<'a> {
    ops: Vec<GraphOp>,
    /// The kept bodies, in recorded order.
    bodies: Vec<Body<'a>>,
    /// The recording session executes bodies. When it does not, only
    /// reducing kernels keep theirs.
    executes: bool,
    /// Names of currently-open phases, for defect reporting.
    open_phases: Vec<&'static str>,
    /// Structural phase-nesting defects observed while recording.
    phase_defects: Vec<String>,
}

impl<'a> GraphBuilder<'a> {
    pub(crate) fn new(executes: bool) -> GraphBuilder<'a> {
        GraphBuilder {
            ops: Vec::new(),
            bodies: Vec::new(),
            executes,
            open_phases: Vec::new(),
            phase_defects: Vec::new(),
        }
    }

    /// Record one launch. `body` is the functional kernel body; it is
    /// called on every replay with `session.executes()` as its argument
    /// (dry-run sessions replay pricing without running bodies). On a
    /// dry-run session the builder keeps `body` only when the kernel
    /// declares reductions, since a reduce body still hands its sink the
    /// identity; any other body is dropped here, unboxed and never
    /// called.
    ///
    /// The launch carries [`LaunchMeta::opaque`] metadata — static
    /// analysis will not reason about its data accesses. DSLs that know
    /// their access sets record through
    /// [`GraphBuilder::launch_with_meta`] instead.
    pub fn launch(&mut self, kernel: &Kernel, body: impl Fn(bool) + Sync + 'a) {
        self.launch_with_meta(kernel.clone(), LaunchMeta::opaque(), body);
    }

    /// Record one launch together with its declared access metadata.
    /// `meta` feeds the static dataflow analyzer only: it is not hashed
    /// into the pricing fingerprint and never reaches the ledger, so
    /// recording it cannot change pricing or execution. The graph keeps
    /// `kernel` as its snapshot, and `body` as [`GraphBuilder::launch`]
    /// does.
    pub fn launch_with_meta(
        &mut self,
        kernel: Kernel,
        meta: LaunchMeta,
        body: impl Fn(bool) + Sync + 'a,
    ) {
        if self.executes || kernel.footprint.reductions > 0 {
            self.bodies.push(Box::new(body));
        }
        self.ops.push(GraphOp::Launch {
            node: LaunchNode::new(kernel),
            meta,
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
    /// matching [`GraphBuilder::end_phase`]. A replay writes it only
    /// when traced on an executing session.
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
        let (mut launches, mut writes_named) = (0, false);
        for op in &self.ops {
            if let GraphOp::Launch { meta, .. } = op {
                launches += 1;
                writes_named |= meta.accesses.iter().any(DatAccess::writes_named);
            }
        }
        LaunchGraph {
            id: NEXT_GRAPH_ID.fetch_add(1, Ordering::Relaxed),
            ops: self.ops,
            bodies: self.bodies,
            launches,
            writes_named,
            phase_defects: self.phase_defects,
            observed_summary: OnceLock::new(),
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
    /// launches declare no accesses, so they never touch residency. A
    /// graph keeps `kernel` as its snapshot, so recording never copies
    /// it; a graph recorded on a dry-run session keeps `body` only for a
    /// reducing kernel (see [`GraphBuilder::launch`]).
    fn launch_node(&mut self, kernel: Kernel, meta: LaunchMeta, body: impl Fn(bool) + Sync + 'a);
}

impl<'a> LaunchTarget<'a> for &Session {
    fn launch_node(&mut self, kernel: Kernel, _meta: LaunchMeta, body: impl Fn(bool) + Sync + 'a) {
        self.launch(&kernel, || body(self.executes()));
    }
}

impl<'a> LaunchTarget<'a> for GraphBuilder<'a> {
    fn launch_node(&mut self, kernel: Kernel, meta: LaunchMeta, body: impl Fn(bool) + Sync + 'a) {
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
    ops: Vec<GraphOp>,
    /// The kept bodies, in recorded order. Fewer than `launches` only
    /// on a graph recorded dry.
    bodies: Vec<Body<'a>>,
    launches: u64,
    /// Some launch declares a write to a named dat
    /// ([`DatAccess::writes_named`]). Without one, no launch can change
    /// residency, so the commit stage skips every launch's access list.
    writes_named: bool,
    phase_defects: Vec<String>,
    /// The summary graph observers see, built on the first observed
    /// replay and shared by every later one.
    observed_summary: OnceLock<GraphSummary>,
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
                        kernel: fp.name.to_string(),
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
    /// one is installed. Costs one atomic load when none is; the
    /// summary is built once per graph, on its first observed replay.
    fn notify_observer(&self, session: &Session) {
        if let Some(obs) = session.graph_observer() {
            obs(self.observed_summary.get_or_init(|| self.summary()));
        }
    }

    /// Replay the graph on `session`: fetch its priced plan (built on
    /// the session's first replay of this graph by per-launch lookups
    /// in the fingerprint cache, under a single lock), execute the
    /// functional bodies, then commit the whole sequence under a single
    /// ledger lock acquisition: each launch advances the clock in
    /// recorded order (and residency, when the graph writes a named
    /// dat; see [`GraphBuilder::finish`]), and the plan is appended to
    /// the ledger as one entry. Launch observers fire per record in
    /// ledger order after the lock is released.
    ///
    /// # Panics
    ///
    /// If `session` executes and the graph was recorded on a dry-run
    /// session that dropped a body: replaying it would skip that work.
    pub fn replay(&self, session: &Session) {
        assert!(
            !session.executes() || self.bodies.len() as u64 == self.launches,
            "graph {} was recorded on a dry-run session, which dropped {} of its {} \
             kernel bodies; record it on an executing session to replay it there",
            self.id,
            self.launches - self.bodies.len() as u64,
            self.launches,
        );
        self.notify_observer(session);
        let replay_span = telemetry::SpanTimer::start();
        let plan = session.price_cache().plan(self.id, self.launches, |cache| {
            self.ops
                .iter()
                .map(|op| match op {
                    GraphOp::Launch { node, .. } => {
                        Some(session.price_launch(cache, &node.kernel, node.key))
                    }
                    _ => None,
                })
                .collect()
        });

        self.execute_stage(&plan, session.executes());

        // Commit walks the plan: a launch commits its priced record and
        // reads its op only for the access list a named write needs.
        let mut locks = CommitLocks::new(session);
        for (i, slot) in plan.iter().enumerate() {
            if let Some(record) = slot {
                let meta = if self.writes_named {
                    self.ops[i].meta()
                } else {
                    None
                };
                locks.launch(record, meta);
                continue;
            }
            let op = match &self.ops[i] {
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
                _ => continue,
            };
            locks.commit(op);
        }
        locks.push_plan(plan, self.launches as usize);
        locks.release();
        if let Some(t) = replay_span {
            t.finish(
                telemetry::SpanKind::Replay,
                "graph.replay",
                self.launches,
                0.0,
            );
        }
    }

    /// Execute stage: run the kept bodies in recorded order. Untraced,
    /// or on a dry session, there is no span to write, so it only calls
    /// each kept body with `executes`: on a dry-recorded graph those are
    /// the reduce bodies, which hand their sink the identity. A traced
    /// executing replay keeps every body and times each launch as one
    /// `Launch` span, with the phase spans bracketing them.
    fn execute_stage(&self, priced: &[Option<LaunchRecord>], executes: bool) {
        if !(telemetry::enabled() && executes) {
            for body in &self.bodies {
                body(executes);
            }
            return;
        }
        let mut bodies = self.bodies.iter();
        let mut phases: Vec<(&'static str, Option<telemetry::SpanTimer>)> = Vec::new();
        for (op, p) in self.ops.iter().zip(priced) {
            match op {
                GraphOp::Launch { .. } => {
                    let body = bodies.next().expect("an executing replay keeps every body");
                    execute(p.as_ref().expect("launch ops are priced"), true, || {
                        body(true)
                    });
                }
                GraphOp::PhaseBegin { name } => {
                    phases.push((name, telemetry::SpanTimer::start()));
                }
                GraphOp::PhaseEnd => {
                    if let Some((name, Some(t))) = phases.pop() {
                        t.finish(telemetry::SpanKind::Phase, name, 0, 0.0);
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionConfig;
    use crate::toolchain::Toolchain;
    use machine_model::PlatformId;
    use std::sync::atomic::AtomicUsize;
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

    /// Everything a ledger reader can see, for comparing two sessions:
    /// the digests and f64 aggregates by bits, the transfer counts, and
    /// each record's name and price in order.
    type LedgerView = ([u64; 5], crate::TransferStats, Vec<(String, u64)>);

    fn ledger_view(s: &Session) -> LedgerView {
        let records = s.records();
        let seq: Vec<(String, u64)> = records
            .iter()
            .map(|r| (r.name.to_string(), r.time.total.to_bits()))
            .collect();
        assert_eq!(records.len(), seq.len(), "len() counts every record");
        drop(records);
        let sums = [
            s.ledger_digest(),
            s.launch_digest(),
            s.elapsed().to_bits(),
            s.boundary_fraction().to_bits(),
            s.effective_bandwidth().to_bits(),
        ];
        (sums, s.transfer_stats(), seq)
    }

    #[test]
    fn entry_ledger_matches_eager_launches_in_order() {
        let k1 = Kernel::streaming("triad", 1 << 20, 3e7, 2e6);
        let k2 = Kernel::streaming("copy", 1 << 18, 4e6, 0.0);
        let halo = Kernel::streaming("halo", 512, 2.0 * 8.0 * 512.0, 0.0);
        let base = SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app("graph");
        for cfg in [base.clone(), base.no_pricing_cache()] {
            let replayed = Session::create(cfg.clone()).unwrap();
            let eager = Session::create(cfg.clone()).unwrap();

            let mut g = replayed.record();
            g.phase("step");
            g.launch(&k1, |_| {});
            g.upload_dats(1e6, vec![1, 2]);
            g.launch(&halo, |_| {});
            g.exchange(1e6, 8);
            g.download_dats(1e6, vec![1]);
            g.launch(&k2, |_| {});
            g.end_phase();
            let g = g.finish();
            let step = |s: &Session| {
                s.launch(&k1, || ());
                s.upload(1e6, &[1, 2]);
                s.launch(&halo, || ());
                s.exchange(1e6, 8);
                s.download(1e6, &[1]);
                s.launch(&k2, || ());
            };
            let mut g2 = replayed.record();
            g2.launch(&k2, |_| {});
            g2.transfer(1e5);
            g2.launch(&halo, |_| {});
            let g2 = g2.finish();
            let step2 = |s: &Session| {
                s.launch(&k2, || ());
                s.transfer(1e5);
                s.launch(&halo, || ());
            };

            for s in [&replayed, &eager] {
                s.launch(&k1, || ());
                s.launch(&halo, || ());
            }
            for _ in 0..3 {
                g.replay(&replayed);
                step(&eager);
            }
            replayed.launch(&k2, || ());
            eager.launch(&k2, || ());
            g2.replay(&replayed);
            step2(&eager);
            let before = ledger_view(&replayed);
            assert_eq!(before, ledger_view(&eager), "{cfg:?}");
            assert_eq!(before.2.len(), 2 + 3 * 3 + 1 + 2);

            for s in [&replayed, &eager] {
                s.reset();
            }
            assert_eq!(ledger_view(&replayed), ledger_view(&eager));
            assert!(replayed.records().is_empty());
            for _ in 0..2 {
                g2.replay(&replayed);
                step2(&eager);
                g.replay(&replayed);
                step(&eager);
            }
            eager.launch(&k1, || ());
            replayed.launch(&k1, || ());
            let after = ledger_view(&replayed);
            assert_eq!(after, ledger_view(&eager), "{cfg:?}");
            assert_eq!(after.2.len(), 2 * (2 + 3) + 1);
            let records = replayed.records();
            let last = records.get(records.len() - 1).unwrap();
            assert_eq!(&*last.name, "triad");
            assert!(records.get(records.len()).is_none());
        }
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

    fn dry_session() -> Session {
        Session::create(
            SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda)
                .app("graph")
                .dry_run(),
        )
        .unwrap()
    }

    fn writes(dat: u32) -> LaunchMeta {
        use crate::launch::AccessMode;
        LaunchMeta::new(
            vec![DatAccess {
                dat,
                mode: AccessMode::Write,
                radius: [0; 3],
                elem_bytes: 8.0,
            }],
            [0; 3],
            [64, 1, 1],
        )
    }

    #[test]
    fn dry_replays_hand_reduce_sinks_the_identity() {
        let mut k = Kernel::streaming("dt", 1 << 16, 1e6, 0.0);
        k.footprint.reductions = 1;
        let sink = AtomicU64::new(0);
        let dry = dry_session();
        // A reduce body as the DSLs record it: fold when executing,
        // otherwise hand the sink the identity (here min's, +inf).
        let mut g = dry.record();
        g.phase("step");
        g.launch(&k, |executes| {
            let out = if executes { 0.5f64 } else { f64::INFINITY };
            sink.store(out.to_bits(), Ordering::Relaxed);
        });
        g.end_phase();
        let g = g.finish();
        for _ in 0..3 {
            sink.store(7.0f64.to_bits(), Ordering::Relaxed);
            g.replay(&dry);
            assert_eq!(f64::from_bits(sink.load(Ordering::Relaxed)), f64::INFINITY);
        }
        assert_eq!(dry.records().len(), 3);
        g.replay(&session());
        assert_eq!(f64::from_bits(sink.load(Ordering::Relaxed)), 0.5);
    }

    #[test]
    fn dry_graphs_keep_only_reduce_bodies() {
        let plain = Kernel::streaming("x", 1 << 16, 1e6, 0.0);
        let mut reduce = Kernel::streaming("dt", 1 << 16, 1e6, 0.0);
        reduce.footprint.reductions = 1;
        let token = Arc::new(());
        let calls = AtomicUsize::new(0);
        let dry = dry_session();
        let mut g = dry.record();
        let held = Arc::clone(&token);
        g.launch(&plain, move |_| {
            let _ = &held;
            unreachable!("a dry replay never calls a plain body");
        });
        assert_eq!(Arc::strong_count(&token), 1, "dropped at record time");
        g.launch(&reduce, |executes| {
            assert!(!executes);
            calls.fetch_add(1, Ordering::Relaxed);
        });
        let g = g.finish();
        assert_eq!(g.n_launches(), 2);
        for _ in 0..3 {
            g.replay(&dry);
        }
        assert_eq!(
            calls.load(Ordering::Relaxed),
            3,
            "the reduce body runs per replay"
        );
        assert_eq!(dry.records().len(), 6);
    }

    #[test]
    #[should_panic(expected = "recorded on a dry-run session")]
    fn a_dry_recorded_graph_refuses_an_executing_session() {
        let dry = dry_session();
        let mut g = dry.record();
        g.launch(&Kernel::streaming("x", 1 << 16, 1e6, 0.0), |_| {});
        g.finish().replay(&session());
    }

    #[test]
    fn a_replayed_named_write_makes_a_later_download_real() {
        let k = Kernel::streaming("w", 1 << 12, 1e5, 0.0);
        for s in [session(), dry_session()] {
            let mut g = s.record();
            g.upload_dats(1e6, vec![5]);
            g.launch_with_meta(k.clone(), writes(5), |_| {});
            let g = g.finish();
            for _ in 0..2 {
                g.replay(&s);
                s.download(1e6, &[5]);
            }
            // Upload, download, download real; the second upload elided.
            let stats = s.transfer_stats();
            assert_eq!((stats.real, stats.elided), (3, 1));
        }
    }

    #[test]
    fn anonymous_writes_leave_residency_as_eager_launches_do() {
        let k = Kernel::streaming("w", 1 << 12, 1e5, 0.0);
        let (replayed, eager) = (session(), session());
        let mut g = replayed.record();
        g.upload_dats(1e6, vec![5]);
        g.launch_with_meta(k.clone(), writes(0), |_| {});
        g.launch(&k, |_| {});
        g.download_dats(1e6, vec![5]);
        let g = g.finish();
        for _ in 0..2 {
            g.replay(&replayed);
            eager.upload(1e6, &[5]);
            eager.launch(&k, || ());
            eager.launch(&k, || ());
            eager.download(1e6, &[5]);
        }
        let stats = replayed.transfer_stats();
        assert_eq!(stats, eager.transfer_stats());
        assert_eq!((stats.real, stats.elided), (1, 3));
        assert_eq!(replayed.ledger_digest(), eager.ledger_digest());
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
    fn plans_never_cross_sessions() {
        let k1 = Kernel::streaming("triad", 1 << 20, 3e7, 2e6);
        let k2 = Kernel::streaming("copy", 1 << 12, 4e4, 0.0);
        let configs = [
            SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app("graph"),
            SessionConfig::new(PlatformId::Xeon8360Y, Toolchain::Dpcpp).app("graph"),
        ];
        let replayed: Vec<Session> = configs
            .iter()
            .map(|c| Session::create(c.clone()).unwrap())
            .collect();
        let mut g = replayed[0].record();
        g.launch(&k1, |_| {});
        g.transfer(1e6);
        g.launch(&k2, |_| {});
        g.exchange(1e6, 8);
        let g = g.finish();
        for _ in 0..3 {
            for s in &replayed {
                g.replay(s);
            }
        }
        for (cfg, s) in configs.iter().zip(&replayed) {
            let eager = Session::create(cfg.clone()).unwrap();
            for _ in 0..3 {
                eager.launch(&k1, || ());
                eager.transfer(1e6);
                eager.launch(&k2, || ());
                eager.exchange(1e6, 8);
            }
            assert_eq!(s.ledger_digest(), eager.ledger_digest(), "{cfg:?}");
        }
        assert_ne!(replayed[0].ledger_digest(), replayed[1].ledger_digest());
    }

    /// Check the boundary fraction and bandwidth commit keeps as
    /// running sums against a fresh fold over the ledger's records, by
    /// bits.
    fn assert_sums_fold_the_records(s: &Session, at: &str) {
        let records = s.records();
        let boundary: f64 = records
            .iter()
            .filter(|r| r.boundary)
            .map(|r| r.time.total)
            .sum();
        let bytes: f64 = records.iter().map(|r| r.effective_bytes).sum();
        drop(records);
        let elapsed = s.elapsed();
        let (fraction, bandwidth) = if elapsed > 0.0 {
            (boundary / elapsed, bytes / elapsed)
        } else {
            (0.0, 0.0)
        };
        assert_eq!(s.boundary_fraction().to_bits(), fraction.to_bits(), "{at}");
        assert_eq!(
            s.effective_bandwidth().to_bits(),
            bandwidth.to_bits(),
            "{at}"
        );
    }

    #[test]
    fn running_sums_equal_a_fold_over_the_records() {
        let triad = Kernel::streaming("triad", 1 << 20, 3e7, 2e6);
        let halo = Kernel::streaming("halo", 512, 2.0 * 8.0 * 512.0, 0.0);
        let seen = Arc::new(AtomicUsize::new(0));
        for s in [session(), dry_session()] {
            let counter = Arc::clone(&seen);
            s.set_launch_observer(Some(Arc::new(move |_: &LaunchRecord| {
                counter.fetch_add(1, Ordering::Relaxed);
            })));
            let mut g = s.record();
            g.launch(&halo, |_| {});
            g.exchange(1e6, 8);
            g.launch(&triad, |_| {});
            let g = g.finish();
            let mut named = s.record();
            named.upload_dats(1e6, vec![5]);
            named.launch_with_meta(halo.clone(), writes(5), |_| {});
            let named = named.finish();

            // Launches but no boundary launch: a fold reads -0.0 there.
            for _ in 0..3 {
                s.launch(&triad, || ());
            }
            assert_sums_fold_the_records(&s, "eager, no boundary launch");
            assert_eq!(s.boundary_fraction().to_bits(), (-0.0f64).to_bits());
            for _ in 0..2 {
                g.replay(&s);
                s.launch(&halo, || ());
            }
            assert_sums_fold_the_records(&s, "replays and eager launches");
            named.replay(&s);
            s.download(1e6, &[5]);
            assert!(s.boundary_fraction() > 0.0);
            assert_sums_fold_the_records(&s, "named-write replay");

            s.reset();
            assert_sums_fold_the_records(&s, "reset");
            // Clock time but no launch: both folds are empty.
            s.transfer(1e6);
            assert_sums_fold_the_records(&s, "a transfer after reset");
            assert_eq!(s.effective_bandwidth().to_bits(), (-0.0f64).to_bits());
            g.replay(&s);
            named.replay(&s);
            s.launch(&triad, || ());
            assert_sums_fold_the_records(&s, "after reset");
        }
        assert_eq!(
            seen.load(Ordering::Relaxed),
            2 * (3 + 2 * 3 + 1 + 2 + 1 + 1)
        );
    }

    #[test]
    fn observers_fire_in_ledger_order_after_commit() {
        let k1 = Kernel::streaming("a", 1 << 16, 1e6, 0.0);
        let k2 = Kernel::streaming("b", 1 << 20, 3e7, 2e6);
        let plain = session();
        let observed = session();
        let seen: Arc<parkit::sync::Mutex<Vec<(String, u64)>>> =
            Arc::new(parkit::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        observed.set_launch_observer(Some(Arc::new(move |r: &LaunchRecord| {
            sink.lock()
                .push((r.name.to_string(), r.time.total.to_bits()));
        })));
        let mut g = plain.record();
        g.launch(&k1, |_| {});
        g.exchange(1e6, 8);
        g.launch(&k2, |_| {});
        g.launch(&k1, |_| {});
        let g = g.finish();
        for _ in 0..3 {
            g.replay(&plain);
            g.replay(&observed);
        }
        assert_eq!(plain.ledger_digest(), observed.ledger_digest());
        assert_eq!(plain.elapsed().to_bits(), observed.elapsed().to_bits());
        let ledger: Vec<(String, u64)> = observed
            .records()
            .iter()
            .map(|r| (r.name.to_string(), r.time.total.to_bits()))
            .collect();
        assert_eq!(ledger.len(), 9);
        assert_eq!(*seen.lock(), ledger, "every record, in ledger order");
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
        use crate::launch::{AccessMode, DatAccess, LaunchMeta};
        let s = session();
        let k = Kernel::streaming("triad", 1 << 12, 1e5, 0.0);
        let mut g = s.record();
        g.phase("step");
        g.launch_with_meta(
            k.clone(),
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
        use crate::launch::{AccessMode, DatAccess, LaunchMeta};
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
            k.clone(),
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
            sink.lock().push((s.id, s as *const GraphSummary as usize));
        })));
        for _ in 0..3 {
            g1.replay(&plain);
            g2.replay(&tagged);
        }
        tagged.set_graph_observer(None);
        g2.replay(&tagged);
        g1.replay(&plain);

        let seen = seen.lock();
        assert_eq!(
            seen.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            [g2.id(); 3]
        );
        assert!(
            seen.iter().all(|&(_, at)| at == seen[0].1),
            "one summary, built once and shared by every replay"
        );
        assert_eq!(plain.ledger_digest(), tagged.ledger_digest());
        assert_eq!(plain.elapsed().to_bits(), tagged.elapsed().to_bits());
    }
}
