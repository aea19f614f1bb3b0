//! `ops_par_loop`: the heart of the DSL.
//!
//! A [`ParLoop`] collects the loop's argument descriptors, builds the
//! kernel footprint with the paper's effective-bytes rule, prices the
//! launch through the session, and executes the body functionally over
//! parallel tiles.

use crate::dat::DatMeta;
use crate::range::{Range3, Row};
use crate::stencil::Stencil;
use parkit::global_pool;
use std::sync::OnceLock;
use sycl_sim::{
    AccessMode, AccessProfile, DatAccess, GraphBuilder, Kernel, KernelFootprint, KernelTraits,
    LaunchMeta, LaunchTarget, Precision, Session, StencilProfile,
};
use telemetry::shadow::{self, Shadow};

/// Functional tile shape for `range` (execution only — the *modelled*
/// work-group shape comes from the toolchain, so this choice never
/// affects timing, only how the real computation is spread over host
/// threads). Tiles hold full x-rows in 8×4-row blocks, so the
/// per-point and row-sliced paths share one decomposition — and hence
/// one reduction partial order, keeping the two bit-identical. Ranges
/// with too few rows to feed the pool (wide 1-D loops) split x instead.
fn exec_tile(range: &Range3) -> [usize; 3] {
    let ext = range.extents();
    let x = if ext[1].max(1) * ext[2].max(1) >= 32 {
        ext[0].max(1)
    } else {
        ext[0].clamp(1, 1024)
    };
    [x, 8, 4]
}

/// Builder for one structured-mesh parallel loop.
#[derive(Debug, Clone)]
pub struct ParLoop {
    name: &'static str,
    range: Range3,
    reads: Vec<(DatMeta, Stencil)>,
    writes: Vec<DatMeta>,
    rws: Vec<(DatMeta, Stencil)>,
    flops_pp: f64,
    transc_pp: f64,
    traits: KernelTraits,
    nd_shape: Option<[usize; 3]>,
}

impl ParLoop {
    /// Start a loop over `range`.
    pub fn new(name: &'static str, range: Range3) -> Self {
        ParLoop {
            name,
            range,
            reads: Vec::new(),
            writes: Vec::new(),
            rws: Vec::new(),
            flops_pp: 0.0,
            transc_pp: 0.0,
            traits: KernelTraits::default(),
            nd_shape: None,
        }
    }

    /// Declare a read argument with its stencil.
    pub fn read(mut self, meta: DatMeta, stencil: Stencil) -> Self {
        self.reads.push((meta, stencil));
        self
    }

    /// Declare a write-only argument.
    pub fn write(mut self, meta: DatMeta) -> Self {
        self.writes.push(meta);
        self
    }

    /// Declare a read-write argument (counted twice, per the paper).
    pub fn read_write(mut self, meta: DatMeta) -> Self {
        self.rws.push((meta, Stencil::point()));
        self
    }

    /// Declare a read-write argument whose *reads* reach beyond the own
    /// point (e.g. halo mirrors). The stencil informs the verifier only;
    /// the priced footprint stays the paper's 2× rule for rw args and
    /// the priced radius still comes from the read stencils alone.
    pub fn read_write_stencil(mut self, meta: DatMeta, stencil: Stencil) -> Self {
        self.rws.push((meta, stencil));
        self
    }

    /// Floating-point operations per loop point.
    pub fn flops(mut self, per_point: f64) -> Self {
        self.flops_pp = per_point;
        self
    }

    /// Transcendental evaluations (sqrt, exp, ...) per loop point.
    pub fn transcendentals(mut self, per_point: f64) -> Self {
        self.transc_pp = per_point;
        self
    }

    /// Codegen traits (vectorisability etc.).
    pub fn traits(mut self, traits: KernelTraits) -> Self {
        self.traits = traits;
        self
    }

    /// Kernel-specific tuned nd_range shape.
    pub fn nd_shape(mut self, shape: [usize; 3]) -> Self {
        self.nd_shape = Some(shape);
        self
    }

    /// The iteration range.
    pub fn range(&self) -> Range3 {
        self.range
    }

    /// Build the backend-independent kernel description.
    pub fn kernel(&self) -> Kernel {
        let pts = self.range.points() as f64;
        let mut bytes = 0.0;
        let mut radius = Stencil::point();
        for (m, s) in &self.reads {
            bytes += pts * m.elem_bytes;
            radius = radius.merge(*s);
        }
        for m in &self.writes {
            bytes += pts * m.elem_bytes;
        }
        for (m, _) in &self.rws {
            bytes += 2.0 * pts * m.elem_bytes;
        }
        let precision = if self
            .reads
            .iter()
            .map(|(m, _)| m.elem_bytes)
            .chain(self.writes.iter().map(|m| m.elem_bytes))
            .chain(self.rws.iter().map(|(m, _)| m.elem_bytes))
            .any(|b| b >= 8.0)
        {
            Precision::F64
        } else {
            Precision::F32
        };
        let fp = KernelFootprint {
            name: self.name.into(),
            items: self.range.points() as u64,
            effective_bytes: bytes,
            flops: self.flops_pp * pts,
            transcendentals: self.transc_pp * pts,
            precision,
            access: AccessProfile::Stencil(StencilProfile {
                domain: self.range.extents(),
                radius: radius.radius,
                dats_read: self.reads.len() + self.rws.len(),
                dats_written: self.writes.len() + self.rws.len(),
            }),
            atomics: None,
            reductions: 0,
        };
        let mut k = Kernel::new(fp).with_traits(self.traits);
        if let Some(s) = self.nd_shape {
            k = k.with_nd_shape(s);
        }
        k
    }

    /// The declaration as the shadow-access checker sees it. Unlike the
    /// priced radius, rw stencils *do* count here — the verifier checks
    /// actual reads against what each argument individually declared.
    fn loop_decl(&self) -> shadow::LoopDecl {
        let mut args = Vec::with_capacity(self.reads.len() + self.writes.len() + self.rws.len());
        for (m, s) in &self.reads {
            args.push(shadow::ArgDecl {
                dat: m.id,
                access: shadow::Access::Read,
                radius: s.radius,
            });
        }
        for m in &self.writes {
            args.push(shadow::ArgDecl {
                dat: m.id,
                access: shadow::Access::Write,
                radius: [0; 3],
            });
        }
        for (m, s) in &self.rws {
            args.push(shadow::ArgDecl {
                dat: m.id,
                access: shadow::Access::ReadWrite,
                radius: s.radius,
            });
        }
        shadow::LoopDecl {
            kernel: self.name.to_owned(),
            structured: true,
            lo: self.range.lo,
            hi: self.range.hi,
            args,
            flops_pp: self.flops_pp,
            transc_pp: self.transc_pp,
            scheme: None,
        }
    }

    /// The declarative access metadata recorded with launch-graph nodes
    /// for static dataflow analysis (`graphlint`). Mirrors
    /// [`ParLoop::loop_decl`] with element sizes attached; like the
    /// shadow declaration it never enters pricing.
    fn launch_meta(&self) -> LaunchMeta {
        let mut accesses =
            Vec::with_capacity(self.reads.len() + self.writes.len() + self.rws.len());
        for (m, s) in &self.reads {
            accesses.push(DatAccess {
                dat: m.id,
                mode: AccessMode::Read,
                radius: s.radius,
                elem_bytes: m.elem_bytes,
            });
        }
        for m in &self.writes {
            accesses.push(DatAccess {
                dat: m.id,
                mode: AccessMode::Write,
                radius: [0; 3],
                elem_bytes: m.elem_bytes,
            });
        }
        for (m, s) in &self.rws {
            accesses.push(DatAccess {
                dat: m.id,
                mode: AccessMode::ReadWrite,
                radius: s.radius,
                elem_bytes: m.elem_bytes,
            });
        }
        LaunchMeta::new(accesses, self.range.lo, self.range.hi)
    }

    /// Price the launch on `session` and run `body` over parallel tiles.
    ///
    /// `body` receives sub-ranges that partition the loop range; it must
    /// write only to its tile's points (the usual OPS contract).
    pub fn run(self, session: &Session, body: impl Fn(Range3) + Sync) {
        self.emit(&mut { session }, body);
    }

    /// The row-sliced fast path: price the launch and run `body` once
    /// per contiguous x-row span of each tile.
    ///
    /// Bodies pull contiguous slices out of their dats with
    /// [`ReadView::row`](crate::dat::ReadView::row) /
    /// [`WriteView::row_mut`](crate::dat::WriteView::row_mut), paying
    /// the index arithmetic once per row instead of once per point (and
    /// giving the compiler vectorisable slice loops). Tiles come from
    /// the same decomposition as [`ParLoop::run`], so both paths cover
    /// identical points in identical order.
    pub fn run_rows(self, session: &Session, body: impl Fn(Row) + Sync) {
        self.emit(&mut { session }, each_row(body));
    }

    /// Like [`ParLoop::run`] but the loop also produces a reduction:
    /// each tile folds into a partial, partials combine in a fixed
    /// binary tree (deterministic — and exactly the reduction structure
    /// the paper's SYCL CPU fallback used). Partials live in the pool's
    /// reusable arena, so the steady path allocates nothing.
    pub fn run_reduce<A>(
        self,
        session: &Session,
        identity: A,
        combine: impl Fn(A, A) -> A + Sync,
        body: impl Fn(Range3) -> A + Sync,
    ) -> A
    where
        A: Send + Sync + Clone,
    {
        let out = OnceLock::new();
        self.emit_reduce(&mut { session }, identity, combine, body, |a| {
            let _ = out.set(a);
        });
        out.into_inner()
            .expect("an eager launch runs its body once")
    }

    /// Row-sliced reduction. `body` is a *fold*: it takes the tile's
    /// running accumulator and one row, and returns the updated
    /// accumulator — so a body that walks its row slice left-to-right
    /// performs exactly the operation sequence of a per-point
    /// [`ParLoop::run_reduce`] body, making the two paths bit-identical.
    pub fn run_rows_reduce<A>(
        self,
        session: &Session,
        identity: A,
        combine: impl Fn(A, A) -> A + Sync,
        body: impl Fn(A, Row) -> A + Sync,
    ) -> A
    where
        A: Send + Sync + Clone,
    {
        let fold = fold_rows(identity.clone(), body);
        self.run_reduce(session, identity, combine, fold)
    }

    /// Record this loop into a launch graph instead of launching it.
    /// Every [`LaunchGraph::replay`](sycl_sim::LaunchGraph::replay)
    /// runs the body exactly as [`ParLoop::run`] would.
    pub fn record<'a>(self, g: &mut GraphBuilder<'a>, body: impl Fn(Range3) + Sync + 'a) {
        self.emit(g, body);
    }

    /// Record the row-sliced fast path ([`ParLoop::run_rows`]).
    pub fn record_rows<'a>(self, g: &mut GraphBuilder<'a>, body: impl Fn(Row) + Sync + 'a) {
        self.emit(g, each_row(body));
    }

    /// Record a reducing loop ([`ParLoop::run_reduce`]).
    ///
    /// Recorded bodies cannot return values through the graph, so the
    /// reduction result is delivered to `sink` on every replay (the
    /// identity when the session does not execute, exactly as the eager
    /// path returns it). Sinks typically store the bits into an
    /// `AtomicU64` cell the iteration loop reads back after `replay`.
    pub fn record_reduce<'a, A>(
        self,
        g: &mut GraphBuilder<'a>,
        identity: A,
        combine: impl Fn(A, A) -> A + Sync + 'a,
        body: impl Fn(Range3) -> A + Sync + 'a,
        sink: impl Fn(A) + Sync + 'a,
    ) where
        A: Send + Sync + Clone + 'a,
    {
        self.emit_reduce(g, identity, combine, body, sink);
    }

    /// Record a row-sliced reducing loop ([`ParLoop::run_rows_reduce`];
    /// see [`ParLoop::record_reduce`] for the sink contract).
    pub fn record_rows_reduce<'a, A>(
        self,
        g: &mut GraphBuilder<'a>,
        identity: A,
        combine: impl Fn(A, A) -> A + Sync + 'a,
        body: impl Fn(A, Row) -> A + Sync + 'a,
        sink: impl Fn(A) + Sync + 'a,
    ) where
        A: Send + Sync + Clone + 'a,
    {
        let fold = fold_rows(identity.clone(), body);
        self.emit_reduce(g, identity, combine, fold, sink);
    }

    /// The one launch path of a plain loop: run `body` over the
    /// `exec_tile` decomposition inside the loop's shadow bracket.
    fn emit<'a>(self, to: &mut impl LaunchTarget<'a>, body: impl Fn(Range3) + Sync + 'a) {
        let kernel = self.kernel();
        let meta = self.launch_meta();
        let shape = exec_tile(&self.range);
        let tiles = self.range.tile_count(shape);
        to.launch_node(kernel, meta, move |executes| {
            self.shadowed(executes, |sh| {
                if executes {
                    global_pool().run_region(tiles, |_lane, t| {
                        shadow::unit(sh, || body(self.range.tile(shape, t)));
                    });
                }
            });
        });
    }

    /// The one launch path of a reducing loop: fold each tile into a
    /// partial, combine the partials in the pool's fixed tree, and hand
    /// the result (the identity when nothing executes) to `sink`.
    fn emit_reduce<'a, A>(
        self,
        to: &mut impl LaunchTarget<'a>,
        identity: A,
        combine: impl Fn(A, A) -> A + Sync + 'a,
        body: impl Fn(Range3) -> A + Sync + 'a,
        sink: impl Fn(A) + Sync + 'a,
    ) where
        A: Send + Sync + Clone + 'a,
    {
        let mut kernel = self.kernel();
        kernel.footprint.reductions = 1;
        let bytes = kernel.footprint.effective_bytes;
        let meta = self.launch_meta();
        let shape = exec_tile(&self.range);
        let tiles = self.range.tile_count(shape);
        to.launch_node(kernel, meta, move |executes| {
            self.shadowed(executes, |sh| {
                let out = if executes {
                    telemetry::reduce_span(self.name, tiles, bytes, || {
                        global_pool().reduce_chunks(tiles, identity.clone(), &combine, |t| {
                            shadow::unit(sh, || body(self.range.tile(shape, t)))
                        })
                    })
                } else {
                    identity.clone()
                };
                sink(out);
            });
        });
    }

    /// Run `f` inside this loop's shadow-access bracket when the calling
    /// thread has a shadow current and the body executes; `f` gets that
    /// shadow to hand to its units.
    fn shadowed(&self, executes: bool, f: impl FnOnce(Option<&Shadow>)) {
        let sh = executes.then(shadow::current).flatten();
        if let Some(sh) = &sh {
            sh.begin_loop(self.loop_decl());
        }
        f(sh.as_deref());
        if let Some(sh) = &sh {
            sh.end_loop();
        }
    }
}

/// Adapt a per-row body to the per-tile emitters.
fn each_row(body: impl Fn(Row) + Sync) -> impl Fn(Range3) + Sync {
    move |tile| {
        for row in tile.rows() {
            body(row);
        }
    }
}

/// Adapt a per-row fold to the per-tile reduce emitter: each tile starts
/// from `identity` and folds its rows in order.
fn fold_rows<A: Clone + Sync>(
    identity: A,
    body: impl Fn(A, Row) -> A + Sync,
) -> impl Fn(Range3) -> A + Sync {
    move |tile| {
        let mut acc = identity.clone();
        for row in tile.rows() {
            acc = body(acc, row);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::dat::Dat;
    use sycl_sim::{PlatformId, SessionConfig, Toolchain};

    fn session() -> Session {
        Session::create(
            SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app("parloop-test"),
        )
        .unwrap()
    }

    #[test]
    fn footprint_follows_the_effective_bytes_rule() {
        let b = Block::new_2d(100, 100, 1);
        let u = Dat::<f64>::zeroed(&b, "u");
        let lp = ParLoop::new("k", b.interior())
            .read(u.meta(), Stencil::star_2d(1))
            .read_write(u.meta())
            .write(u.meta())
            .flops(7.0);
        let k = lp.kernel();
        let pts = 100.0 * 100.0 * 8.0;
        // read 1× + rw 2× + write 1× = 4× dataset size.
        assert!((k.footprint.effective_bytes - 4.0 * pts).abs() < 1e-9);
        assert!((k.footprint.flops - 7.0 * 100.0 * 100.0).abs() < 1e-9);
        match &k.footprint.access {
            AccessProfile::Stencil(s) => {
                assert_eq!(s.radius, [1, 1, 0]);
                assert_eq!(s.dats_read, 2);
                assert_eq!(s.dats_written, 2);
            }
            _ => panic!("expected stencil access"),
        }
    }

    #[test]
    fn f32_args_give_f32_precision() {
        let b = Block::new_3d(8, 8, 8, 1);
        let u = Dat::<f32>::zeroed(&b, "u");
        let k = ParLoop::new("k", b.interior())
            .read(u.meta(), Stencil::point())
            .write(u.meta())
            .kernel();
        assert_eq!(k.footprint.precision, Precision::F32);
    }

    #[test]
    fn run_executes_every_point_once() {
        let s = session();
        let b = Block::new_2d(37, 23, 2);
        let mut u = Dat::<f64>::zeroed(&b, "u");
        let meta = u.meta();
        let w = u.writer();
        ParLoop::new("fill", b.interior())
            .write(meta)
            .run(&s, |tile| {
                for (i, j, k) in tile.iter() {
                    w.set(i, j, k, w.get(i, j, k) + 1.0);
                }
            });
        assert_eq!(u.interior_sum(&b), (37 * 23) as f64);
        assert_eq!(s.records().len(), 1);
    }

    #[test]
    fn stencil_body_reads_neighbours_correctly() {
        let s = session();
        let b = Block::new_2d(16, 16, 1);
        let mut src = Dat::<f64>::zeroed(&b, "src");
        src.fill_with(|i, j, _| (i + 100 * j) as f64);
        let mut dst = Dat::<f64>::zeroed(&b, "dst");
        let dst_meta = dst.meta();
        let r = src.reader();
        let w = dst.writer();
        ParLoop::new("avg", b.interior())
            .read(src.meta(), Stencil::star_2d(1))
            .write(dst_meta)
            .flops(4.0)
            .run(&s, |tile| {
                for (i, j, k) in tile.iter() {
                    let v = r.at(i - 1, j, k)
                        + r.at(i + 1, j, k)
                        + r.at(i, j - 1, k)
                        + r.at(i, j + 1, k);
                    w.set(i, j, k, 0.25 * v);
                }
            });
        // Interior of a linear field is preserved by averaging.
        assert!((dst.at(5, 5, 0) - src.at(5, 5, 0)).abs() < 1e-12);
    }

    #[test]
    fn reductions_are_deterministic_and_counted() {
        let s = session();
        let b = Block::new_2d(64, 64, 1);
        let mut u = Dat::<f64>::zeroed(&b, "u");
        u.fill_with(|i, j, _| ((i * 31 + j * 7) % 13) as f64 * 0.1);
        let r = u.reader();
        let total = ParLoop::new("sum", b.interior())
            .read(u.meta(), Stencil::point())
            .run_reduce(
                &s,
                0.0f64,
                |a, b| a + b,
                |tile| {
                    let mut t = 0.0;
                    for (i, j, k) in tile.iter() {
                        t += r.at(i, j, k);
                    }
                    t
                },
            );
        let expect = u.interior_sum(&b);
        assert!((total - expect).abs() < 1e-9);
        let records = s.records();
        let rec = records.get(0).unwrap();
        assert!(rec.time.reduction > 0.0 || rec.time.total > 0.0);
    }

    #[test]
    fn run_rows_executes_every_point_once() {
        let s = session();
        let b = Block::new_2d(37, 23, 2);
        let mut u = Dat::<f64>::zeroed(&b, "u");
        let meta = u.meta();
        let w = u.writer();
        ParLoop::new("fill_rows", b.interior())
            .write(meta)
            .run_rows(&s, |row| {
                for v in w.row_mut(row) {
                    *v += 1.0;
                }
            });
        assert_eq!(u.interior_sum(&b), (37 * 23) as f64);
        assert_eq!(s.records().len(), 1);
    }

    #[test]
    fn row_and_point_stencils_agree_bitwise() {
        let s = session();
        let b = Block::new_2d(41, 29, 1);
        let mut src = Dat::<f64>::zeroed(&b, "src");
        src.fill_with(|i, j, _| ((i * 13 + j * 7) % 31) as f64 * 0.37);
        let mut d_pt = Dat::<f64>::zeroed(&b, "d_pt");
        let mut d_row = Dat::<f64>::zeroed(&b, "d_row");
        let r = src.reader();
        {
            let meta = d_pt.meta();
            let w = d_pt.writer();
            ParLoop::new("avg", b.interior())
                .read(src.meta(), Stencil::star_2d(1))
                .write(meta)
                .run(&s, |tile| {
                    for (i, j, k) in tile.iter() {
                        let v = r.at(i - 1, j, k)
                            + r.at(i + 1, j, k)
                            + r.at(i, j - 1, k)
                            + r.at(i, j + 1, k);
                        w.set(i, j, k, 0.25 * v);
                    }
                });
        }
        {
            let meta = d_row.meta();
            let w = d_row.writer();
            ParLoop::new("avg_rows", b.interior())
                .read(src.meta(), Stencil::star_2d(1))
                .write(meta)
                .run_rows(&s, |row| {
                    let c = r.row(row.grow_x(1));
                    let south = r.row(row.shift(0, -1, 0));
                    let north = r.row(row.shift(0, 1, 0));
                    let out = w.row_mut(row);
                    for x in 0..row.len() {
                        let v = c[x] + c[x + 2] + south[x] + north[x];
                        out[x] = 0.25 * v;
                    }
                });
        }
        for (i, j, k) in b.interior().iter() {
            assert_eq!(
                d_pt.at(i, j, k).to_bits(),
                d_row.at(i, j, k).to_bits(),
                "mismatch at ({i},{j},{k})"
            );
        }
    }

    #[test]
    fn row_reduce_matches_point_reduce_bitwise() {
        let s = session();
        let b = Block::new_2d(67, 45, 1);
        let mut u = Dat::<f64>::zeroed(&b, "u");
        u.fill_with(|i, j, _| ((i * 31 + j * 7) % 13) as f64 * 0.1);
        let r = u.reader();
        let by_point = ParLoop::new("sum", b.interior())
            .read(u.meta(), Stencil::point())
            .run_reduce(
                &s,
                0.0f64,
                |a, b| a + b,
                |tile| {
                    let mut t = 0.0;
                    for (i, j, k) in tile.iter() {
                        t += r.at(i, j, k);
                    }
                    t
                },
            );
        let by_row = ParLoop::new("sum_rows", b.interior())
            .read(u.meta(), Stencil::point())
            .run_rows_reduce(
                &s,
                0.0f64,
                |a, b| a + b,
                |acc, row| {
                    let mut t = acc;
                    for &v in r.row(row) {
                        t += v;
                    }
                    t
                },
            );
        assert_eq!(by_point.to_bits(), by_row.to_bits());
    }

    #[test]
    fn exec_tile_gives_full_rows_but_splits_wide_1d_loops() {
        // Tall 2-D range: full rows.
        let r2 = Range3::new_2d(0, 500, 0, 100);
        assert_eq!(exec_tile(&r2), [500, 8, 4]);
        assert_eq!(r2.tile_count(exec_tile(&r2)), 13);
        // Wide 1-row range: x splits so the pool still has work.
        let r1 = Range3::new_2d(0, 1 << 20, 0, 1);
        assert_eq!(exec_tile(&r1), [1024, 8, 4]);
        assert_eq!(r1.tile_count(exec_tile(&r1)), 1024);
    }

    #[test]
    fn recorded_loops_replay_bit_identically_to_eager_runs() {
        use std::sync::atomic::{AtomicU64, Ordering};

        let build = |u: &mut Dat<f64>| {
            u.fill_with(|i, j, _| ((i * 31 + j * 7) % 13) as f64 * 0.1);
        };

        let b = Block::new_2d(48, 36, 1);
        let eager = session();
        let mut ue = Dat::<f64>::zeroed(&b, "u");
        build(&mut ue);
        let mut eager_sums = Vec::new();
        for _ in 0..3 {
            let meta = ue.meta();
            let r = ue.reader();
            ParLoop::new("touch", b.interior())
                .read(meta, Stencil::point())
                .run_rows(&eager, |row| {
                    let _ = r.row(row);
                });
            let total = ParLoop::new("sum", b.interior())
                .read(meta, Stencil::point())
                .run_reduce(
                    &eager,
                    0.0f64,
                    |a, b| a + b,
                    |tile| {
                        let mut t = 0.0;
                        for (i, j, k) in tile.iter() {
                            t += r.at(i, j, k);
                        }
                        t
                    },
                );
            eager_sums.push(total.to_bits());
        }

        let replayed = session();
        let mut ur = Dat::<f64>::zeroed(&b, "u");
        build(&mut ur);
        let meta = ur.meta();
        let r = ur.reader();
        let cell = AtomicU64::new(0);
        let mut g = replayed.record();
        ParLoop::new("touch", b.interior())
            .read(meta, Stencil::point())
            .record_rows(&mut g, |row| {
                let _ = r.row(row);
            });
        ParLoop::new("sum", b.interior())
            .read(meta, Stencil::point())
            .record_reduce(
                &mut g,
                0.0f64,
                |a, b| a + b,
                |tile| {
                    let mut t = 0.0;
                    for (i, j, k) in tile.iter() {
                        t += r.at(i, j, k);
                    }
                    t
                },
                |total| cell.store(total.to_bits(), Ordering::Relaxed),
            );
        let graph = g.finish();
        let mut replay_sums = Vec::new();
        for _ in 0..3 {
            graph.replay(&replayed);
            replay_sums.push(cell.load(Ordering::Relaxed));
        }

        assert_eq!(eager_sums, replay_sums, "reduction results must match");
        assert_eq!(
            eager.ledger_digest(),
            replayed.ledger_digest(),
            "eager and replayed ledgers must be bit-identical"
        );
    }

    #[test]
    fn dry_graphs_drop_plain_bodies_and_feed_reduce_sinks() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let dry = Session::create(
            SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda)
                .app("parloop-test")
                .dry_run(),
        )
        .unwrap();
        let b = Block::new_2d(32, 16, 1);
        let u = Dat::<f64>::zeroed(&b, "u");
        let token = Arc::new(());
        let (by_point, by_row) = (AtomicU64::new(0), AtomicU64::new(0));
        let mut g = dry.record();
        let held = Arc::clone(&token);
        ParLoop::new("fill", b.interior())
            .write(u.meta())
            .record(&mut g, move |_| {
                let _ = &held;
                unreachable!("a dry replay never calls a plain body");
            });
        let held = Arc::clone(&token);
        ParLoop::new("fill_rows", b.interior())
            .write(u.meta())
            .record_rows(&mut g, move |_| {
                let _ = &held;
                unreachable!("a dry replay never calls a plain body");
            });
        assert_eq!(Arc::strong_count(&token), 1, "dropped at record time");
        ParLoop::new("min", b.interior())
            .read(u.meta(), Stencil::point())
            .record_reduce(
                &mut g,
                f64::INFINITY,
                f64::min,
                |_| unreachable!("a dry replay folds nothing"),
                |v| by_point.store(v.to_bits(), Ordering::Relaxed),
            );
        ParLoop::new("min_rows", b.interior())
            .read(u.meta(), Stencil::point())
            .record_rows_reduce(
                &mut g,
                f64::INFINITY,
                f64::min,
                |_, _| unreachable!("a dry replay folds nothing"),
                |v| by_row.store(v.to_bits(), Ordering::Relaxed),
            );
        let g = g.finish();
        for _ in 0..2 {
            by_point.store(0, Ordering::Relaxed);
            by_row.store(0, Ordering::Relaxed);
            g.replay(&dry);
            for sink in [&by_point, &by_row] {
                assert_eq!(f64::from_bits(sink.load(Ordering::Relaxed)), f64::INFINITY);
            }
        }
        assert_eq!(dry.records().len(), 8);
    }

    #[test]
    fn boundary_loops_are_flagged() {
        let s = session();
        let b = Block::new_2d(512, 512, 2);
        let mut u = Dat::<f64>::zeroed(&b, "u");
        let meta = u.meta();
        let w = u.writer();
        ParLoop::new("bc_left", b.face(0, -1, 2))
            .write(meta)
            .run(&s, |tile| {
                for (i, j, k) in tile.iter() {
                    w.set(i, j, k, 1.0);
                }
            });
        assert!(s.records().get(0).unwrap().boundary);
    }
}
