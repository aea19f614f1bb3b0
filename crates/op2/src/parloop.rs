//! OP2 parallel loops: direct loops over a set, and indirect loops over
//! edges with the three race-resolution schemes.

use crate::color::{GlobalColoring, HierColoring};
use crate::map::Map;
use crate::mesh::{Mesh, MeshStats};
use crate::prefetch;
use parkit::global_pool;
use std::sync::{Arc, OnceLock};
use sycl_sim::{
    AccessProfile, AtomicKind, AtomicProfile, GraphBuilder, IndirectProfile, Kernel,
    KernelFootprint, KernelTraits, LaunchMeta, LaunchTarget, Precision, Scheme, Session,
};
use telemetry::shadow::{self, LoopDecl, Shadow};

/// Scheme label carried in launch metadata (telemetry, below `sycl-sim`
/// in the crate DAG, holds it as a string, not the enum).
fn scheme_label(s: Scheme) -> &'static str {
    match s {
        Scheme::Atomics => "atomics",
        Scheme::GlobalColor => "global",
        Scheme::HierColor => "hier",
    }
}

/// Estimated colour counts when no real mesh is attached. Every built
/// hex grid of 32×32×16 to 128×128×64, natural or shuffled, takes 6
/// global colours (5 on a 32-vertex coarsest level); 8 is the paper-size
/// model's assumption for the Rotor37 mesh, not a count derived from
/// the grids, and stays until a model check against built meshes sets
/// it. Block graphs colour in ~4.
const EST_GLOBAL_COLORS: usize = 8;
const EST_BLOCK_COLORS: usize = 4;

/// Chunk size for functional parallel execution.
const EXEC_CHUNK: usize = 2048;

/// A vertex dataset named by an [`EdgeLoop`] arg. A bare `usize`
/// declares only the component count (enough to price the loop); a
/// [`DatU`](crate::DatU) view also says where its rows live, so the
/// functional loop can prefetch the rows its edges gather.
pub trait VertexArg {
    /// Components per vertex.
    fn dim(&self) -> usize;

    /// Where the bound data lives; `None` for a dim-only declaration.
    fn rows(&self) -> Option<VertexRows> {
        None
    }
}

impl VertexArg for usize {
    fn dim(&self) -> usize {
        *self
    }
}

/// Base address, length in elements and element size of bound vertex
/// data, and whether its rows are added to under their stripe locks:
/// enough to prefetch its rows and locks, never to access them.
#[derive(Debug, Clone, Copy)]
pub struct VertexRows {
    pub(crate) addr: usize,
    pub(crate) len: usize,
    pub(crate) elem_bytes: usize,
    pub(crate) locked: bool,
}

/// One bound arg's rows as the prefetcher sees them.
#[derive(Debug, Clone, Copy)]
struct Prefetch {
    addr: usize,
    row_bytes: usize,
    /// Whether each row's stripe lock is prefetched too.
    lock: bool,
}

impl Prefetch {
    /// Prefetch the first and last cache line of vertex `v`'s row and,
    /// for a row-locked accumulator, the row's stripe lock for write.
    #[inline(always)]
    fn row(&self, v: usize) {
        let first = self.addr.wrapping_add(v.wrapping_mul(self.row_bytes));
        prefetch::line(first);
        prefetch::line(first.wrapping_add(self.row_bytes - 1));
        if self.lock {
            parkit::view::prefetch_row_lock(first);
        }
    }
}

/// A loop over the edge set that indirectly increments vertex data.
#[derive(Debug, Clone)]
pub struct EdgeLoop {
    name: &'static str,
    stats: MeshStats,
    scheme: Scheme,
    precision: Precision,
    /// Work-group/block size (paper: 256 on GPUs, 4096 on CPUs).
    block_size: usize,
    direct_bytes: f64,
    indirect_bytes: f64,
    gathered_per_edge: f64,
    inc_components_per_edge: usize,
    flops_pp: f64,
    transc_pp: f64,
    /// Declaration defects the builder saturated over (zero-dim args,
    /// bound views of the wrong length); surfaced as `Error`
    /// diagnostics by the verifier.
    defects: Vec<String>,
    /// Rows of the bound vertex args, prefetched ahead of each edge.
    prefetch: Vec<Prefetch>,
}

impl EdgeLoop {
    /// Start an edge loop. `stats` gives set sizes and ordering quality;
    /// `scheme` picks the race-resolution strategy.
    pub fn new(name: &'static str, stats: MeshStats, scheme: Scheme, precision: Precision) -> Self {
        EdgeLoop {
            name,
            stats,
            scheme,
            precision,
            block_size: 256,
            direct_bytes: 0.0,
            indirect_bytes: 0.0,
            gathered_per_edge: 0.0,
            inc_components_per_edge: 0,
            flops_pp: 0.0,
            transc_pp: 0.0,
            defects: Vec::new(),
            prefetch: Vec::new(),
        }
    }

    /// A zero-dim arg would silently price 0 bytes — saturate it to one
    /// component and record the defect for the verifier.
    fn check_dim(&mut self, dim: usize, what: &str) -> usize {
        if dim == 0 {
            self.defects
                .push(format!("{}: {what}(0) declares no components; saturated to 1 so the footprint is not silently zero", self.name));
            1
        } else {
            dim
        }
    }

    /// Set the hierarchical block / work-group size.
    pub fn block_size(mut self, b: usize) -> Self {
        self.block_size = b.max(1);
        self
    }

    /// A `dim`-component dataset on the edge set, read directly.
    pub fn edge_read(mut self, dim: usize) -> Self {
        let dim = self.check_dim(dim, "edge_read");
        self.direct_bytes += self.stats.n_edges as f64 * dim as f64 * self.precision.bytes();
        self
    }

    /// Check a vertex arg's dim and, for a bound view, its length; a
    /// view that does not cover `n_vertices × dim` elements is a defect
    /// and is not prefetched.
    fn vertex_arg(&mut self, arg: impl VertexArg, what: &str) -> usize {
        let dim = self.check_dim(arg.dim(), what);
        if let Some(rows) = arg.rows() {
            let want = self.stats.n_vertices * dim;
            if rows.len == want {
                self.prefetch.push(Prefetch {
                    addr: rows.addr,
                    row_bytes: dim * rows.elem_bytes,
                    lock: rows.locked,
                });
            } else {
                self.defects.push(format!(
                    "{}: {what} binds {} elements, not {} vertices x {dim}; not prefetched",
                    self.name, rows.len, self.stats.n_vertices
                ));
            }
        }
        dim
    }

    /// A vertex dataset gathered through the map: a component count, or
    /// a view of the data itself.
    pub fn vertex_read(mut self, arg: impl VertexArg) -> Self {
        let dim = self.vertex_arg(arg, "vertex_read");
        let elem = self.precision.bytes();
        self.indirect_bytes += self.stats.n_vertices as f64 * dim as f64 * elem;
        self.gathered_per_edge += 2.0 * dim as f64 * elem;
        self
    }

    /// A vertex dataset incremented through the map (read-modify-write:
    /// counted twice, as the paper does).
    pub fn vertex_inc(mut self, arg: impl VertexArg) -> Self {
        let dim = self.vertex_arg(arg, "vertex_inc");
        let elem = self.precision.bytes();
        self.indirect_bytes += 2.0 * self.stats.n_vertices as f64 * dim as f64 * elem;
        self.gathered_per_edge += 2.0 * dim as f64 * elem;
        self.inc_components_per_edge += 2 * dim;
        self
    }

    /// Declaration defects the builder saturated over.
    pub fn defects(&self) -> &[String] {
        &self.defects
    }

    /// FLOPs per edge.
    pub fn flops(mut self, per_edge: f64) -> Self {
        self.flops_pp = per_edge;
        self
    }

    /// Transcendentals per edge.
    pub fn transcendentals(mut self, per_edge: f64) -> Self {
        self.transc_pp = per_edge;
        self
    }

    /// Does the functional body need atomic accumulation?
    pub fn uses_atomics(&self) -> bool {
        self.scheme == Scheme::Atomics
    }

    /// The paper's §4.3 profiler view: DRAM bytes gathered per 64-item
    /// wave, under this scheme's execution-order locality. On the
    /// MI250X the paper reports 3 500 B/wave for atomics, 8 600 for
    /// hierarchical and 39 000 for global colouring — the same ordering
    /// this model produces.
    pub fn bytes_per_wave(&self, line_bytes: f64) -> f64 {
        const WAVE: f64 = 64.0;
        let q = self.scheme_locality();
        let elem = self.precision.bytes();
        let line_elems = (line_bytes / elem).max(1.0);
        // Each gathered element pulls a whole line; locality q makes
        // consecutive gathers share lines.
        let utilisation = q + (1.0 - q) / line_elems;
        let gathered = self.gathered_per_edge + 2.0 * 4.0;
        WAVE * gathered / utilisation.max(1.0 / line_elems)
    }

    /// The execution-order locality each scheme preserves: atomics keep
    /// the mesh ordering; hierarchical keeps it within blocks; global
    /// colouring destroys it (paper §4.3's bytes-per-wave analysis).
    fn scheme_locality(&self) -> f64 {
        match self.scheme {
            Scheme::Atomics => self.stats.locality,
            Scheme::HierColor => 0.15 + 0.65 * self.stats.locality,
            Scheme::GlobalColor => 0.03,
        }
    }

    /// Number of sequential colour passes (launches) the scheme needs.
    fn passes(&self, mesh: Option<&ColoredMesh>) -> usize {
        match self.scheme {
            Scheme::Atomics => 1,
            Scheme::GlobalColor => mesh
                .and_then(|m| m.global.as_ref())
                .map(|g| g.n_colors())
                .unwrap_or(EST_GLOBAL_COLORS),
            Scheme::HierColor => mesh
                .and_then(|m| m.hier.as_ref())
                .map(|h| h.n_colors())
                .unwrap_or(EST_BLOCK_COLORS),
        }
    }

    /// Build the kernel description for one colour pass covering a
    /// `fraction` of the edges.
    fn pass_kernel(&self, fraction: f64) -> Kernel {
        let n_edges = self.stats.n_edges as f64;
        let map_bytes = n_edges * 2.0 * 4.0;
        let fp = KernelFootprint {
            name: self.name.into(),
            items: (n_edges * fraction).round().max(1.0) as u64,
            effective_bytes: (self.direct_bytes + self.indirect_bytes + map_bytes) * fraction,
            flops: self.flops_pp * n_edges * fraction,
            transcendentals: self.transc_pp * n_edges * fraction,
            precision: self.precision,
            access: AccessProfile::Indirect(IndirectProfile {
                from_size: (n_edges * fraction) as usize,
                to_size: self.stats.n_vertices,
                arity: 2.0,
                locality: self.scheme_locality(),
                indirect_bytes_per_item: self.gathered_per_edge + 2.0 * 4.0,
            }),
            atomics: if self.scheme == Scheme::Atomics && self.inc_components_per_edge > 0 {
                Some(AtomicProfile {
                    updates: (n_edges * fraction) as u64 * self.inc_components_per_edge as u64,
                    kind: AtomicKind::NativeFp, // session may downgrade
                })
            } else {
                None
            },
            reductions: 0,
        };
        Kernel::new(fp)
            .with_traits(KernelTraits {
                stride_one_inner: true,
                indirect_writes: true,
                complex_body: true,
                hard_on_neon: false,
            })
            .with_nd_shape([self.block_size, 1, 1])
    }

    /// Price the loop on `session` and execute `body(edge)` functionally
    /// under the scheme's ordering guarantees.
    ///
    /// With `mesh = None`, the loop is priced analytically (colour counts
    /// estimated) and the body is not run — the dry-run path used for
    /// paper-sized problems.
    pub fn run(
        self,
        session: &Session,
        mesh: Option<&ColoredMesh>,
        body: impl Fn(usize) + Send + Sync,
    ) {
        self.emit(&mut { session }, mesh, body);
    }

    /// The loop's one access declaration. Its args are anonymous, so it
    /// is opaque (no dat-level dataflow); the scheme label lets the
    /// dataflow lint name the scheme of a launch with atomic updates and
    /// the verifier pick its footprint tolerance.
    fn launch_meta(&self) -> LaunchMeta {
        LaunchMeta::opaque().with_scheme(scheme_label(self.scheme))
    }

    /// Open the shadow trace for this loop: declaration, builder
    /// defects, and an up-front proof of the colouring plan. A broken
    /// plan reaches the verifier as a `PlanViolation` note.
    fn begin_shadow_loop(&self, sh: &Shadow, colored: &ColoredMesh) {
        sh.begin_loop(LoopDecl {
            kernel: self.name,
            meta: self.launch_meta(),
            flops_pp: self.flops_pp,
            transc_pp: self.transc_pp,
        });
        for d in &self.defects {
            sh.note(shadow::NoteKind::DeclDefect, d.clone());
        }
        let map = &colored.mesh.edges;
        if let Some(g) = &colored.global {
            if let Some((a, b, v)) = g.first_conflict(map) {
                sh.note(
                    shadow::NoteKind::PlanViolation,
                    format!(
                        "global colouring invalid: edges {a} and {b} share colour {} and vertex {v}",
                        g.color[a as usize]
                    ),
                );
            }
        }
        if let Some(h) = &colored.hier {
            if let Some((a, b, v)) = h.first_block_conflict(map) {
                sh.note(
                    shadow::NoteKind::PlanViolation,
                    format!(
                        "hierarchical colouring invalid: blocks {a} and {b} share colour {} and vertex {v}",
                        h.block_color[a as usize]
                    ),
                );
            } else if let Some((a, b, v)) = h.first_intra_conflict(map) {
                sh.note(
                    shadow::NoteKind::PlanViolation,
                    format!(
                        "hierarchical intra-block colouring invalid: edges {a} and {b} share colour {} and vertex {v}",
                        h.intra_colors(map)[a as usize]
                    ),
                );
            }
        }
    }

    /// Record this loop into a launch graph instead of launching it
    /// ([`EdgeLoop::run`]). The colour structure is captured at record
    /// time — re-record if the mesh or its colouring changes.
    pub fn record<'a>(
        self,
        g: &mut GraphBuilder<'a>,
        mesh: Option<&'a ColoredMesh>,
        body: impl Fn(usize) + Send + Sync + 'a,
    ) {
        self.emit(g, mesh, body);
    }

    /// The one launch path of an edge loop: one launch per colour pass
    /// (a single one under atomics). The shadow bracket opens in the
    /// first pass and closes in the last; every later pass starts a new
    /// shadow phase, because units of different colour groups may
    /// overlap — serialising the groups is the point of the scheme.
    fn emit<'a>(
        self,
        to: &mut impl LaunchTarget<'a>,
        mesh: Option<&'a ColoredMesh>,
        body: impl Fn(usize) + Send + Sync + 'a,
    ) {
        let passes = self.passes(mesh);
        let kernel = self.pass_kernel(1.0 / passes as f64);
        let lp = Arc::new(self);
        let body = Arc::new(body);
        for pass in 0..passes {
            let meta = lp.launch_meta();
            let lp = Arc::clone(&lp);
            let body = Arc::clone(&body);
            to.launch_node(kernel.clone(), meta, move |executes| {
                let Some(colored) = mesh.filter(|_| executes) else {
                    return;
                };
                let sh = shadow::current();
                if let Some(sh) = &sh {
                    if pass == 0 {
                        lp.begin_shadow_loop(sh, colored);
                    } else {
                        sh.next_phase();
                    }
                }
                lp.run_pass(colored, pass, sh.as_ref(), &*body);
                if let Some(sh) = sh.filter(|_| pass == passes - 1) {
                    sh.end_loop();
                }
            });
        }
    }

    /// Run `body` over the `n` edges `edge(0..n)`, in that order, while
    /// prefetching the bound vertex rows of the edge
    /// `prefetch::DISTANCE` places ahead. The prefetch only warms the
    /// cache, so results are those of the bare loop.
    #[inline(always)]
    fn sweep(
        &self,
        map: &Map,
        n: usize,
        edge: impl Fn(usize) -> usize,
        body: &(impl Fn(usize) + Sync),
    ) {
        for i in 0..n {
            if !self.prefetch.is_empty() && i + prefetch::DISTANCE < n {
                let ahead = map.row(edge(i + prefetch::DISTANCE));
                for p in &self.prefetch {
                    for &v in ahead {
                        p.row(v as usize);
                    }
                }
            }
            body(edge(i));
        }
    }

    /// Execute colour pass `pass` of the scheme over `colored`, each
    /// unit recording into `sh` when the launch is shadowed.
    fn run_pass(
        &self,
        colored: &ColoredMesh,
        pass: usize,
        sh: Option<&Arc<Shadow>>,
        body: &(impl Fn(usize) + Sync),
    ) {
        let map = &colored.mesh.edges;
        match self.scheme {
            Scheme::Atomics => {
                global_pool().for_range(colored.mesh.n_edges(), EXEC_CHUNK, |lo, hi| {
                    shadow::unit(sh, || self.sweep(map, hi - lo, |i| lo + i, body));
                });
            }
            Scheme::GlobalColor => {
                let coloring = colored
                    .global
                    .as_ref()
                    .expect("ColoredMesh::prepare builds the global colouring");
                let group = &coloring.by_color[pass];
                global_pool().for_range(group.len(), EXEC_CHUNK, |lo, hi| {
                    let edges = &group[lo..hi];
                    shadow::unit(sh, || {
                        self.sweep(map, edges.len(), |i| edges[i] as usize, body)
                    });
                });
            }
            Scheme::HierColor => {
                let hier = colored
                    .hier
                    .as_ref()
                    .expect("ColoredMesh::prepare builds the hierarchical colouring");
                let n_edges = colored.mesh.n_edges();
                let group = &hier.blocks_by_color[pass];
                global_pool().run_region(group.len(), |_lane, gi| {
                    let (lo, hi) = hier.block_range(group[gi] as usize, n_edges);
                    // A block runs on one lane, its edges in index order;
                    // the intra-block colours are only computed to be
                    // checked (by `first_intra_conflict`), never used to
                    // order them.
                    shadow::unit(sh, || self.sweep(map, hi - lo, |i| lo + i, body));
                });
            }
        }
    }
}

/// A mesh together with the colourings the schemes need.
///
/// Under global colouring, [`ColoredMesh::prepare`] renumbers the
/// mesh's edges colour-major ([`GlobalColoring::build_color_major`]), so
/// a global plan's edge ids are in plan order, not the input's: a body
/// must reach an edge's vertices through `mesh.edges`, as MG-CFD's
/// does, and an edge-indexed dat must follow the same numbering. The
/// vertices keep their numbers, and every scheme's results keep their
/// bits.
#[derive(Debug, Clone)]
pub struct ColoredMesh {
    pub mesh: Mesh,
    pub global: Option<GlobalColoring>,
    pub hier: Option<HierColoring>,
}

impl ColoredMesh {
    /// Build the colourings needed by `scheme`.
    pub fn prepare(mut mesh: Mesh, scheme: Scheme, block_size: usize) -> ColoredMesh {
        let global = (scheme == Scheme::GlobalColor)
            .then(|| GlobalColoring::build_color_major(&mut mesh.edges));
        let hier =
            (scheme == Scheme::HierColor).then(|| HierColoring::build(&mesh.edges, block_size));
        ColoredMesh { mesh, global, hier }
    }
}

/// A direct loop over a set (vertex updates, residuals, reductions).
#[derive(Debug, Clone)]
pub struct VertexLoop {
    name: &'static str,
    set_size: usize,
    precision: Precision,
    bytes: f64,
    flops_pp: f64,
    transc_pp: f64,
    defects: Vec<String>,
}

impl VertexLoop {
    /// Start a direct loop over `set_size` elements.
    pub fn new(name: &'static str, set_size: usize, precision: Precision) -> Self {
        VertexLoop {
            name,
            set_size,
            precision,
            bytes: 0.0,
            flops_pp: 0.0,
            transc_pp: 0.0,
            defects: Vec::new(),
        }
    }

    /// As [`EdgeLoop`]: saturate a zero-dim arg and record the defect.
    fn check_dim(&mut self, dim: usize, what: &str) -> usize {
        if dim == 0 {
            self.defects
                .push(format!("{}: {what}(0) declares no components; saturated to 1 so the footprint is not silently zero", self.name));
            1
        } else {
            dim
        }
    }

    /// A `dim`-component dataset read or written once.
    pub fn arg(mut self, dim: usize) -> Self {
        let dim = self.check_dim(dim, "arg");
        self.bytes += self.set_size as f64 * dim as f64 * self.precision.bytes();
        self
    }

    /// A `dim`-component read-write dataset (counted twice).
    pub fn arg_rw(mut self, dim: usize) -> Self {
        let dim = self.check_dim(dim, "arg_rw");
        self.bytes += 2.0 * self.set_size as f64 * dim as f64 * self.precision.bytes();
        self
    }

    /// Declaration defects the builder saturated over.
    pub fn defects(&self) -> &[String] {
        &self.defects
    }

    /// FLOPs per element.
    pub fn flops(mut self, per_elem: f64) -> Self {
        self.flops_pp = per_elem;
        self
    }

    /// Transcendentals per element.
    pub fn transcendentals(mut self, per_elem: f64) -> Self {
        self.transc_pp = per_elem;
        self
    }

    fn kernel(&self, reductions: usize) -> Kernel {
        Kernel::new(KernelFootprint {
            name: self.name.into(),
            items: self.set_size as u64,
            effective_bytes: self.bytes,
            flops: self.flops_pp * self.set_size as f64,
            transcendentals: self.transc_pp * self.set_size as f64,
            precision: self.precision,
            access: AccessProfile::Streamed,
            atomics: None,
            reductions,
        })
    }

    /// Price and run the loop body over element chunks.
    pub fn run(self, session: &Session, body: impl Fn(usize, usize) + Sync) {
        self.emit(&mut { session }, body);
    }

    /// Price and run with a deterministic tree reduction.
    pub fn run_reduce<A>(
        self,
        session: &Session,
        identity: A,
        combine: impl Fn(A, A) -> A + Sync,
        body: impl Fn(usize, usize) -> A + Sync,
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

    /// Record this loop into a launch graph ([`VertexLoop::run`]).
    pub fn record<'a>(self, g: &mut GraphBuilder<'a>, body: impl Fn(usize, usize) + Sync + 'a) {
        self.emit(g, body);
    }

    /// Record a reducing loop into a launch graph
    /// ([`VertexLoop::run_reduce`]). The reduction result is delivered to
    /// `sink` on every replay (the identity when the session does not
    /// execute, exactly as the eager path returns it).
    pub fn record_reduce<'a, A>(
        self,
        g: &mut GraphBuilder<'a>,
        identity: A,
        combine: impl Fn(A, A) -> A + Sync + 'a,
        body: impl Fn(usize, usize) -> A + Sync + 'a,
        sink: impl Fn(A) + Sync + 'a,
    ) where
        A: Send + Sync + Clone + 'a,
    {
        self.emit_reduce(g, identity, combine, body, sink);
    }

    /// The one launch path of a plain direct loop: `body` over
    /// `EXEC_CHUNK`-sized element ranges.
    fn emit<'a>(self, to: &mut impl LaunchTarget<'a>, body: impl Fn(usize, usize) + Sync + 'a) {
        let kernel = self.kernel(0);
        to.launch_node(kernel, LaunchMeta::opaque(), move |executes| {
            shadow::bracket(
                executes,
                |sh| self.begin_shadow_loop(sh),
                |sh| {
                    if executes {
                        global_pool().for_range(self.set_size, EXEC_CHUNK, |lo, hi| {
                            shadow::unit(sh, || body(lo, hi));
                        });
                    }
                },
            );
        });
    }

    /// The one launch path of a reducing direct loop: fold each
    /// `EXEC_CHUNK` range into a partial, combine the partials in the
    /// pool's fixed tree, and hand the result (the identity when nothing
    /// executes) to `sink`.
    fn emit_reduce<'a, A>(
        self,
        to: &mut impl LaunchTarget<'a>,
        identity: A,
        combine: impl Fn(A, A) -> A + Sync + 'a,
        body: impl Fn(usize, usize) -> A + Sync + 'a,
        sink: impl Fn(A) + Sync + 'a,
    ) where
        A: Send + Sync + Clone + 'a,
    {
        let kernel = self.kernel(1);
        let bytes = kernel.footprint.effective_bytes;
        to.launch_node(kernel, LaunchMeta::opaque(), move |executes| {
            shadow::bracket(
                executes,
                |sh| self.begin_shadow_loop(sh),
                |sh| {
                    let n = self.set_size;
                    let out = if executes {
                        let chunks = n.div_ceil(EXEC_CHUNK);
                        telemetry::reduce_span(self.name, chunks, bytes, || {
                            global_pool().reduce(n, EXEC_CHUNK, identity.clone(), &combine, |r| {
                                shadow::unit(sh, || body(r.start, r.end))
                            })
                        })
                    } else {
                        identity.clone()
                    };
                    sink(out);
                },
            );
        });
    }

    /// Open the shadow trace for this loop: declaration and builder
    /// defects. A direct loop declares no dat, so its metadata is opaque.
    fn begin_shadow_loop(&self, sh: &Shadow) {
        sh.begin_loop(LoopDecl {
            kernel: self.name,
            meta: LaunchMeta::opaque(),
            flops_pp: self.flops_pp,
            transc_pp: self.transc_pp,
        });
        for d in &self.defects {
            sh.note(shadow::NoteKind::DeclDefect, d.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dat::DatU;
    use crate::mesh::Ordering;
    use sycl_sim::{PlatformId, SessionConfig, Toolchain};

    fn session() -> Session {
        Session::create(SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app("op2-test"))
            .unwrap()
    }

    /// Run the canonical "scatter 1 to both endpoints" kernel under a
    /// scheme and return the per-vertex counts (= vertex degrees).
    fn degree_under(scheme: Scheme) -> Vec<f64> {
        let s = session();
        let mesh = Mesh::grid(8, 8, 4, Ordering::Natural);
        let n_v = mesh.n_vertices;
        let stats = mesh.stats();
        let colored = ColoredMesh::prepare(mesh, scheme, 64);
        let mut deg = DatU::<f64>::zeroed("deg", n_v, 1);
        let lp = EdgeLoop::new("degree", stats, scheme, Precision::F64)
            .vertex_inc(1)
            .flops(2.0)
            .block_size(64);
        let acc = deg.accum(lp.uses_atomics());
        let edges = colored.mesh.edges.clone();
        lp.run(&s, Some(&colored), |e| {
            acc.add(edges.at(e, 0), 0, 1.0);
            acc.add(edges.at(e, 1), 0, 1.0);
        });
        deg.host().to_vec()
    }

    #[test]
    fn all_three_schemes_compute_identical_degrees() {
        let a = degree_under(Scheme::Atomics);
        let g = degree_under(Scheme::GlobalColor);
        let h = degree_under(Scheme::HierColor);
        assert_eq!(a, g, "atomics vs global colouring");
        assert_eq!(g, h, "global vs hierarchical colouring");
        // Spot-check: an interior vertex of an 8×8×4 grid has degree 6.
        let total: f64 = a.iter().sum();
        let mesh = Mesh::grid(8, 8, 4, Ordering::Natural);
        assert_eq!(total, 2.0 * mesh.n_edges() as f64);
    }

    #[test]
    fn colouring_schemes_issue_multiple_passes() {
        let s = session();
        let mesh = Mesh::grid(8, 8, 4, Ordering::Natural);
        let stats = mesh.stats();
        let colored = ColoredMesh::prepare(mesh, Scheme::GlobalColor, 64);
        EdgeLoop::new("nop", stats, Scheme::GlobalColor, Precision::F64)
            .vertex_inc(1)
            .run(&s, Some(&colored), |_| {});
        assert!(
            s.records().len() >= 2,
            "global colouring runs one launch per colour"
        );
    }

    #[test]
    fn atomics_scheme_reports_atomic_updates() {
        let stats = MeshStats {
            n_vertices: 1000,
            n_edges: 3000,
            locality: 0.9,
        };
        let k = EdgeLoop::new("flux", stats, Scheme::Atomics, Precision::F64)
            .vertex_inc(5)
            .pass_kernel(1.0);
        let atomics = k.footprint.atomics.expect("atomics profile");
        assert_eq!(atomics.updates, 3000 * 10);
        let k = EdgeLoop::new("flux", stats, Scheme::HierColor, Precision::F64)
            .vertex_inc(5)
            .pass_kernel(0.25);
        assert!(k.footprint.atomics.is_none());
    }

    #[test]
    fn effective_bytes_include_map_tables() {
        let stats = MeshStats {
            n_vertices: 100,
            n_edges: 300,
            locality: 1.0,
        };
        let k = EdgeLoop::new("k", stats, Scheme::Atomics, Precision::F64)
            .edge_read(1)
            .vertex_read(2)
            .vertex_inc(1)
            .pass_kernel(1.0);
        // edges 300*8 + vertices read 100*2*8 + inc 2*100*8 + map 300*2*4.
        let expect = 300.0 * 8.0 + 1600.0 + 1600.0 + 2400.0;
        assert!((k.footprint.effective_bytes - expect).abs() < 1e-9);
    }

    #[test]
    fn bytes_per_wave_reproduces_the_papers_profiler_ordering() {
        // §4.3 on the MI250X (64-byte lines): atomics 3 500 B/wave,
        // hierarchical 8 600, global colouring 39 000.
        let stats = MeshStats::rotor37();
        let bpw = |s: Scheme| {
            EdgeLoop::new("flux", stats, s, Precision::F64)
                .vertex_read(5)
                .vertex_inc(5)
                .bytes_per_wave(64.0)
        };
        let atomics = bpw(Scheme::Atomics);
        let hier = bpw(Scheme::HierColor);
        let global = bpw(Scheme::GlobalColor);
        assert!(atomics < hier && hier < global, "{atomics} {hier} {global}");
        // Within a factor ~2 of the paper's measured values.
        assert!((5_000.0..25_000.0).contains(&atomics), "atomics {atomics}");
        assert!((10_000.0..40_000.0).contains(&hier), "hier {hier}");
        assert!((39_000.0..160_000.0).contains(&global), "global {global}");
        // And the global/atomics ratio matches the paper's ~11x within 2x.
        let ratio = global / atomics;
        assert!((4.0..22.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn scheme_locality_ordering_matches_the_papers_profile() {
        let stats = MeshStats {
            n_vertices: 100,
            n_edges: 300,
            locality: 0.9,
        };
        let loc = |s: Scheme| EdgeLoop::new("k", stats, s, Precision::F64).scheme_locality();
        // §4.3 bytes/wave: atomics 3500 (best), hier 8600, global 39000.
        assert!(loc(Scheme::Atomics) > loc(Scheme::HierColor));
        assert!(loc(Scheme::HierColor) > loc(Scheme::GlobalColor));
    }

    #[test]
    fn zero_dim_args_saturate_and_record_a_defect() {
        let stats = MeshStats {
            n_vertices: 100,
            n_edges: 300,
            locality: 1.0,
        };
        let el = EdgeLoop::new("flux", stats, Scheme::Atomics, Precision::F64).vertex_read(0);
        assert_eq!(el.defects().len(), 1);
        assert!(
            el.defects()[0].contains("vertex_read(0)"),
            "{:?}",
            el.defects()
        );
        // Saturated to one component, so the footprint is not zero.
        let k = el.pass_kernel(1.0);
        assert!(k.footprint.effective_bytes > 300.0 * 2.0 * 4.0);

        let vl = VertexLoop::new("update", 100, Precision::F64).arg_rw(0);
        assert_eq!(vl.defects().len(), 1);
        assert!(vl.defects()[0].contains("arg_rw(0)"), "{:?}", vl.defects());
    }

    #[test]
    fn dry_run_prices_without_executing() {
        let s = Session::create(
            SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda)
                .app("op2-dry")
                .dry_run(),
        )
        .unwrap();
        let stats = MeshStats::rotor37();
        let hit = std::sync::atomic::AtomicUsize::new(0);
        EdgeLoop::new("flux", stats, Scheme::Atomics, Precision::F64)
            .vertex_inc(5)
            .flops(100.0)
            .run(&s, None, |_| {
                hit.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
        assert_eq!(hit.load(std::sync::atomic::Ordering::Relaxed), 0);
        assert!(s.elapsed() > 0.0);
    }

    #[test]
    fn recorded_edge_loops_replay_bit_identically_under_every_scheme() {
        for scheme in [Scheme::Atomics, Scheme::GlobalColor, Scheme::HierColor] {
            let run_once = |s: &Session, colored: &ColoredMesh, deg: &mut DatU<f64>| {
                let lp = EdgeLoop::new("degree", colored.mesh.stats(), scheme, Precision::F64)
                    .vertex_inc(1)
                    .flops(2.0)
                    .block_size(64);
                let acc = deg.accum(lp.uses_atomics());
                let edges = &colored.mesh.edges;
                lp.run(s, Some(colored), |e| {
                    acc.add(edges.at(e, 0), 0, 1.0);
                    acc.add(edges.at(e, 1), 0, 1.0);
                });
            };

            let mesh = Mesh::grid(6, 6, 3, Ordering::Natural);
            let n_v = mesh.n_vertices;
            let colored = ColoredMesh::prepare(mesh, scheme, 64);

            let eager = session();
            let mut deg_e = DatU::<f64>::zeroed("deg", n_v, 1);
            for _ in 0..3 {
                run_once(&eager, &colored, &mut deg_e);
            }

            let replayed = session();
            let mut deg_r = DatU::<f64>::zeroed("deg", n_v, 1);
            let lp = EdgeLoop::new("degree", colored.mesh.stats(), scheme, Precision::F64)
                .vertex_inc(1)
                .flops(2.0)
                .block_size(64);
            let acc = deg_r.accum(lp.uses_atomics());
            let edges = &colored.mesh.edges;
            let mut g = replayed.record();
            lp.record(&mut g, Some(&colored), |e| {
                acc.add(edges.at(e, 0), 0, 1.0);
                acc.add(edges.at(e, 1), 0, 1.0);
            });
            let graph = g.finish();
            for _ in 0..3 {
                graph.replay(&replayed);
            }
            drop(graph);

            assert_eq!(
                eager.ledger_digest(),
                replayed.ledger_digest(),
                "scheme {scheme:?}: eager and replayed ledgers must be bit-identical"
            );
            assert_eq!(deg_e.host(), deg_r.host(), "scheme {scheme:?}: results");
        }

        // VertexLoop reductions: a set that is not a whole number of
        // EXEC_CHUNKs, summing terms of wildly different magnitude so
        // any change to the chunk bounds or the combine tree moves the
        // result bits. The expected bits were pinned before the reduce
        // path moved onto `ThreadPool::reduce`.
        const SUM_BITS: u64 = 4684241087396534068;
        const LEDGER_DIGEST: u64 = 17590446541298910997;
        let n = 3 * EXEC_CHUNK + 517;
        let mut q = DatU::<f64>::zeroed("q", n, 1);
        q.fill_with(|e, _| ((e * 37 % 101) as f64 * 0.731).sin() * 10f64.powi((e % 9) as i32 - 4));
        let r = q.reader();
        let sum_loop = || VertexLoop::new("norm", n, Precision::F64).arg(1).flops(1.0);
        let chunk_sum = |lo: usize, hi: usize| (lo..hi).map(|e| r.at(e, 0)).sum::<f64>();
        let sequential = (0..n).map(|e| r.at(e, 0)).sum::<f64>();

        let eager = session();
        let eager_bits: Vec<u64> = (0..3)
            .map(|_| {
                sum_loop()
                    .run_reduce(&eager, 0.0, |a, b| a + b, chunk_sum)
                    .to_bits()
            })
            .collect();

        let replayed = session();
        let cell = std::sync::atomic::AtomicU64::new(u64::MAX);
        let mut g = replayed.record();
        sum_loop().record_reduce(
            &mut g,
            0.0,
            |a, b| a + b,
            chunk_sum,
            |v: f64| cell.store(v.to_bits(), std::sync::atomic::Ordering::Relaxed),
        );
        let graph = g.finish();
        let replay_bits: Vec<u64> = (0..3)
            .map(|_| {
                graph.replay(&replayed);
                cell.load(std::sync::atomic::Ordering::Relaxed)
            })
            .collect();
        drop(graph);

        assert_eq!(eager_bits, replay_bits, "vertex reduce: results");
        assert_ne!(
            eager_bits[0],
            sequential.to_bits(),
            "the data must make the combine order visible"
        );
        assert_eq!(eager_bits[0], SUM_BITS, "vertex reduce: pinned result bits");
        assert_eq!(eager.ledger_digest(), replayed.ledger_digest());
        assert_eq!(
            eager.ledger_digest(),
            LEDGER_DIGEST,
            "vertex reduce: pinned ledger"
        );

        // Dry run: neither path runs the body, both hand back the identity.
        let dry = || {
            Session::create(
                SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda)
                    .app("op2-test")
                    .dry_run(),
            )
            .unwrap()
        };
        let identity = -0.0f64;
        let dry_eager = dry();
        let got = sum_loop().run_reduce(&dry_eager, identity, |a, b| a + b, chunk_sum);
        assert_eq!(
            got.to_bits(),
            identity.to_bits(),
            "dry run returns the identity"
        );
        let dry_replayed = dry();
        let mut g = dry_replayed.record();
        sum_loop().record_reduce(
            &mut g,
            identity,
            |a, b| a + b,
            chunk_sum,
            |v: f64| cell.store(v.to_bits(), std::sync::atomic::Ordering::Relaxed),
        );
        g.finish().replay(&dry_replayed);
        assert_eq!(
            cell.load(std::sync::atomic::Ordering::Relaxed),
            identity.to_bits()
        );
        assert_eq!(dry_eager.ledger_digest(), dry_replayed.ledger_digest());
    }

    /// How a test flux names its vertex args.
    #[derive(Clone, Copy, PartialEq)]
    enum Bind {
        Dims,
        Views,
        /// A read view one vertex short (the body reads the right data).
        WrongLength,
    }

    /// Run a 5-component flux over `colored` and return the residual
    /// bits, the ledger digest and the loop's declaration defects.
    /// `integer` picks small integer fluxes, whose sums no order can
    /// change; otherwise the flux mixes magnitudes so the order of the
    /// increments shows in the bits.
    fn flux_under(
        colored: &ColoredMesh,
        scheme: Scheme,
        block: usize,
        bind: Bind,
        integer: bool,
    ) -> (Vec<u64>, u64, Vec<String>) {
        const N: usize = 5;
        let n_v = colored.mesh.n_vertices;
        let mut q = DatU::<f64>::zeroed("q", n_v, N);
        q.fill_with(|e, c| (1.0 + (e * 7 + c) as f64).ln() * 10f64.powi((e % 5) as i32 - 2));
        let short = DatU::<f64>::zeroed("short", n_v - 1, N);
        let mut res = DatU::<f64>::zeroed("res", n_v, N);
        let qr = q.reader();
        let acc = res.accum(scheme == Scheme::Atomics);
        let lp = EdgeLoop::new("flux", colored.mesh.stats(), scheme, Precision::F64)
            .flops(4.0 * N as f64)
            .block_size(block);
        let lp = match bind {
            Bind::Dims => lp.vertex_read(N).vertex_inc(N),
            Bind::Views => lp.vertex_read(qr).vertex_inc(acc),
            Bind::WrongLength => lp.vertex_read(short.reader()).vertex_inc(N),
        };
        let defects = lp.defects().to_vec();
        let bound = if bind == Bind::Views { 2 } else { 0 };
        assert_eq!(lp.prefetch.len(), bound, "prefetched args");
        let s = session();
        let edges = &colored.mesh.edges;
        lp.run(&s, Some(colored), |e| {
            let (a, b) = (edges.at(e, 0), edges.at(e, 1));
            for v in 0..N {
                let f = if integer {
                    ((a + 3 * b + v) % 7) as f64 - 3.0
                } else {
                    let (l, r) = (qr.at(a, v), qr.at(b, v));
                    0.5 * (l + r) * (l - r).sin() - 0.3 * (r - l)
                };
                acc.add(a, v, -f);
                acc.add(b, v, f);
            }
        });
        let bits = res.host().iter().map(|x| x.to_bits()).collect();
        (bits, s.ledger_digest(), defects)
    }

    #[test]
    fn prefetching_bound_views_changes_no_result() {
        // Shuffled numbering and several EXEC_CHUNKs of edges, so the
        // prefetch window crosses chunk, colour-group and block ends.
        let mesh = Mesh::grid(24, 24, 12, Ordering::Shuffled(5));
        assert!(mesh.n_edges() > 8 * EXEC_CHUNK);
        let global = ColoredMesh::prepare(mesh.clone(), Scheme::GlobalColor, 64);
        let global_dims = flux_under(&global, Scheme::GlobalColor, 64, Bind::Dims, false);
        let views = flux_under(&global, Scheme::GlobalColor, 64, Bind::Views, false);
        assert!(global_dims.2.is_empty() && views.2.is_empty());
        assert_eq!(global_dims, views, "global colouring");

        for block in [64, 256] {
            let hier = ColoredMesh::prepare(mesh.clone(), Scheme::HierColor, block);
            assert!(hier.hier.as_ref().unwrap().n_colors() > 1);
            let dims = flux_under(&hier, Scheme::HierColor, block, Bind::Dims, false);
            let views = flux_under(&hier, Scheme::HierColor, block, Bind::Views, false);
            assert_eq!(dims, views, "hierarchical colouring, block {block}");
            assert_ne!(
                dims.0, global_dims.0,
                "the flux must make the increment order visible"
            );
        }

        // Atomics reorder increments from run to run, so compare a
        // kernel whose sums are exact.
        let atomics = ColoredMesh::prepare(mesh, Scheme::Atomics, 64);
        let dims = flux_under(&atomics, Scheme::Atomics, 64, Bind::Dims, true);
        let views = flux_under(&atomics, Scheme::Atomics, 64, Bind::Views, true);
        assert_eq!(dims, views, "atomics");

        // A view of the wrong length is one defect, is not prefetched,
        // and leaves the loop computing and pricing as the dim-only one.
        let (bits, digest, defects) =
            flux_under(&global, Scheme::GlobalColor, 64, Bind::WrongLength, false);
        assert_eq!(defects.len(), 1, "{defects:?}");
        assert!(defects[0].contains("vertex_read binds"), "{defects:?}");
        assert_eq!((bits, digest), (global_dims.0, global_dims.1));
    }

    /// `ColoredMesh::prepare` renumbers a global plan's edges
    /// colour-major; a loop over it computes what the same colouring
    /// computes over the input's numbering, bit for bit.
    #[test]
    fn a_colour_major_plan_keeps_the_input_numberings_bits() {
        let mesh = Mesh::grid(24, 24, 12, Ordering::Shuffled(5));
        let original = ColoredMesh {
            global: Some(GlobalColoring::build(&mesh.edges)),
            hier: None,
            mesh: mesh.clone(),
        };
        let plan = ColoredMesh::prepare(mesh.clone(), Scheme::GlobalColor, 64);
        let global = plan.global.as_ref().unwrap();
        let edges = &plan.mesh.edges;

        // Each colour's edges form one contiguous ascending run.
        let mut next = 0;
        for group in &global.by_color {
            assert!(group.len() > 1);
            assert_eq!(
                group,
                &(next..next + group.len() as u32).collect::<Vec<_>>()
            );
            next += group.len() as u32;
        }
        assert_eq!(next as usize, mesh.n_edges());
        // The table's rows are the input's, permuted.
        fn rows(m: &Map) -> Vec<&[u32]> {
            let mut rows: Vec<&[u32]> = (0..m.from_size()).map(|e| m.row(e)).collect();
            rows.sort_unstable();
            rows
        }
        assert_eq!(rows(edges), rows(&mesh.edges));
        let moved = (0..mesh.n_edges()).filter(|&e| edges.row(e) != mesh.edges.row(e));
        assert!(moved.count() > mesh.n_edges() / 2, "the edges moved");
        assert_eq!(global.first_conflict(edges), None);
        // Same increments in the same order per vertex: same bits, and
        // the same prices.
        assert_eq!(
            flux_under(&plan, Scheme::GlobalColor, 64, Bind::Views, false),
            flux_under(&original, Scheme::GlobalColor, 64, Bind::Views, false),
        );
    }

    #[test]
    fn dry_graphs_drop_edge_and_vertex_bodies_but_feed_reduce_sinks() {
        use std::sync::atomic::{AtomicU64, Ordering as Mem};

        let dry = Session::create(
            SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda)
                .app("op2-dry")
                .dry_run(),
        )
        .unwrap();
        let schemes = [Scheme::Atomics, Scheme::GlobalColor, Scheme::HierColor];
        let meshes: Vec<ColoredMesh> = schemes
            .iter()
            .map(|&s| ColoredMesh::prepare(Mesh::grid(6, 6, 3, Ordering::Natural), s, 64))
            .collect();
        let n = meshes[0].mesh.n_vertices;
        let token = Arc::new(());
        let sum = AtomicU64::new(0);
        let mut g = dry.record();
        for (&scheme, colored) in schemes.iter().zip(&meshes) {
            let held = Arc::clone(&token);
            EdgeLoop::new("degree", colored.mesh.stats(), scheme, Precision::F64)
                .vertex_inc(1)
                .block_size(64)
                .record(&mut g, Some(colored), move |_| {
                    let _ = &held;
                    unreachable!("a dry replay never calls an edge body");
                });
        }
        let held = Arc::clone(&token);
        VertexLoop::new("scale", n, Precision::F64)
            .arg(1)
            .record(&mut g, move |_, _| {
                let _ = &held;
                unreachable!("a dry replay never calls a plain body");
            });
        assert_eq!(Arc::strong_count(&token), 1, "dropped at record time");
        VertexLoop::new("norm", n, Precision::F64)
            .arg(1)
            .record_reduce(
                &mut g,
                -0.0f64,
                |a, b| a + b,
                |_, _| unreachable!("a dry replay folds nothing"),
                |v: f64| sum.store(v.to_bits(), Mem::Relaxed),
            );
        let g = g.finish();
        assert!(
            g.n_launches() > 5,
            "colouring schemes record a launch per pass"
        );
        for _ in 0..2 {
            sum.store(u64::MAX, Mem::Relaxed);
            g.replay(&dry);
            assert_eq!(sum.load(Mem::Relaxed), (-0.0f64).to_bits());
        }
        assert_eq!(dry.records().len() as u64, 2 * g.n_launches());
    }

    #[test]
    fn vertex_loop_runs_and_reduces() {
        let s = session();
        let mut q = DatU::<f64>::zeroed("q", 1000, 1);
        q.fill_with(|e, _| e as f64);
        let r = q.reader();
        let sum = VertexLoop::new("norm", 1000, Precision::F64)
            .arg(1)
            .flops(1.0)
            .run_reduce(
                &s,
                0.0,
                |a, b| a + b,
                |lo, hi| (lo..hi).map(|e| r.at(e, 0)).sum::<f64>(),
            );
        assert_eq!(sum, 999.0 * 1000.0 / 2.0);

        let mut out = DatU::<f64>::zeroed("out", 1000, 1);
        let w = out.writer();
        VertexLoop::new("scale", 1000, Precision::F64)
            .arg(1)
            .arg(1)
            .run(&s, |lo, hi| {
                for e in lo..hi {
                    w.set(e, 0, 2.0 * r.at(e, 0));
                }
            });
        assert_eq!(out.at(10, 0), 20.0);
    }
}
