//! MG-CFD — unstructured-mesh finite-volume Euler solver with multigrid
//! (the Rolls-Royce Hydra proxy), NASA Rotor37 case, f64, 25 iterations.
//!
//! The computational core is an edge-based flux loop that gathers the
//! 5-component flow state of both endpoint vertices, computes a Rusanov
//! flux, and *indirectly increments* both endpoints' residuals — the
//! racy pattern the paper's three schemes (atomics / global colouring /
//! hierarchical colouring) resolve. Direct vertex loops apply the update
//! and compute the residual norm; restriction/prolongation sweeps move
//! the state across the multigrid hierarchy.

use crate::common::{summarise, App, AppRun};
use op2_dsl::parloop::ColoredMesh;
use op2_dsl::prelude::*;
use op2_dsl::{Accum, DatU, UWriteView};
use sycl_sim::{quirks::apps, Precision, Scheme, Session};

const N_VARS: usize = 5;

/// An MG-CFD instance.
#[derive(Debug, Clone)]
pub struct Mgcfd {
    /// Finest-level mesh stats of the analytic hierarchy; read only
    /// when `grid` is `None`.
    pub finest: MeshStats,
    /// Grid dims of the finest mesh. When set, every run, dry or live,
    /// builds and colours the real hierarchy and prices it; when `None`,
    /// the run is priced from `finest` and cannot execute.
    pub grid: Option<(usize, usize, usize)>,
    pub levels: usize,
    pub iterations: usize,
    pub ordering: Ordering,
}

impl Mgcfd {
    /// Paper configuration: Rotor37-like, 8M vertices, 4 levels, 25 it.
    pub fn paper() -> Self {
        Mgcfd {
            finest: MeshStats::rotor37(),
            grid: None,
            levels: 4,
            iterations: 25,
            ordering: Ordering::Natural,
        }
    }

    /// Reduced functional configuration.
    pub fn test() -> Self {
        Mgcfd {
            finest: MeshStats {
                n_vertices: 0, // unread: `grid` is set
                n_edges: 0,
                locality: 0.0,
            },
            grid: Some((12, 12, 8)),
            levels: 3,
            iterations: 3,
            ordering: Ordering::Natural,
        }
    }

    /// Hierarchical block size: the paper tuned 256 on GPUs, 4096 on
    /// CPUs.
    fn block_size(session: &Session) -> usize {
        if session.config().platform.is_gpu() {
            256
        } else {
            4096
        }
    }

    /// Scheme from the session config (default: atomics).
    fn scheme(session: &Session) -> Scheme {
        session.config().scheme.unwrap_or(Scheme::Atomics)
    }
}

/// Rusanov-style numerical flux for one edge; antisymmetric by
/// construction so residuals are conservative.
#[inline]
fn rusanov(ql: &[f64; N_VARS], qr: &[f64; N_VARS], out: &mut [f64; N_VARS]) {
    let ul = ql[1] / ql[0].max(1e-12);
    let ur = qr[1] / qr[0].max(1e-12);
    let un = 0.5 * (ul + ur);
    let smax = un.abs() + 0.3;
    for v in 0..N_VARS {
        out[v] = 0.5 * un * (ql[v] + qr[v]) - 0.5 * smax * (qr[v] - ql[v]);
    }
}

/// The Rusanov edge body of the flux loop: gather both endpoints' flow
/// states from `q` and add the flux into `acc`, minus at the first
/// endpoint and plus at the second. Always inlined, as `Accum::add_row`
/// is: the edge loop's sweep runs it in place, as its hottest code.
#[inline(always)]
fn flux_edge(edges: &Map, q: UWriteView<'_, f64>, acc: Accum<'_, f64>, e: usize) {
    let a = edges.at(e, 0);
    let b = edges.at(e, 1);
    let ql = q.row::<N_VARS>(a);
    let qb = q.row::<N_VARS>(b);
    let mut f = [0.0; N_VARS];
    rusanov(&ql, &qb, &mut f);
    acc.add_row(a, &f.map(|x| -x));
    acc.add_row(b, &f);
}

/// The flux loop's declaration over a level of `stats`; its views are
/// bound where the level has a mesh to run on.
fn flux_loop(stats: MeshStats, scheme: Scheme, block: usize) -> EdgeLoop {
    EdgeLoop::new("compute_flux", stats, scheme, Precision::F64)
        .flops(110.0)
        .transcendentals(1.0)
        .block_size(block)
}

/// One multigrid level's state.
struct Level {
    stats: MeshStats,
    colored: Option<ColoredMesh>,
    q: DatU<f64>,
    res: DatU<f64>,
}

impl App for Mgcfd {
    fn name(&self) -> &'static str {
        apps::MGCFD
    }

    fn nd_shape(&self) -> [usize; 3] {
        [256, 1, 1]
    }

    fn run(&self, session: &Session) -> AppRun {
        let _span = crate::common::app_span(self.name());
        let scheme = Self::scheme(session);
        let block = Self::block_size(session);
        assert!(
            self.grid.is_some() || !session.executes(),
            "a grid-less MG-CFD can only be priced: set `grid` to execute it"
        );

        // Build the hierarchy: real meshes whenever a grid is set, dry or
        // not, so a dry run prices the colour passes its live run
        // launches; the analytic stats of `finest` otherwise. A level's
        // dats are mesh-sized when it has a mesh and one row otherwise,
        // and are filled only when the session executes.
        let h = match self.grid {
            Some((ni, nj, nk)) => MgHierarchy::build(ni, nj, nk, self.levels, self.ordering),
            None => MgHierarchy::analytic(self.finest, self.levels),
        };
        let mut meshes = h.meshes.unwrap_or_default().into_iter();
        let mut levels: Vec<Level> = h
            .levels
            .into_iter()
            .map(|stats| {
                let mesh = meshes.next();
                let n = mesh.as_ref().map_or(1, |m| m.n_vertices);
                let mut q = DatU::zeroed("q", n, N_VARS);
                if session.executes() {
                    q.fill_with(|e, c| 1.0 + 0.01 * ((e * 7 + c * 3) % 17) as f64);
                }
                // The residual is first touched by a row add's read
                // (row-locked or colour-serialised, a read-modify-write).
                // Writing its zeros first faults each page once; a read
                // of an untouched page maps the shared zero page, and
                // the write after it faults again.
                let mut res = DatU::zeroed("res", n, N_VARS);
                if session.executes() {
                    res.fill_with(|_, _| 0.0);
                }
                Level {
                    stats,
                    colored: mesh.map(|m| ColoredMesh::prepare(m, scheme, block)),
                    q,
                    res,
                }
            })
            .collect();

        let dt = 1e-3;
        let ranks = session.ranks();
        // The finest-level residual norm escapes the recorded graph
        // through this bit-cell (written by the reduction sink on every
        // replay; read back after the last one).
        let res_bits = std::sync::atomic::AtomicU64::new(f64::NAN.to_bits());

        // Stage the hierarchy's flow state and residuals. `DatU` carries
        // no shadow ids, so the uploads are anonymous (never elided) —
        // one per dat per level, sized from the level's stats, so a
        // grid-less run prices the paper-size traffic without allocating.
        {
            let mut g = session.record();
            g.phase("staging");
            for l in &levels {
                let bytes = (l.stats.n_vertices * N_VARS) as f64 * 8.0;
                g.transfer(bytes); // q: initial flow state
                g.transfer(bytes); // res: zeroed accumulator
            }
            g.end_phase();
            g.finish().replay(session);
        }

        // Record one V-cycle plus the residual reduction; replay it per
        // iteration.
        {
            let res_bits = &res_bits;
            // One exclusive view pair per level, shared by every recorded
            // body that touches that level (the flux loop's accumulator
            // is the same res view, re-cast).
            let lvls: Vec<_> = levels
                .iter_mut()
                .map(|l| (l.stats, l.colored.as_ref(), l.q.writer(), l.res.writer()))
                .collect();

            let mut g = session.record();
            for (l, &(stats, colored, qv, rv)) in lvls.iter().enumerate() {
                let n = stats.n_vertices;

                // MPI variants exchange the halo flow state before the
                // flux sweep (owner-compute, §3 of the paper).
                if ranks > 1 {
                    let cut = stats.estimated_cut_edges(ranks);
                    g.exchange(cut as f64 * N_VARS as f64 * 8.0 * 2.0, (ranks * 6) as u64);
                }

                // -- compute_flux: the racy edge loop --------------------
                g.phase("compute_flux");
                let lp = flux_loop(stats, scheme, block);
                if let Some(colored) = colored {
                    // The body borrows the level's edge map: the graph
                    // lives no longer than the levels it was recorded on.
                    let edges = &colored.mesh.edges;
                    // Binding the views lets the loop prefetch the rows
                    // its edges gather, in the scheme's order.
                    let acc = rv.to_accum(lp.uses_atomics());
                    lp.vertex_read(qv)
                        .vertex_inc(acc)
                        .record(&mut g, Some(colored), move |e| flux_edge(edges, qv, acc, e));
                } else {
                    lp.vertex_read(N_VARS)
                        .vertex_inc(N_VARS)
                        .record(&mut g, None, |_| {});
                }
                g.end_phase();

                // -- time_step: apply and clear residuals ----------------
                g.phase("time_step");
                VertexLoop::new("time_step", n, Precision::F64)
                    .arg_rw(N_VARS)
                    .arg_rw(N_VARS)
                    .flops(3.0 * N_VARS as f64)
                    .record(&mut g, move |lo, hi| {
                        let res = rv.rows_mut(lo, hi);
                        for (q, r) in qv.rows_mut(lo, hi).iter_mut().zip(res) {
                            *q += dt * *r;
                            *r = 0.0;
                        }
                    });
                g.end_phase();

                // -- restrict to the next level (injection) --------------
                if let Some(&(coarse, _, cq, _)) = lvls.get(l + 1) {
                    g.phase("restrict");
                    let coarse_n = coarse.n_vertices;
                    let ratio = (n / coarse_n.max(1)).max(1);
                    VertexLoop::new("restrict", coarse_n, Precision::F64)
                        .arg(N_VARS)
                        .arg(N_VARS)
                        .flops(N_VARS as f64)
                        .record(&mut g, move |lo, hi| {
                            let rows = cq.rows_mut(lo, hi).chunks_exact_mut(N_VARS);
                            for (e, row) in (lo..hi).zip(rows) {
                                let src = (e * ratio).min(n - 1);
                                row.copy_from_slice(&qv.row::<N_VARS>(src));
                            }
                        });
                    g.end_phase();
                }
            }

            // -- residual norm on the finest level (reduction) -----------
            g.phase("residual_norm");
            let (stats, _, qv, _) = lvls[0];
            VertexLoop::new("residual_norm", stats.n_vertices, Precision::F64)
                .arg(N_VARS)
                .flops(2.0 * N_VARS as f64)
                .record_reduce(
                    &mut g,
                    0.0,
                    |a, b| a + b,
                    move |lo, hi| {
                        let mut s = 0.0;
                        for &x in qv.rows(lo, hi) {
                            s += x * x;
                        }
                        s
                    },
                    move |s| {
                        res_bits.store(s.to_bits(), std::sync::atomic::Ordering::Relaxed);
                    },
                );
            g.end_phase();

            let g = g.finish();
            for _ in 0..self.iterations {
                g.replay(session);
            }
        }

        // Read the converged finest-level flow state back to the host.
        {
            let mut g = session.record();
            g.phase("readback");
            g.transfer_dir(
                (levels[0].stats.n_vertices * N_VARS) as f64 * 8.0,
                Vec::new(),
                sycl_sim::TransferDir::D2H,
            );
            g.end_phase();
            g.finish().replay(session);
        }

        summarise(
            session,
            f64::from_bits(res_bits.load(std::sync::atomic::Ordering::Relaxed)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_sim::{PlatformId, SessionConfig, Toolchain};

    /// The total of all residual increments after one flux sweep over a
    /// 10×10×6 grid under `scheme`: it must vanish (flux antisymmetry).
    fn residual_total_after_flux(scheme: Scheme) -> f64 {
        let mesh = Mesh::grid(10, 10, 6, Ordering::Natural);
        let stats = mesh.stats();
        let n = mesh.n_vertices;
        let session = Session::create(
            SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda)
                .app(apps::MGCFD)
                .scheme(scheme),
        )
        .unwrap();
        let colored = ColoredMesh::prepare(mesh, scheme, 64);
        let mut q = DatU::<f64>::zeroed("q", n, N_VARS);
        q.fill_with(|e, c| 1.0 + 0.01 * ((e * 13 + c) % 23) as f64);
        let mut res = DatU::<f64>::zeroed("res", n, N_VARS);
        {
            let lp = flux_loop(stats, scheme, 64);
            let edges = &colored.mesh.edges;
            let qv = q.writer();
            let acc = res.accum(lp.uses_atomics());
            lp.vertex_read(qv)
                .vertex_inc(acc)
                .run(&session, Some(&colored), |e| flux_edge(edges, qv, acc, e));
        }
        res.total()
    }

    #[test]
    fn fluxes_are_conservative_under_every_scheme() {
        for scheme in Scheme::all() {
            let total = residual_total_after_flux(scheme);
            assert!(
                total.abs() < 1e-9,
                "{scheme:?}: residual total {total} must vanish"
            );
        }
    }

    #[test]
    fn functional_run_produces_a_finite_residual() {
        let s = Session::create(
            SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda)
                .app(apps::MGCFD)
                .scheme(Scheme::HierColor),
        )
        .unwrap();
        let run = Mgcfd::test().run(&s);
        assert!(run.validation.is_finite());
        assert!(run.validation > 0.0);
        // Multigrid means multiple flux loops per iteration.
        let flux_launches = s
            .records()
            .iter()
            .filter(|r| &*r.name == "compute_flux")
            .count();
        assert!(flux_launches >= 3 * 3, "one per level per iteration");
    }

    #[test]
    fn schemes_agree_on_the_final_state() {
        let run_with = |scheme| {
            let s = Session::create(
                SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda)
                    .app(apps::MGCFD)
                    .scheme(scheme),
            )
            .unwrap();
            Mgcfd::test().run(&s).validation
        };
        let a = run_with(Scheme::Atomics);
        let g = run_with(Scheme::GlobalColor);
        let h = run_with(Scheme::HierColor);
        // Colour schemes are deterministic; atomics reorder additions, so
        // compare within floating-point tolerance.
        assert!((g - h).abs() / g.abs() < 1e-12, "{g} vs {h}");
        assert!((a - g).abs() / g.abs() < 1e-9, "{a} vs {g}");
    }

    /// The validation of a 2-level, 1-iteration run on `grid` under
    /// `scheme`.
    fn short_run(scheme: Scheme, grid: (usize, usize, usize), ordering: Ordering) -> f64 {
        let s = Session::create(
            SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda)
                .app(apps::MGCFD)
                .scheme(scheme),
        )
        .unwrap();
        let mut app = Mgcfd::test();
        app.grid = Some(grid);
        app.levels = 2;
        app.iterations = 1;
        app.ordering = ordering;
        app.run(&s).validation
    }

    /// The finest `q` of a 64×64×32 grid is 5 MiB, which always holds a
    /// whole 2 MiB page, so unlike the 12×12×8 test grid (46 KiB fields)
    /// its fields take the huge-page advice.
    #[test]
    fn huge_page_advised_fields_keep_every_schemes_result() {
        let run_with = |scheme| short_run(scheme, (64, 64, 32), Ordering::Natural);
        let a = run_with(Scheme::Atomics);
        let g = run_with(Scheme::GlobalColor);
        let h = run_with(Scheme::HierColor);
        // The bits both colourings gave before their fields were advised.
        const BITS: u64 = 0x4127601f1a6a936c;
        assert_eq!(g.to_bits(), BITS, "global colouring: {g}");
        assert_eq!(h.to_bits(), BITS, "hierarchical colouring: {h}");
        assert!((a - g).abs() / g.abs() < 1e-9, "{a} vs {g}");
    }

    /// A shuffled numbering, as the benchmark runs: global colouring
    /// gathers across the whole table, and hierarchical blocks span
    /// far-apart vertices.
    #[test]
    fn a_shuffled_mesh_keeps_every_schemes_result() {
        let run_with = |scheme| short_run(scheme, (48, 48, 24), Ordering::Shuffled(7));
        let a = run_with(Scheme::Atomics);
        let g = run_with(Scheme::GlobalColor);
        let h = run_with(Scheme::HierColor);
        // The bits both colourings gave before the colour-major plan.
        const BITS: u64 = 0x4113b921a857bbe4;
        assert_eq!(g.to_bits(), BITS, "global colouring: {g}");
        assert_eq!(h.to_bits(), BITS, "hierarchical colouring: {h}");
        assert!((a - g).abs() / g.abs() < 1e-9, "{a} vs {g}");
    }

    #[test]
    fn paper_size_dry_run_prices_the_hierarchy() {
        let s = Session::create(
            SessionConfig::new(PlatformId::Mi250x, Toolchain::NativeHip)
                .app(apps::MGCFD)
                .scheme(Scheme::Atomics)
                .dry_run(),
        )
        .unwrap();
        let run = Mgcfd::paper().run(&s);
        assert!(run.elapsed > 0.0);
        assert!(run.effective_bandwidth > 0.0);
    }

    #[test]
    fn mesh_ordering_matters_for_atomics() {
        // Ablation: a shuffled mesh must be slower under atomics (the
        // paper's locality analysis, §4.3).
        let run_with = |ordering| {
            let s = Session::create(
                SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda)
                    .app(apps::MGCFD)
                    .scheme(Scheme::Atomics)
                    .dry_run(),
            )
            .unwrap();
            let mut app = Mgcfd::paper();
            app.ordering = ordering;
            if let Ordering::Shuffled(_) = ordering {
                app.finest.locality = 0.3;
            }
            app.run(&s).elapsed
        };
        let good = run_with(Ordering::Natural);
        let bad = run_with(Ordering::Shuffled(1));
        assert!(bad > good, "shuffled {bad} vs natural {good}");
    }
}
