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
use op2_dsl::DatU;
use sycl_sim::{quirks::apps, Precision, Scheme, Session};

const N_VARS: usize = 5;

/// An MG-CFD instance.
#[derive(Debug, Clone)]
pub struct Mgcfd {
    /// Finest-level mesh stats (dry/analytic runs).
    pub finest: MeshStats,
    /// Grid dims used when functional meshes are built.
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
                n_vertices: 0, // filled from the real mesh
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
        let functional = session.executes() && self.grid.is_some();

        // Build the hierarchy: real meshes for functional runs, analytic
        // stats otherwise.
        let mut levels: Vec<Level> = if functional {
            let (ni, nj, nk) = self.grid.unwrap();
            let h = MgHierarchy::build(ni, nj, nk, self.levels, self.ordering);
            h.meshes
                .expect("built hierarchies hold meshes")
                .into_iter()
                .zip(h.levels)
                .map(|(mesh, stats)| {
                    let n = mesh.n_vertices;
                    let mut q = DatU::zeroed("q", n, N_VARS);
                    q.fill_with(|e, c| 1.0 + 0.01 * ((e * 7 + c * 3) % 17) as f64);
                    // The residual is first touched by a row add's read
                    // (row-locked or colour-serialised, a read-modify-write).
                    // Writing its zeros first faults each page once; a read
                    // of an untouched page maps the shared zero page, and
                    // the write after it faults again.
                    let mut res = DatU::zeroed("res", n, N_VARS);
                    res.fill_with(|_, _| 0.0);
                    Level {
                        stats,
                        colored: Some(ColoredMesh::prepare(mesh, scheme, block)),
                        q,
                        res,
                    }
                })
                .collect()
        } else {
            MgHierarchy::analytic(self.finest, self.levels)
                .levels
                .into_iter()
                .map(|stats| Level {
                    stats,
                    colored: None,
                    q: DatU::zeroed("q", 1, N_VARS),
                    res: DatU::zeroed("res", 1, N_VARS),
                })
                .collect()
        };

        let dt = 1e-3;
        let ranks = session.ranks();
        // The finest-level residual norm escapes the recorded graph
        // through this bit-cell (written by the reduction sink on every
        // replay; read back after the last one).
        let res_bits = std::sync::atomic::AtomicU64::new(f64::NAN.to_bits());

        // Stage the hierarchy's flow state and residuals. `DatU` carries
        // no shadow ids, so the uploads are anonymous (never elided) —
        // one per dat per level, sized from the analytic stats on dry
        // runs so the paper-size traffic is priced without allocating.
        {
            let mut g = session.record();
            g.phase("staging");
            for l in &levels {
                let n = if functional {
                    l.q.set_size()
                } else {
                    l.stats.n_vertices
                };
                let bytes = (n * N_VARS) as f64 * 8.0;
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
                .map(|l| {
                    (
                        l.stats,
                        l.colored.as_ref(),
                        l.q.set_size(),
                        l.q.writer(),
                        l.res.writer(),
                    )
                })
                .collect();

            let mut g = session.record();
            for l in 0..lvls.len() {
                let (stats, colored, q_n, qv, rv) = lvls[l];

                // MPI variants exchange the halo flow state before the
                // flux sweep (owner-compute, §3 of the paper).
                if ranks > 1 {
                    let cut = stats.estimated_cut_edges(ranks);
                    g.exchange(cut as f64 * N_VARS as f64 * 8.0 * 2.0, (ranks * 6) as u64);
                }

                // -- compute_flux: the racy edge loop --------------------
                g.phase("compute_flux");
                let lp = EdgeLoop::new("compute_flux", stats, scheme, Precision::F64)
                    .flops(110.0)
                    .transcendentals(1.0)
                    .block_size(block);
                if let Some(colored) = colored {
                    // The body borrows the level's edge map: the graph
                    // lives no longer than the levels it was recorded on.
                    let edges = &colored.mesh.edges;
                    // Binding the views lets the loop prefetch the rows
                    // its edges gather, in the scheme's order.
                    let acc = rv.to_accum(lp.uses_atomics());
                    let lp = lp.vertex_read(qv).vertex_inc(acc);
                    lp.record(&mut g, Some(colored), move |e| {
                        let a = edges.at(e, 0);
                        let b = edges.at(e, 1);
                        let mut ql = [0.0; N_VARS];
                        let mut qb = [0.0; N_VARS];
                        for v in 0..N_VARS {
                            ql[v] = qv.get(a, v);
                            qb[v] = qv.get(b, v);
                        }
                        let mut f = [0.0; N_VARS];
                        rusanov(&ql, &qb, &mut f);
                        acc.add_row(a, &f.map(|x| -x));
                        acc.add_row(b, &f);
                    });
                } else {
                    lp.vertex_read(N_VARS)
                        .vertex_inc(N_VARS)
                        .record(&mut g, None, |_| {});
                }
                g.end_phase();

                // -- time_step: apply and clear residuals ----------------
                g.phase("time_step");
                let n = if functional { q_n } else { stats.n_vertices };
                let lp = VertexLoop::new("time_step", n, Precision::F64)
                    .arg_rw(N_VARS)
                    .arg_rw(N_VARS)
                    .flops(3.0 * N_VARS as f64);
                if functional {
                    lp.record(&mut g, move |lo, hi| {
                        for e in lo..hi {
                            for v in 0..N_VARS {
                                qv.set(e, v, qv.get(e, v) + dt * rv.get(e, v));
                                rv.set(e, v, 0.0);
                            }
                        }
                    });
                } else {
                    lp.record(&mut g, |_, _| {});
                }
                g.end_phase();

                // -- restrict to the next level (injection) --------------
                if l + 1 < lvls.len() {
                    g.phase("restrict");
                    if functional {
                        let coarse_n_real = lvls[l + 1].2;
                        let fine_n = q_n;
                        let cq = lvls[l + 1].3;
                        let ratio_real = (fine_n / coarse_n_real.max(1)).max(1);
                        VertexLoop::new("restrict", coarse_n_real, Precision::F64)
                            .arg(N_VARS)
                            .arg(N_VARS)
                            .flops(N_VARS as f64)
                            .record(&mut g, move |lo, hi| {
                                for e in lo..hi {
                                    let src = (e * ratio_real).min(fine_n - 1);
                                    for v in 0..N_VARS {
                                        cq.set(e, v, qv.get(src, v));
                                    }
                                }
                            });
                    } else {
                        let coarse_n = lvls[l + 1].0.n_vertices;
                        VertexLoop::new("restrict", coarse_n, Precision::F64)
                            .arg(N_VARS)
                            .arg(N_VARS)
                            .flops(N_VARS as f64)
                            .record(&mut g, |_, _| {});
                    }
                    g.end_phase();
                }
            }

            // -- residual norm on the finest level (reduction) -----------
            g.phase("residual_norm");
            let (stats, _, q_n, qv, _) = lvls[0];
            let n = if functional { q_n } else { stats.n_vertices };
            let lp = VertexLoop::new("residual_norm", n, Precision::F64)
                .arg(N_VARS)
                .flops(2.0 * N_VARS as f64);
            if functional {
                lp.record_reduce(
                    &mut g,
                    0.0,
                    |a, b| a + b,
                    move |lo, hi| {
                        let mut s = 0.0;
                        for e in lo..hi {
                            for v in 0..N_VARS {
                                let x = qv.get(e, v);
                                s += x * x;
                            }
                        }
                        s
                    },
                    move |s| {
                        res_bits.store(s.to_bits(), std::sync::atomic::Ordering::Relaxed);
                    },
                );
            } else {
                lp.record_reduce(&mut g, 0.0, |a, b| a + b, |_, _| 0.0, |_| {});
            }
            g.end_phase();

            let g = g.finish();
            for _ in 0..self.iterations {
                g.replay(session);
            }
        }

        // Read the converged finest-level flow state back to the host.
        {
            let n = if functional {
                levels[0].q.set_size()
            } else {
                levels[0].stats.n_vertices
            };
            let mut g = session.record();
            g.phase("readback");
            g.transfer_dir(
                (n * N_VARS) as f64 * 8.0,
                Vec::new(),
                sycl_sim::TransferDir::D2H,
            );
            g.end_phase();
            g.finish().replay(session);
        }

        let last_residual = if functional {
            f64::from_bits(res_bits.load(std::sync::atomic::Ordering::Relaxed))
        } else {
            f64::NAN
        };
        summarise(session, last_residual)
    }
}

impl Mgcfd {
    /// The total of all residual increments must vanish (flux
    /// antisymmetry) — exposed for tests.
    pub fn residual_total_after_flux(scheme: Scheme) -> f64 {
        let mesh = Mesh::grid(10, 10, 6, Ordering::Natural);
        let stats = mesh.stats();
        let n = mesh.n_vertices;
        let session = Session::create(
            sycl_sim::SessionConfig::new(
                sycl_sim::PlatformId::A100,
                sycl_sim::Toolchain::NativeCuda,
            )
            .app(apps::MGCFD)
            .scheme(scheme),
        )
        .unwrap();
        let colored = ColoredMesh::prepare(mesh, scheme, 64);
        let mut q = DatU::<f64>::zeroed("q", n, N_VARS);
        q.fill_with(|e, c| 1.0 + 0.01 * ((e * 13 + c) % 23) as f64);
        let mut res = DatU::<f64>::zeroed("res", n, N_VARS);
        let lp = EdgeLoop::new("compute_flux", stats, scheme, Precision::F64)
            .vertex_read(N_VARS)
            .vertex_inc(N_VARS)
            .flops(110.0)
            .block_size(64);
        let atomic = lp.uses_atomics();
        let edges = &colored.mesh.edges;
        {
            let qr = q.reader();
            let acc = res.accum(atomic);
            lp.run(&session, Some(&colored), |e| {
                let a = edges.at(e, 0);
                let b = edges.at(e, 1);
                let mut ql = [0.0; N_VARS];
                let mut qb = [0.0; N_VARS];
                for v in 0..N_VARS {
                    ql[v] = qr.at(a, v);
                    qb[v] = qr.at(b, v);
                }
                let mut f = [0.0; N_VARS];
                rusanov(&ql, &qb, &mut f);
                acc.add_row(a, &f.map(|x| -x));
                acc.add_row(b, &f);
            });
        }
        res.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_sim::{PlatformId, SessionConfig, Toolchain};

    #[test]
    fn fluxes_are_conservative_under_every_scheme() {
        for scheme in Scheme::all() {
            let total = Mgcfd::residual_total_after_flux(scheme);
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
