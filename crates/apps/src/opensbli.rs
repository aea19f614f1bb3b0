//! OpenSBLI — structured finite-difference Navier–Stokes, 320³, f64.
//!
//! The paper benchmarks two code-generation variants of the same solver:
//!
//! * **Store All (SA)** — derivative work arrays are computed once per
//!   Runge-Kutta stage and stored, so the time loop is a chain of cheap,
//!   bandwidth-bound sweeps over many datasets (92 % efficiency on the
//!   A100);
//! * **Store None (SN)** — derivatives are recomputed inside one fused
//!   kernel: ~3× the FLOPs, a third of the datasets, still mostly
//!   bandwidth bound (74 % on the A100). SN's fused body is long and
//!   branchy — it is the kernel that "failed to vectorize across all
//!   variants" on the Ampere Altra (§4.2).
//!
//! Physics: a 3-D advection–diffusion system over five conserved-style
//! fields, 4th-order central first derivatives (radius 2), 2nd-order
//! Laplacian, Williamson low-storage RK3 time integration, periodic
//! boundaries. Both variants implement *exactly* the same scheme, so
//! their results must agree to the bit — which the test suite asserts.

use crate::common::{alloc_block, phase_span, read_back, stage_uploads, summarise, App, AppRun};
use ops_dsl::prelude::*;
use ops_dsl::{DatMeta, WriteView};
use sycl_sim::{quirks::apps, KernelTraits, Session};

const N_VARS: usize = 5;
/// 4th-order central first-derivative coefficients (h=1):
/// f' ≈ (−f₊₂ + 8f₊₁ − 8f₋₁ + f₋₂)/12.
const C1: f64 = 8.0 / 12.0;
const C2: f64 = -1.0 / 12.0;
const NU: f64 = 0.02;
const ADV: [f64; 3] = [0.7, -0.4, 0.2];
/// Williamson low-storage RK3.
const RK_A: [f64; 3] = [0.0, -5.0 / 9.0, -153.0 / 128.0];
const RK_B: [f64; 3] = [1.0 / 3.0, 15.0 / 16.0, 8.0 / 15.0];

/// Which code-generation variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SbliVariant {
    StoreAll,
    StoreNone,
}

/// An OpenSBLI instance.
#[derive(Debug, Clone, Copy)]
pub struct OpenSbli {
    pub n: usize,
    pub iterations: usize,
    pub variant: SbliVariant,
}

impl OpenSbli {
    /// Paper configuration: 320³, 20 iterations.
    pub fn paper(variant: SbliVariant) -> Self {
        OpenSbli {
            n: 320,
            iterations: 20,
            variant,
        }
    }

    /// Reduced size for functional validation.
    pub fn test(variant: SbliVariant) -> Self {
        OpenSbli {
            n: 16,
            iterations: 3,
            variant,
        }
    }

    fn logical_block(&self) -> Block {
        Block::new_3d(self.n, self.n, self.n, 2)
    }

    /// Record the periodic halo fill for one field.
    fn record_periodic_halo<'a>(
        g: &mut sycl_sim::GraphBuilder<'a>,
        block: &Block,
        w: WriteView<'a, f64>,
        meta: DatMeta,
        nd: [usize; 3],
    ) {
        let n = block.dims[0] as i64;
        for dim in 0..3usize {
            for side in [-1i64, 1] {
                let range = block.face(dim, side, 2);
                // The periodic wrap reads from the opposite side of the
                // domain: a full-extent offset in the face dimension.
                let wrap = Stencil::offset_1d(dim, n as usize);
                ParLoop::new("periodic_halo", range)
                    .read_write_stencil(meta, wrap)
                    .nd_shape(nd)
                    .record(g, move |tile| {
                        for (i, j, k) in tile.iter() {
                            let mut m = [i, j, k];
                            m[dim] = (m[dim] + n) % n;
                            let inb = |x: i64| (-2..n + 2).contains(&x);
                            if inb(m[0]) && inb(m[1]) && inb(m[2]) {
                                w.set(i, j, k, w.get(m[0], m[1], m[2]));
                            }
                        }
                    });
            }
        }
    }
}

/// The right-hand side of the scheme at one point, from values sampled
/// by `f(dir, shift)`. Shared verbatim by both variants so they stay
/// bit-identical.
#[inline]
fn rhs_at(centre: f64, f: impl Fn(usize, i64) -> f64) -> f64 {
    let mut adv = 0.0;
    let mut lap = 0.0;
    for dir in 0..3 {
        let g = C1 * (f(dir, 1) - f(dir, -1)) + C2 * (f(dir, 2) - f(dir, -2));
        adv += ADV[dir] * g;
        lap += f(dir, 1) - 2.0 * centre + f(dir, -1);
    }
    -adv + NU * lap
}

impl App for OpenSbli {
    fn name(&self) -> &'static str {
        match self.variant {
            SbliVariant::StoreAll => apps::OPENSBLI_SA,
            SbliVariant::StoreNone => apps::OPENSBLI_SN,
        }
    }

    fn nd_shape(&self) -> [usize; 3] {
        [64, 4, 1]
    }

    fn run(&self, session: &Session) -> AppRun {
        let _span = crate::common::app_span(self.name());
        let logical = self.logical_block();
        let ab = alloc_block(session, logical);
        let interior = logical.interior();
        let nd = self.nd_shape();
        let halo = HaloPlan::for_session(&logical, session, 2, 8.0);
        let dt = 1e-3;

        // Five conserved fields with smooth initial data (written only
        // when the bodies run to read it).
        let mut q: Vec<ops_dsl::Dat<f64>> = (0..N_VARS)
            .map(|v| {
                let mut d = ops_dsl::Dat::zeroed(&ab, &format!("q{v}"));
                let n = ab.dims[0] as f64;
                if session.executes() {
                    d.fill_with(|i, j, k| {
                        1.0 + 0.1
                            * ((i as f64 / n * std::f64::consts::TAU).sin()
                                + (j as f64 / n * std::f64::consts::TAU + v as f64).cos()
                                + (k as f64 / n * std::f64::consts::TAU).sin())
                    });
                }
                d
            })
            .collect();
        // RK3 low-storage accumulators.
        let mut qk: Vec<ops_dsl::Dat<f64>> = (0..N_VARS)
            .map(|v| ops_dsl::Dat::zeroed(&ab, &format!("qk{v}")))
            .collect();
        // SA work arrays: stored RHS per variable.
        let mut rhs_store: Vec<ops_dsl::Dat<f64>> = (0..N_VARS)
            .map(|w| ops_dsl::Dat::zeroed(&ab, &format!("rhs{w}")))
            .collect();

        let sn_traits = KernelTraits {
            stride_one_inner: true,
            indirect_writes: false,
            complex_body: true,
            hard_on_neon: true,
        };

        // Stage the variant's working set: Store All uploads the RHS
        // work arrays too, Store None only the state and accumulators —
        // the dataset-count contrast the paper's variants are about.
        let mut staged: Vec<DatMeta> = q.iter().chain(qk.iter()).map(|d| d.meta()).collect();
        if self.variant == SbliVariant::StoreAll {
            staged.extend(rhs_store.iter().map(|d| d.meta()));
        }
        stage_uploads(session, &logical, &staged);

        // Record one full 3-stage RK iteration — the stage coefficients
        // bake into the recorded nodes — and replay it per iteration.
        {
            let qm: Vec<DatMeta> = q.iter().map(|d| d.meta()).collect();
            let km: Vec<DatMeta> = qk.iter().map(|d| d.meta()).collect();
            let rm: Vec<DatMeta> = rhs_store.iter().map(|d| d.meta()).collect();
            let qw: Vec<WriteView<'_, f64>> = q.iter_mut().map(|d| d.writer()).collect();
            let kw: Vec<WriteView<'_, f64>> = qk.iter_mut().map(|d| d.writer()).collect();
            let rw: Vec<WriteView<'_, f64>> = rhs_store.iter_mut().map(|d| d.writer()).collect();

            let mut g = session.record();
            for stage in 0..3 {
                g.phase("periodic_halo");
                for v in 0..N_VARS {
                    Self::record_periodic_halo(&mut g, &logical, qw[v], qm[v], nd);
                }
                // Each stage exchanges the five state fields the
                // derivative stencils read.
                halo.record_exchange_for(&mut g, &qm);
                g.end_phase();

                match self.variant {
                    SbliVariant::StoreAll => {
                        // Phase 1: three derivative sweeps per variable
                        // feeding a stored RHS (15 bandwidth-bound
                        // kernels per stage — the "store all" shape).
                        g.phase("sa_deriv");
                        for v in 0..N_VARS {
                            // One sweep per direction accumulating into
                            // the RHS store; the first sweep initialises.
                            for dir in 0..3usize {
                                let src = qw[v];
                                let r = rw[v];
                                let off: [i64; 3] = std::array::from_fn(|a| (a == dir) as i64);
                                ParLoop::new("sa_deriv", interior)
                                    .read(
                                        qm[v],
                                        Stencil::radii(
                                            2 * off[0] as usize,
                                            2 * off[1] as usize,
                                            2 * off[2] as usize,
                                        ),
                                    )
                                    .read_write(rm[v])
                                    .flops(11.0)
                                    .nd_shape(nd)
                                    .record(&mut g, move |tile| {
                                        for (i, j, k) in tile.iter() {
                                            let f = |s: i64| {
                                                src.get(
                                                    i + s * off[0],
                                                    j + s * off[1],
                                                    k + s * off[2],
                                                )
                                            };
                                            let centre = src.get(i, j, k);
                                            let g = C1 * (f(1) - f(-1)) + C2 * (f(2) - f(-2));
                                            let contrib =
                                                -ADV[dir] * g + NU * (f(1) - 2.0 * centre + f(-1));
                                            let prev = if dir == 0 { 0.0 } else { r.get(i, j, k) };
                                            r.set(i, j, k, prev + contrib);
                                        }
                                    });
                            }
                        }
                        g.end_phase();
                        // Phase 2: RK accumulate + state update from the
                        // stored RHS (5 cheap sweeps).
                        g.phase("sa_rk_update");
                        for v in 0..N_VARS {
                            let r = rw[v];
                            let acc = kw[v];
                            let state = qw[v];
                            let (rk_a, rk_b) = (RK_A[stage], RK_B[stage]);
                            ParLoop::new("sa_rk_update", interior)
                                .read(rm[v], Stencil::point())
                                .read_write(km[v])
                                .read_write(qm[v])
                                .flops(6.0)
                                .nd_shape(nd)
                                .record(&mut g, move |tile| {
                                    for (i, j, k) in tile.iter() {
                                        let knew = rk_a * acc.get(i, j, k) + dt * r.get(i, j, k);
                                        acc.set(i, j, k, knew);
                                        state.set(i, j, k, state.get(i, j, k) + rk_b * knew);
                                    }
                                });
                        }
                        g.end_phase();
                    }
                    SbliVariant::StoreNone => {
                        // Fused kernel per variable: recompute the whole
                        // RHS on the fly and fold it into the RK
                        // accumulator (reads q, writes qk — race-free),
                        // then a point-wise state update.
                        g.phase("sn_fused");
                        for v in 0..N_VARS {
                            let src = qw[v];
                            let acc = kw[v];
                            let rk_a = RK_A[stage];
                            ParLoop::new("sn_fused", interior)
                                .read(qm[v], Stencil::star_3d(2))
                                .read_write(km[v])
                                .flops(68.0)
                                .traits(sn_traits)
                                .nd_shape(nd)
                                .record(&mut g, move |tile| {
                                    for (i, j, k) in tile.iter() {
                                        let f = |dir: usize, sft: i64| {
                                            let off: [i64; 3] =
                                                std::array::from_fn(|a| (a == dir) as i64 * sft);
                                            src.get(i + off[0], j + off[1], k + off[2])
                                        };
                                        let rhs = rhs_at(src.get(i, j, k), f);
                                        let knew = rk_a * acc.get(i, j, k) + dt * rhs;
                                        acc.set(i, j, k, knew);
                                    }
                                });
                        }
                        g.end_phase();
                        g.phase("sn_update");
                        for v in 0..N_VARS {
                            let kview = kw[v];
                            let state = qw[v];
                            let rk_b = RK_B[stage];
                            ParLoop::new("sn_update", interior)
                                .read(km[v], Stencil::point())
                                .read_write(qm[v])
                                .flops(2.0)
                                .nd_shape(nd)
                                .record(&mut g, move |tile| {
                                    for (i, j, k) in tile.iter() {
                                        state.set(
                                            i,
                                            j,
                                            k,
                                            state.get(i, j, k) + rk_b * kview.get(i, j, k),
                                        );
                                    }
                                });
                        }
                        g.end_phase();
                    }
                }
            }
            let g = g.finish();
            for _ in 0..self.iterations {
                g.replay(session);
            }
        }

        // Read the checksummed field back before the host-side reduce.
        read_back(session, &logical, &[q[0].meta()]);

        // Validation: total of q0 (the scheme is conservative under
        // periodic boundaries).
        let _p = phase_span("checksum");
        let r = q[0].reader();
        let validation = ParLoop::new("checksum", interior)
            .read(q[0].meta(), Stencil::point())
            .flops(1.0)
            .nd_shape(nd)
            .run_reduce(
                session,
                0.0,
                |a, b| a + b,
                |tile| {
                    let mut s = 0.0;
                    for (i, j, k) in tile.iter() {
                        s += r.at(i, j, k);
                    }
                    s
                },
            );
        let _ = &mut rhs_store;
        summarise(session, validation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_sim::{PlatformId, SessionConfig, Toolchain};

    fn live(app: &str) -> Session {
        Session::create(SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app(app))
            .unwrap()
    }

    #[test]
    fn both_variants_run_and_stay_finite() {
        for v in [SbliVariant::StoreAll, SbliVariant::StoreNone] {
            let app = OpenSbli::test(v);
            let s = live(app.name());
            let run = app.run(&s);
            assert!(run.validation.is_finite(), "{v:?}");
            assert!(run.elapsed > 0.0);
        }
    }

    #[test]
    fn store_all_and_store_none_agree_bitwise() {
        // The two code-generation variants implement the same scheme;
        // their results must be identical to the last bit.
        let sa = OpenSbli::test(SbliVariant::StoreAll);
        let sn = OpenSbli::test(SbliVariant::StoreNone);
        let ra = sa.run(&live(sa.name())).validation;
        let rn = sn.run(&live(sn.name())).validation;
        assert_eq!(ra.to_bits(), rn.to_bits(), "SA {ra} vs SN {rn}");
    }

    #[test]
    fn sn_moves_fewer_bytes_but_more_flops_than_sa() {
        let mk = |v| {
            let app = OpenSbli::paper(v);
            let s = Session::create(
                SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda)
                    .app(app.name())
                    .dry_run(),
            )
            .unwrap();
            app.run(&s);
            let recs = s.records();
            let bytes: f64 = recs.iter().map(|r| r.effective_bytes).sum();
            let flops: f64 = recs.iter().map(|r| r.time.compute).sum();
            (bytes, flops)
        };
        let (sa_bytes, _) = mk(SbliVariant::StoreAll);
        let (sn_bytes, _) = mk(SbliVariant::StoreNone);
        assert!(
            sa_bytes > 1.5 * sn_bytes,
            "store-all must move far more data: {sa_bytes:.3e} vs {sn_bytes:.3e}"
        );
    }

    #[test]
    fn advection_diffusion_conserves_the_total() {
        let app = OpenSbli::test(SbliVariant::StoreNone);
        let s = live(app.name());
        let b = app.logical_block();
        let mut d = ops_dsl::Dat::<f64>::zeroed(&b, "q0");
        let n = b.dims[0] as f64;
        d.fill_with(|i, j, k| {
            1.0 + 0.1
                * ((i as f64 / n * std::f64::consts::TAU).sin()
                    + (j as f64 / n * std::f64::consts::TAU).cos()
                    + (k as f64 / n * std::f64::consts::TAU).sin())
        });
        let before = d.interior_sum(&b);
        let run = app.run(&s);
        assert!(
            (run.validation - before).abs() / before.abs() < 1e-9,
            "{before} -> {}",
            run.validation
        );
    }

    #[test]
    fn rk3_coefficients_are_the_williamson_set() {
        // Sum of b over the stages with a-recursion integrates exactly
        // for a constant RHS: total weight must be 1.
        let mut k = 0.0;
        let mut y = 0.0;
        for s in 0..3 {
            k = RK_A[s] * k + 1.0;
            y += RK_B[s] * k;
        }
        assert!((y - 1.0).abs() < 1e-12, "RK weights integrate to {y}");
    }
}
