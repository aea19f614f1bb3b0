//! RTM — reverse-time-migration forward pass, 320³, single precision.
//!
//! An 8th-order (radius 4) finite-difference acoustic wave propagator:
//! `p⁺ = 2p − p⁻ + dt²·c²·∇²p`, leap-frog in time over two ping-pong
//! fields plus a velocity model. The paper calls it "sensitive to cache
//! locality and vectorization" — in our model that is the radius-4 star
//! whose tile footprint overwhelms the MI250X's 16 KB L1.

use crate::common::{alloc_block, phase_span, read_back, stage_uploads, summarise, App, AppRun};
use ops_dsl::prelude::*;
use ops_dsl::{DatMeta, ReadView, WriteView};
use sycl_sim::{quirks::apps, Session};

/// 8th-order central second-derivative coefficients (h=1).
pub(crate) const LAP8: [f64; 5] = [
    -205.0 / 72.0,
    8.0 / 5.0,
    -1.0 / 5.0,
    8.0 / 315.0,
    -1.0 / 560.0,
];

/// An RTM forward-pass instance.
#[derive(Debug, Clone, Copy)]
pub struct Rtm {
    pub n: usize,
    pub iterations: usize,
}

impl Rtm {
    /// Paper configuration: 320³, 10 iterations.
    pub fn paper() -> Self {
        Rtm {
            n: 320,
            iterations: 10,
        }
    }

    /// Reduced size for functional validation.
    pub fn test() -> Self {
        Rtm {
            n: 24,
            iterations: 6,
        }
    }

    fn logical_block(&self) -> Block {
        Block::new_3d(self.n, self.n, self.n, 4)
    }
}

impl App for Rtm {
    fn name(&self) -> &'static str {
        apps::RTM
    }

    fn nd_shape(&self) -> [usize; 3] {
        [32, 8, 1]
    }

    fn run(&self, session: &Session) -> AppRun {
        let _span = crate::common::app_span(self.name());
        let logical = self.logical_block();
        let ab = alloc_block(session, logical);
        let interior = logical.interior();
        let nd = self.nd_shape();
        // RTM has "large communications volume over MPI": halo depth 4.
        let halo = HaloPlan::for_session(&logical, session, 4, 4.0);
        let n = logical.dims[0] as i64;
        let c2dt2 = 0.1f32; // (c·dt/h)² — stable for the 8th-order star.

        let mut prev = ops_dsl::Dat::<f32>::zeroed(&ab, "p_prev");
        let mut curr = ops_dsl::Dat::<f32>::zeroed(&ab, "p_curr");
        let mut vel = ops_dsl::Dat::<f32>::zeroed(&ab, "vel2");
        // Velocity model and a point source at the centre.
        let c = (ab.dims[0] / 2) as i64;
        if session.executes() {
            vel.fill_with(|_, _, k| 1.0 + 0.5 * (k.max(0) as f32 / ab.dims[2] as f32));
            curr.writer().set(c, c, c.min(ab.dims[2] as i64 - 1), 1.0);
        }

        // Stage the wavefields and the velocity model.
        stage_uploads(session, &logical, &[prev.meta(), curr.meta(), vel.meta()]);

        // The ping-pong swap is encoded as two parity graphs: the even
        // graph reads `curr` and writes `prev`, the odd graph the
        // reverse. Replaying them alternately reproduces the eager
        // swap-per-iteration loop with one ledger lock per iteration.
        {
            let cm = curr.meta();
            let pm = prev.meta();
            let vm = vel.meta();
            let cw = curr.writer();
            let pw = prev.writer();
            let v = vel.reader();

            let mut even = session.record();
            record_rtm_iter(
                &mut even, &halo, cw, cm, pw, pm, v, vm, &logical, nd, n, c2dt2,
            );
            let even = even.finish();
            let mut odd = session.record();
            record_rtm_iter(
                &mut odd, &halo, pw, pm, cw, cm, v, vm, &logical, nd, n, c2dt2,
            );
            let odd = odd.finish();

            let graphs = [even, odd];
            for it in 0..self.iterations {
                graphs[it % 2].replay(session);
            }
        }
        // After N swaps the wavefield lives in `curr` for even N.
        let field = if self.iterations.is_multiple_of(2) {
            &curr
        } else {
            &prev
        };

        // Read the final wavefield back for the host-side energy sum.
        read_back(session, &logical, &[field.meta()]);

        // Validation: wavefield energy (finite, non-zero once the source
        // has propagated).
        let _p = phase_span("image_energy");
        let p = field.reader();
        let validation = ParLoop::new("image_energy", interior)
            .read(field.meta(), Stencil::point())
            .flops(2.0)
            .nd_shape(nd)
            .run_reduce(
                session,
                0.0f64,
                |a, b| a + b,
                |tile| {
                    let mut s = 0.0f64;
                    for (i, j, k) in tile.iter() {
                        let x = p.at(i, j, k) as f64;
                        s += x * x;
                    }
                    s
                },
            );

        summarise(session, validation)
    }
}

/// Record one leap-frog iteration: halo exchange, the 8th-order wave
/// step reading `cur` and updating `nxt` in place, then the sponge taper
/// over the freshly written field (which the eager loop reached *after*
/// its `mem::swap`).
#[allow(clippy::too_many_arguments)]
fn record_rtm_iter<'a>(
    g: &mut sycl_sim::GraphBuilder<'a>,
    halo: &HaloPlan,
    cur: WriteView<'a, f32>,
    cur_m: DatMeta,
    nxt: WriteView<'a, f32>,
    nxt_m: DatMeta,
    v: ReadView<'a, f32>,
    vm: DatMeta,
    logical: &Block,
    nd: [usize; 3],
    n: i64,
    c2dt2: f32,
) {
    let interior = logical.interior();
    g.phase("halo_exchange");
    // Only the radius-4 stencil field needs fresh halos.
    halo.record_exchange_for(g, &[cur_m]);
    g.end_phase();

    g.phase("wave_step");
    ParLoop::new("wave_step", interior)
        .read(cur_m, Stencil::star_3d(4))
        .read(vm, Stencil::point())
        .read_write(nxt_m)
        .flops(33.0)
        .nd_shape(nd)
        .record_rows(g, move |row| {
            // One grown row serves all x-shifted reads; the y/z legs are
            // their own (contiguous) rows.
            let pc = cur.row(row.grow_x(4));
            let pyn: [&[f32]; 4] = std::array::from_fn(|s| cur.row(row.shift(0, s as i64 + 1, 0)));
            let pys: [&[f32]; 4] =
                std::array::from_fn(|s| cur.row(row.shift(0, -(s as i64) - 1, 0)));
            let pzn: [&[f32]; 4] = std::array::from_fn(|s| cur.row(row.shift(0, 0, s as i64 + 1)));
            let pzs: [&[f32]; 4] =
                std::array::from_fn(|s| cur.row(row.shift(0, 0, -(s as i64) - 1)));
            let vr = v.row(row);
            let wr = nxt.row_mut(row);
            for x in 0..row.len() {
                let mut lap = 3.0 * LAP8[0] as f32 * pc[x + 4];
                for (s, &cf) in LAP8.iter().enumerate().skip(1) {
                    lap += cf as f32
                        * (pc[x + 4 + s]
                            + pc[x + 4 - s]
                            + pyn[s - 1][x]
                            + pys[s - 1][x]
                            + pzn[s - 1][x]
                            + pzs[s - 1][x]);
                }
                let next = 2.0 * pc[x + 4] - wr[x] + c2dt2 * vr[x] * lap;
                wr[x] = next;
            }
        });
    g.end_phase();

    // Sponge taper near the boundary (absorbing layer) on the freshly
    // written field.
    g.phase("taper");
    for dim in 0..3usize {
        for side in [-1i64, 1] {
            let range = logical.face(dim, side, 4);
            ParLoop::new("taper", range)
                .read_write(nxt_m)
                .flops(1.0)
                .nd_shape(nd)
                .record(g, move |tile| {
                    for (i, j, k) in tile.iter() {
                        let inb = |x: i64| (-4..n + 4).contains(&x);
                        if inb(i) && inb(j) && inb(k) {
                            nxt.set(i, j, k, 0.9 * nxt.get(i, j, k));
                        }
                    }
                });
        }
    }
    g.end_phase();
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_sim::{PlatformId, SessionConfig, Toolchain};

    fn live() -> Session {
        Session::create(SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app(apps::RTM))
            .unwrap()
    }

    #[test]
    fn the_wave_propagates_and_energy_is_finite() {
        let run = Rtm::test().run(&live());
        assert!(run.validation.is_finite());
        assert!(run.validation > 0.0, "the source must spread energy");
    }

    #[test]
    fn wavefield_stays_symmetric_around_the_source() {
        // The velocity model varies only in z, so the x/y symmetry of
        // the point source must be preserved exactly.
        let app = Rtm::test();
        let s = live();
        let logical = app.logical_block();
        let ab = logical; // live run: alloc == logical
        let mut prev = ops_dsl::Dat::<f32>::zeroed(&ab, "p_prev");
        let mut curr = ops_dsl::Dat::<f32>::zeroed(&ab, "p_curr");
        let mut vel = ops_dsl::Dat::<f32>::zeroed(&ab, "vel2");
        vel.fill_with(|_, _, k| 1.0 + 0.5 * (k.max(0) as f32 / ab.dims[2] as f32));
        let c = (ab.dims[0] / 2) as i64;
        curr.writer().set(c, c, c, 1.0);
        let nd = app.nd_shape();
        for _ in 0..4 {
            let pm = prev.meta();
            let p = curr.reader();
            let v = vel.reader();
            let w = prev.writer();
            ParLoop::new("wave_step", ab.interior())
                .read(curr.meta(), Stencil::star_3d(4))
                .read(vel.meta(), Stencil::point())
                .read_write(pm)
                .nd_shape(nd)
                .run(&s, |tile| {
                    for (i, j, k) in tile.iter() {
                        let mut lap = 3.0 * LAP8[0] as f32 * p.at(i, j, k);
                        for (sft, &cf) in LAP8.iter().enumerate().skip(1) {
                            let sft = sft as i64;
                            lap += cf as f32
                                * (p.at(i + sft, j, k)
                                    + p.at(i - sft, j, k)
                                    + p.at(i, j + sft, k)
                                    + p.at(i, j - sft, k)
                                    + p.at(i, j, k + sft)
                                    + p.at(i, j, k - sft));
                        }
                        let next = 2.0 * p.at(i, j, k) - w.get(i, j, k) + 0.1 * v.at(i, j, k) * lap;
                        w.set(i, j, k, next);
                    }
                });
            std::mem::swap(&mut prev, &mut curr);
        }
        // x/y mirror symmetry about the source.
        for off in 1..5i64 {
            let a = curr.at(c + off, c, c);
            let b = curr.at(c - off, c, c);
            assert!((a - b).abs() < 1e-6, "x asymmetry at {off}: {a} vs {b}");
            let a = curr.at(c, c + off, c);
            let b = curr.at(c, c - off, c);
            assert!((a - b).abs() < 1e-6, "y asymmetry at {off}: {a} vs {b}");
        }
        // And the wavefront must have moved off the source point.
        assert!(curr.at(c + 4, c, c).abs() > 0.0);
    }

    #[test]
    fn paper_size_dry_run_prices_every_kernel() {
        let s = Session::create(
            SessionConfig::new(PlatformId::Mi250x, Toolchain::NativeHip)
                .app(apps::RTM)
                .dry_run(),
        )
        .unwrap();
        let run = Rtm::paper().run(&s);
        assert!(run.elapsed > 0.0);
        let names: Vec<String> = s.records().iter().map(|r| r.name.to_string()).collect();
        assert!(names.iter().any(|n| n == "wave_step"));
        assert!(names.iter().any(|n| n == "taper"));
    }
}
