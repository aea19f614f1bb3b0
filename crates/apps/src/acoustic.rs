//! Acoustic — high-order acoustic wave propagation, 1000³, f32.
//!
//! Structurally the same 8th-order leap-frog propagator as RTM but at the
//! paper's much larger 1000³ size with 30 iterations, a continuous
//! source term, and a density-weighted Laplacian that makes the kernel
//! body long enough that OpenSYCL's CPU pipeline fails to vectorise it
//! on the Ampere Altra (§4.2: "auto-vectorization did not work for SYCL
//! - but it did for MPI/OpenMP").

use crate::common::{alloc_block, phase_span, read_back, stage_uploads, summarise, App, AppRun};
use crate::rtm::LAP8;
use ops_dsl::prelude::*;
use ops_dsl::{DatMeta, ReadView, WriteView};
use sycl_sim::{quirks::apps, KernelTraits, Session};

/// An acoustic-propagation instance.
#[derive(Debug, Clone, Copy)]
pub struct Acoustic {
    pub n: usize,
    pub iterations: usize,
}

impl Acoustic {
    /// Paper configuration: 1000³, 30 iterations.
    pub fn paper() -> Self {
        Acoustic {
            n: 1000,
            iterations: 30,
        }
    }

    /// Reduced size for functional validation.
    pub fn test() -> Self {
        Acoustic {
            n: 24,
            iterations: 6,
        }
    }

    fn logical_block(&self) -> Block {
        Block::new_3d(self.n, self.n, self.n, 4)
    }
}

impl App for Acoustic {
    fn name(&self) -> &'static str {
        apps::ACOUSTIC
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
        let halo = HaloPlan::for_session(&logical, session, 4, 4.0);
        let c2dt2 = 0.08f32;

        let mut prev = ops_dsl::Dat::<f32>::zeroed(&ab, "p_prev");
        let mut curr = ops_dsl::Dat::<f32>::zeroed(&ab, "p_curr");
        let mut speed = ops_dsl::Dat::<f32>::zeroed(&ab, "speed");
        if session.executes() {
            speed.fill_with(|i, j, k| {
                1.0 + 0.2 * (((i + j + k).max(0) as f32) / (3.0 * ab.dims[0] as f32))
            });
        }
        let src = (ab.dims[0] / 2) as i64;

        // The fused high-order kernel is long/branchy: OpenSYCL cannot
        // vectorise it on aarch64.
        let traits = KernelTraits {
            stride_one_inner: true,
            indirect_writes: false,
            complex_body: true,
            hard_on_neon: false,
        };

        // The source amplitude decays per iteration while the recorded
        // graphs stay fixed: the replay loop stores the amplitude here
        // and the recorded injection body loads it.
        let amp_bits = std::sync::atomic::AtomicU32::new(0);

        // Stage the three wavefield/model uploads (f32 fields).
        stage_uploads(session, &logical, &[prev.meta(), curr.meta(), speed.meta()]);

        // Two parity graphs encode the ping-pong swap (see `rtm`).
        {
            let cm = curr.meta();
            let pm = prev.meta();
            let vm = speed.meta();
            let cw = curr.writer();
            let pw = prev.writer();
            let v = speed.reader();
            let amp_bits = &amp_bits;

            let mut even = session.record();
            record_acoustic_iter(
                &mut even, &halo, cw, cm, pw, pm, v, vm, interior, nd, src, c2dt2, traits, amp_bits,
            );
            let even = even.finish();
            let mut odd = session.record();
            record_acoustic_iter(
                &mut odd, &halo, pw, pm, cw, cm, v, vm, interior, nd, src, c2dt2, traits, amp_bits,
            );
            let odd = odd.finish();

            let graphs = [even, odd];
            for it in 0..self.iterations {
                let amp = (1.0 - 0.1 * it as f32) * 0.5;
                amp_bits.store(amp.to_bits(), std::sync::atomic::Ordering::Relaxed);
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

        let _p = phase_span("energy");
        let p = field.reader();
        let validation = ParLoop::new("energy", interior)
            .read(field.meta(), Stencil::point())
            .flops(2.0)
            .nd_shape(nd)
            .run_rows_reduce(
                session,
                0.0f64,
                |a, b| a + b,
                |acc, row| {
                    let mut s = acc;
                    for &v in p.row(row) {
                        let x = v as f64;
                        s += x * x;
                    }
                    s
                },
            );

        summarise(session, validation)
    }
}

/// Record one acoustic iteration: halo exchange, source injection into
/// `cur` (amplitude loaded from `amp_bits` at replay time), and the
/// density-weighted leap-frog step reading `cur` into `nxt`.
#[allow(clippy::too_many_arguments)]
fn record_acoustic_iter<'a>(
    g: &mut sycl_sim::GraphBuilder<'a>,
    halo: &HaloPlan,
    cur: WriteView<'a, f32>,
    cur_m: DatMeta,
    nxt: WriteView<'a, f32>,
    nxt_m: DatMeta,
    v: ReadView<'a, f32>,
    vm: DatMeta,
    interior: Range3,
    nd: [usize; 3],
    src: i64,
    c2dt2: f32,
    traits: KernelTraits,
    amp_bits: &'a std::sync::atomic::AtomicU32,
) {
    g.phase("halo_exchange");
    // Only the radius-4 stencil field needs fresh halos.
    halo.record_exchange_for(g, &[cur_m]);
    g.end_phase();

    // Continuous Ricker-style source injection (tiny loop).
    g.phase("inject_source");
    ParLoop::new(
        "inject_source",
        Range3::new_3d(src, src + 1, src, src + 1, src, src + 1),
    )
    .read_write(cur_m)
    .flops(3.0)
    .nd_shape(nd)
    .record(g, move |tile| {
        let amp = f32::from_bits(amp_bits.load(std::sync::atomic::Ordering::Relaxed));
        for (i, j, k) in tile.iter() {
            cur.set(i, j, k, cur.get(i, j, k) + amp);
        }
    });
    g.end_phase();

    // Leap-frog wave update.
    g.phase("acoustic_step");
    ParLoop::new("acoustic_step", interior)
        .read(cur_m, Stencil::star_3d(4))
        .read(vm, Stencil::point())
        .read_write(nxt_m)
        .flops(40.0)
        .traits(traits)
        .nd_shape(nd)
        .record_rows(g, move |row| {
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
                let c2 = vr[x] * vr[x];
                let next = 2.0 * pc[x + 4] - wr[x] + c2dt2 * c2 * lap;
                wr[x] = next;
            }
        });
    g.end_phase();
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_sim::{PlatformId, SessionConfig, Toolchain};

    #[test]
    fn source_injects_energy_and_it_spreads() {
        let s = Session::create(
            SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app(apps::ACOUSTIC),
        )
        .unwrap();
        let run = Acoustic::test().run(&s);
        assert!(run.validation > 0.0);
        assert!(run.validation.is_finite());
    }

    #[test]
    fn paper_size_is_the_biggest_structured_problem() {
        // 1000³ f32 ≈ 4 GB per field: the dry-run path must not allocate.
        let s = Session::create(
            SessionConfig::new(PlatformId::Max1100, Toolchain::Dpcpp)
                .app(apps::ACOUSTIC)
                .dry_run(),
        )
        .unwrap();
        let run = Acoustic::paper().run(&s);
        assert!(run.elapsed > 0.0);
        // Source injection is a genuinely tiny launch.
        assert!(s
            .records()
            .iter()
            .any(|r| &*r.name == "inject_source" && r.boundary));
    }

    #[test]
    fn altra_opensycl_is_penalised_vs_openmp_at_paper_size() {
        // §4.2: "within 10-15% of MPI or OpenMP for most applications
        // except Acoustic, where auto-vectorization did not work".
        let run_with = |tc| {
            let s = Session::create(
                SessionConfig::new(PlatformId::Altra, tc)
                    .app(apps::ACOUSTIC)
                    .dry_run(),
            )
            .unwrap();
            Acoustic::paper().run(&s).elapsed
        };
        let omp = run_with(Toolchain::OpenMp);
        let sycl = run_with(Toolchain::OpenSycl);
        assert!(
            sycl > 1.2 * omp,
            "OpenSYCL must lose vectorisation on Altra: {sycl} vs {omp}"
        );
    }
}
