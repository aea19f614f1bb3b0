//! A downstream-user scenario: write a *new* application (a TeaLeaf-style
//! 2-D heat-conduction solver) against the public DSL API and evaluate
//! its portability across all six platforms — the workflow the paper
//! recommends: start with the flat formulation, then tune nd_range for
//! the critical kernels.
//!
//!     cargo run --release --example heat_diffusion

use ops_dsl::prelude::*;
use sycl_portability::prelude::*;

/// One Jacobi heat step: u' = u + a·∇²u, returning the residual norm.
fn heat_app(session: &Session, n: usize, steps: usize, nd: Option<[usize; 3]>) -> f64 {
    let block = Block::new_2d(n, n, 1);
    let mut u = Dat::<f64>::zeroed(&block, "u");
    let mut next = Dat::<f64>::zeroed(&block, "u_next");
    u.fill_with(|i, j, _| {
        if (i - n as i64 / 2).abs() < 4 && (j - n as i64 / 2).abs() < 4 {
            100.0
        } else {
            0.0
        }
    });
    let alpha = 0.2;
    let meta = ops_dsl::DatMeta::anon(8.0);

    // Upload once (free on CPUs, PCIe-priced on GPUs).
    session.transfer(2.0 * u.bytes());

    let mut residual = 0.0;
    for _ in 0..steps {
        {
            let r = u.reader();
            let w = next.writer();
            let mut lp = ParLoop::new("heat_step", block.interior())
                .read(meta, Stencil::star_2d(1))
                .write(meta)
                .flops(6.0);
            if let Some(shape) = nd {
                lp = lp.nd_shape(shape);
            }
            lp.run(session, |tile| {
                for (i, j, k) in tile.iter() {
                    let lap = r.at(i - 1, j, k)
                        + r.at(i + 1, j, k)
                        + r.at(i, j - 1, k)
                        + r.at(i, j + 1, k)
                        - 4.0 * r.at(i, j, k);
                    w.set(i, j, k, r.at(i, j, k) + alpha * lap);
                }
            });
        }
        std::mem::swap(&mut u, &mut next);

        let r = u.reader();
        residual = ParLoop::new("residual", block.interior())
            .read(meta, Stencil::point())
            .flops(2.0)
            .run_reduce(
                session,
                0.0,
                |a, b| a + b,
                |tile| {
                    let mut s = 0.0;
                    for (i, j, k) in tile.iter() {
                        s += r.at(i, j, k) * r.at(i, j, k);
                    }
                    s
                },
            );
    }
    session.transfer(u.bytes());
    residual
}

fn main() {
    println!("=== New app portability check: 2-D heat conduction ===\n");
    let n = 512;
    let steps = 20;

    println!(
        "{:12} {:10} {:>12} {:>12} {:>14}",
        "platform", "toolchain", "flat", "nd[128,2]", "residual"
    );
    for p in PlatformId::ALL {
        for tc in [Toolchain::Dpcpp, Toolchain::OpenSycl] {
            let run = |variant: SyclVariant, nd: Option<[usize; 3]>| -> Option<(f64, f64)> {
                let s =
                    Session::create(SessionConfig::new(p, tc).variant(variant).app("heat")).ok()?;
                let res = heat_app(&s, n, steps, nd);
                Some((s.elapsed(), res))
            };
            let flat = run(SyclVariant::Flat, None);
            let nd = run(SyclVariant::NdRange([128, 2, 1]), Some([128, 2, 1]));
            match (flat, nd) {
                (Some((tf, res)), Some((tn, _))) => println!(
                    "{:12} {:10} {:>10.2} ms {:>10.2} ms {:>14.4e}",
                    p.label(),
                    tc.label(),
                    tf * 1e3,
                    tn * 1e3,
                    res
                ),
                _ => println!(
                    "{:12} {:10} {:>12} {:>12} {:>14}",
                    p.label(),
                    tc.label(),
                    "n/a",
                    "n/a",
                    "-"
                ),
            }
        }
    }
    println!("\nThe residual column is identical everywhere: one source, one result,");
    println!("six machines — with the flat-vs-tuned gap visible per platform.");
}
