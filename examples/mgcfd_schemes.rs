//! Compare the three OP2 race-resolution schemes (Figure 1 of the paper)
//! functionally and under the performance model: all three must compute
//! identical physics, while their simulated cost differs with the
//! hardware's atomics throughput and the mesh ordering.
//!
//!     cargo run --release --example mgcfd_schemes
//!
//! Exits nonzero when the schemes' final states disagree by more than
//! the atomics' reordering allows, on either the naturally numbered
//! test mesh or a shuffled one.

use op2_dsl::Ordering;
use sycl_portability::prelude::*;

/// Widest relative spread of the final residual norm across the three
/// schemes (`schemes_agree_on_the_final_state` holds the same bound).
const SPREAD_TOLERANCE: f64 = 1e-9;

/// Run `app` under each scheme and print its final states; exit 1 if
/// they spread wider than the atomics' reordered sums allow, which
/// would be a race or a lost update.
fn functional_check(title: &str, app: &miniapps::Mgcfd) {
    println!("--- functional check ({title}) ---");
    let mut finals = Vec::new();
    for scheme in Scheme::all() {
        let session = Session::create(
            SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda)
                .app("mgcfd")
                .scheme(scheme),
        )
        .unwrap();
        let run = app.run(&session);
        println!(
            "  {:13} residual-norm = {:.12e}   ({} launches)",
            scheme.label(),
            run.validation,
            session.records().len()
        );
        finals.push(run.validation);
    }
    let spread = (finals.iter().cloned().fold(f64::MIN, f64::max)
        - finals.iter().cloned().fold(f64::MAX, f64::min))
        / finals[0].abs();
    println!("  relative spread across schemes: {spread:.2e} (atomics reorder sums)\n");
    if spread.is_nan() || spread > SPREAD_TOLERANCE {
        eprintln!("schemes disagree: relative spread {spread:.2e} > {SPREAD_TOLERANCE:.0e}");
        std::process::exit(1);
    }
}

fn main() {
    println!("=== MG-CFD race-resolution schemes ===\n");

    // Functional agreement at a small size.
    functional_check("12x12x8 grid, 3 levels", &miniapps::Mgcfd::test());
    // A shuffled numbering spreads every colour's edges and every
    // row's stripe lock across the whole mesh, as the benchmark's does:
    // the atomics' lock prefetch and global colouring's colour-major
    // edges run here on the pool's real lanes.
    let shuffled = miniapps::Mgcfd {
        grid: Some((32, 32, 16)),
        ordering: Ordering::Shuffled(7),
        ..miniapps::Mgcfd::test()
    };
    functional_check("shuffled 32x32x16 grid, 3 levels", &shuffled);

    // Modelled cost at Rotor37 size on two very different machines.
    for platform in [PlatformId::A100, PlatformId::Xeon8360Y] {
        println!(
            "--- simulated cost, Rotor37 8M vertices on {} ---",
            sycl_sim::Platform::get(platform).name
        );
        let tc = if platform.is_gpu() {
            Toolchain::NativeCuda
        } else {
            Toolchain::Mpi
        };
        for scheme in Scheme::all() {
            let session = Session::create(
                SessionConfig::new(platform, tc)
                    .app("mgcfd")
                    .scheme(scheme)
                    .dry_run(),
            )
            .unwrap();
            let run = miniapps::Mgcfd::paper().run(&session);
            println!(
                "  {:13} {:>8.3} s   effective BW {:>6.0} GB/s ({:.0}% of STREAM)",
                scheme.label(),
                run.elapsed,
                run.effective_bandwidth / 1e9,
                run.effective_bandwidth / session.platform().mem.stream_bw * 100.0
            );
        }
        println!();
    }

    println!("Atomics exploit the mesh ordering; global colouring destroys locality");
    println!("(the paper's §4.3 bytes-per-wave analysis); hierarchical sits between.");
}
