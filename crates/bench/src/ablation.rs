//! Ablation studies for the design choices DESIGN.md calls out:
//! work-group shape, mesh ordering, cache capacity, hierarchical block
//! size. Each returns printable sweep data that `artifacts` and the
//! benches render.

use machine_model::{predict, Platform, PlatformId};
use miniapps::App;
use portability::{mean, std_dev, Measurement};
use sycl_sim::{
    tune, AccessProfile, Kernel, KernelFootprint, Precision, Scheme, Session, SessionConfig,
    StencilProfile, SyclVariant, Toolchain,
};

/// The RTM wave kernel used as the shape-sweep subject (radius-4 star,
/// the shape-sensitive extreme of the suite).
pub fn rtm_wave_kernel() -> Kernel {
    let pts = 320usize.pow(3);
    Kernel::new(KernelFootprint {
        name: "wave_step".into(),
        items: pts as u64,
        effective_bytes: 4.0 * 4.0 * pts as f64,
        flops: 33.0 * pts as f64,
        transcendentals: 0.0,
        precision: Precision::F32,
        access: AccessProfile::Stencil(StencilProfile {
            domain: [320, 320, 320],
            radius: [4, 4, 4],
            dats_read: 2,
            dats_written: 1,
        }),
        atomics: None,
        reductions: 0,
    })
}

/// Work-group-shape sweep on the three GPUs: (platform, best shapes and
/// times, worst shape and time).
pub fn workgroup_sweep_text() -> String {
    let mut out = String::from("## Ablation: work-group shape sweep (RTM wave kernel)\n");
    let kernel = rtm_wave_kernel();
    for (p, tc) in [
        (PlatformId::A100, Toolchain::Dpcpp),
        (PlatformId::Mi250x, Toolchain::OpenSycl),
        (PlatformId::Max1100, Toolchain::Dpcpp),
    ] {
        let sweep = tune::sweep(p, tc, &kernel);
        let (best, t_best) = sweep.first().unwrap();
        let (worst, t_worst) = sweep.last().unwrap();
        out.push_str(&format!(
            "{:10} best {:?} = {:.3} ms | worst {:?} = {:.3} ms | spread {:.1}x\n",
            p.label(),
            best,
            t_best * 1e3,
            worst,
            t_worst * 1e3,
            t_worst / t_best
        ));
        for (shape, t) in sweep.iter().take(4) {
            out.push_str(&format!("    {shape:?} -> {:.3} ms\n", t * 1e3));
        }
    }
    out.push_str(
        "\nThe flat formulation delegates this choice to the runtime; the sweep\n\
         spread is the price of a bad heuristic (paper §4.1).\n",
    );
    out
}

/// Mesh-ordering sweep: MG-CFD atomics runtime as a function of the
/// ordering-locality score (1.0 = renumbered, 0.0 = random).
pub fn ordering_sweep(platform: PlatformId) -> Vec<(f64, f64)> {
    let tc = if platform.is_gpu() {
        Toolchain::Dpcpp
    } else {
        Toolchain::Mpi
    };
    [1.0, 0.9, 0.7, 0.5, 0.3, 0.1]
        .into_iter()
        .map(|loc| {
            let session = Session::create(
                SessionConfig::new(platform, tc)
                    .variant(SyclVariant::NdRange([256, 1, 1]))
                    .app("mgcfd")
                    .scheme(Scheme::Atomics)
                    .dry_run(),
            )
            .unwrap();
            let mut app = miniapps::Mgcfd::paper();
            app.finest.locality = loc;
            let run = app.run(&session);
            (loc, run.elapsed)
        })
        .collect()
}

/// Render the ordering sweep for GPUs and CPUs.
pub fn ordering_sweep_text() -> String {
    let mut out =
        String::from("## Ablation: mesh ordering vs MG-CFD atomics runtime (paper §4.3)\n");
    for p in [PlatformId::A100, PlatformId::Xeon8360Y] {
        out.push_str(&format!("{}:\n", Platform::get(p).name));
        for (loc, t) in ordering_sweep(p) {
            out.push_str(&format!("  locality {loc:.1} -> {t:.3} s\n"));
        }
    }
    out.push_str("\nAtomics depend on 'a good ordering of the mesh'; colouring schemes\n");
    out.push_str("destroy it by construction — this sweep shows how much that costs.\n");
    out
}

/// Cache-capacity sweep: scale the MI250X's L2 and watch the CloverLeaf
/// 3D / RTM efficiency recover toward A100/Max levels.
pub fn cache_sweep() -> Vec<(f64, f64, f64)> {
    let scales = [0.5, 1.0, 2.5, 5.0, 13.0];
    scales
        .into_iter()
        .map(|scale| {
            let mut platform = machine_model::platform::mi250x();
            platform.caches[0].size_bytes *= scale;
            let kernel = rtm_wave_kernel();
            let exec = Toolchain::NativeHip.exec_profile(
                &platform,
                SyclVariant::NdRange([32, 8, 1]),
                &kernel,
            );
            let t = predict(&platform, &kernel.footprint, &exec);
            let eff = kernel.footprint.effective_bytes / t.total / platform.mem.stream_bw;
            (scale, platform.caches[0].size_bytes / 1e6, eff)
        })
        .collect()
}

/// Render the cache sweep.
pub fn cache_sweep_text() -> String {
    let mut out =
        String::from("## Ablation: LLC capacity vs RTM efficiency (MI250X base, paper §4.1)\n");
    for (scale, mb, eff) in cache_sweep() {
        out.push_str(&format!(
            "  L2 x{scale:<4} = {mb:6.0} MB -> efficiency {:.0}%\n",
            eff * 100.0
        ));
    }
    out.push_str("\n208 MB is the Max 1100's L2 — the capacity mechanism behind its\n");
    out.push_str("cache-hit-rate sensitivity is reproduced by scaling alone.\n");
    out
}

/// Hierarchical block-size sweep for MG-CFD (the paper tuned 256 on
/// GPUs, 4096 on CPUs).
pub fn block_size_sweep(platform: PlatformId) -> Vec<(usize, f64)> {
    let tc = if platform.is_gpu() {
        Toolchain::Dpcpp
    } else {
        Toolchain::OpenSycl
    };
    [32usize, 64, 128, 256, 1024, 4096, 16384]
        .into_iter()
        .map(|block| {
            let platform_model = Platform::get(platform);
            let stats = op2_dsl::MeshStats::rotor37();
            let lp =
                op2_dsl::EdgeLoop::new("compute_flux", stats, Scheme::HierColor, Precision::F64)
                    .vertex_read(5)
                    .vertex_inc(5)
                    .flops(110.0)
                    .block_size(block);
            let session = Session::create(
                SessionConfig::new(platform, tc)
                    .variant(SyclVariant::NdRange([block.min(1024), 1, 1]))
                    .app("mgcfd")
                    .scheme(Scheme::HierColor)
                    .dry_run(),
            )
            .unwrap();
            lp.run(&session, None, |_| {});
            let _ = platform_model;
            (block, session.elapsed())
        })
        .collect()
}

/// Render the block-size sweep.
pub fn block_size_sweep_text() -> String {
    let mut out =
        String::from("## Ablation: hierarchical block size (paper: GPUs 256, CPUs 4096)\n");
    for p in [PlatformId::A100, PlatformId::Xeon8360Y] {
        out.push_str(&format!("{}:\n", Platform::get(p).name));
        for (block, t) in block_size_sweep(p) {
            out.push_str(&format!("  block {block:>6} -> {:.4} s\n", t));
        }
    }
    out
}

/// §4.1's consistency statistics: per platform, mean and standard
/// deviation of the best variant's efficiency over the structured apps,
/// summed in the table's app order.
pub fn consistency_rows(table: &[Measurement]) -> Vec<(PlatformId, f64, f64)> {
    PlatformId::ALL
        .into_iter()
        .map(|p| {
            let mut best_per_app: Vec<(&str, f64)> = Vec::new();
            for m in table
                .iter()
                .filter(|m| m.platform == p && m.scheme.is_none())
            {
                if let Some(e) = m.efficiency {
                    match best_per_app.iter_mut().find(|(app, _)| *app == m.app) {
                        Some((_, best)) => *best = best.max(e),
                        None => best_per_app.push((m.app, e)),
                    }
                }
            }
            let effs: Vec<f64> = best_per_app.into_iter().map(|(_, e)| e).collect();
            (p, mean(&effs), std_dev(&effs))
        })
        .collect()
}

/// Render consistency rows with the paper's reference values.
pub fn consistency_text(table: &[Measurement]) -> String {
    let mut out = String::from(
        "## Consistency of best-variant efficiency (paper §4.1: Max 1100 has\n\
         ## the lowest std dev at 11.6%, Xeon next at 11.8%, rest above 17%)\n",
    );
    for (p, m, s) in consistency_rows(table) {
        out.push_str(&format!(
            "{:12} mean {:5.1}%  std {:5.1}%\n",
            p.label(),
            m * 100.0,
            s * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_sweep_is_monotone_in_locality() {
        let sweep = ordering_sweep(PlatformId::A100);
        for pair in sweep.windows(2) {
            assert!(
                pair[1].1 >= pair[0].1 * 0.999,
                "worse ordering must not be faster: {pair:?}"
            );
        }
    }

    #[test]
    fn cache_sweep_shows_monotone_efficiency_gain() {
        let sweep = cache_sweep();
        for pair in sweep.windows(2) {
            assert!(pair[1].2 >= pair[0].2 - 1e-9, "{pair:?}");
        }
        // Scaling the MI250X's L2 towards the Max 1100's must lift
        // efficiency substantially.
        assert!(sweep.last().unwrap().2 > 1.3 * sweep[0].2);
    }

    #[test]
    fn workgroup_sweep_has_meaningful_spread() {
        let text = workgroup_sweep_text();
        assert!(text.contains("a100"));
        assert!(text.contains("spread"));
    }

    #[test]
    fn consistency_rows_cover_all_platforms() {
        let rows = consistency_rows(&portability::paper_measurements());
        assert_eq!(rows.len(), 6);
        for (p, m, s) in rows {
            assert!(m > 0.2 && m < 1.6, "{p:?} mean {m}");
            assert!((0.0..0.6).contains(&s), "{p:?} std {s}");
        }
    }
}
