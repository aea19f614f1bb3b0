//! Work-group shape autotuning.
//!
//! The paper tunes one nd_range shape per application ("in our tests we
//! only tune for the best performing shape for the entire application",
//! §3). This module provides that search over the machine model, plus
//! the sweep data behind `results/ablation_workgroup.txt`.

use crate::kernel::Kernel;
use crate::toolchain::{SyclVariant, Toolchain};
use machine_model::{predict, Platform, PlatformId};

/// The candidate shapes a tuner would try (powers of two up to 1024
/// work-items, 1-D to 3-D).
pub fn candidate_shapes() -> Vec<[usize; 3]> {
    let mut shapes = Vec::new();
    for &x in &[16usize, 32, 64, 128, 256, 512, 1024] {
        shapes.push([x, 1, 1]);
    }
    for &x in &[8usize, 16, 32, 64, 128, 256] {
        for &y in &[2usize, 4, 8, 16] {
            if x * y <= 1024 {
                shapes.push([x, y, 1]);
            }
        }
    }
    for &x in &[8usize, 16, 32] {
        for &y in &[4usize, 8] {
            for &z in &[2usize, 4] {
                if x * y * z <= 1024 {
                    shapes.push([x, y, z]);
                }
            }
        }
    }
    shapes
}

/// Predicted time of one kernel under an explicit shape.
pub fn time_with_shape(
    platform: &Platform,
    toolchain: Toolchain,
    kernel: &Kernel,
    shape: [usize; 3],
) -> f64 {
    let mut k = kernel.clone();
    k.nd_shape = Some(shape);
    let exec = toolchain.exec_profile(platform, SyclVariant::NdRange(shape), &k);
    predict(platform, &k.footprint, &exec).total
}

/// Sweep all candidate shapes; returns (shape, seconds) sorted fastest
/// first.
pub fn sweep(
    platform: PlatformId,
    toolchain: Toolchain,
    kernel: &Kernel,
) -> Vec<([usize; 3], f64)> {
    let platform = Platform::get(platform);
    let mut out: Vec<([usize; 3], f64)> = candidate_shapes()
        .into_iter()
        .map(|s| (s, time_with_shape(&platform, toolchain, kernel, s)))
        .collect();
    out.sort_by(|a, b| a.1.total_cmp(&b.1));
    out
}

/// The best shape for a kernel on a platform.
pub fn best_shape(platform: PlatformId, toolchain: Toolchain, kernel: &Kernel) -> [usize; 3] {
    sweep(platform, toolchain, kernel)[0].0
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine_model::{AccessProfile, KernelFootprint, Precision, StencilProfile};

    fn rtm_kernel() -> Kernel {
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

    #[test]
    fn candidates_cover_1d_2d_3d() {
        let shapes = candidate_shapes();
        assert!(shapes.len() > 30);
        assert!(shapes.iter().any(|s| s[1] == 1 && s[2] == 1));
        assert!(shapes.iter().any(|s| s[1] > 1 && s[2] == 1));
        assert!(shapes.iter().any(|s| s[2] > 1));
        assert!(shapes.iter().all(|s| s.iter().product::<usize>() <= 1024));
    }

    #[test]
    fn tuned_shape_beats_the_worst_by_a_wide_margin() {
        let sweep = sweep(PlatformId::A100, Toolchain::Dpcpp, &rtm_kernel());
        let best = sweep.first().unwrap().1;
        let worst = sweep.last().unwrap().1;
        assert!(worst > 1.5 * best, "sweep range {best:.2e}..{worst:.2e}");
    }

    #[test]
    fn best_rtm_shape_is_compact_not_a_strip() {
        // Radius-4 stencils want squat tiles that fit the L1 share.
        let shape = best_shape(PlatformId::A100, Toolchain::Dpcpp, &rtm_kernel());
        assert!(shape[1] > 1, "best shape {shape:?} should tile y");
    }

    #[test]
    fn tuning_is_deterministic() {
        let a = best_shape(PlatformId::Mi250x, Toolchain::OpenSycl, &rtm_kernel());
        let b = best_shape(PlatformId::Mi250x, Toolchain::OpenSycl, &rtm_kernel());
        assert_eq!(a, b);
    }
}
