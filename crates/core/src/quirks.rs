//! The quirk matrix: categorical toolchain failures reported by the paper.
//!
//! Several results in the paper are not performance numbers but *facts
//! about specific compiler releases*: internal compiler errors, runtime
//! crashes, silently wrong answers, and unsupported targets. These cannot
//! be derived from a performance model, so they are recorded here as a
//! table, each entry citing the paper text it reproduces. Everything
//! performance-shaped stays in the mechanism models.

use crate::error::{Failure, FailureKind};
use crate::toolchain::{Scheme, SyclVariant, Toolchain};
use machine_model::{AtomicKind, PlatformId};

/// Canonical application names used across the workspace.
pub mod apps {
    pub const CLOVERLEAF2D: &str = "cloverleaf2d";
    pub const CLOVERLEAF3D: &str = "cloverleaf3d";
    pub const OPENSBLI_SA: &str = "opensbli_sa";
    pub const OPENSBLI_SN: &str = "opensbli_sn";
    pub const RTM: &str = "rtm";
    pub const ACOUSTIC: &str = "acoustic";
    pub const MGCFD: &str = "mgcfd";

    /// The six structured-mesh application ids, figure order.
    pub const STRUCTURED: [&str; 6] = [
        CLOVERLEAF2D,
        CLOVERLEAF3D,
        OPENSBLI_SA,
        OPENSBLI_SN,
        RTM,
        ACOUSTIC,
    ];

    /// All seven applications.
    pub const ALL: [&str; 7] = [
        CLOVERLEAF2D,
        CLOVERLEAF3D,
        OPENSBLI_SA,
        OPENSBLI_SN,
        RTM,
        ACOUSTIC,
        MGCFD,
    ];
}

/// Check whether a configuration is known to fail before it runs.
///
/// Returns `Some(failure)` for combinations the paper reports as broken;
/// `None` means the configuration runs (its performance then comes from
/// the models).
pub fn check(
    app: &str,
    platform: PlatformId,
    toolchain: Toolchain,
    variant: SyclVariant,
    scheme: Option<Scheme>,
) -> Option<Failure> {
    use PlatformId::*;
    use Toolchain::*;

    // Hard capability gaps first.
    if !toolchain.supports(platform) {
        return Some(Failure::new(
            FailureKind::Unsupported,
            format!("{} does not target {}", toolchain.label(), platform.label()),
        ));
    }

    // §4.2 (Genoa-X): "For CloverLeaf 2D, both DPC++ (flat variant) and
    // OpenSYCL (either variant) produced code that gave incorrect
    // results." (§4.4 adds: CloverLeaf 2D "only working with DPC++
    // nd_range on Genoa-X".)
    if app == apps::CLOVERLEAF2D && platform == GenoaX {
        let broken = matches!(
            (toolchain, variant),
            (Dpcpp, SyclVariant::Flat) | (OpenSycl, _)
        );
        if broken {
            return Some(Failure::new(
                FailureKind::IncorrectResult,
                "CloverLeaf 2D miscompiles on Genoa-X (paper §4.2)",
            ));
        }
    }

    // §4.1 (MI250X): OpenMP offload with the Cray compilers shows
    // "competitive performance (though failing on CloverLeaf 3D)".
    if app == apps::CLOVERLEAF3D && platform == Mi250x && toolchain == OmpOffload {
        return Some(Failure::new(
            FailureKind::RuntimeCrash,
            "Cray OpenMP offload fails on CloverLeaf 3D (paper §4.1)",
        ));
    }

    // §4.3 (MG-CFD on CPUs): "numerous SYCL variant and compiler
    // combinations ... failed to compile (with internal compiler errors,
    // mostly OpenSYCL), crashed during execution, or produced incorrect
    // results". The paper also states OpenSYCL+atomics worked on *all*
    // platforms (it is the variant whose PP̄ = 0.42), so the failures are
    // confined to the colouring schemes below.
    if app == apps::MGCFD && !platform.is_gpu() {
        match (toolchain, scheme) {
            (OpenSycl, Some(Scheme::GlobalColor)) => {
                return Some(Failure::new(
                    FailureKind::CompileError,
                    "OpenSYCL ICE on global-colouring kernels (paper §4.3)",
                ));
            }
            (Dpcpp, Some(Scheme::GlobalColor)) => {
                return Some(Failure::new(
                    FailureKind::RuntimeCrash,
                    "DPC++ global-colouring variant crashes on CPUs (paper §4.3)",
                ));
            }
            _ => {}
        }
    }

    None
}

/// Which atomic path a toolchain gets on a platform.
///
/// GPUs have fast native FP atomics, but §4.3: "on the MI250X there are
/// 'safe' and 'unsafe' ones - we used the unsafe ones where we could...
/// with OpenSYCL, we could not access the unsafe atomics, therefore got
/// significantly worse throughput". CPUs only have CAS loops.
pub fn atomic_kind(platform: PlatformId, toolchain: Toolchain) -> AtomicKind {
    if !platform.is_gpu() {
        return AtomicKind::CasLoop;
    }
    if platform == PlatformId::Mi250x && toolchain == Toolchain::OpenSycl {
        return AtomicKind::CasLoop;
    }
    AtomicKind::NativeFp
}

#[cfg(test)]
mod tests {
    use super::*;

    const ND: SyclVariant = SyclVariant::NdRange([64, 4, 1]);

    #[test]
    fn cloverleaf2d_on_genoax_only_works_with_dpcpp_ndrange() {
        let p = PlatformId::GenoaX;
        assert!(check(apps::CLOVERLEAF2D, p, Toolchain::Dpcpp, ND, None).is_none());
        assert!(check(
            apps::CLOVERLEAF2D,
            p,
            Toolchain::Dpcpp,
            SyclVariant::Flat,
            None
        )
        .is_some());
        assert!(check(apps::CLOVERLEAF2D, p, Toolchain::OpenSycl, ND, None).is_some());
        assert!(check(
            apps::CLOVERLEAF2D,
            p,
            Toolchain::OpenSycl,
            SyclVariant::Flat,
            None
        )
        .is_some());
        // Baselines are fine.
        assert!(check(apps::CLOVERLEAF2D, p, Toolchain::Mpi, ND, None).is_none());
    }

    #[test]
    fn cray_offload_fails_cloverleaf3d_only_on_mi250x() {
        let f = check(
            apps::CLOVERLEAF3D,
            PlatformId::Mi250x,
            Toolchain::OmpOffload,
            SyclVariant::Flat,
            None,
        );
        assert_eq!(f.unwrap().kind, FailureKind::RuntimeCrash);
        assert!(check(
            apps::CLOVERLEAF2D,
            PlatformId::Mi250x,
            Toolchain::OmpOffload,
            SyclVariant::Flat,
            None
        )
        .is_none());
    }

    #[test]
    fn dpcpp_is_unsupported_on_altra() {
        let f = check(apps::RTM, PlatformId::Altra, Toolchain::Dpcpp, ND, None);
        assert_eq!(f.unwrap().kind, FailureKind::Unsupported);
    }

    #[test]
    fn opensycl_atomics_works_on_every_platform() {
        // This combination anchors the paper's PP̄ = 0.42 claim.
        for p in PlatformId::ALL {
            assert!(
                check(
                    apps::MGCFD,
                    p,
                    Toolchain::OpenSycl,
                    ND,
                    Some(Scheme::Atomics)
                )
                .is_none(),
                "OpenSYCL+atomics must work on {p:?}"
            );
        }
    }

    #[test]
    fn mgcfd_colouring_failures_hit_cpus_not_gpus() {
        let cpu = PlatformId::Xeon8360Y;
        let gpu = PlatformId::A100;
        assert_eq!(
            check(
                apps::MGCFD,
                cpu,
                Toolchain::OpenSycl,
                ND,
                Some(Scheme::GlobalColor)
            )
            .unwrap()
            .kind,
            FailureKind::CompileError
        );
        assert_eq!(
            check(
                apps::MGCFD,
                cpu,
                Toolchain::Dpcpp,
                ND,
                Some(Scheme::GlobalColor)
            )
            .unwrap()
            .kind,
            FailureKind::RuntimeCrash
        );
        assert!(check(
            apps::MGCFD,
            gpu,
            Toolchain::OpenSycl,
            ND,
            Some(Scheme::GlobalColor)
        )
        .is_none());
    }

    #[test]
    fn mi250x_opensycl_loses_unsafe_atomics() {
        assert_eq!(
            atomic_kind(PlatformId::Mi250x, Toolchain::OpenSycl),
            AtomicKind::CasLoop
        );
        assert_eq!(
            atomic_kind(PlatformId::Mi250x, Toolchain::NativeHip),
            AtomicKind::NativeFp
        );
        assert_eq!(
            atomic_kind(PlatformId::Mi250x, Toolchain::Dpcpp),
            AtomicKind::NativeFp
        );
        assert_eq!(
            atomic_kind(PlatformId::GenoaX, Toolchain::Dpcpp),
            AtomicKind::CasLoop
        );
    }

    #[test]
    fn there_is_a_working_sycl_config_on_every_platform_for_every_app() {
        // §4.4: "there is at least one compiler and SYCL formulation that
        // works across all architectures and applications."
        for app in apps::ALL {
            for p in PlatformId::ALL {
                let schemes: &[Option<Scheme>] = if app == apps::MGCFD {
                    &[
                        Some(Scheme::Atomics),
                        Some(Scheme::GlobalColor),
                        Some(Scheme::HierColor),
                    ]
                } else {
                    &[None]
                };
                let works = [Toolchain::Dpcpp, Toolchain::OpenSycl]
                    .into_iter()
                    .any(|tc| {
                        [SyclVariant::Flat, ND]
                            .into_iter()
                            .any(|v| schemes.iter().any(|&s| check(app, p, tc, v, s).is_none()))
                    });
                assert!(works, "no working SYCL config for {app} on {p:?}");
            }
        }
    }
}
