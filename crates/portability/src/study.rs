//! Enumerating and running the paper's measurement cross-product.

use miniapps::{App, Mgcfd};
use sycl_sim::{
    quirks::apps, FailureKind, PlatformId, Scheme, Session, SessionConfig, SyclVariant, Toolchain,
};

/// One column of the paper's per-platform figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StudyVariant {
    pub toolchain: Toolchain,
    /// For SYCL toolchains: `true` = nd_range, `false` = flat.
    pub nd_range: bool,
}

impl StudyVariant {
    /// Column label, e.g. "DPC++ ndrange".
    pub fn label(&self) -> String {
        if self.toolchain.is_sycl() {
            format!(
                "{} {}",
                self.toolchain.label(),
                if self.nd_range { "ndrange" } else { "flat" }
            )
        } else {
            self.toolchain.label().to_owned()
        }
    }

    /// The SYCL formulation, given an app's tuned shape.
    fn sycl_variant(&self, nd_shape: [usize; 3]) -> SyclVariant {
        if self.toolchain.is_sycl() && self.nd_range {
            SyclVariant::NdRange(nd_shape)
        } else {
            SyclVariant::Flat
        }
    }

    /// Is this a native (non-SYCL) approach?
    pub fn is_native(&self) -> bool {
        self.toolchain.is_native()
    }
}

/// The variant columns the paper shows for a platform (Figures 2–7).
pub fn variants_for(platform: PlatformId) -> Vec<StudyVariant> {
    use Toolchain::*;
    let mut v: Vec<StudyVariant> = Vec::new();
    let native: &[Toolchain] = match platform {
        PlatformId::A100 => &[NativeCuda],
        PlatformId::Mi250x => &[NativeHip, OmpOffload],
        PlatformId::Max1100 => &[OmpOffload],
        PlatformId::Xeon8360Y | PlatformId::GenoaX => &[Mpi, MpiOpenMp],
        PlatformId::Altra => &[Mpi, OpenMp],
    };
    for &tc in native {
        v.push(StudyVariant {
            toolchain: tc,
            nd_range: false,
        });
    }
    for tc in [Dpcpp, OpenSycl] {
        for nd in [false, true] {
            v.push(StudyVariant {
                toolchain: tc,
                nd_range: nd,
            });
        }
    }
    v
}

/// The result of one measured (or failed) configuration.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub app: &'static str,
    pub platform: PlatformId,
    pub variant: StudyVariant,
    /// For MG-CFD: the race-resolution scheme.
    pub scheme: Option<Scheme>,
    /// Simulated runtime in seconds, or why there is none.
    pub runtime: Result<f64, FailureKind>,
    /// Achieved architectural efficiency (effective BW / STREAM), when
    /// the run succeeded.
    pub efficiency: Option<f64>,
    /// Fraction of time in boundary loops.
    pub boundary_fraction: Option<f64>,
}

impl Measurement {
    /// Efficiency for metric computations (`None` on failure).
    pub fn eff(&self) -> Option<f64> {
        self.efficiency
    }
}

/// One cell of the paper's cross-product: an app on a platform in one
/// variant column, with a race-resolution scheme for MG-CFD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperCell {
    pub app: &'static str,
    pub platform: PlatformId,
    pub variant: StudyVariant,
    /// `Some` for MG-CFD, `None` for the structured-mesh apps.
    pub scheme: Option<Scheme>,
}

/// The paper's whole cross-product — 7 apps × 6 platforms × each
/// platform's variant columns (× 3 schemes for MG-CFD), 306 cells — in
/// canonical order: platforms in [`PlatformId::ALL`] order; per
/// platform the structured apps × variants, then MG-CFD × variants ×
/// schemes. This is the one enumeration of the study: the priced table
/// and `study`'s units are both this list.
pub fn paper_cells() -> Vec<PaperCell> {
    let mut out = Vec::new();
    for platform in PlatformId::ALL {
        let variants = variants_for(platform);
        for app in apps::STRUCTURED {
            out.extend(variants.iter().map(|&variant| PaperCell {
                app,
                platform,
                variant,
                scheme: None,
            }));
        }
        for &variant in &variants {
            out.extend(Scheme::all().map(|scheme| PaperCell {
                app: apps::MGCFD,
                platform,
                variant,
                scheme: Some(scheme),
            }));
        }
    }
    out
}

/// Price one cell of `app` by a dry run — its runtime, or why it has
/// none. `scheme` is MG-CFD's race-resolution scheme.
pub fn measure(
    app: &dyn App,
    platform: PlatformId,
    variant: StudyVariant,
    scheme: Option<Scheme>,
) -> Measurement {
    let mut cfg = SessionConfig::new(platform, variant.toolchain)
        .variant(variant.sycl_variant(app.nd_shape()))
        .app(app.name())
        .dry_run();
    if let Some(scheme) = scheme {
        cfg = cfg.scheme(scheme);
    }
    let (runtime, efficiency, boundary_fraction) = match Session::create(cfg) {
        Err(fail) => (Err(fail.kind), None, None),
        Ok(session) => {
            let run = app.run(&session);
            (
                Ok(run.elapsed),
                Some(run.effective_bandwidth / session.platform().mem.stream_bw),
                Some(run.boundary_fraction),
            )
        }
    };
    Measurement {
        app: app.name(),
        platform,
        variant,
        scheme,
        runtime,
        efficiency,
        boundary_fraction,
    }
}

/// Price one structured-mesh app configuration (dry run, at the app's
/// size).
pub fn measure_structured(
    app: &dyn App,
    platform: PlatformId,
    variant: StudyVariant,
) -> Measurement {
    measure(app, platform, variant, None)
}

/// Price one MG-CFD configuration (dry run at Rotor37 size).
pub fn measure_mgcfd(platform: PlatformId, variant: StudyVariant, scheme: Scheme) -> Measurement {
    measure(&Mgcfd::paper(), platform, variant, Some(scheme))
}

/// [`paper_cells`] priced at paper size: the table every figure,
/// aggregate and CSV of the paper is a function of.
pub fn paper_measurements() -> Vec<Measurement> {
    paper_cells()
        .into_iter()
        .map(|c| {
            let app = miniapps::make_app(c.app, true).expect("paper app names resolve");
            measure(app.as_ref(), c.platform, c.variant, c.scheme)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_columns_match_the_figures() {
        // Fig 2 (A100): CUDA + 4 SYCL columns.
        assert_eq!(variants_for(PlatformId::A100).len(), 5);
        // Fig 3 (MI250X): HIP + Cray offload + 4 SYCL.
        assert_eq!(variants_for(PlatformId::Mi250x).len(), 6);
        // Fig 5 (Xeon): MPI + MPI+OpenMP + 4 SYCL.
        assert_eq!(variants_for(PlatformId::Xeon8360Y).len(), 6);
        // Fig 7 (Altra): MPI + OpenMP + 4 SYCL (DPC++ ones will fail).
        assert_eq!(variants_for(PlatformId::Altra).len(), 6);
    }

    #[test]
    fn labels_are_unique_per_platform() {
        for p in PlatformId::ALL {
            let labels: Vec<String> = variants_for(p).iter().map(|v| v.label()).collect();
            let mut dedup = labels.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(labels.len(), dedup.len(), "{p:?}: {labels:?}");
        }
    }

    #[test]
    fn unsupported_configs_surface_as_failures_not_panics() {
        let app = miniapps::CloverLeaf2d::paper();
        let m = measure_structured(
            &app,
            PlatformId::Altra,
            StudyVariant {
                toolchain: Toolchain::Dpcpp,
                nd_range: true,
            },
        );
        assert_eq!(m.runtime.unwrap_err(), FailureKind::Unsupported);
        assert!(m.eff().is_none());
    }

    #[test]
    fn a_quick_measurement_has_sane_efficiency() {
        let app = miniapps::Rtm::paper();
        let m = measure_structured(
            &app,
            PlatformId::A100,
            StudyVariant {
                toolchain: Toolchain::NativeCuda,
                nd_range: false,
            },
        );
        let eff = m.eff().unwrap();
        assert!(eff > 0.1 && eff < 1.3, "eff = {eff}");
    }
}
