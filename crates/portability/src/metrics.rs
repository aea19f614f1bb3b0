//! Aggregate metrics: means, deviations, and the Pennycook–Sewall PP̄.

use crate::study::{Measurement, StudyVariant};
use sycl_sim::{PlatformId, Scheme, Toolchain};

/// Arithmetic mean; 0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation; 0 for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Harmonic mean; 0 if any sample is non-positive (unsupported ⇒ PP=0).
pub fn harmonic_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    xs.len() as f64 / xs.iter().map(|x| 1.0 / x).sum::<f64>()
}

/// The Pennycook–Sewall performance-portability metric for one
/// application across a platform set `H`:
///
/// `PP(a, p, H) = |H| / Σ_{i∈H} 1/e_i(a,p)` when the variant runs on
/// every platform in `H`, else 0. `efficiencies` holds `Some(e)` for
/// platforms where the variant produced a valid result and `None`
/// where it failed.
///
/// `ignore_failures` reproduces the paper's §4.4 "ignoring
/// failing/unavailable variants" reading: failed platforms are dropped
/// from `H` instead of zeroing the metric.
pub fn pennycook(efficiencies: &[Option<f64>], ignore_failures: bool) -> f64 {
    if ignore_failures {
        let ok: Vec<f64> = efficiencies.iter().flatten().copied().collect();
        harmonic_mean(&ok)
    } else {
        if efficiencies.iter().any(|e| e.is_none()) {
            return 0.0;
        }
        let all: Vec<f64> = efficiencies.iter().flatten().copied().collect();
        harmonic_mean(&all)
    }
}

/// One cross-product cell as the PP̄ table sees it: its key and its
/// efficiency (`None` when the cell failed, is unsupported, or its
/// study unit crashed).
#[derive(Debug, Clone, Copy)]
pub struct PpCell<'a> {
    pub app: &'a str,
    pub platform: PlatformId,
    pub variant: StudyVariant,
    /// `Some` for MG-CFD cells, `None` for the structured apps.
    pub scheme: Option<Scheme>,
    pub efficiency: Option<f64>,
}

impl<'a> From<&'a Measurement> for PpCell<'a> {
    fn from(m: &'a Measurement) -> Self {
        PpCell {
            app: m.app,
            platform: m.platform,
            variant: m.variant,
            scheme: m.scheme,
            efficiency: m.efficiency,
        }
    }
}

/// The paper's §4.4 PP̄ rows over `cells`, labelled, in this order:
///
/// * `structured {DPC++, OpenSYCL} {ndrange, flat}` — per structured
///   app, PP̄ of that SYCL variant over the platforms, failures
///   ignored; then the mean over apps;
/// * `mgcfd OpenSYCL atomics` and `mgcfd best SYCL` — PP̄ of MG-CFD's
///   best efficiency per platform (over that variant, or over every
///   SYCL variant and scheme), a failing platform zeroing it.
///
/// The platform set is the paper's platforms that appear in `cells`.
/// The structured rows are omitted when `cells` hold no structured app,
/// the MG-CFD rows when they hold no MG-CFD cell.
pub fn pp_rows(cells: &[PpCell]) -> Vec<(String, f64)> {
    let platforms: Vec<PlatformId> = PlatformId::ALL
        .into_iter()
        .filter(|p| cells.iter().any(|c| c.platform == *p))
        .collect();
    let apps: Vec<&str> = {
        let mut v: Vec<&str> = cells
            .iter()
            .filter(|c| c.scheme.is_none())
            .map(|c| c.app)
            .collect();
        v.sort();
        v.dedup();
        v
    };
    let mut rows = Vec::new();
    for (tc, nd) in [
        (Toolchain::Dpcpp, true),
        (Toolchain::OpenSycl, true),
        (Toolchain::Dpcpp, false),
        (Toolchain::OpenSycl, false),
    ] {
        if apps.is_empty() {
            break;
        }
        let variant = StudyVariant {
            toolchain: tc,
            nd_range: nd,
        };
        let per_app: Vec<f64> = apps
            .iter()
            .map(|&app| {
                let es: Vec<Option<f64>> = platforms
                    .iter()
                    .map(|&p| {
                        cells
                            .iter()
                            .find(|c| {
                                c.scheme.is_none()
                                    && c.app == app
                                    && c.platform == p
                                    && c.variant == variant
                            })
                            .and_then(|c| c.efficiency)
                    })
                    .collect();
                pennycook(&es, true)
            })
            .collect();
        rows.push((format!("structured {}", variant.label()), mean(&per_app)));
    }
    if cells.iter().any(|c| c.scheme.is_some()) {
        let best = |keep: &dyn Fn(&PpCell) -> bool| -> Vec<Option<f64>> {
            platforms
                .iter()
                .map(|&p| {
                    cells
                        .iter()
                        .filter(|c| c.scheme.is_some() && c.platform == p && keep(c))
                        .filter_map(|c| c.efficiency)
                        .fold(None, |acc: Option<f64>, e| {
                            Some(acc.map_or(e, |a| a.max(e)))
                        })
                })
                .collect()
        };
        let osa = best(&|c| {
            c.variant.toolchain == Toolchain::OpenSycl && c.scheme == Some(Scheme::Atomics)
        });
        rows.push(("mgcfd OpenSYCL atomics".into(), pennycook(&osa, false)));
        let sycl = best(&|c| c.variant.toolchain.is_sycl());
        rows.push(("mgcfd best SYCL".into(), pennycook(&sycl, false)));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_properties() {
        assert_eq!(harmonic_mean(&[]), 0.0);
        assert!((harmonic_mean(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        // Harmonic ≤ arithmetic.
        let xs = [0.3, 0.9, 0.6];
        assert!(harmonic_mean(&xs) <= mean(&xs));
        // A zero (unsupported) zeroes the metric.
        assert_eq!(harmonic_mean(&[0.5, 0.0]), 0.0);
    }

    #[test]
    fn pennycook_zeroes_on_failure_unless_ignored() {
        let es = [Some(0.5), None, Some(0.8)];
        assert_eq!(pennycook(&es, false), 0.0);
        let ignored = pennycook(&es, true);
        assert!((ignored - harmonic_mean(&[0.5, 0.8])).abs() < 1e-12);
    }

    #[test]
    fn pennycook_full_support_is_harmonic_mean() {
        let es = [Some(0.4), Some(0.6)];
        let expect = 2.0 / (1.0 / 0.4 + 1.0 / 0.6);
        assert!((pennycook(&es, false) - expect).abs() < 1e-12);
        assert!((pennycook(&es, true) - expect).abs() < 1e-12);
    }

    #[test]
    fn pennycook_is_dominated_by_the_worst_platform() {
        let balanced = pennycook(&[Some(0.6), Some(0.6)], false);
        let skewed = pennycook(&[Some(1.0), Some(0.2)], false);
        assert!(balanced > skewed);
    }
}
