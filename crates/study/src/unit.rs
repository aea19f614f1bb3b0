//! Enumerating the study's work units.
//!
//! A *unit* is one cell of the paper's cross-product: (app, platform,
//! variant[, scheme]). The enumeration order is a **determinism
//! guarantee**: it depends only on the fixed platform/app/variant
//! tables, never on timing or worker count, so every process —
//! orchestrator and worker — derives the same `index ↔ unit` mapping.

use portability::{cpu_platforms, gpu_platforms, variants_for, StudyVariant};
use sycl_sim::{PlatformId, Scheme, Toolchain};

/// One cell of the study cross-product.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyUnit {
    /// Position in the enumeration of its scope.
    pub index: usize,
    /// App name as accepted by `bench_harness::make_app`.
    pub app: String,
    pub platform: PlatformId,
    pub variant: StudyVariant,
    /// `Some` for MG-CFD (the race-resolution scheme), `None` for the
    /// structured-mesh apps.
    pub scheme: Option<Scheme>,
}

impl StudyUnit {
    /// Stable human-readable id, unique within a scope — the journal
    /// and merge layers key on this.
    pub fn id(&self) -> String {
        let mut s = format!(
            "{}@{}/{}",
            self.app,
            self.platform.label(),
            self.variant.label()
        );
        if let Some(k) = self.scheme {
            s.push('#');
            s.push_str(k.label());
        }
        s
    }
}

/// Which slice of the cross-product a study covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The full paper cross-product: 7 apps × 6 platforms × variants
    /// (× schemes for MG-CFD).
    Paper,
    /// A CI-sized subset: CloverLeaf 2D + MG-CFD(atomics) on one GPU
    /// and one CPU.
    Smoke,
}

impl Scope {
    pub fn label(self) -> &'static str {
        match self {
            Scope::Paper => "paper",
            Scope::Smoke => "smoke",
        }
    }

    pub fn parse(s: &str) -> Option<Scope> {
        match s {
            "paper" => Some(Scope::Paper),
            "smoke" => Some(Scope::Smoke),
            _ => None,
        }
    }

    /// Enumerate the scope's units in canonical order.
    pub fn units(self) -> Vec<StudyUnit> {
        match self {
            Scope::Paper => paper_units(),
            Scope::Smoke => smoke_units(),
        }
    }
}

/// The structured-mesh app names, paper order (MG-CFD is enumerated
/// separately because its cells carry a scheme).
fn structured_app_names() -> Vec<&'static str> {
    bench_harness::APP_NAMES
        .into_iter()
        .filter(|&a| a != "mgcfd")
        .collect()
}

fn push_platform_units(
    out: &mut Vec<StudyUnit>,
    platform: PlatformId,
    apps: &[&str],
    mgcfd_schemes: &[Scheme],
) {
    for &app in apps {
        for variant in variants_for(platform) {
            let index = out.len();
            out.push(StudyUnit {
                index,
                app: app.to_owned(),
                platform,
                variant,
                scheme: None,
            });
        }
    }
    for variant in variants_for(platform) {
        for &scheme in mgcfd_schemes {
            let index = out.len();
            out.push(StudyUnit {
                index,
                app: "mgcfd".to_owned(),
                platform,
                variant,
                scheme: Some(scheme),
            });
        }
    }
}

/// The full paper cross-product, canonical order: GPUs then CPUs in
/// figure order; per platform the six structured apps × variants, then
/// MG-CFD × variants × schemes.
pub fn paper_units() -> Vec<StudyUnit> {
    let apps = structured_app_names();
    let mut out = Vec::new();
    for p in gpu_platforms().into_iter().chain(cpu_platforms()) {
        push_platform_units(&mut out, p, &apps, &Scheme::all());
    }
    out
}

/// The smoke subset: one GPU + one CPU, CloverLeaf 2D across variants
/// plus MG-CFD with atomics.
pub fn smoke_units() -> Vec<StudyUnit> {
    let mut out = Vec::new();
    for p in [PlatformId::A100, PlatformId::Xeon8360Y] {
        push_platform_units(&mut out, p, &["cloverleaf2d"], &[Scheme::Atomics]);
    }
    out
}

/// Reconstruct a unit from its wire fields (the worker and merge sides
/// of the protocol). Returns `None` on any unknown label.
pub fn unit_from_wire(
    index: usize,
    app: &str,
    platform: &str,
    toolchain: &str,
    nd_range: bool,
    scheme: Option<&str>,
) -> Option<StudyUnit> {
    let scheme = match scheme {
        None => None,
        Some(s) => Some(Scheme::parse(s)?),
    };
    Some(StudyUnit {
        index,
        app: app.to_owned(),
        platform: PlatformId::parse(platform)?,
        variant: StudyVariant {
            toolchain: Toolchain::parse(toolchain)?,
            nd_range,
        },
        scheme,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn paper_scope_covers_the_whole_cross_product() {
        let units = paper_units();
        // Variant columns per platform: 5+6+5+6+6+6 = 34. Structured:
        // 6 apps × 34; MG-CFD: 34 × 3 schemes.
        assert_eq!(units.len(), 6 * 34 + 34 * 3);
        let ids: HashSet<String> = units.iter().map(|u| u.id()).collect();
        assert_eq!(ids.len(), units.len(), "ids are unique");
        for (i, u) in units.iter().enumerate() {
            assert_eq!(u.index, i, "index mirrors enumeration order");
        }
    }

    #[test]
    fn enumeration_is_deterministic() {
        assert_eq!(paper_units(), paper_units());
        assert_eq!(smoke_units(), smoke_units());
    }

    #[test]
    fn units_round_trip_through_wire_fields() {
        for u in smoke_units() {
            let back = unit_from_wire(
                u.index,
                &u.app,
                u.platform.label(),
                u.variant.toolchain.label(),
                u.variant.nd_range,
                u.scheme.map(|s| s.label()),
            )
            .unwrap();
            assert_eq!(back, u);
        }
        assert!(unit_from_wire(0, "x", "a100", "LLVM", false, None).is_none());
        assert!(unit_from_wire(0, "x", "p6000", "CUDA", false, None).is_none());
    }

    #[test]
    fn ids_name_the_cell_like_the_figures() {
        let units = smoke_units();
        assert!(units.iter().any(|u| u.id() == "cloverleaf2d@a100/CUDA"));
        assert!(units
            .iter()
            .any(|u| u.id() == "mgcfd@xeon8360y/DPC++ ndrange#atomics"));
    }
}
