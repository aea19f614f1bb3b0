//! Enumerating the study's work units.
//!
//! A *unit* is one cell of the paper's cross-product: (app, platform,
//! variant[, scheme]). The enumeration order is a **determinism
//! guarantee**: it depends only on the fixed platform/app/variant
//! tables, never on timing or worker count, so every process —
//! orchestrator and worker — derives the same `index ↔ unit` mapping.

use portability::{paper_cells, StudyVariant};
use sycl_sim::{quirks::apps, PlatformId, Scheme, Toolchain};

/// One cell of the study cross-product.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyUnit {
    /// Position in the enumeration of its scope.
    pub index: usize,
    /// App name as accepted by `miniapps::make_app`.
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

/// The full paper cross-product, numbered in `portability::paper_cells`'
/// canonical order.
pub fn paper_units() -> Vec<StudyUnit> {
    paper_cells()
        .into_iter()
        .enumerate()
        .map(|(index, c)| StudyUnit {
            index,
            app: c.app.to_owned(),
            platform: c.platform,
            variant: c.variant,
            scheme: c.scheme,
        })
        .collect()
}

/// The smoke subset of the paper units, renumbered: the A100 and the
/// Xeon, CloverLeaf 2D across variants plus MG-CFD with atomics.
pub fn smoke_units() -> Vec<StudyUnit> {
    paper_units()
        .into_iter()
        .filter(|u| matches!(u.platform, PlatformId::A100 | PlatformId::Xeon8360Y))
        .filter(|u| u.app == apps::CLOVERLEAF2D || u.scheme == Some(Scheme::Atomics))
        .enumerate()
        .map(|(index, u)| StudyUnit { index, ..u })
        .collect()
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
        // CI's study smoke and the fleet tests run exactly these units,
        // in this order: CloverLeaf 2D, then MG-CFD with atomics, on
        // the A100 (5 variant columns) and on the Xeon (6).
        let ids: Vec<String> = smoke_units().iter().map(StudyUnit::id).collect();
        assert_eq!(
            ids,
            [
                "cloverleaf2d@a100/CUDA",
                "cloverleaf2d@a100/DPC++ flat",
                "cloverleaf2d@a100/DPC++ ndrange",
                "cloverleaf2d@a100/OpenSYCL flat",
                "cloverleaf2d@a100/OpenSYCL ndrange",
                "mgcfd@a100/CUDA#atomics",
                "mgcfd@a100/DPC++ flat#atomics",
                "mgcfd@a100/DPC++ ndrange#atomics",
                "mgcfd@a100/OpenSYCL flat#atomics",
                "mgcfd@a100/OpenSYCL ndrange#atomics",
                "cloverleaf2d@xeon8360y/MPI",
                "cloverleaf2d@xeon8360y/MPI+OpenMP",
                "cloverleaf2d@xeon8360y/DPC++ flat",
                "cloverleaf2d@xeon8360y/DPC++ ndrange",
                "cloverleaf2d@xeon8360y/OpenSYCL flat",
                "cloverleaf2d@xeon8360y/OpenSYCL ndrange",
                "mgcfd@xeon8360y/MPI#atomics",
                "mgcfd@xeon8360y/MPI+OpenMP#atomics",
                "mgcfd@xeon8360y/DPC++ flat#atomics",
                "mgcfd@xeon8360y/DPC++ ndrange#atomics",
                "mgcfd@xeon8360y/OpenSYCL flat#atomics",
                "mgcfd@xeon8360y/OpenSYCL ndrange#atomics",
            ]
        );
        for (i, u) in smoke_units().iter().enumerate() {
            assert_eq!(u.index, i, "smoke units are numbered densely");
        }
    }
}
