//! Executing one study unit (in whichever process it landed).
//!
//! The measurement itself is `portability::measure` on the unit's app
//! from `miniapps::make_app` — the same dry-run pricing the paper table
//! uses, at paper or test size — repeated `reps` times so each record
//! carries a wall-clock sample per repetition. The *simulated*
//! quantities (runtime, efficiency, GB/s) are deterministic; only the
//! wall-clock samples vary between runs, which is exactly the
//! "identical modulo timing samples" determinism contract
//! `tests/study_proc.rs` checks.

use crate::record::{UnitRecord, UnitStatus};
use crate::unit::StudyUnit;
use miniapps::make_app;
use portability::{measure, Measurement};
use std::time::Instant;

/// Run one unit to a terminal record: `Ok` or `Hole`, or `Crashed` when
/// its app name (which may arrive over the worker pipe) resolves to no
/// app. A unit whose worker dies is marked `Crashed` by the
/// orchestrator, after retries are exhausted. `trace` is the causal
/// trace id stamped on the dispatch (0 when no orchestrator is
/// involved). `paper` picks the apps' paper or test size.
pub fn run_unit(
    unit: &StudyUnit,
    reps: u32,
    paper: bool,
    worker: u32,
    attempt: u32,
    trace: u64,
) -> UnitRecord {
    let started = Instant::now();
    let Some(app) = make_app(&unit.app, paper) else {
        return UnitRecord {
            unit: unit.clone(),
            status: UnitStatus::Crashed,
            note: Some(format!("unknown app '{}'", unit.app)),
            worker,
            attempt,
            trace,
            wall_secs: started.elapsed().as_secs_f64(),
            samples: vec![],
            sim_secs: None,
            efficiency: None,
            gbps: None,
        };
    };
    let mut samples = Vec::with_capacity(reps.max(1) as usize);
    let mut last: Option<Measurement> = None;
    for _ in 0..reps.max(1) {
        let rep_start = Instant::now();
        let m = measure(app.as_ref(), unit.platform, unit.variant, unit.scheme);
        samples.push(rep_start.elapsed().as_secs_f64());
        last = Some(m);
    }
    let m = last.expect("reps >= 1");
    let (status, sim_secs) = match m.runtime {
        Ok(t) => (UnitStatus::Ok, Some(t)),
        Err(kind) => (UnitStatus::Hole(kind), None),
    };
    let stream_bw = sycl_sim::Platform::get(unit.platform).mem.stream_bw;
    UnitRecord {
        unit: unit.clone(),
        status,
        note: None,
        worker,
        attempt,
        trace,
        wall_secs: started.elapsed().as_secs_f64(),
        samples,
        sim_secs,
        efficiency: m.efficiency,
        gbps: m.efficiency.map(|e| e * stream_bw / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::smoke_units;
    use miniapps::{App, Mgcfd};
    use sycl_sim::{FailureKind, PlatformId, Scheme, Session, SessionConfig, Toolchain};

    #[test]
    fn a_supported_unit_measures_ok() {
        let unit = smoke_units()
            .into_iter()
            .find(|u| u.id() == "cloverleaf2d@a100/CUDA")
            .unwrap();
        let rec = run_unit(&unit, 2, false, 1, 1, 3);
        assert_eq!(rec.trace, 3, "trace id rides through to the record");
        assert_eq!(rec.status, UnitStatus::Ok);
        assert_eq!(rec.samples.len(), 2);
        assert!(rec.sim_secs.unwrap() > 0.0);
        // Test-size problems undersaturate bandwidth, so only sanity
        // bounds here; paper-size efficiency is asserted in
        // `portability`'s own tests.
        let eff = rec.efficiency.unwrap();
        assert!(eff > 0.0 && eff < 1.3, "eff = {eff}");
        assert!(rec.gbps.unwrap() > 0.0);
    }

    #[test]
    fn an_unsupported_unit_is_a_hole_not_an_error() {
        let unit = StudyUnit {
            index: 0,
            app: "cloverleaf2d".into(),
            platform: PlatformId::Altra,
            variant: portability::StudyVariant {
                toolchain: Toolchain::Dpcpp,
                nd_range: true,
            },
            scheme: None,
        };
        let rec = run_unit(&unit, 1, false, 0, 1, 0);
        assert_eq!(rec.status, UnitStatus::Hole(FailureKind::Unsupported));
        assert!(rec.sim_secs.is_none() && rec.efficiency.is_none());
    }

    #[test]
    fn an_unknown_app_is_a_crashed_record() {
        let unit = StudyUnit {
            app: "lulesh".into(),
            ..smoke_units().swap_remove(0)
        };
        let rec = run_unit(&unit, 2, false, 0, 1, 0);
        assert_eq!(rec.status, UnitStatus::Crashed);
        assert!(rec.samples.is_empty() && rec.sim_secs.is_none());
    }

    #[test]
    fn a_smoke_mgcfd_unit_is_priced_at_test_size() {
        let unit = smoke_units()
            .into_iter()
            .find(|u| u.id() == "mgcfd@a100/CUDA#atomics")
            .unwrap();
        let dry = |app: Mgcfd| {
            let cfg = SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda)
                .app(app.name())
                .scheme(Scheme::Atomics)
                .dry_run();
            app.run(&Session::create(cfg).unwrap()).elapsed
        };
        let smoke = run_unit(&unit, 1, false, 0, 1, 0).sim_secs.unwrap();
        assert_eq!(smoke.to_bits(), dry(Mgcfd::test()).to_bits());
        assert_ne!(smoke, dry(Mgcfd::paper()));
        let paper = run_unit(&unit, 1, true, 0, 1, 0).sim_secs.unwrap();
        assert_eq!(paper.to_bits(), dry(Mgcfd::paper()).to_bits());
    }

    #[test]
    fn simulated_quantities_are_deterministic_across_runs() {
        let unit = smoke_units()
            .into_iter()
            .find(|u| u.scheme.is_some())
            .unwrap();
        let a = run_unit(&unit, 1, false, 0, 1, 1);
        let b = run_unit(&unit, 3, false, 5, 2, 2);
        assert_eq!(a.status, b.status);
        assert_eq!(a.sim_secs, b.sim_secs);
        assert_eq!(a.efficiency, b.efficiency);
        assert_eq!(a.gbps, b.gbps);
    }
}
