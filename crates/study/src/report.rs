//! `STUDY.json`: the study-level artefact, and shard merging.
//!
//! One document (`schema: "sycl-study/v1"`) holds the terminal record
//! of every unit plus the fleet statistics; the dashboard's study
//! section and the PP̄ table are derived from it. CI runs shards
//! (`--shard 1/2`, `--shard 2/2`) in parallel jobs and merges their
//! documents — [`merge_docs`] verifies the shards are disjoint and
//! together cover the scope's full canonical enumeration, so a lost
//! shard can never silently shrink the study.

use crate::orchestrator::StudyStats;
use crate::record::{UnitRecord, UnitStatus};
use crate::unit::Scope;
use portability::{cpu_platforms, gpu_platforms, pennycook};
use sycl_sim::{PlatformId, Scheme, Toolchain};
use telemetry::json::{self, Json, JsonWriter};

pub const SCHEMA: &str = "sycl-study/v1";

/// The study-level result document.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyDoc {
    pub scope: Scope,
    /// 1-based (index, count) when this document is one CI shard.
    pub shard: Option<(usize, usize)>,
    pub workers: u32,
    pub stats: StudyStats,
    /// Terminal records, canonical (unit-index) order.
    pub records: Vec<UnitRecord>,
}

impl StudyDoc {
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema").string(SCHEMA);
        w.key("scope").string(self.scope.label());
        if let Some((i, n)) = self.shard {
            w.key("shardIndex").int(i as u64);
            w.key("shardCount").int(n as u64);
        }
        w.key("workers").int(self.workers as u64);
        w.key("stats").begin_object();
        w.key("elapsedSecs").number(self.stats.elapsed_secs);
        w.key("busySecs").number(self.stats.busy_secs);
        w.key("workers").int(self.stats.workers as u64);
        w.key("retries").int(self.stats.retries);
        w.key("restarts").int(self.stats.restarts);
        w.key("timeouts").int(self.stats.timeouts);
        w.key("resumed").int(self.stats.resumed as u64);
        w.key("peakRssKb").int(self.stats.peak_rss_kb);
        w.end_object();
        w.key("pp").begin_array();
        for (label, value) in pp_rows(&self.records) {
            w.begin_object();
            w.key("label").string(&label);
            w.key("value").number(value);
            w.end_object();
        }
        w.end_array();
        w.key("records").begin_array();
        for r in &self.records {
            r.write_json(&mut w);
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    pub fn parse(text: &str) -> Result<StudyDoc, String> {
        let j = json::parse(text).map_err(|e| e.to_string())?;
        match j.str_of("schema") {
            Some(SCHEMA) => {}
            other => return Err(format!("unexpected schema {other:?}")),
        }
        let scope = j
            .str_of("scope")
            .and_then(Scope::parse)
            .ok_or("document missing a known 'scope'")?;
        let shard = match (j.u64_of("shardIndex"), j.u64_of("shardCount")) {
            (Some(i), Some(n)) => Some((i as usize, n as usize)),
            (None, None) => None,
            _ => return Err("shardIndex/shardCount must appear together".into()),
        };
        let stats = j.get("stats").ok_or("document missing 'stats'")?;
        let stat_u64 = |k: &str| stats.u64_of(k).ok_or(format!("stats missing '{k}'"));
        let records = match j.get("records") {
            Some(Json::Arr(a)) => a
                .iter()
                .map(UnitRecord::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("document missing 'records'".into()),
        };
        Ok(StudyDoc {
            scope,
            shard,
            workers: j.u64_of("workers").ok_or("document missing 'workers'")? as u32,
            stats: StudyStats {
                elapsed_secs: stats.f64_of("elapsedSecs").unwrap_or(0.0),
                busy_secs: stats.f64_of("busySecs").unwrap_or(0.0),
                workers: stat_u64("workers")? as u32,
                retries: stat_u64("retries")?,
                restarts: stat_u64("restarts")?,
                timeouts: stat_u64("timeouts")?,
                resumed: stat_u64("resumed")? as u32,
                // Older documents predate the exit frame.
                peak_rss_kb: stats.u64_of("peakRssKb").unwrap_or(0),
            },
            records,
        })
    }

    /// (ok, holes, crashed) counts.
    pub fn status_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for r in &self.records {
            match r.status {
                UnitStatus::Ok => c.0 += 1,
                UnitStatus::Hole(_) => c.1 += 1,
                UnitStatus::Crashed => c.2 += 1,
            }
        }
        c
    }
}

/// Merge CI shards into one full-scope document, verifying that they
/// are pairwise disjoint and collectively cover the scope's canonical
/// enumeration exactly.
pub fn merge_docs(parts: &[StudyDoc]) -> Result<StudyDoc, String> {
    let first = parts.first().ok_or("no documents to merge")?;
    let scope = first.scope;
    let mut records: Vec<UnitRecord> = Vec::new();
    let mut stats = StudyStats::default();
    let mut workers = 0;
    for d in parts {
        if d.scope != scope {
            return Err(format!(
                "scope mismatch: {} vs {}",
                d.scope.label(),
                scope.label()
            ));
        }
        records.extend(d.records.iter().cloned());
        workers += d.workers;
        stats.elapsed_secs = stats.elapsed_secs.max(d.stats.elapsed_secs);
        stats.busy_secs += d.stats.busy_secs;
        stats.workers += d.stats.workers;
        stats.retries += d.stats.retries;
        stats.restarts += d.stats.restarts;
        stats.timeouts += d.stats.timeouts;
        stats.resumed += d.stats.resumed;
        stats.peak_rss_kb = stats.peak_rss_kb.max(d.stats.peak_rss_kb);
    }
    records.sort_by_key(|r| r.unit.index);
    let expected = scope.units();
    if records.len() != expected.len() {
        return Err(format!(
            "merged shards hold {} records, scope '{}' has {} units",
            records.len(),
            scope.label(),
            expected.len()
        ));
    }
    for (r, u) in records.iter().zip(&expected) {
        if r.unit != *u {
            return Err(format!(
                "record at index {} is {}, expected {} — shards overlap or a shard is missing",
                u.index,
                r.id(),
                u.id()
            ));
        }
    }
    Ok(StudyDoc {
        scope,
        shard: None,
        workers,
        stats,
        records,
    })
}

/// The Pennycook–Sewall PP̄ table over the merged study, computed the
/// way `bench_harness::summary_stats` does for the paper's §4.4 — but
/// from journaled records, so it covers exactly what this study ran.
pub fn pp_rows(records: &[UnitRecord]) -> Vec<(String, f64)> {
    let platforms: Vec<PlatformId> = gpu_platforms()
        .into_iter()
        .chain(cpu_platforms())
        .filter(|p| records.iter().any(|r| r.unit.platform == *p))
        .collect();
    let apps: Vec<&str> = {
        let mut v: Vec<&str> = records
            .iter()
            .filter(|r| r.unit.scheme.is_none())
            .map(|r| r.unit.app.as_str())
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
        let per_app: Vec<f64> = apps
            .iter()
            .map(|&app| {
                let es: Vec<Option<f64>> = platforms
                    .iter()
                    .map(|&p| {
                        records
                            .iter()
                            .find(|r| {
                                r.unit.scheme.is_none()
                                    && r.unit.app == app
                                    && r.unit.platform == p
                                    && r.unit.variant.toolchain == tc
                                    && r.unit.variant.nd_range == nd
                            })
                            .and_then(|r| r.efficiency)
                    })
                    .collect();
                pennycook(&es, true)
            })
            .collect();
        let label = format!(
            "structured {} {}",
            tc.label(),
            if nd { "ndrange" } else { "flat" }
        );
        rows.push((label, portability::mean(&per_app)));
    }
    let mgcfd_eff = |p: PlatformId, keep: &dyn Fn(&UnitRecord) -> bool| -> Option<f64> {
        records
            .iter()
            .filter(|r| r.unit.scheme.is_some() && r.unit.platform == p && keep(r))
            .filter_map(|r| r.efficiency)
            .fold(None, |acc: Option<f64>, e| {
                Some(acc.map_or(e, |a| a.max(e)))
            })
    };
    if records.iter().any(|r| r.unit.scheme.is_some()) {
        let osa: Vec<Option<f64>> = platforms
            .iter()
            .map(|&p| {
                mgcfd_eff(p, &|r| {
                    r.unit.variant.toolchain == Toolchain::OpenSycl
                        && r.unit.scheme == Some(Scheme::Atomics)
                })
            })
            .collect();
        rows.push(("mgcfd OpenSYCL atomics".into(), pennycook(&osa, false)));
        let best: Vec<Option<f64>> = platforms
            .iter()
            .map(|&p| mgcfd_eff(p, &|r| r.unit.variant.toolchain.is_sycl()))
            .collect();
        rows.push(("mgcfd best SYCL".into(), pennycook(&best, false)));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::{run_study, StudyConfig};
    use crate::unit::{shard, Scope};

    fn smoke_doc(shard_of: Option<(usize, usize)>) -> StudyDoc {
        let mut cfg = StudyConfig::new(Scope::Smoke);
        cfg.workers = 0;
        cfg.reps = 1;
        cfg.shard = shard_of;
        let out = run_study(&cfg).unwrap();
        StudyDoc {
            scope: Scope::Smoke,
            shard: shard_of,
            workers: 0,
            stats: out.stats,
            records: out.records,
        }
    }

    #[test]
    fn docs_round_trip() {
        let doc = smoke_doc(None);
        let back = StudyDoc::parse(&doc.to_json()).unwrap();
        assert_eq!(back, doc);
        let (ok, holes, crashed) = back.status_counts();
        assert_eq!(ok + holes + crashed, back.records.len());
        assert!(ok > 0, "smoke scope measures something");
        assert_eq!(crashed, 0);
    }

    #[test]
    fn shard_merge_restores_the_full_scope() {
        let full = smoke_doc(None);
        let merged = merge_docs(&[smoke_doc(Some((1, 2))), smoke_doc(Some((2, 2)))]).unwrap();
        assert_eq!(merged.records.len(), full.records.len());
        for (a, b) in merged.records.iter().zip(&full.records) {
            assert_eq!(a.unit, b.unit);
            assert_eq!(a.status, b.status);
            assert_eq!(a.sim_secs, b.sim_secs, "{}", a.id());
        }
        assert_eq!(merged.shard, None);
    }

    #[test]
    fn merge_rejects_overlap_and_gaps() {
        let s1 = smoke_doc(Some((1, 2)));
        let err = merge_docs(&[s1.clone(), s1.clone()]).unwrap_err();
        assert!(err.contains("units") || err.contains("overlap"), "{err}");
        let err = merge_docs(&[s1]).unwrap_err();
        assert!(err.contains("records"), "{err}");
    }

    #[test]
    fn pp_rows_cover_sycl_combos_and_mgcfd() {
        let doc = smoke_doc(None);
        let rows = pp_rows(&doc.records);
        let labels: Vec<&str> = rows.iter().map(|(l, _)| l.as_str()).collect();
        assert!(labels.contains(&"structured DPC++ ndrange"));
        assert!(labels.contains(&"mgcfd best SYCL"));
        for (label, v) in &rows {
            assert!(
                (0.0..=1.3).contains(v),
                "{label}: PP {v} outside sane range"
            );
        }
        // Smoke runs both DPC++-capable platforms, so the nd_range PP
        // over present platforms is nonzero.
        let (_, nd) = rows
            .iter()
            .find(|(l, _)| l == "structured DPC++ ndrange")
            .unwrap();
        assert!(*nd > 0.0);
    }

    #[test]
    fn shard_units_match_doc_shards() {
        // The shard in a doc and the unit::shard helper agree.
        let s2 = smoke_doc(Some((2, 2)));
        let expect = shard(Scope::Smoke.units(), 2, 2);
        assert_eq!(
            s2.records.iter().map(|r| r.unit.index).collect::<Vec<_>>(),
            expect.iter().map(|u| u.index).collect::<Vec<_>>()
        );
    }
}
