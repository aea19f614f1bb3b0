//! `STUDY.json`: the study-level artefact.
//!
//! One document (`schema: "sycl-study/v1"`) holds the terminal record
//! of every unit plus the fleet statistics; the dashboard's study
//! section and the PP̄ table are derived from it.

use crate::orchestrator::StudyStats;
use crate::record::{UnitRecord, UnitStatus};
use crate::unit::Scope;
use portability::PpCell;
use telemetry::json::{self, Json, JsonWriter};

pub const SCHEMA: &str = "sycl-study/v1";

/// The study-level result document.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyDoc {
    pub scope: Scope,
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

/// The Pennycook–Sewall PP̄ table over the study: the same
/// [`portability::pp_rows`] that `bench_harness::summary_stats` reports
/// for the paper's §4.4, over the journaled records, so it covers
/// exactly what this study ran (a crashed unit has no efficiency).
pub fn pp_rows(records: &[UnitRecord]) -> Vec<(String, f64)> {
    let cells: Vec<PpCell> = records
        .iter()
        .map(|r| PpCell {
            app: &r.unit.app,
            platform: r.unit.platform,
            variant: r.unit.variant,
            scheme: r.unit.scheme,
            efficiency: r.efficiency,
        })
        .collect();
    portability::pp_rows(&cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::{run_study, StudyConfig};
    use crate::unit::Scope;

    fn smoke_doc() -> StudyDoc {
        let mut cfg = StudyConfig::new(Scope::Smoke);
        cfg.workers = 0;
        cfg.reps = 1;
        let out = run_study(&cfg).unwrap();
        StudyDoc {
            scope: Scope::Smoke,
            workers: 0,
            stats: out.stats,
            records: out.records,
        }
    }

    #[test]
    fn docs_round_trip() {
        let doc = smoke_doc();
        let back = StudyDoc::parse(&doc.to_json()).unwrap();
        assert_eq!(back, doc);
        let (ok, holes, crashed) = back.status_counts();
        assert_eq!(ok + holes + crashed, back.records.len());
        assert!(ok > 0, "smoke scope measures something");
        assert_eq!(crashed, 0);
    }

    #[test]
    fn pp_rows_cover_sycl_combos_and_mgcfd() {
        let doc = smoke_doc();
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
}
