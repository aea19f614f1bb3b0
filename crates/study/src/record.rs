//! The terminal result of one study unit, as journaled and reported.
//!
//! A [`UnitRecord`] is the unit of crash-tolerance: it is written to
//! the journal the moment it becomes terminal (measured, a paper hole,
//! or exhausted after bounded retries), it is what a resumed study
//! skips, and it is the row `STUDY.json` reports — carrying which
//! worker, attempt and trace produced it.

use crate::unit::{unit_from_wire, StudyUnit};
use sycl_sim::FailureKind;
use telemetry::json::{self, Json, JsonWriter};

/// Why a unit is terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitStatus {
    /// Measured successfully.
    Ok,
    /// The configuration fails *by design* — one of the paper's missing
    /// bars (unsupported toolchain, modelled compile error, …).
    Hole(FailureKind),
    /// The worker executing it died or hung on every allowed attempt.
    Crashed,
}

impl UnitStatus {
    pub fn label(self) -> &'static str {
        match self {
            UnitStatus::Ok => "ok",
            UnitStatus::Hole(_) => "hole",
            UnitStatus::Crashed => "crashed",
        }
    }
}

/// Wire-stable code for a [`FailureKind`].
pub fn failure_code(k: FailureKind) -> &'static str {
    match k {
        FailureKind::Unsupported => "unsupported",
        FailureKind::CompileError => "compile-error",
        FailureKind::RuntimeCrash => "runtime-crash",
        FailureKind::IncorrectResult => "incorrect-result",
        FailureKind::VerificationFailed => "verification-failed",
    }
}

fn failure_parse(s: &str) -> Option<FailureKind> {
    [
        FailureKind::Unsupported,
        FailureKind::CompileError,
        FailureKind::RuntimeCrash,
        FailureKind::IncorrectResult,
        FailureKind::VerificationFailed,
    ]
    .into_iter()
    .find(|&k| failure_code(k) == s)
}

/// One terminal study-unit result.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitRecord {
    pub unit: StudyUnit,
    pub status: UnitStatus,
    /// Free-text context for `Crashed` records ("timeout after 2s", …).
    pub note: Option<String>,
    /// Worker slot that produced (or last attempted) the unit.
    pub worker: u32,
    /// 1-based attempt that became terminal.
    pub attempt: u32,
    /// Causal trace id of the dispatch that became terminal (0 for
    /// serial runs and journals written before tracing existed).
    pub trace: u64,
    /// Worker-side wall-clock spent on the successful attempt, seconds.
    pub wall_secs: f64,
    /// Per-repetition wall-clock samples (the non-deterministic part).
    pub samples: Vec<f64>,
    /// Simulated runtime, when measured.
    pub sim_secs: Option<f64>,
    /// Achieved architectural efficiency, when measured.
    pub efficiency: Option<f64>,
    /// Achieved bandwidth (efficiency × STREAM), GB/s, when measured.
    pub gbps: Option<f64>,
}

impl UnitRecord {
    /// The unit's stable id (journal/merge key).
    pub fn id(&self) -> String {
        self.unit.id()
    }

    /// Serialize as a single JSON object (one journal line).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("index").int(self.unit.index as u64);
        w.key("id").string(&self.id());
        w.key("app").string(&self.unit.app);
        w.key("platform").string(self.unit.platform.label());
        w.key("toolchain")
            .string(self.unit.variant.toolchain.label());
        w.key("ndRange").bool(self.unit.variant.nd_range);
        if let Some(s) = self.unit.scheme {
            w.key("scheme").string(s.label());
        }
        w.key("status").string(self.status.label());
        if let UnitStatus::Hole(k) = self.status {
            w.key("failure").string(failure_code(k));
        }
        if let Some(n) = &self.note {
            w.key("note").string(n);
        }
        w.key("worker").int(self.worker as u64);
        w.key("attempt").int(self.attempt as u64);
        w.key("trace").int(self.trace);
        w.key("wallSecs").number(self.wall_secs);
        w.key("samples").begin_array();
        for &s in &self.samples {
            w.number(s);
        }
        w.end_array();
        if let Some(v) = self.sim_secs {
            w.key("simSecs").number(v);
        }
        if let Some(v) = self.efficiency {
            w.key("efficiency").number(v);
        }
        if let Some(v) = self.gbps {
            w.key("gbps").number(v);
        }
        w.end_object();
    }

    /// Parse one record object.
    pub fn parse(text: &str) -> Result<UnitRecord, String> {
        let j = json::parse(text).map_err(|e| e.to_string())?;
        UnitRecord::from_json(&j)
    }

    pub(crate) fn from_json(j: &Json) -> Result<UnitRecord, String> {
        let need =
            |k: &str| -> Result<&Json, String> { j.get(k).ok_or(format!("record missing '{k}'")) };
        let unit = unit_from_wire(
            j.u64_of("index").ok_or("record missing 'index'")? as usize,
            need("app")?.as_str().ok_or("'app' not a string")?,
            j.str_of("platform").ok_or("record missing 'platform'")?,
            j.str_of("toolchain").ok_or("record missing 'toolchain'")?,
            matches!(j.get("ndRange"), Some(Json::Bool(true))),
            j.str_of("scheme"),
        )
        .ok_or("record names unknown platform/toolchain/scheme")?;
        let status = match j.str_of("status").ok_or("record missing 'status'")? {
            "ok" => UnitStatus::Ok,
            "hole" => {
                let code = j.str_of("failure").ok_or("hole record missing 'failure'")?;
                UnitStatus::Hole(failure_parse(code).ok_or("unknown failure code")?)
            }
            "crashed" => UnitStatus::Crashed,
            other => return Err(format!("unknown status '{other}'")),
        };
        let samples = match j.get("samples") {
            Some(Json::Arr(a)) => a
                .iter()
                .map(|v| v.as_f64().ok_or("non-numeric sample"))
                .collect::<Result<Vec<f64>, _>>()?,
            _ => return Err("record missing 'samples'".into()),
        };
        Ok(UnitRecord {
            unit,
            status,
            note: j.str_of("note").map(str::to_owned),
            worker: j.u64_of("worker").ok_or("record missing 'worker'")? as u32,
            attempt: j.u64_of("attempt").ok_or("record missing 'attempt'")? as u32,
            trace: j.u64_of("trace").unwrap_or(0),
            wall_secs: j.f64_of("wallSecs").ok_or("record missing 'wallSecs'")?,
            samples,
            sim_secs: j.f64_of("simSecs"),
            efficiency: j.f64_of("efficiency"),
            gbps: j.f64_of("gbps"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::smoke_units;

    fn sample_record() -> UnitRecord {
        let unit = smoke_units().into_iter().next().unwrap();
        UnitRecord {
            unit,
            status: UnitStatus::Ok,
            note: None,
            worker: 2,
            attempt: 3,
            trace: 11,
            wall_secs: 0.5,
            samples: vec![0.2, 0.3],
            sim_secs: Some(1.5),
            efficiency: Some(0.61),
            gbps: Some(900.0),
        }
    }

    #[test]
    fn records_round_trip() {
        let r = sample_record();
        assert_eq!(UnitRecord::parse(&r.to_json()).unwrap(), r);

        let hole = UnitRecord {
            status: UnitStatus::Hole(FailureKind::CompileError),
            sim_secs: None,
            efficiency: None,
            gbps: None,
            samples: vec![],
            ..sample_record()
        };
        assert_eq!(UnitRecord::parse(&hole.to_json()).unwrap(), hole);

        let crashed = UnitRecord {
            status: UnitStatus::Crashed,
            note: Some("timeout after 2s".into()),
            ..hole.clone()
        };
        assert_eq!(UnitRecord::parse(&crashed.to_json()).unwrap(), crashed);
    }
}
