//! Run manifests: the `BENCH_engine.json` document `engine_bench`
//! writes.
//!
//! A manifest records everything a reader needs to re-interpret a run
//! later: where it came from (git revision, platform model, thread
//! count), how hard it tried (repetitions), what it measured
//! (per-kernel wall summaries *and* the raw per-repetition samples),
//! and what the engine did while measuring (a counter snapshot delta).
//! [`RunManifest::to_json`] writes through the shared `JsonWriter`.

use crate::hist::Summary;
use telemetry::export::counters_json;
use telemetry::json::JsonWriter;
use telemetry::CounterSnapshot;

/// Schema tag written into every manifest.
pub const SCHEMA: &str = "sycl-metrics/manifest-v1";

/// One kernel's (or phase's) measurements within a run.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSummary {
    pub name: String,
    /// Distribution of the per-repetition timings (seconds).
    pub wall: Summary,
    /// Raw per-repetition timings, seconds.
    pub samples: Vec<f64>,
    /// Simulated seconds per repetition (0.0 when not priced).
    pub sim_secs: f64,
    /// Effective bytes moved per repetition.
    pub bytes: f64,
    /// Achieved bandwidth, GB/s (under the simulated clock when priced).
    pub gbps: f64,
}

/// One bench run, as persisted.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Manifest name — `BENCH_<name>.json`.
    pub name: String,
    pub git_rev: String,
    /// Platform model the run priced against (or "host" for wall-clock).
    pub platform: String,
    pub threads: u32,
    /// Repetitions each kernel was timed for.
    pub repetitions: u32,
    /// Seconds since the Unix epoch when the run finished.
    pub created_unix_secs: u64,
    pub kernels: Vec<KernelSummary>,
    /// Engine counter deltas over the measured interval.
    pub counters: CounterSnapshot,
}

/// Best-effort short git revision of the working tree ("unknown" when
/// git is unavailable), suffixed `-dirty` when tracked files differ
/// from it.
pub fn git_rev() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let Some(rev) = git(&["rev-parse", "--short", "HEAD"]) else {
        return "unknown".to_owned();
    };
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
        .is_some_and(|s| !s.trim().is_empty());
    rev_label(rev.trim(), dirty)
}

/// The label for revision `rev`: `-dirty` marks uncommitted tracked
/// changes, and an empty revision reads "unknown".
fn rev_label(rev: &str, dirty: bool) -> String {
    match (rev.is_empty(), dirty) {
        (true, _) => "unknown".to_owned(),
        (false, true) => format!("{rev}-dirty"),
        (false, false) => rev.to_owned(),
    }
}

fn summary_json(w: &mut JsonWriter, s: &Summary) {
    w.begin_object();
    w.key("count").int(s.count);
    w.key("mean").number(s.mean);
    w.key("ci95").number(s.ci95);
    w.key("p50").number(s.p50);
    w.key("p90").number(s.p90);
    w.key("p99").number(s.p99);
    w.key("p999").number(s.p999);
    w.key("min").number(s.min);
    w.key("max").number(s.max);
    w.key("sum").number(s.sum);
    w.end_object();
}

impl RunManifest {
    /// Serialise to the `BENCH_<name>.json` document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema").string(SCHEMA);
        w.key("name").string(&self.name);
        w.key("gitRev").string(&self.git_rev);
        w.key("platform").string(&self.platform);
        w.key("threads").int(self.threads as u64);
        w.key("repetitions").int(self.repetitions as u64);
        w.key("createdUnixSecs").int(self.created_unix_secs);
        w.key("counters");
        counters_json(&mut w, &self.counters);
        w.key("kernels").begin_array();
        for k in &self.kernels {
            w.begin_object();
            w.key("name").string(&k.name);
            w.key("simSecs").number(k.sim_secs);
            w.key("bytes").number(k.bytes);
            w.key("gbps").number(k.gbps);
            w.key("samples").begin_array();
            for &s in &k.samples {
                w.number(s);
            }
            w.end_array();
            w.key("wall");
            summary_json(&mut w, &k.wall);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use telemetry::json;

    #[test]
    fn manifests_are_valid_json_with_every_field() {
        let samples = vec![1.0e-3, 1.1e-3, 0.9e-3];
        let mut h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let m = RunManifest {
            name: "engine".into(),
            git_rev: "abc1234".into(),
            platform: "xeon-8360y".into(),
            threads: 8,
            repetitions: 3,
            created_unix_secs: 1_700_000_000,
            kernels: vec![KernelSummary {
                name: "triad \"hot\"".into(),
                wall: h.summary(),
                samples: samples.clone(),
                sim_secs: 2.5e-4,
                bytes: 2.4e7,
                gbps: 96.0,
            }],
            counters: CounterSnapshot {
                pricing_cache_hits: 42,
                regions: 1 << 30,
                ..Default::default()
            },
        };
        let doc = json::parse(&m.to_json()).unwrap();
        assert_eq!(doc.str_of("schema"), Some(SCHEMA));
        assert_eq!(doc.str_of("gitRev"), Some("abc1234"));
        assert_eq!(doc.u64_of("threads"), Some(8));
        assert_eq!(doc.u64_of("createdUnixSecs"), Some(1_700_000_000));
        let counters = doc.get("counters").unwrap();
        assert_eq!(counters.u64_of("pricing_cache_hits"), Some(42));
        assert_eq!(counters.u64_of("regions"), Some(1 << 30));
        let k = &doc.get("kernels").and_then(json::Json::as_arr).unwrap()[0];
        assert_eq!(k.str_of("name"), Some("triad \"hot\""));
        assert_eq!(k.f64_of("gbps"), Some(96.0));
        let got: Vec<f64> = k
            .get("samples")
            .and_then(json::Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(json::Json::as_f64)
            .collect();
        assert_eq!(got, samples);
        let wall = k.get("wall").unwrap();
        assert_eq!(wall.u64_of("count"), Some(3));
        assert_eq!(wall.f64_of("max"), Some(1.1e-3));
    }

    #[test]
    fn git_rev_never_panics() {
        let r = git_rev();
        assert!(!r.is_empty());
    }

    #[test]
    fn rev_label_marks_a_dirty_tree() {
        assert_eq!(rev_label("abc1234", false), "abc1234");
        assert_eq!(rev_label("abc1234", true), "abc1234-dirty");
        assert_eq!(rev_label("", false), "unknown");
        assert_eq!(rev_label("", true), "unknown");
    }
}
