//! Run manifests: the `BENCH_<name>.json` files the bench binaries and
//! the study orchestrator write.
//!
//! A manifest records everything a reader needs to re-interpret a run
//! later: where it came from (git revision, platform
//! model, thread count), how hard it tried (repetitions), what it
//! measured (per-kernel wall summaries *and* the raw per-repetition
//! samples — a merge rebuilds the summaries from the samples), and what the engine did while measuring (a counter
//! snapshot delta). Manifests round-trip: [`RunManifest::to_json`]
//! writes through the shared `JsonWriter`, [`RunManifest::parse`] reads
//! back through [`telemetry::json::parse`].

use crate::hist::Summary;
use telemetry::json::{self, Json, JsonWriter};
use telemetry::CounterSnapshot;

/// Schema tag written into every manifest.
pub const SCHEMA: &str = "sycl-metrics/manifest-v1";

/// Which process produced a kernel entry, and on which try.
///
/// Manifests merged from a fleet of worker processes (the `study`
/// orchestrator) keep this so a suspicious cell can be traced back to
/// the worker — and the attempt number — that measured it. Absent
/// (`None`) for single-process manifests; old documents without the
/// field parse as `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Provenance {
    /// Worker index within the fleet (0 for a serial run).
    pub worker: u32,
    /// 1-based attempt that produced the value (> 1 means the unit was
    /// retried after a crash or timeout).
    pub attempt: u32,
    /// Causal trace id the orchestrator stamped on the dispatch that
    /// produced this value — the join key into flight recordings and
    /// the merged fleet trace. 0 when the run predates tracing (or ran
    /// serially without an orchestrator).
    pub trace: u64,
}

/// One kernel's (or phase's) measurements within a run.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSummary {
    pub name: String,
    /// Distribution of the per-repetition timings (seconds).
    pub wall: Summary,
    /// Raw per-repetition timings, seconds — what a merge rebuilds the
    /// wall summary from.
    pub samples: Vec<f64>,
    /// Simulated seconds per repetition (0.0 when not priced).
    pub sim_secs: f64,
    /// Effective bytes moved per repetition.
    pub bytes: f64,
    /// Achieved bandwidth, GB/s (under the simulated clock when priced).
    pub gbps: f64,
    /// Worker/attempt that produced this entry (merged studies only).
    pub origin: Option<Provenance>,
}

/// One bench/profile run, as persisted.
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
/// git is unavailable).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
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

fn summary_parse(j: &Json) -> Result<Summary, String> {
    let f = |k: &str| j.f64_of(k).ok_or_else(|| format!("summary missing '{k}'"));
    Ok(Summary {
        count: j.u64_of("count").ok_or("summary missing 'count'")?,
        mean: f("mean")?,
        ci95: f("ci95")?,
        p50: f("p50")?,
        p90: f("p90")?,
        p99: f("p99")?,
        // Optional: manifests written before the p999 field parse with
        // 0.0 rather than erroring.
        p999: j.f64_of("p999").unwrap_or(0.0),
        min: f("min")?,
        max: f("max")?,
        sum: f("sum")?,
    })
}

fn counters_json(w: &mut JsonWriter, c: &CounterSnapshot) {
    w.begin_object();
    w.key("launches").int(c.launches);
    w.key("pricingCacheHits").int(c.pricing_cache_hits);
    w.key("pricingCacheMisses").int(c.pricing_cache_misses);
    w.key("regions").int(c.regions);
    w.key("steals").int(c.steals);
    w.key("parks").int(c.parks);
    w.key("wakes").int(c.wakes);
    w.key("bytesMoved").int(c.bytes_moved);
    w.key("spansDropped").int(c.spans_dropped);
    w.end_object();
}

fn counters_parse(j: &Json) -> Result<CounterSnapshot, String> {
    let g = |k: &str| j.u64_of(k).ok_or_else(|| format!("counters missing '{k}'"));
    Ok(CounterSnapshot {
        launches: g("launches")?,
        pricing_cache_hits: g("pricingCacheHits")?,
        pricing_cache_misses: g("pricingCacheMisses")?,
        regions: g("regions")?,
        steals: g("steals")?,
        parks: g("parks")?,
        wakes: g("wakes")?,
        bytes_moved: g("bytesMoved")?,
        spans_dropped: g("spansDropped")?,
    })
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
            if let Some(p) = k.origin {
                w.key("origin");
                w.begin_object();
                w.key("worker").int(p.worker as u64);
                w.key("attempt").int(p.attempt as u64);
                w.key("trace").int(p.trace);
                w.end_object();
            }
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

    /// Parse a manifest document (rejects unknown schema tags).
    pub fn parse(text: &str) -> Result<RunManifest, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let schema = doc.str_of("schema").ok_or("missing 'schema'")?;
        if schema != SCHEMA {
            return Err(format!("unknown manifest schema '{schema}'"));
        }
        let kernels = doc
            .get("kernels")
            .and_then(Json::as_arr)
            .ok_or("missing 'kernels'")?
            .iter()
            .map(|k| -> Result<KernelSummary, String> {
                Ok(KernelSummary {
                    name: k.str_of("name").ok_or("kernel missing 'name'")?.to_owned(),
                    wall: summary_parse(k.get("wall").ok_or("kernel missing 'wall'")?)?,
                    samples: k
                        .get("samples")
                        .and_then(Json::as_arr)
                        .ok_or("kernel missing 'samples'")?
                        .iter()
                        .map(|v| v.as_f64().ok_or_else(|| "bad sample".to_owned()))
                        .collect::<Result<Vec<f64>, String>>()?,
                    sim_secs: k.f64_of("simSecs").ok_or("kernel missing 'simSecs'")?,
                    bytes: k.f64_of("bytes").ok_or("kernel missing 'bytes'")?,
                    gbps: k.f64_of("gbps").ok_or("kernel missing 'gbps'")?,
                    // Optional: single-process manifests (and all
                    // documents written before the study runner) have
                    // no origin.
                    origin: k.get("origin").and_then(|o| {
                        Some(Provenance {
                            worker: o.u64_of("worker")? as u32,
                            attempt: o.u64_of("attempt")? as u32,
                            // Pre-tracing documents carry no trace id.
                            trace: o.u64_of("trace").unwrap_or(0),
                        })
                    }),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RunManifest {
            name: doc.str_of("name").ok_or("missing 'name'")?.to_owned(),
            git_rev: doc.str_of("gitRev").ok_or("missing 'gitRev'")?.to_owned(),
            platform: doc
                .str_of("platform")
                .ok_or("missing 'platform'")?
                .to_owned(),
            threads: doc.u64_of("threads").ok_or("missing 'threads'")? as u32,
            repetitions: doc.u64_of("repetitions").ok_or("missing 'repetitions'")? as u32,
            created_unix_secs: doc
                .u64_of("createdUnixSecs")
                .ok_or("missing 'createdUnixSecs'")?,
            kernels,
            counters: counters_parse(doc.get("counters").ok_or("missing 'counters'")?)?,
        })
    }
}

/// Field-wise sum of two counter snapshots (for merged manifests).
fn counters_sum(a: &CounterSnapshot, b: &CounterSnapshot) -> CounterSnapshot {
    CounterSnapshot {
        launches: a.launches + b.launches,
        pricing_cache_hits: a.pricing_cache_hits + b.pricing_cache_hits,
        pricing_cache_misses: a.pricing_cache_misses + b.pricing_cache_misses,
        regions: a.regions + b.regions,
        steals: a.steals + b.steals,
        parks: a.parks + b.parks,
        wakes: a.wakes + b.wakes,
        bytes_moved: a.bytes_moved + b.bytes_moved,
        spans_dropped: a.spans_dropped + b.spans_dropped,
    }
}

/// Merge `parts` (e.g. one manifest per worker or per CI shard) into one
/// manifest named `name`.
///
/// Kernels keep their part order (parts in argument order, kernels in
/// their part's order). When the same kernel name appears in several
/// parts, the entries collapse into one: the raw samples concatenate and
/// the wall summary is **rebuilt from the combined samples** — lossless,
/// because samples are the raw per-repetition values the summaries were
/// derived from (what makes a histogram re-derivable is exactly why
/// manifests carry the samples at all). `sim_secs`/`bytes`/`gbps` and
/// the origin come from the first part that reported the kernel (they
/// describe the deterministic priced run, identical across workers by
/// the determinism guarantee). Counters sum; `threads`/`repetitions`
/// take the max; `platform`/`git_rev` are kept when unanimous and
/// become `"mixed"` otherwise.
pub fn merge_manifests(name: &str, parts: &[RunManifest]) -> RunManifest {
    let mut kernels: Vec<KernelSummary> = Vec::new();
    let mut counters = CounterSnapshot::default();
    let mut threads = 0u32;
    let mut repetitions = 0u32;
    let mut created = 0u64;
    let unanimous = |pick: fn(&RunManifest) -> &str| -> String {
        let mut vals = parts.iter().map(pick);
        match vals.next() {
            None => "unknown".to_owned(),
            Some(first) if vals.all(|v| v == first) => first.to_owned(),
            Some(_) => "mixed".to_owned(),
        }
    };
    for part in parts {
        counters = counters_sum(&counters, &part.counters);
        threads = threads.max(part.threads);
        repetitions = repetitions.max(part.repetitions);
        created = created.max(part.created_unix_secs);
        for k in &part.kernels {
            match kernels.iter_mut().find(|m| m.name == k.name) {
                None => kernels.push(k.clone()),
                Some(merged) => {
                    merged.samples.extend_from_slice(&k.samples);
                    let mut h = crate::hist::Histogram::new();
                    for &s in &merged.samples {
                        h.record(s);
                    }
                    merged.wall = h.summary();
                }
            }
        }
    }
    RunManifest {
        name: name.to_owned(),
        git_rev: unanimous(|m| &m.git_rev),
        platform: unanimous(|m| &m.platform),
        threads,
        repetitions,
        created_unix_secs: created,
        kernels,
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    fn sample_manifest() -> RunManifest {
        let mut h = Histogram::new();
        for v in [1.0e-3, 1.1e-3, 0.9e-3] {
            h.record(v);
        }
        RunManifest {
            name: "engine".into(),
            git_rev: "abc1234".into(),
            platform: "xeon-8360y".into(),
            threads: 8,
            repetitions: 3,
            created_unix_secs: 1_700_000_000,
            kernels: vec![
                KernelSummary {
                    name: "triad \"hot\"".into(),
                    wall: h.summary(),
                    samples: vec![1.0e-3, 1.1e-3, 0.9e-3],
                    sim_secs: 2.5e-4,
                    bytes: 2.4e7,
                    gbps: 96.0,
                    origin: Some(Provenance {
                        worker: 3,
                        attempt: 2,
                        trace: 17,
                    }),
                },
                KernelSummary {
                    name: "halo".into(),
                    wall: Summary::default(),
                    samples: vec![],
                    sim_secs: 0.0,
                    bytes: 0.0,
                    gbps: 0.0,
                    origin: None,
                },
            ],
            counters: CounterSnapshot {
                launches: 42,
                bytes_moved: 1 << 30,
                spans_dropped: 0,
                ..Default::default()
            },
        }
    }

    #[test]
    fn manifest_round_trips() {
        let m = sample_manifest();
        let text = m.to_json();
        telemetry::json::validate(&text).unwrap();
        let back = RunManifest::parse(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let text = sample_manifest().to_json().replace(SCHEMA, "other/v9");
        let err = RunManifest::parse(&text).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn missing_fields_are_reported_by_name() {
        let m = sample_manifest();
        let text = m.to_json().replace("\"gitRev\"", "\"gitRevX\"");
        let err = RunManifest::parse(&text).unwrap_err();
        assert!(err.contains("gitRev"), "{err}");
    }

    #[test]
    fn manifests_without_p999_still_parse() {
        // Baselines written before the p999 field must keep loading.
        let text = sample_manifest()
            .to_json()
            .replace("\"p999\":", "\"pXXX\":");
        let back = RunManifest::parse(&text).unwrap();
        assert_eq!(back.kernels[0].wall.p999, 0.0);
        assert!(back.kernels[0].wall.p99 > 0.0);
    }

    #[test]
    fn git_rev_never_panics() {
        let r = git_rev();
        assert!(!r.is_empty());
    }

    #[test]
    fn manifests_without_origin_still_parse() {
        // Documents written before the provenance field must keep
        // loading, with `origin: None`.
        let text = sample_manifest().to_json();
        let stripped = {
            // Remove the whole origin object from the serialised form.
            let start = text.find("\"origin\":").unwrap();
            let end = text[start..].find('}').unwrap() + start + 1;
            let mut t = text.clone();
            t.replace_range(start..end + 1, ""); // `},` after the object
            t
        };
        let back = RunManifest::parse(&stripped).unwrap();
        assert_eq!(back.kernels[0].origin, None);
        assert_eq!(back.kernels[0].samples.len(), 3);
    }

    #[test]
    fn merge_disjoint_parts_is_concatenation() {
        let mut a = sample_manifest();
        a.name = "shard1".into();
        let mut b = sample_manifest();
        b.name = "shard2".into();
        b.kernels = vec![KernelSummary {
            name: "other".into(),
            wall: Summary::default(),
            samples: vec![],
            sim_secs: 1.0,
            bytes: 8.0,
            gbps: 8e-9,
            origin: Some(Provenance {
                worker: 1,
                attempt: 1,
                trace: 0,
            }),
        }];
        let merged = merge_manifests("study", &[a.clone(), b.clone()]);
        assert_eq!(merged.name, "study");
        assert_eq!(merged.kernels.len(), a.kernels.len() + 1);
        assert_eq!(merged.kernels[0], a.kernels[0], "part order preserved");
        assert_eq!(merged.kernels.last().unwrap().name, "other");
        assert_eq!(
            merged.counters.launches,
            a.counters.launches + b.counters.launches
        );
        assert_eq!(merged.platform, "xeon-8360y", "unanimous platform kept");
        // Round-trips with provenance intact.
        let back = RunManifest::parse(&merged.to_json()).unwrap();
        assert_eq!(back, merged);
    }

    #[test]
    fn merge_colliding_kernels_rebuilds_summary_losslessly() {
        // Split one sample set across two parts; the merged summary must
        // equal the summary of a histogram over all samples at once.
        let all: Vec<f64> = (1..=40).map(|i| i as f64 * 1e-4).collect();
        let mk = |samples: &[f64], worker: u32| {
            let mut h = Histogram::new();
            for &s in samples {
                h.record(s);
            }
            RunManifest {
                kernels: vec![KernelSummary {
                    name: "cell".into(),
                    wall: h.summary(),
                    samples: samples.to_vec(),
                    sim_secs: 0.5,
                    bytes: 0.0,
                    gbps: 0.0,
                    origin: Some(Provenance {
                        worker,
                        attempt: 1,
                        trace: 0,
                    }),
                }],
                ..sample_manifest()
            }
        };
        let merged = merge_manifests("m", &[mk(&all[..15], 0), mk(&all[15..], 1)]);
        let mut whole = Histogram::new();
        for &s in &all {
            whole.record(s);
        }
        assert_eq!(merged.kernels.len(), 1);
        let k = &merged.kernels[0];
        assert_eq!(k.samples, all, "samples concatenate in part order");
        assert_eq!(k.wall, whole.summary(), "summary rebuilt from raw samples");
        assert_eq!(
            k.origin,
            Some(Provenance {
                worker: 0,
                attempt: 1,
                trace: 0,
            }),
            "first reporter's provenance wins"
        );
        assert_eq!(k.sim_secs, 0.5);
    }

    #[test]
    fn merge_disagreeing_metadata_becomes_mixed() {
        let a = sample_manifest();
        let mut b = sample_manifest();
        b.platform = "a100".into();
        b.git_rev = "fff0000".into();
        b.threads = 64;
        let merged = merge_manifests("m", &[a, b]);
        assert_eq!(merged.platform, "mixed");
        assert_eq!(merged.git_rev, "mixed");
        assert_eq!(merged.threads, 64);
        assert!(merge_manifests("empty", &[]).kernels.is_empty());
    }
}
