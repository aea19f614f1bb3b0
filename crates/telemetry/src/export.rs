//! Exporters: Chrome `trace_event` JSON and per-kernel aggregates.
//!
//! The Chrome format (one object with a `traceEvents` array of complete
//! `"ph": "X"` events) loads directly in `chrome://tracing` and
//! Perfetto. The aggregate table is the paper's per-kernel profiling
//! view computed from the trace instead of the simulated ledger: count,
//! total/mean/p99 wall time, plus the simulated seconds and effective
//! footprint bytes each kernel's launches carried — from which the
//! achieved GB/s falls out.

use crate::counters::CounterSnapshot;
use crate::json::JsonWriter;
use crate::ring::{Event, SpanKind};
use std::collections::HashMap;

/// Write one event as a Chrome `trace_event` object.
fn chrome_event(w: &mut JsonWriter, e: &Event) {
    w.begin_object();
    w.key("name").string(e.name.as_str());
    w.key("cat").string(e.kind.label());
    w.key("ph").string("X");
    // Chrome wants microseconds; keep sub-µs precision as a fraction.
    w.key("ts").number(e.start_ns as f64 / 1e3);
    w.key("dur").number(e.dur_ns as f64 / 1e3);
    w.key("pid").int(0);
    w.key("tid").int(e.thread as u64);
    w.key("args").begin_object();
    w.key("items").int(e.items);
    w.key("bytes").number(e.bytes);
    w.key("sim_ms").number(e.sim_secs * 1e3);
    w.key("seq").int(e.seq);
    w.end_object();
    w.end_object();
}

/// Write the `traceEvents` array (just the array — callers embed it in
/// their own document, as the `profile` binary does).
pub fn chrome_trace_events(w: &mut JsonWriter, events: &[Event]) {
    w.begin_array();
    for e in events {
        chrome_event(w, e);
    }
    w.end_array();
}

/// A complete, standalone Chrome-trace document for `events`.
pub fn chrome_trace(events: &[Event]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("displayTimeUnit").string("ms");
    w.key("traceEvents");
    chrome_trace_events(&mut w, events);
    w.end_object();
    w.finish()
}

/// Per-kernel aggregate over the launch spans of a trace.
#[derive(Debug, Clone)]
pub struct KernelAgg {
    pub name: String,
    /// Launches of this kernel in the trace.
    pub count: usize,
    /// Total / mean wall-clock time of the launch spans, seconds.
    pub total_secs: f64,
    pub mean_secs: f64,
    /// Wall-clock percentiles of the launch spans, seconds.
    pub p50_secs: f64,
    pub p95_secs: f64,
    pub p99_secs: f64,
    /// Total simulated seconds the launches were priced at.
    pub sim_secs: f64,
    /// Total effective footprint bytes.
    pub bytes: f64,
}

impl KernelAgg {
    /// Achieved bandwidth under the *simulated* clock (the paper's
    /// achieved-GB/s view: effective bytes over priced seconds).
    pub fn sim_gbps(&self) -> f64 {
        if self.sim_secs > 0.0 {
            self.bytes / self.sim_secs / 1e9
        } else {
            0.0
        }
    }
}

/// Aggregate the [`SpanKind::Launch`] spans of `events` by kernel name,
/// sorted by total wall time, descending.
pub fn aggregate(events: &[Event]) -> Vec<KernelAgg> {
    let mut durs: HashMap<&str, Vec<u64>> = HashMap::new();
    let mut sums: HashMap<&str, (f64, f64)> = HashMap::new();
    for e in events.iter().filter(|e| e.kind == SpanKind::Launch) {
        durs.entry(e.name.as_str()).or_default().push(e.dur_ns);
        let s = sums.entry(e.name.as_str()).or_insert((0.0, 0.0));
        s.0 += e.sim_secs;
        s.1 += e.bytes;
    }
    let mut out: Vec<KernelAgg> = durs
        .into_iter()
        .map(|(name, mut d)| {
            d.sort_unstable();
            let total_ns: u64 = d.iter().sum();
            // Nearest-rank percentile of the sorted durations.
            let pctl = |q: f64| d[((d.len() as f64 * q).ceil() as usize).clamp(1, d.len()) - 1];
            let (sim_secs, bytes) = sums[name];
            KernelAgg {
                name: name.to_owned(),
                count: d.len(),
                total_secs: total_ns as f64 / 1e9,
                mean_secs: total_ns as f64 / 1e9 / d.len() as f64,
                p50_secs: pctl(0.50) as f64 / 1e9,
                p95_secs: pctl(0.95) as f64 / 1e9,
                p99_secs: pctl(0.99) as f64 / 1e9,
                sim_secs,
                bytes,
            }
        })
        .collect();
    out.sort_by(|a, b| b.total_secs.total_cmp(&a.total_secs));
    out
}

/// The warning line emitted when a trace lost spans to ring overwrite.
fn dropped_warning(spans_dropped: u64) -> String {
    format!(
        "{spans_dropped} span(s) dropped by ring overwrite — this trace is INCOMPLETE; \
         raise TelemetryConfig::ring_capacity"
    )
}

/// Render the aggregate as a text table. A nonzero `spans_dropped`
/// (from the counter delta over the traced interval) prepends a loud
/// warning header — a truncated trace must not look complete.
pub fn aggregate_text(aggs: &[KernelAgg], spans_dropped: u64) -> String {
    let mut out = String::new();
    if spans_dropped > 0 {
        out.push_str(&format!(
            "!!! WARNING: {}\n",
            dropped_warning(spans_dropped)
        ));
    }
    out.push_str(
        "kernel                 launches   wall-ms  mean-us   p50-us   p95-us   p99-us    sim-ms  GB/s(sim)\n",
    );
    for a in aggs {
        out.push_str(&format!(
            "{:22} {:8} {:9.3} {:8.1} {:8.1} {:8.1} {:8.1} {:9.3} {:10.1}\n",
            a.name,
            a.count,
            a.total_secs * 1e3,
            a.mean_secs * 1e6,
            a.p50_secs * 1e6,
            a.p95_secs * 1e6,
            a.p99_secs * 1e6,
            a.sim_secs * 1e3,
            a.sim_gbps(),
        ));
    }
    out
}

/// Write the aggregate as a JSON object: `spans_dropped` (plus a
/// `warning` string when nonzero) and the per-kernel `kernels` array.
pub fn aggregate_json(w: &mut JsonWriter, aggs: &[KernelAgg], spans_dropped: u64) {
    w.begin_object();
    w.key("spans_dropped").int(spans_dropped);
    if spans_dropped > 0 {
        w.key("warning").string(&dropped_warning(spans_dropped));
    }
    w.key("kernels").begin_array();
    for a in aggs {
        w.begin_object();
        w.key("kernel").string(&a.name);
        w.key("launches").int(a.count as u64);
        w.key("wall_secs").number(a.total_secs);
        w.key("mean_secs").number(a.mean_secs);
        w.key("p50_secs").number(a.p50_secs);
        w.key("p95_secs").number(a.p95_secs);
        w.key("p99_secs").number(a.p99_secs);
        w.key("sim_secs").number(a.sim_secs);
        w.key("bytes").number(a.bytes);
        w.key("sim_gbps").number(a.sim_gbps());
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

/// Write a counter snapshot as a JSON object.
pub fn counters_json(w: &mut JsonWriter, c: &CounterSnapshot) {
    w.begin_object();
    w.key("pricing_cache_hits").int(c.pricing_cache_hits);
    w.key("pricing_cache_misses").int(c.pricing_cache_misses);
    w.key("regions").int(c.regions);
    w.key("steals").int(c.steals);
    w.key("parks").int(c.parks);
    w.key("wakes").int(c.wakes);
    w.key("spans_dropped").int(c.spans_dropped);
    w.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Name;

    fn ev(name: &'static str, kind: SpanKind, start: u64, dur: u64, bytes: f64, sim: f64) -> Event {
        Event {
            seq: start,
            kind,
            name: Name::Static(name),
            start_ns: start,
            dur_ns: dur,
            thread: 0,
            items: 10,
            bytes,
            sim_secs: sim,
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let events = vec![
            ev("a", SpanKind::Launch, 100, 50, 8e6, 1e-4),
            ev("r", SpanKind::Region, 120, 20, 0.0, 0.0),
        ];
        let doc = chrome_trace(&events);
        crate::json::validate(&doc).unwrap();
        assert_eq!(doc.matches("\"ph\": \"X\"").count(), 2);
        assert!(doc.contains("\"cat\": \"launch\""));
        assert!(doc.contains("\"cat\": \"region\""));
    }

    #[test]
    fn aggregate_groups_by_kernel_and_computes_p99() {
        let mut events: Vec<Event> = (0..100)
            .map(|i| ev("k", SpanKind::Launch, i, 1000 + i * 10, 1e6, 1e-5))
            .collect();
        events.push(ev("other", SpanKind::Launch, 1000, 5, 2e6, 2e-5));
        events.push(ev("noise", SpanKind::Region, 1001, 999_999, 0.0, 0.0));
        let aggs = aggregate(&events);
        assert_eq!(aggs.len(), 2, "region spans are not kernels");
        let k = aggs.iter().find(|a| a.name == "k").unwrap();
        assert_eq!(k.count, 100);
        // Percentiles of durations 1000..1990 step 10 (nearest rank).
        assert_eq!(k.p50_secs, 1490.0 / 1e9);
        assert_eq!(k.p95_secs, 1940.0 / 1e9);
        assert_eq!(k.p99_secs, 1980.0 / 1e9);
        assert!((k.bytes - 100e6).abs() < 1.0);
        assert!((k.sim_gbps() - 100e6 / 1e-3 / 1e9).abs() < 1e-9);
        // Sorted by total wall time: "k" dominates.
        assert_eq!(aggs[0].name, "k");
    }

    #[test]
    fn aggregate_renders_as_table_and_json() {
        let events = vec![ev("triad", SpanKind::Launch, 0, 1_000_000, 24e6, 1e-3)];
        let aggs = aggregate(&events);
        let text = aggregate_text(&aggs, 0);
        assert!(text.contains("triad"));
        assert!(text.contains("p50-us") && text.contains("p95-us"));
        assert!(!text.contains("WARNING"));
        let mut w = JsonWriter::new();
        aggregate_json(&mut w, &aggs, 0);
        let doc = w.finish();
        crate::json::validate(&doc).unwrap();
        assert!(doc.contains("\"kernel\": \"triad\""));
        assert!(doc.contains("\"p50_secs\"") && doc.contains("\"p95_secs\""));
        assert!(doc.contains("\"spans_dropped\": 0"));
        assert!(!doc.contains("warning"));
    }

    #[test]
    fn dropped_spans_make_both_outputs_shout() {
        let events = vec![ev("triad", SpanKind::Launch, 0, 1_000_000, 24e6, 1e-3)];
        let aggs = aggregate(&events);
        let text = aggregate_text(&aggs, 17);
        assert!(
            text.starts_with("!!! WARNING: 17 span(s) dropped"),
            "{text}"
        );
        assert!(text.contains("INCOMPLETE"));
        let mut w = JsonWriter::new();
        aggregate_json(&mut w, &aggs, 17);
        let doc = w.finish();
        crate::json::validate(&doc).unwrap();
        assert!(doc.contains("\"spans_dropped\": 17"));
        assert!(doc.contains("\"warning\""));
        assert!(doc.contains("INCOMPLETE"));
    }

    #[test]
    fn counters_serialise() {
        let mut w = JsonWriter::new();
        counters_json(
            &mut w,
            &CounterSnapshot {
                steals: 3,
                ..Default::default()
            },
        );
        let doc = w.finish();
        crate::json::validate(&doc).unwrap();
        assert!(doc.contains("\"steals\": 3"));
    }
}
