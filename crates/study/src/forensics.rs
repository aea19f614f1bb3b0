//! Fleet forensics: reconstructing what killed a study unit.
//!
//! The inputs are the two crash-surviving artefacts a study leaves
//! behind: the terminal-record journal (what the orchestrator knows)
//! and the per-process flight recordings (what each process was doing
//! when it last touched disk). This module joins them on the causal
//! trace id and answers the questions the journal alone cannot:
//!
//! * **Attribution** — for every `crashed` unit (including timeouts),
//!   which kernel or phase was the worker inside when it died? The
//!   deepest span still open in the worker's recording at the end of
//!   that dispatch's window is the answer; the worker flushed the unit
//!   span and `begin` mark before anything could kill the attempt, so
//!   the window always exists on disk. Launch and phase spans are only
//!   recorded by sessions that execute their bodies, so a dry-run
//!   unit's kill site is its unit span.
//! * **Tail analysis** — among units that completed, which kernels
//!   dominate the p99 of unit wall time (the stragglers that set the
//!   fleet's critical path)? Empty when the stragglers recorded no
//!   launch spans, as dry-run units do not.
//! * **Timeline** — one merged Chrome trace over every recording, on a
//!   shared unix-epoch clock, with flow arrows joining orchestrator
//!   dispatch → worker execution → result across pids.
//!
//! The `blackbox` binary drives this and writes `BLACKBOX_study.json`
//! (schema [`SCHEMA`]) plus `TRACE_study.json`.

use crate::orchestrator::ORCH_SLOT;
use crate::record::{UnitRecord, UnitStatus};
use std::collections::BTreeMap;
use std::path::Path;
use telemetry::export::{flow_finish, flow_start};
use telemetry::flight::TraceRole;
use telemetry::json::JsonWriter;
use telemetry::{FlightEvent, FlightRecording, SpanKind};

pub const SCHEMA: &str = "sycl-blackbox/v1";

/// Where a crashed (or timed-out) unit died.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    pub unit_id: String,
    pub index: u32,
    pub worker: u32,
    pub attempt: u32,
    pub trace: u64,
    /// The orchestrator's note ("timeout after 2s (attempt 3/3)", …).
    pub note: String,
    /// Deepest span open when the process last wrote — the kill site.
    /// `None` when no recording holds this dispatch (recorder off, or
    /// the worker died before its `begin` mark — which the worker's
    /// urgent-flush discipline makes effectively impossible).
    pub span_kind: Option<&'static str>,
    pub span_name: Option<String>,
    /// Seconds from that span's open to the recording's last event.
    pub in_span_secs: f64,
}

/// One kernel's share of the straggler (≥ p99 unit wall time) window.
#[derive(Debug, Clone, PartialEq)]
pub struct TailKernel {
    pub name: String,
    pub secs: f64,
    /// Fraction of all launch time inside straggler units.
    pub share: f64,
}

/// One flight recording, summarised for the fleet grid.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordingSummary {
    pub worker: u32,
    pub pid: u32,
    pub label: String,
    pub events: usize,
    pub torn: bool,
    /// Last `peak_rss` record in the recording (0 = never written,
    /// i.e. the process did not shut down cleanly).
    pub peak_rss_kb: u64,
}

/// The full forensics document.
#[derive(Debug, Clone, PartialEq)]
pub struct BlackboxDoc {
    pub units: usize,
    pub ok: usize,
    pub holes: usize,
    pub crashed: usize,
    pub attributions: Vec<Attribution>,
    /// Crashed units with no kill-site span — the CI gate requires 0.
    pub unattributed: usize,
    pub tail_p99_secs: f64,
    pub tail_units: Vec<String>,
    pub tail_kernels: Vec<TailKernel>,
    pub recordings: Vec<RecordingSummary>,
}

/// Read every `flight-*.bin` under `dir`, torn tails tolerated.
/// Unreadable files (alien magic, mid-header tears) are skipped — the
/// forensics must degrade, not die, on a corrupt recording.
pub fn load_flight_dir(dir: &Path) -> Vec<FlightRecording> {
    let mut recs = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return recs;
    };
    let mut paths: Vec<_> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight-") && n.ends_with(".bin"))
        })
        .collect();
    paths.sort();
    for p in paths {
        if let Ok(r) = FlightRecording::read(&p) {
            recs.push(r);
        }
    }
    recs.sort_by_key(|r| (r.worker, r.start_unix_ns));
    recs
}

/// The event-index window `[begin, end)` of one dispatch inside `rec`:
/// from its `begin` trace mark to the next unit's `begin` (or the end
/// of the recording — the crash case).
fn dispatch_window(rec: &FlightRecording, r: &UnitRecord) -> Option<(usize, usize)> {
    let matches = |ev: &FlightEvent| -> bool {
        let FlightEvent::TraceMark {
            role: TraceRole::Begin,
            trace,
            unit,
            attempt,
            ..
        } = ev
        else {
            return false;
        };
        if r.trace != 0 {
            *trace == r.trace
        } else {
            *unit == r.unit.index as u32 && *attempt == r.attempt
        }
    };
    let begin = rec.events.iter().position(matches)?;
    let end = rec.events[begin + 1..]
        .iter()
        .position(|ev| {
            matches!(
                ev,
                FlightEvent::TraceMark {
                    role: TraceRole::Begin,
                    ..
                }
            )
        })
        .map(|i| begin + 1 + i)
        .unwrap_or(rec.events.len());
    Some((begin, end))
}

/// Replay the span stream of `rec.events[window]` and return the spans
/// still open at the window's end, outermost first.
fn open_at_window_end(rec: &FlightRecording, window: (usize, usize)) -> Vec<(SpanKind, &str, u64)> {
    let mut stack: Vec<(SpanKind, &str, u64)> = Vec::new();
    for ev in &rec.events[window.0..window.1] {
        match ev {
            FlightEvent::SpanOpen { t_ns, kind, name } => {
                stack.push((*kind, name.as_str(), *t_ns));
            }
            FlightEvent::SpanClose { kind, name, .. } => {
                if let Some(i) = stack
                    .iter()
                    .rposition(|(k, n, _)| k == kind && *n == name.as_str())
                {
                    stack.remove(i);
                }
            }
            _ => {}
        }
    }
    stack
}

/// Paired launch-span durations inside a window, summed per kernel.
fn launch_secs(rec: &FlightRecording, window: (usize, usize)) -> BTreeMap<String, f64> {
    let mut open: Vec<(&str, u64)> = Vec::new();
    let mut by_kernel: BTreeMap<String, f64> = BTreeMap::new();
    for ev in &rec.events[window.0..window.1] {
        match ev {
            FlightEvent::SpanOpen {
                t_ns,
                kind: SpanKind::Launch,
                name,
            } => open.push((name.as_str(), *t_ns)),
            FlightEvent::SpanClose {
                t_ns,
                kind: SpanKind::Launch,
                name,
            } => {
                if let Some(i) = open.iter().rposition(|(n, _)| *n == name.as_str()) {
                    let (n, t0) = open.remove(i);
                    *by_kernel.entry(n.to_string()).or_default() +=
                        t_ns.saturating_sub(t0) as f64 / 1e9;
                }
            }
            _ => {}
        }
    }
    by_kernel
}

/// Timestamp of the last event inside the window (the recording's last
/// breath, for a crash window that runs to the end).
fn window_last_ns(rec: &FlightRecording, window: (usize, usize)) -> u64 {
    rec.events[window.0..window.1]
        .iter()
        .map(FlightEvent::t_ns)
        .max()
        .unwrap_or(rec.start_unix_ns)
}

/// Join journal records with flight recordings into the forensics doc.
pub fn analyze(records: &[UnitRecord], recordings: &[FlightRecording]) -> BlackboxDoc {
    let (mut ok, mut holes, mut crashed) = (0usize, 0usize, 0usize);
    for r in records {
        match r.status {
            UnitStatus::Ok => ok += 1,
            UnitStatus::Hole(_) => holes += 1,
            UnitStatus::Crashed => crashed += 1,
        }
    }

    // --- crash attribution -------------------------------------------
    let mut attributions = Vec::new();
    let mut unattributed = 0usize;
    for r in records {
        if r.status != UnitStatus::Crashed {
            continue;
        }
        let found = recordings
            .iter()
            .find_map(|rec| dispatch_window(rec, r).map(|w| (rec, w)));
        let mut attr = Attribution {
            unit_id: r.id(),
            index: r.unit.index as u32,
            worker: r.worker,
            attempt: r.attempt,
            trace: r.trace,
            note: r.note.clone().unwrap_or_default(),
            span_kind: None,
            span_name: None,
            in_span_secs: 0.0,
        };
        if let Some((rec, w)) = found {
            if let Some(&(kind, name, t0)) = open_at_window_end(rec, w).last() {
                attr.span_kind = Some(kind.label());
                attr.span_name = Some(name.to_string());
                attr.in_span_secs = window_last_ns(rec, w).saturating_sub(t0) as f64 / 1e9;
            }
        }
        if attr.span_kind.is_none() {
            unattributed += 1;
        }
        attributions.push(attr);
    }

    // --- straggler / tail attribution --------------------------------
    let mut ok_walls: Vec<(f64, &UnitRecord)> = records
        .iter()
        .filter(|r| r.status == UnitStatus::Ok)
        .map(|r| (r.wall_secs, r))
        .collect();
    ok_walls.sort_by(|a, b| a.0.total_cmp(&b.0));
    let tail_p99_secs = if ok_walls.is_empty() {
        0.0
    } else {
        // Nearest-rank p99 over completed units.
        let idx = ((ok_walls.len() as f64 * 0.99).ceil() as usize).max(1) - 1;
        ok_walls[idx].0
    };
    let stragglers: Vec<&UnitRecord> = ok_walls
        .iter()
        .filter(|(w, _)| *w >= tail_p99_secs && *w > 0.0)
        .map(|(_, r)| *r)
        .collect();
    let mut by_kernel: BTreeMap<String, f64> = BTreeMap::new();
    for r in &stragglers {
        for rec in recordings {
            if let Some(w) = dispatch_window(rec, r) {
                for (name, secs) in launch_secs(rec, w) {
                    *by_kernel.entry(name).or_default() += secs;
                }
                break;
            }
        }
    }
    let total: f64 = by_kernel.values().sum();
    let mut tail_kernels: Vec<TailKernel> = by_kernel
        .into_iter()
        .map(|(name, secs)| TailKernel {
            name,
            secs,
            share: if total > 0.0 { secs / total } else { 0.0 },
        })
        .collect();
    tail_kernels.sort_by(|a, b| b.secs.total_cmp(&a.secs));
    tail_kernels.truncate(8);

    // --- fleet grid ---------------------------------------------------
    let summaries = recordings
        .iter()
        .map(|rec| RecordingSummary {
            worker: rec.worker,
            pid: rec.pid,
            label: rec.label.clone(),
            events: rec.events.len(),
            torn: rec.torn,
            peak_rss_kb: rec
                .events
                .iter()
                .rev()
                .find_map(|ev| match ev {
                    FlightEvent::PeakRss { kb, .. } => Some(*kb),
                    _ => None,
                })
                .unwrap_or(0),
        })
        .collect();

    BlackboxDoc {
        units: records.len(),
        ok,
        holes,
        crashed,
        attributions,
        unattributed,
        tail_p99_secs,
        tail_units: stragglers.iter().map(|r| r.id()).collect(),
        tail_kernels,
        recordings: summaries,
    }
}

impl BlackboxDoc {
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema").string(SCHEMA);
        w.key("units").int(self.units as u64);
        w.key("ok").int(self.ok as u64);
        w.key("holes").int(self.holes as u64);
        w.key("crashed").int(self.crashed as u64);
        w.key("unattributed").int(self.unattributed as u64);
        w.key("attributions").begin_array();
        for a in &self.attributions {
            w.begin_object();
            w.key("id").string(&a.unit_id);
            w.key("index").int(a.index as u64);
            w.key("worker").int(a.worker as u64);
            w.key("attempt").int(a.attempt as u64);
            w.key("trace").int(a.trace);
            w.key("note").string(&a.note);
            if let (Some(kind), Some(name)) = (a.span_kind, &a.span_name) {
                w.key("spanKind").string(kind);
                w.key("spanName").string(name);
                w.key("inSpanSecs").number(a.in_span_secs);
            }
            w.end_object();
        }
        w.end_array();
        w.key("tailP99Secs").number(self.tail_p99_secs);
        w.key("tailUnits").begin_array();
        for u in &self.tail_units {
            w.string(u);
        }
        w.end_array();
        w.key("tailKernels").begin_array();
        for k in &self.tail_kernels {
            w.begin_object();
            w.key("name").string(&k.name);
            w.key("secs").number(k.secs);
            w.key("share").number(k.share);
            w.end_object();
        }
        w.end_array();
        w.key("recordings").begin_array();
        for r in &self.recordings {
            w.begin_object();
            w.key("worker").int(if r.worker == ORCH_SLOT {
                // The sentinel would render as 4294967295; expose the
                // orchestrator row under a readable key instead.
                u64::MAX
            } else {
                r.worker as u64
            });
            w.key("orchestrator").bool(r.worker == ORCH_SLOT);
            w.key("pid").int(r.pid as u64);
            w.key("label").string(&r.label);
            w.key("events").int(r.events as u64);
            w.key("torn").bool(r.torn);
            w.key("peakRssKb").int(r.peak_rss_kb);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

// ----------------------------------------------------------- unit diff

/// One dispatch of a unit, reconstructed from flight recordings alone —
/// no journal needed. This is what `blackbox --diff` compares across
/// the retained run directories, where only the newest run's journal
/// survives on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchSummary {
    pub trace: u64,
    pub attempt: u32,
    pub worker: u32,
    /// The orchestrator's result-mark tag ("ok", "retry", "crashed",
    /// "hole: …"); `None` when the run died before recording one.
    pub result: Option<String>,
    /// Begin mark → result mark (or the recording's last breath).
    pub wall_secs: f64,
    /// Deepest span still open at the dispatch window's end — the kill
    /// site of an attempt that never completed.
    pub open_span: Option<String>,
}

/// Every dispatch of `unit_id` visible in `recordings`, in trace-id
/// (i.e. dispatch) order.
pub fn unit_history(recordings: &[FlightRecording], unit_id: &str) -> Vec<DispatchSummary> {
    // Result marks live on the orchestrator's side; index them by the
    // causal trace id so each worker-side begin finds its verdict.
    let mut results: BTreeMap<u64, (u64, String)> = BTreeMap::new();
    for rec in recordings {
        for ev in &rec.events {
            if let FlightEvent::TraceMark {
                role: TraceRole::Result,
                trace,
                t_ns,
                tag,
                ..
            } = ev
            {
                results.insert(*trace, (*t_ns, tag.clone()));
            }
        }
    }
    let mut out = Vec::new();
    for rec in recordings {
        for (i, ev) in rec.events.iter().enumerate() {
            let FlightEvent::TraceMark {
                role: TraceRole::Begin,
                trace,
                attempt,
                t_ns,
                tag,
                ..
            } = ev
            else {
                continue;
            };
            if tag != unit_id {
                continue;
            }
            let end = rec.events[i + 1..]
                .iter()
                .position(|e| {
                    matches!(
                        e,
                        FlightEvent::TraceMark {
                            role: TraceRole::Begin,
                            ..
                        }
                    )
                })
                .map(|j| i + 1 + j)
                .unwrap_or(rec.events.len());
            let window = (i, end);
            let open = open_at_window_end(rec, window)
                .last()
                .map(|&(kind, name, _)| format!("{} '{name}'", kind.label()));
            let (end_ns, result) = match results.get(trace) {
                Some((t, verdict)) => (*t, Some(verdict.clone())),
                None => (window_last_ns(rec, window), None),
            };
            out.push(DispatchSummary {
                trace: *trace,
                attempt: *attempt,
                worker: rec.worker,
                result,
                wall_secs: end_ns.saturating_sub(*t_ns) as f64 / 1e9,
                open_span: open,
            });
        }
    }
    out.sort_by_key(|d| d.trace);
    out
}

// ------------------------------------------------------------- timeline

/// The merged fleet timeline as a standalone Chrome-trace document.
///
/// Every recording becomes one process track (orchestrator = pid 0,
/// worker slot *w* = pid *w + 1*; respawned generations of a slot share
/// the pid but get their own thread row). Paired spans become `X`
/// slices; spans left open by a crash become slices running to the
/// recording's last event, flagged `unterminated`. Dispatch → begin
/// and unit-close → result are joined with flow arrows (`s`/`f`
/// events) so Perfetto draws the cross-process causality.
pub fn chrome_fleet_trace(recordings: &[FlightRecording]) -> String {
    let t0 = recordings
        .iter()
        .map(|r| r.start_unix_ns)
        .min()
        .unwrap_or(0);
    let us = |t_ns: u64| t_ns.saturating_sub(t0) as f64 / 1e3;
    let pid_of = |r: &FlightRecording| -> u32 {
        if r.worker == ORCH_SLOT {
            0
        } else {
            r.worker + 1
        }
    };

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("displayTimeUnit").string("ms");
    w.key("traceEvents").begin_array();

    // Per-trace flow endpoints, filled while walking the recordings:
    // (dispatch ts/pid/tid, begin ts/pid/tid, unit-close ts/pid/tid,
    // result ts/pid/tid).
    type Point = (f64, u32, u32);
    #[derive(Default)]
    struct Flow {
        dispatch: Option<Point>,
        begin: Option<Point>,
        unit_close: Option<Point>,
        result: Option<Point>,
    }
    let mut flows: BTreeMap<u64, Flow> = BTreeMap::new();

    for (tid, rec) in recordings.iter().enumerate() {
        let tid = tid as u32;
        let pid = pid_of(rec);

        // Process/thread labels.
        w.begin_object();
        w.key("name").string("process_name");
        w.key("cat").string("meta");
        w.key("ph").string("M");
        w.key("pid").int(pid as u64);
        w.key("tid").int(tid as u64);
        w.key("args").begin_object();
        w.key("name")
            .string(&format!("{} (pid {})", rec.label, rec.pid));
        w.end_object();
        w.end_object();

        // Span slices: replay opens/closes, emit an X per pair.
        let last_ns = rec.last_event_ns();
        let mut stack: Vec<(SpanKind, &str, u64)> = Vec::new();
        let mut slice = |name: &str, kind: SpanKind, t_open: u64, t_close: u64, torn: bool| {
            w.begin_object();
            w.key("name").string(name);
            w.key("cat").string(kind.label());
            w.key("ph").string("X");
            w.key("ts").number(us(t_open));
            w.key("dur")
                .number((t_close.saturating_sub(t_open)) as f64 / 1e3);
            w.key("pid").int(pid as u64);
            w.key("tid").int(tid as u64);
            if torn {
                w.key("args").begin_object();
                w.key("unterminated").bool(true);
                w.end_object();
            }
            w.end_object();
        };
        for ev in &rec.events {
            match ev {
                FlightEvent::SpanOpen { t_ns, kind, name } => {
                    stack.push((*kind, name.as_str(), *t_ns));
                }
                FlightEvent::SpanClose { t_ns, kind, name } => {
                    if let Some(i) = stack
                        .iter()
                        .rposition(|(k, n, _)| k == kind && *n == name.as_str())
                    {
                        let (k, n, t_open) = stack.remove(i);
                        slice(n, k, t_open, *t_ns, false);
                        if k == SpanKind::Unit {
                            // The worker-side completion endpoint of the
                            // unit's second flow arrow.
                            if let Some(trace) = rec.events.iter().find_map(|e| match e {
                                FlightEvent::TraceMark {
                                    role: TraceRole::Begin,
                                    trace,
                                    tag,
                                    ..
                                } if tag == n => Some(*trace),
                                _ => None,
                            }) {
                                flows.entry(trace).or_default().unit_close =
                                    Some((us(*t_ns), pid, tid));
                            }
                        }
                    }
                }
                FlightEvent::TraceMark {
                    t_ns, role, trace, ..
                } => {
                    let f = flows.entry(*trace).or_default();
                    let point = Some((us(*t_ns), pid, tid));
                    match role {
                        TraceRole::Dispatch => f.dispatch = point,
                        TraceRole::Begin => f.begin = point,
                        TraceRole::Result => f.result = point,
                    }
                }
                _ => {}
            }
        }
        // Crash residue: whatever is still open ran to the last breath.
        for (k, n, t_open) in stack {
            slice(n, k, t_open, last_ns, true);
        }
    }

    // Flow arrows — emitted only when both endpoints exist (a crashed
    // unit has a dispatch and a begin, but no close/result pair).
    for (trace, f) in &flows {
        if let (Some((ts, dp, dt)), Some((te, bp, bt))) = (f.dispatch, f.begin) {
            let id = trace * 2;
            flow_start(&mut w, "dispatch", id, ts, dp, dt);
            flow_finish(&mut w, "dispatch", id, te.max(ts), bp, bt);
        }
        if let (Some((ts, cp, ct)), Some((te, rp, rt))) = (f.unit_close, f.result) {
            let id = trace * 2 + 1;
            flow_start(&mut w, "result", id, ts, cp, ct);
            flow_finish(&mut w, "result", id, te.max(ts), rp, rt);
        }
    }

    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::smoke_units;
    use telemetry::json::{self, Json};

    fn mark(role: TraceRole, trace: u64, unit: u32, t_ns: u64, tag: &str) -> FlightEvent {
        FlightEvent::TraceMark {
            t_ns,
            role,
            trace,
            unit,
            attempt: 1,
            tag: tag.to_string(),
        }
    }

    fn open(kind: SpanKind, name: &str, t_ns: u64) -> FlightEvent {
        FlightEvent::SpanOpen {
            t_ns,
            kind,
            name: name.to_string(),
        }
    }

    fn close(kind: SpanKind, name: &str, t_ns: u64) -> FlightEvent {
        FlightEvent::SpanClose {
            t_ns,
            kind,
            name: name.to_string(),
        }
    }

    fn recording(worker: u32, events: Vec<FlightEvent>) -> FlightRecording {
        FlightRecording {
            worker,
            pid: 1000 + worker,
            start_unix_ns: 0,
            label: format!("w{worker}"),
            events,
            torn: false,
        }
    }

    fn crashed_record(trace: u64) -> UnitRecord {
        let unit = smoke_units().into_iter().next().unwrap();
        UnitRecord {
            unit,
            status: UnitStatus::Crashed,
            note: Some("worker exited mid-unit (attempt 1/1)".into()),
            worker: 0,
            attempt: 1,
            trace,
            wall_secs: 0.0,
            samples: vec![],
            sim_secs: None,
            efficiency: None,
            gbps: None,
        }
    }

    #[test]
    fn a_crash_is_attributed_to_the_deepest_open_span() {
        let r = crashed_record(3);
        let id = r.id();
        let rec = recording(
            0,
            vec![
                mark(TraceRole::Begin, 3, r.unit.index as u32, 1_000, &id),
                open(SpanKind::Unit, &id, 1_100),
                open(SpanKind::Phase, "timestep", 1_200),
                open(SpanKind::Launch, "advec_cell", 1_500),
                close(SpanKind::Launch, "advec_cell", 2_000),
                open(SpanKind::Launch, "pdv", 2_500_000_000),
                // killed here: pdv never closes
            ],
        );
        let doc = analyze(&[r], &[rec]);
        assert_eq!(doc.crashed, 1);
        assert_eq!(doc.unattributed, 0);
        let a = &doc.attributions[0];
        assert_eq!(a.span_kind, Some("launch"));
        assert_eq!(a.span_name.as_deref(), Some("pdv"));
        assert!(a.in_span_secs.abs() < 1e-9, "pdv opened at the last event");
        let json = doc.to_json();
        telemetry::json::validate(&json).unwrap();
        assert!(json.contains("\"spanName\": \"pdv\""));
    }

    #[test]
    fn attribution_windows_do_not_leak_across_units() {
        // Worker ran unit A cleanly, then died inside unit B's window:
        // B must be attributed to B's open span, not A's history.
        let a = crashed_record(1); // reused only for ids/window shape
        let id_a = a.id();
        let mut b = crashed_record(2);
        b.unit = smoke_units().into_iter().nth(1).unwrap();
        let id_b = b.id();
        let rec = recording(
            0,
            vec![
                mark(TraceRole::Begin, 1, a.unit.index as u32, 1_000, &id_a),
                open(SpanKind::Unit, &id_a, 1_100),
                open(SpanKind::Launch, "tea_leaf", 1_200),
                close(SpanKind::Launch, "tea_leaf", 1_900),
                close(SpanKind::Unit, &id_a, 2_000),
                mark(TraceRole::Begin, 2, b.unit.index as u32, 3_000, &id_b),
                open(SpanKind::Unit, &id_b, 3_100),
            ],
        );
        let doc = analyze(&[b], &[rec]);
        let attr = &doc.attributions[0];
        assert_eq!(attr.span_kind, Some("unit"));
        assert_eq!(attr.span_name.as_deref(), Some(id_b.as_str()));
    }

    #[test]
    fn tail_kernels_aggregate_launches_of_straggler_units() {
        let unit = smoke_units().into_iter().next().unwrap();
        let id = unit.id();
        let ok = UnitRecord {
            unit,
            status: UnitStatus::Ok,
            note: None,
            worker: 0,
            attempt: 1,
            trace: 9,
            wall_secs: 4.0,
            samples: vec![4.0],
            sim_secs: Some(1.0),
            efficiency: Some(0.8),
            gbps: Some(100.0),
        };
        let rec = recording(
            0,
            vec![
                mark(TraceRole::Begin, 9, ok.unit.index as u32, 0, &id),
                open(SpanKind::Unit, &id, 0),
                open(SpanKind::Launch, "slow_kernel", 0),
                close(SpanKind::Launch, "slow_kernel", 3_000_000_000),
                open(SpanKind::Launch, "fast_kernel", 3_000_000_000),
                close(SpanKind::Launch, "fast_kernel", 3_500_000_000),
                close(SpanKind::Unit, &id, 4_000_000_000),
            ],
        );
        let doc = analyze(&[ok], &[rec]);
        assert_eq!(doc.tail_units, vec![id]);
        assert_eq!(doc.tail_kernels[0].name, "slow_kernel");
        assert!((doc.tail_kernels[0].secs - 3.0).abs() < 1e-9);
        assert!((doc.tail_kernels[0].share - 3.0 / 3.5).abs() < 1e-9);
    }

    #[test]
    fn fleet_trace_flow_events_are_well_formed_pairs() {
        // Orchestrator dispatches trace 5; worker runs it to completion;
        // orchestrator records the result. Plus a crashed trace 6 whose
        // result never lands — it must produce no dangling flow events.
        let unit = smoke_units().into_iter().next().unwrap();
        let id = unit.id();
        let orch = FlightRecording {
            worker: ORCH_SLOT,
            pid: 1,
            start_unix_ns: 0,
            label: "study-orchestrator".into(),
            events: vec![
                mark(TraceRole::Dispatch, 5, unit.index as u32, 1_000, &id),
                mark(TraceRole::Dispatch, 6, 99, 1_500, "doomed"),
                mark(TraceRole::Result, 5, unit.index as u32, 9_000, "ok"),
            ],
            torn: false,
        };
        let worker = recording(
            0,
            vec![
                mark(TraceRole::Begin, 5, unit.index as u32, 2_000, &id),
                open(SpanKind::Unit, &id, 2_100),
                close(SpanKind::Unit, &id, 8_000),
                mark(TraceRole::Begin, 6, 99, 8_500, "doomed"),
                open(SpanKind::Unit, "doomed", 8_600),
            ],
        );
        let doc = chrome_fleet_trace(&[orch, worker]);
        telemetry::json::validate(&doc).unwrap();

        let j = json::parse(&doc).unwrap();
        let Some(Json::Arr(events)) = j.get("traceEvents") else {
            panic!("traceEvents array missing");
        };
        // Pair every flow id: exactly one "s" and one "f", s before f.
        let mut starts: BTreeMap<u64, f64> = BTreeMap::new();
        let mut finishes: BTreeMap<u64, f64> = BTreeMap::new();
        for e in events {
            match e.str_of("ph") {
                Some("s") => {
                    let id = e.u64_of("id").unwrap();
                    assert!(starts.insert(id, e.f64_of("ts").unwrap()).is_none());
                }
                Some("f") => {
                    let id = e.u64_of("id").unwrap();
                    assert_eq!(e.str_of("bp"), Some("e"), "flow binds enclosing slice");
                    assert!(finishes.insert(id, e.f64_of("ts").unwrap()).is_none());
                }
                _ => {}
            }
        }
        assert!(!starts.is_empty(), "completed trace 5 produced flows");
        assert_eq!(
            starts.keys().collect::<Vec<_>>(),
            finishes.keys().collect::<Vec<_>>(),
            "every flow start has exactly one finish"
        );
        for (id, ts) in &starts {
            assert!(finishes[id] >= *ts, "flow {id} ends after it starts");
        }
        // Trace 6 was dispatched and begun (arrow exists) but never
        // completed: its result flow must not dangle.
        assert!(starts.contains_key(&12), "dispatch→begin arrow survives");
        assert!(!starts.contains_key(&13), "no half-result arrow");
        // The crashed unit's open span became an unterminated slice.
        assert!(doc.contains("\"unterminated\": true"));
        // Both processes are labelled.
        assert_eq!(doc.matches("process_name").count(), 2);
    }

    #[test]
    fn unit_history_reconstructs_dispatches_without_a_journal() {
        let unit = smoke_units().into_iter().next().unwrap();
        let id = unit.id();
        let orch = FlightRecording {
            worker: ORCH_SLOT,
            pid: 1,
            start_unix_ns: 0,
            label: "study-orchestrator".into(),
            events: vec![
                mark(TraceRole::Dispatch, 7, unit.index as u32, 500, &id),
                mark(
                    TraceRole::Result,
                    7,
                    unit.index as u32,
                    4_000_000_000,
                    "retry",
                ),
                mark(
                    TraceRole::Dispatch,
                    8,
                    unit.index as u32,
                    4_100_000_000,
                    &id,
                ),
                mark(TraceRole::Result, 8, unit.index as u32, 6_000_000_000, "ok"),
            ],
            torn: false,
        };
        let worker = recording(
            0,
            vec![
                // Attempt 1 dies inside a launch; attempt 2 completes.
                mark(TraceRole::Begin, 7, unit.index as u32, 1_000_000_000, &id),
                open(SpanKind::Unit, &id, 1_000_000_000),
                open(SpanKind::Launch, "pdv", 2_000_000_000),
            ],
        );
        let worker2 = recording(
            1,
            vec![
                mark(TraceRole::Begin, 8, unit.index as u32, 4_500_000_000, &id),
                open(SpanKind::Unit, &id, 4_500_000_000),
                close(SpanKind::Unit, &id, 5_900_000_000),
            ],
        );
        let hist = unit_history(&[orch, worker, worker2], &id);
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[0].trace, 7);
        assert_eq!(hist[0].result.as_deref(), Some("retry"));
        assert_eq!(hist[0].open_span.as_deref(), Some("launch 'pdv'"));
        assert!((hist[0].wall_secs - 3.0).abs() < 1e-9);
        assert_eq!(hist[1].trace, 8);
        assert_eq!(hist[1].worker, 1);
        assert_eq!(hist[1].result.as_deref(), Some("ok"));
        assert!(hist[1].open_span.is_none());
        // A unit never dispatched has no history.
        assert!(unit_history(&[], &id).is_empty());
    }

    #[test]
    fn unattributed_crashes_are_counted_for_the_gate() {
        let doc = analyze(&[crashed_record(44)], &[]);
        assert_eq!(doc.crashed, 1);
        assert_eq!(doc.unattributed, 1);
        assert!(doc.attributions[0].span_kind.is_none());
    }
}
