//! Crash-surviving per-process flight recorder.
//!
//! The span rings ([`crate::ring`]) are in-memory: a SIGKILL'd study
//! worker takes its trace with it, and the journal can only say *that*
//! a unit died, never *what it was doing*. The flight recorder closes
//! that gap: a compact binary append-only event log written straight
//! through a small incremental-flush buffer, so whatever survives on
//! disk after a kill is a readable prefix of the truth.
//!
//! ## Format (`SYFR`, version 1)
//!
//! Header: magic `SYFR`, `u16` version, `u32` worker slot, `u32` OS
//! pid, `u64` start timestamp (unix nanoseconds), length-prefixed
//! label. Then a flat sequence of tagged records:
//!
//! | tag | record    | payload                                              |
//! |-----|-----------|------------------------------------------------------|
//! | 1   | SpanOpen  | `t_ns u64, kind u8, name (u16 len + bytes)`          |
//! | 2   | SpanClose | `t_ns u64, kind u8, name (u16 len + bytes)`          |
//! | 3   | Counters  | `t_ns u64` + the 9 [`CounterSnapshot`] fields        |
//! | 4   | TraceMark | `t_ns u64, role u8, trace u64, unit u32, attempt u32, tag (u16 len + bytes)` |
//! | 5   | PeakRss   | `t_ns u64, kb u64`                                   |
//!
//! All integers little-endian. Timestamps are **unix-epoch**
//! nanoseconds (not the per-process [`crate::now_ns`] epoch) so
//! recordings from different processes merge onto one fleet timeline.
//!
//! ## Durability discipline
//!
//! Two classes of event. *Urgent* events — unit/phase span opens, trace
//! marks, counter snapshots, peak-RSS — are `write(2)`'d to the file
//! immediately: once the syscall returns, the bytes live in the kernel
//! page cache and survive SIGKILL (only a machine crash loses them, and
//! the study journal accepts that same risk). *Routine* events — launch
//! opens and every close — sit in a small buffer flushed at
//! [`FLUSH_THRESHOLD`] bytes and at unit boundaries, bounding syscall
//! overhead on the launch hot path.
//!
//! Launch and phase spans are recorded for executing sessions only:
//! the launch core skips their brackets when a session is a dry run,
//! whose bodies are empty, so a dry-run study unit writes just its unit
//! span, trace marks and counters, and a crash inside it is attributed
//! to the unit span. Either way the tail may be torn
//! mid-record; the reader treats a torn tail as end-of-recording, the
//! same tolerance discipline as the study journal
//! (`study::orchestrator::read_journal`).
//!
//! Like the span rings, the recorder observes and never feeds back:
//! enabling it cannot change a session ledger bit
//! (`crates/core/tests/telemetry_equiv.rs` proves this for both).

use crate::counters::{counters, CounterSnapshot};
use crate::ring::SpanKind;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{SystemTime, UNIX_EPOCH};

/// File magic: "SYcl Flight Recorder".
pub const MAGIC: [u8; 4] = *b"SYFR";
/// Format version written by this build.
pub const VERSION: u16 = 1;
/// Routine events are flushed once the buffer holds this many bytes.
pub const FLUSH_THRESHOLD: usize = 4096;

const TAG_SPAN_OPEN: u8 = 1;
const TAG_SPAN_CLOSE: u8 = 2;
const TAG_COUNTERS: u8 = 3;
const TAG_TRACE_MARK: u8 = 4;
const TAG_PEAK_RSS: u8 = 5;

/// Where a causal trace mark sits in a unit's dispatch→result arc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceRole {
    /// Orchestrator handed the unit to a worker.
    Dispatch,
    /// Worker started executing the unit.
    Begin,
    /// Orchestrator received the unit's outcome.
    Result,
}

impl TraceRole {
    /// Lower-case label for exports.
    pub fn label(self) -> &'static str {
        match self {
            TraceRole::Dispatch => "dispatch",
            TraceRole::Begin => "begin",
            TraceRole::Result => "result",
        }
    }

    fn code(self) -> u8 {
        match self {
            TraceRole::Dispatch => 0,
            TraceRole::Begin => 1,
            TraceRole::Result => 2,
        }
    }

    fn from_code(c: u8) -> Option<TraceRole> {
        match c {
            0 => Some(TraceRole::Dispatch),
            1 => Some(TraceRole::Begin),
            2 => Some(TraceRole::Result),
            _ => None,
        }
    }
}

fn kind_code(k: SpanKind) -> u8 {
    match k {
        SpanKind::Launch => 0,
        SpanKind::Region => 1,
        SpanKind::Reduce => 2,
        SpanKind::Phase => 3,
        SpanKind::Replay => 4,
        SpanKind::Shard => 5,
        SpanKind::Unit => 6,
    }
}

fn kind_from_code(c: u8) -> Option<SpanKind> {
    match c {
        0 => Some(SpanKind::Launch),
        1 => Some(SpanKind::Region),
        2 => Some(SpanKind::Reduce),
        3 => Some(SpanKind::Phase),
        4 => Some(SpanKind::Replay),
        5 => Some(SpanKind::Shard),
        6 => Some(SpanKind::Unit),
        _ => None,
    }
}

/// Unix-epoch nanoseconds now. Cross-process comparable, which the
/// per-process [`crate::now_ns`] epoch is not.
pub fn unix_now_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// One decoded flight-recorder event.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightEvent {
    SpanOpen {
        t_ns: u64,
        kind: SpanKind,
        name: String,
    },
    SpanClose {
        t_ns: u64,
        kind: SpanKind,
        name: String,
    },
    Counters {
        t_ns: u64,
        snap: CounterSnapshot,
    },
    TraceMark {
        t_ns: u64,
        role: TraceRole,
        trace: u64,
        unit: u32,
        attempt: u32,
        tag: String,
    },
    PeakRss {
        t_ns: u64,
        kb: u64,
    },
}

impl FlightEvent {
    /// The event's timestamp, unix nanoseconds.
    pub fn t_ns(&self) -> u64 {
        match self {
            FlightEvent::SpanOpen { t_ns, .. }
            | FlightEvent::SpanClose { t_ns, .. }
            | FlightEvent::Counters { t_ns, .. }
            | FlightEvent::TraceMark { t_ns, .. }
            | FlightEvent::PeakRss { t_ns, .. } => *t_ns,
        }
    }
}

struct Writer {
    file: File,
    buf: Vec<u8>,
    events: u64,
}

impl Writer {
    /// Move the buffer into the kernel page cache. Short of a machine
    /// crash these bytes now survive any process death.
    fn flush(&mut self) {
        if !self.buf.is_empty() {
            // A failed write (disk full) silently drops the tail: the
            // recorder must never panic the process it is observing.
            let _ = self.file.write_all(&self.buf);
            self.buf.clear();
        }
    }
}

/// Single branch every instrumentation site pays when the recorder is
/// off (mirrors [`crate::enabled`] for the span rings).
static RECORDING: AtomicBool = AtomicBool::new(false);

static WRITER: Mutex<Option<Writer>> = Mutex::new(None);

fn lock() -> MutexGuard<'static, Option<Writer>> {
    WRITER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Is a flight recording in progress?
#[inline(always)]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

fn push_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn push_name(buf: &mut Vec<u8>, name: &str) {
    // Names are interned kernel ids and unit ids — short. Cap at the
    // u16 length prefix, cut back to a char boundary if ever hit.
    let mut end = name.len().min(u16::MAX as usize);
    while end > 0 && !name.is_char_boundary(end) {
        end -= 1;
    }
    push_u16(buf, end as u16);
    buf.extend_from_slice(&name.as_bytes()[..end]);
}

/// Begin recording to `path`. The header (including `worker` slot and
/// `label`, which exporters use to name the process track) is written
/// through to disk before this returns. An already-running recording is
/// flushed and closed first.
pub fn start(path: &Path, worker: u32, label: &str) -> std::io::Result<()> {
    let mut file = File::create(path)?;
    let mut hdr = Vec::with_capacity(64);
    hdr.extend_from_slice(&MAGIC);
    push_u16(&mut hdr, VERSION);
    push_u32(&mut hdr, worker);
    push_u32(&mut hdr, std::process::id());
    push_u64(&mut hdr, unix_now_ns());
    push_name(&mut hdr, label);
    file.write_all(&hdr)?;
    let mut g = lock();
    if let Some(old) = g.as_mut() {
        old.flush();
    }
    *g = Some(Writer {
        file,
        buf: Vec::with_capacity(FLUSH_THRESHOLD * 2),
        events: 0,
    });
    drop(g);
    RECORDING.store(true, Ordering::Relaxed);
    Ok(())
}

/// Stop recording: flush the tail and close the file. Returns the
/// number of events the recording captured, or `None` if no recording
/// was running.
pub fn stop() -> Option<u64> {
    RECORDING.store(false, Ordering::Relaxed);
    let mut g = lock();
    g.take().map(|mut w| {
        w.flush();
        w.events
    })
}

/// Append one encoded record, flushing according to urgency.
fn append(encode: impl FnOnce(&mut Vec<u8>), urgent: bool) {
    let mut g = lock();
    if let Some(w) = g.as_mut() {
        encode(&mut w.buf);
        w.events += 1;
        if urgent || w.buf.len() >= FLUSH_THRESHOLD {
            w.flush();
        }
    }
}

fn span_record(tag: u8, kind: SpanKind, name: &str, urgent: bool) {
    if !recording() {
        return;
    }
    let t = unix_now_ns();
    append(
        |buf| {
            buf.push(tag);
            push_u64(buf, t);
            buf.push(kind_code(kind));
            push_name(buf, name);
        },
        urgent,
    );
}

/// Record a span opening. Unit and phase opens are urgent (they are the
/// crash-attribution anchors); launch opens ride the buffer.
pub fn span_open(kind: SpanKind, name: &str) {
    let urgent = matches!(kind, SpanKind::Unit | SpanKind::Phase);
    span_record(TAG_SPAN_OPEN, kind, name, urgent);
}

/// Record a span closing. Closes are never urgent: a lost close reads
/// as "still inside", which is the conservative answer post-mortem.
pub fn span_close(kind: SpanKind, name: &str) {
    span_record(TAG_SPAN_CLOSE, kind, name, false);
}

/// Record a causal trace mark (always urgent — marks are the evidence
/// the cross-process flow arrows and crash attribution hang off).
pub fn trace_mark(role: TraceRole, trace: u64, unit: u32, attempt: u32, tag: &str) {
    if !recording() {
        return;
    }
    let t = unix_now_ns();
    append(
        |buf| {
            buf.push(TAG_TRACE_MARK);
            push_u64(buf, t);
            buf.push(role.code());
            push_u64(buf, trace);
            push_u32(buf, unit);
            push_u32(buf, attempt);
            push_name(buf, tag);
        },
        true,
    );
}

/// Snapshot the process counters into the recording (urgent; callers
/// invoke this at coarse period, e.g. once per unit).
pub fn counters_mark() {
    if !recording() {
        return;
    }
    let t = unix_now_ns();
    let c = counters().snapshot();
    append(
        |buf| {
            buf.push(TAG_COUNTERS);
            push_u64(buf, t);
            for v in [
                c.launches,
                c.pricing_cache_hits,
                c.pricing_cache_misses,
                c.regions,
                c.steals,
                c.parks,
                c.wakes,
                c.bytes_moved,
                c.spans_dropped,
            ] {
                push_u64(buf, v);
            }
        },
        true,
    );
}

/// Record the process's peak RSS in kilobytes (urgent; written once at
/// worker exit).
pub fn peak_rss(kb: u64) {
    if !recording() {
        return;
    }
    let t = unix_now_ns();
    append(
        |buf| {
            buf.push(TAG_PEAK_RSS);
            push_u64(buf, t);
            push_u64(buf, kb);
        },
        true,
    );
}

/// Flush buffered routine events through to the page cache (unit
/// boundaries call this so a later crash can't orphan a whole unit's
/// launch history).
pub fn flush() {
    if !recording() {
        return;
    }
    if let Some(w) = lock().as_mut() {
        w.flush();
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Cursor over the raw bytes; `None` from any `take_*` means the record
/// is torn mid-field.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.bytes.len() - self.pos < n {
            return None;
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }
    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_le_bytes([s[0], s[1]]))
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }
    fn name(&mut self) -> Option<String> {
        let len = self.u16()? as usize;
        let raw = self.take(len)?;
        Some(String::from_utf8_lossy(raw).into_owned())
    }
}

/// A decoded recording: header identity plus every event that made it
/// to disk intact. `torn` is set when the byte stream ended mid-record
/// (the process died with the tail in flight) or hit an unknown tag —
/// everything before the tear is still served.
#[derive(Debug, Clone)]
pub struct FlightRecording {
    pub worker: u32,
    pub pid: u32,
    pub start_unix_ns: u64,
    pub label: String,
    pub events: Vec<FlightEvent>,
    pub torn: bool,
}

impl FlightRecording {
    /// Decode a recording from raw bytes. A short or alien *header* is
    /// a hard error (the file is not a flight recording); a torn *tail*
    /// is not (the recording is served up to the tear, `torn = true`).
    pub fn parse(bytes: &[u8]) -> Result<FlightRecording, String> {
        let mut c = Cursor { bytes, pos: 0 };
        let magic = c.take(4).ok_or("flight recording shorter than magic")?;
        if magic != MAGIC {
            return Err(format!("bad flight magic {magic:02x?}"));
        }
        let version = c.u16().ok_or("flight header truncated at version")?;
        if version != VERSION {
            return Err(format!(
                "flight version {version} (this build reads {VERSION})"
            ));
        }
        let worker = c.u32().ok_or("flight header truncated at worker")?;
        let pid = c.u32().ok_or("flight header truncated at pid")?;
        let start_unix_ns = c.u64().ok_or("flight header truncated at start")?;
        let label = c.name().ok_or("flight header truncated at label")?;
        let mut events = Vec::new();
        let mut torn = false;
        while c.pos < bytes.len() {
            match Self::parse_record(&mut c) {
                Some(Some(ev)) => events.push(ev),
                // `Some(None)`: unknown tag — a newer writer or
                // corruption; nothing after this point can be framed.
                // `None`: torn mid-record — the death left a partial
                // tail. Both end the recording at the last good event.
                Some(None) | None => {
                    torn = true;
                    break;
                }
            }
        }
        Ok(FlightRecording {
            worker,
            pid,
            start_unix_ns,
            label,
            events,
            torn,
        })
    }

    /// `Some(Some(ev))` = one record; `Some(None)` = unknown tag;
    /// `None` = torn mid-record.
    fn parse_record(c: &mut Cursor<'_>) -> Option<Option<FlightEvent>> {
        let tag = c.u8()?;
        let t_ns = c.u64()?;
        let ev = match tag {
            TAG_SPAN_OPEN | TAG_SPAN_CLOSE => {
                let kind = kind_from_code(c.u8()?);
                let name = c.name()?;
                match kind {
                    Some(kind) if tag == TAG_SPAN_OPEN => {
                        FlightEvent::SpanOpen { t_ns, kind, name }
                    }
                    Some(kind) => FlightEvent::SpanClose { t_ns, kind, name },
                    None => return Some(None),
                }
            }
            TAG_COUNTERS => {
                let mut f = [0u64; 9];
                for v in f.iter_mut() {
                    *v = c.u64()?;
                }
                FlightEvent::Counters {
                    t_ns,
                    snap: CounterSnapshot {
                        launches: f[0],
                        pricing_cache_hits: f[1],
                        pricing_cache_misses: f[2],
                        regions: f[3],
                        steals: f[4],
                        parks: f[5],
                        wakes: f[6],
                        bytes_moved: f[7],
                        spans_dropped: f[8],
                    },
                }
            }
            TAG_TRACE_MARK => {
                let role = TraceRole::from_code(c.u8()?);
                let trace = c.u64()?;
                let unit = c.u32()?;
                let attempt = c.u32()?;
                let tag_s = c.name()?;
                match role {
                    Some(role) => FlightEvent::TraceMark {
                        t_ns,
                        role,
                        trace,
                        unit,
                        attempt,
                        tag: tag_s,
                    },
                    None => return Some(None),
                }
            }
            TAG_PEAK_RSS => FlightEvent::PeakRss { t_ns, kb: c.u64()? },
            _ => return Some(None),
        };
        Some(Some(ev))
    }

    /// Read and decode a recording file.
    pub fn read(path: &Path) -> Result<FlightRecording, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::parse(&bytes)
    }

    /// The spans still open when the recording ended, outermost first —
    /// replayed from the open/close stream. Closes pop the most recent
    /// matching open, so interleaved (non-LIFO) spans from concurrent
    /// threads still resolve.
    pub fn open_spans(&self) -> Vec<(SpanKind, &str, u64)> {
        let mut stack: Vec<(SpanKind, &str, u64)> = Vec::new();
        for ev in &self.events {
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

    /// The deepest span still open at the end of the recording — the
    /// crash attribution: what the process was inside when it died.
    pub fn last_open_span(&self) -> Option<(SpanKind, &str, u64)> {
        self.open_spans().pop()
    }

    /// Timestamp of the last decoded event (unix ns); header start time
    /// if the recording is empty.
    pub fn last_event_ns(&self) -> u64 {
        self.events
            .iter()
            .map(FlightEvent::t_ns)
            .max()
            .unwrap_or(self.start_unix_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorder is process-global; tests that start/stop it must
    /// not interleave.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("flight-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trip_every_record_kind() {
        let _g = serial();
        let path = tmp("roundtrip.bin");
        start(&path, 3, "worker-3").unwrap();
        span_open(SpanKind::Unit, "clover/a100/usm@dpcpp");
        trace_mark(TraceRole::Begin, 42, 7, 1, "clover/a100/usm@dpcpp");
        span_open(SpanKind::Launch, "advec_cell");
        span_close(SpanKind::Launch, "advec_cell");
        counters_mark();
        peak_rss(12345);
        span_close(SpanKind::Unit, "clover/a100/usm@dpcpp");
        assert_eq!(stop(), Some(7));
        let rec = FlightRecording::read(&path).unwrap();
        assert_eq!(rec.worker, 3);
        assert_eq!(rec.pid, std::process::id());
        assert_eq!(rec.label, "worker-3");
        assert!(!rec.torn);
        assert_eq!(rec.events.len(), 7);
        assert!(rec.open_spans().is_empty());
        assert!(matches!(
            rec.events[1],
            FlightEvent::TraceMark {
                role: TraceRole::Begin,
                trace: 42,
                unit: 7,
                attempt: 1,
                ..
            }
        ));
        assert!(matches!(
            rec.events[5],
            FlightEvent::PeakRss { kb: 12345, .. }
        ));
    }

    #[test]
    fn unclosed_spans_attribute_the_crash() {
        let _g = serial();
        let path = tmp("attrib.bin");
        start(&path, 0, "w").unwrap();
        span_open(SpanKind::Unit, "unit-id");
        span_open(SpanKind::Phase, "advection");
        span_open(SpanKind::Launch, "advec_mom");
        span_close(SpanKind::Launch, "advec_mom");
        span_open(SpanKind::Launch, "advec_cell");
        stop();
        let rec = FlightRecording::read(&path).unwrap();
        let open = rec.open_spans();
        assert_eq!(open.len(), 3);
        let (kind, name, _) = rec.last_open_span().unwrap();
        assert_eq!(kind, SpanKind::Launch);
        assert_eq!(name, "advec_cell");
        assert_eq!(open[0].1, "unit-id");
    }

    #[test]
    fn interleaved_closes_pop_the_matching_open() {
        let _g = serial();
        let path = tmp("interleave.bin");
        start(&path, 0, "w").unwrap();
        span_open(SpanKind::Launch, "a");
        span_open(SpanKind::Launch, "b");
        span_close(SpanKind::Launch, "a"); // non-LIFO
        stop();
        let rec = FlightRecording::read(&path).unwrap();
        let open = rec.open_spans();
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].1, "b");
    }

    #[test]
    fn recording_off_is_a_no_op() {
        let _g = serial();
        assert!(!recording());
        span_open(SpanKind::Launch, "nope");
        trace_mark(TraceRole::Dispatch, 1, 0, 0, "nope");
        flush();
        assert_eq!(stop(), None);
    }

    #[test]
    fn long_names_are_capped_at_the_length_prefix() {
        let _g = serial();
        let path = tmp("longname.bin");
        let long = "k".repeat(100_000);
        start(&path, 0, "w").unwrap();
        span_open(SpanKind::Unit, &long);
        stop();
        let rec = FlightRecording::read(&path).unwrap();
        match &rec.events[0] {
            FlightEvent::SpanOpen { name, .. } => assert_eq!(name.len(), u16::MAX as usize),
            other => panic!("unexpected {other:?}"),
        }
    }
}
