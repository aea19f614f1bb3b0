//! Crash-surviving per-process flight recorder: the study worker's
//! unit log.
//!
//! The span rings ([`crate::ring`]) are in-memory: a SIGKILL'd study
//! worker takes its trace with it, and the journal can only say *that*
//! a unit died, never *what it was doing*. The flight recorder closes
//! that gap: a compact binary append-only log of span opens and closes,
//! each written straight through to the file, so whatever survives on
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
//!
//! Tags 3, 4 and 5 belonged to retired record kinds (counter
//! snapshots, trace marks, peak RSS) and stay unassigned: a record
//! carrying one ends the decode like an unknown tag.
//!
//! All integers little-endian. Timestamps are **unix-epoch**
//! nanoseconds (not the per-process [`crate::now_ns`] epoch) so
//! recordings from different processes share one timeline.
//!
//! ## Durability discipline
//!
//! Every record is `write(2)`'d to the file as it is made: once the
//! syscall returns, the bytes live in the kernel page cache and survive
//! SIGKILL (only a machine crash loses them, and the study journal
//! accepts that same risk). The study worker is the one writer: it
//! opens a unit span before any code that can die and closes it after
//! the unit, so a unit costs two writes. The launch core writes no
//! flight records. A tail may still be torn mid-record; the reader
//! treats a torn tail as end-of-recording, the same tolerance
//! discipline as the study journal (`study::orchestrator::read_journal`).
//!
//! Like the span rings, the recorder observes and never feeds back:
//! enabling it cannot change a session ledger bit
//! (`crates/core/tests/telemetry_equiv.rs` proves this for both).

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

const TAG_SPAN_OPEN: u8 = 1;
const TAG_SPAN_CLOSE: u8 = 2;

/// A span kind's SYFR v1 code. Code 5 belonged to a retired kind and
/// stays unassigned, so no later kind is misread from an older
/// recording (a code-5 record ends the decode like an unknown tag).
fn kind_code(k: SpanKind) -> u8 {
    match k {
        SpanKind::Launch => 0,
        SpanKind::Region => 1,
        SpanKind::Reduce => 2,
        SpanKind::Phase => 3,
        SpanKind::Replay => 4,
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
}

impl FlightEvent {
    /// The event's timestamp, unix nanoseconds.
    pub fn t_ns(&self) -> u64 {
        match self {
            FlightEvent::SpanOpen { t_ns, .. } | FlightEvent::SpanClose { t_ns, .. } => *t_ns,
        }
    }
}

struct Writer {
    file: File,
    events: u64,
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
/// closed first.
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
    *lock() = Some(Writer { file, events: 0 });
    RECORDING.store(true, Ordering::Relaxed);
    Ok(())
}

/// Stop recording and close the file. Returns the number of events the
/// recording captured, or `None` if no recording was running.
pub fn stop() -> Option<u64> {
    RECORDING.store(false, Ordering::Relaxed);
    lock().take().map(|w| w.events)
}

/// Encode one span record and write it through to the file.
fn span_record(tag: u8, kind: SpanKind, name: &str) {
    if !recording() {
        return;
    }
    let mut rec = Vec::with_capacity(16 + name.len());
    rec.push(tag);
    push_u64(&mut rec, unix_now_ns());
    rec.push(kind_code(kind));
    push_name(&mut rec, name);
    if let Some(w) = lock().as_mut() {
        // A failed write (disk full) silently drops the record: the
        // recorder must never panic the process it is observing.
        let _ = w.file.write_all(&rec);
        w.events += 1;
    }
}

/// Record a span opening.
pub fn span_open(kind: SpanKind, name: &str) {
    span_record(TAG_SPAN_OPEN, kind, name);
}

/// Record a span closing.
pub fn span_close(kind: SpanKind, name: &str) {
    span_record(TAG_SPAN_CLOSE, kind, name);
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
        if tag != TAG_SPAN_OPEN && tag != TAG_SPAN_CLOSE {
            return Some(None);
        }
        let kind = kind_from_code(c.u8()?);
        let name = c.name()?;
        Some(kind.map(|kind| match tag {
            TAG_SPAN_OPEN => FlightEvent::SpanOpen { t_ns, kind, name },
            _ => FlightEvent::SpanClose { t_ns, kind, name },
        }))
    }

    /// Read and decode a recording file.
    pub fn read(path: &Path) -> Result<FlightRecording, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::parse(&bytes)
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
    fn span_kind_codes_are_pinned() {
        // SYFR v1 stores these codes on disk: renumbering one breaks
        // every existing recording, including the committed ones.
        let pinned = [
            (SpanKind::Launch, 0),
            (SpanKind::Region, 1),
            (SpanKind::Reduce, 2),
            (SpanKind::Phase, 3),
            (SpanKind::Replay, 4),
            (SpanKind::Unit, 6),
        ];
        for (kind, code) in pinned {
            assert_eq!(kind_code(kind), code, "{kind:?}");
            assert_eq!(kind_from_code(code), Some(kind));
        }
        assert_eq!(kind_from_code(5), None, "code 5 stays retired");
        assert!((7..=u8::MAX).all(|c| kind_from_code(c).is_none()));

        // Record tags 3, 4 and 5 stay retired too: one good span open,
        // then a record under each retired tag (with a plausible
        // payload) ends the decode exactly like an unknown tag.
        let mut head = MAGIC.to_vec();
        push_u16(&mut head, VERSION);
        push_u32(&mut head, 0);
        push_u32(&mut head, 1);
        push_u64(&mut head, 0);
        push_name(&mut head, "w");
        head.push(TAG_SPAN_OPEN);
        push_u64(&mut head, 1);
        head.push(kind_code(SpanKind::Unit));
        push_name(&mut head, "unit");
        for tag in [3u8, 4, 5, 0xEE] {
            let mut bytes = head.clone();
            bytes.push(tag);
            push_u64(&mut bytes, 2);
            bytes.extend_from_slice(&[0; 64]);
            let rec = FlightRecording::parse(&bytes).unwrap();
            assert!(rec.torn, "tag {tag} must end the decode");
            assert_eq!(
                rec.events.len(),
                1,
                "tag {tag}: only the good open survives"
            );
        }
    }

    #[test]
    fn round_trip_every_record_kind() {
        let _g = serial();
        let path = tmp("roundtrip.bin");
        start(&path, 3, "worker-3").unwrap();
        span_open(SpanKind::Unit, "clover/a100/usm@dpcpp");
        span_open(SpanKind::Launch, "advec_cell");
        span_close(SpanKind::Launch, "advec_cell");
        span_close(SpanKind::Unit, "clover/a100/usm@dpcpp");
        assert_eq!(stop(), Some(4));
        let rec = FlightRecording::read(&path).unwrap();
        assert_eq!(rec.worker, 3);
        assert_eq!(rec.pid, std::process::id());
        assert_eq!(rec.label, "worker-3");
        assert!(!rec.torn);
        let decoded: Vec<(bool, SpanKind, &str)> = rec
            .events
            .iter()
            .map(|e| match e {
                FlightEvent::SpanOpen { kind, name, .. } => (true, *kind, name.as_str()),
                FlightEvent::SpanClose { kind, name, .. } => (false, *kind, name.as_str()),
            })
            .collect();
        assert_eq!(
            decoded,
            [
                (true, SpanKind::Unit, "clover/a100/usm@dpcpp"),
                (true, SpanKind::Launch, "advec_cell"),
                (false, SpanKind::Launch, "advec_cell"),
                (false, SpanKind::Unit, "clover/a100/usm@dpcpp"),
            ]
        );
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
        // A non-LIFO close decodes as written, naming the open it
        // matches; `b` is left open.
        let names: Vec<(bool, &str)> = rec
            .events
            .iter()
            .map(|e| match e {
                FlightEvent::SpanOpen { name, .. } => (true, name.as_str()),
                FlightEvent::SpanClose { name, .. } => (false, name.as_str()),
            })
            .collect();
        assert_eq!(names, [(true, "a"), (true, "b"), (false, "a")]);
    }

    #[test]
    fn recording_off_is_a_no_op() {
        let _g = serial();
        assert!(!recording());
        span_open(SpanKind::Launch, "nope");
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
