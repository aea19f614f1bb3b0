//! The orchestrator↔worker pipe protocol.
//!
//! ## Frame layout
//!
//! Every message travels in one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"SYF1"
//! 4       4     length u32, little-endian, bytes of payload
//! 8       len   payload: one UTF-8 JSON document
//! ```
//!
//! The magic makes desynchronisation loud (a stray `println!` in a
//! worker shows up as `BadMagic`, not as garbage fed to the JSON
//! parser), the length prefix lets the reader allocate exactly once,
//! and [`MAX_FRAME`] bounds that allocation so a corrupt length cannot
//! OOM the orchestrator. A frame cut short by a dying worker surfaces
//! as [`FrameError::Truncated`]; EOF *between* frames is the clean
//! shutdown signal (`Ok(None)`).
//!
//! ## Messages
//!
//! JSON objects tagged by a `"msg"` key. Orchestrator → worker:
//! `run`, `exit`. Worker → orchestrator: `hello`, `start`, `done`,
//! `bye`. `start` is sent *before* the unit executes, so after a crash
//! the orchestrator knows exactly which unit died and can retry it.
//! `bye` is the worker's exit frame (peak RSS and farewell); a worker
//! that dies never sends it, which is itself a signal.
//!
//! ## Versioning
//!
//! `hello` carries [`PROTO_VERSION`]. The orchestrator refuses to mix
//! protocol generations: a version mismatch fails the study with a
//! clear error instead of silently dropping fields a newer peer relies
//! on (trace ids, exit frames). A `hello` without a `proto` key parses
//! as version 0 — the pre-handshake generation.

use crate::record::UnitRecord;
use crate::unit::{unit_from_wire, StudyUnit};
use std::fmt;
use std::io::{self, Read, Write};
use telemetry::json::{self, Json, JsonWriter};

/// Frame magic: **SY**cl-study **F**rame v**1**.
pub const MAGIC: [u8; 4] = *b"SYF1";

/// Message-schema generation spoken by this build. Bumped when a field
/// the orchestrator depends on is added (v2: trace ids + `bye` frames).
pub const PROTO_VERSION: u32 = 2;

/// Upper bound on a frame payload (16 MiB) — larger lengths are
/// treated as protocol corruption, not allocation requests.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    Io(io::Error),
    /// The stream is desynchronised (or not ours).
    BadMagic([u8; 4]),
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized(u32),
    /// EOF inside a frame — the peer died mid-write.
    Truncated {
        expected: usize,
        got: usize,
    },
    /// The payload is not UTF-8.
    Utf8,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame io error: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::Oversized(n) => write!(f, "frame length {n} exceeds {MAX_FRAME}"),
            FrameError::Truncated { expected, got } => {
                write!(f, "frame truncated: expected {expected} bytes, got {got}")
            }
            FrameError::Utf8 => write!(f, "frame payload is not UTF-8"),
        }
    }
}

/// Write one frame.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Read one frame. `Ok(None)` is clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> Result<Option<String>, FrameError> {
    let mut header = [0u8; 8];
    match read_exact_or_eof(r, &mut header).map_err(FrameError::Io)? {
        0 => return Ok(None),
        8 => {}
        got => return Err(FrameError::Truncated { expected: 8, got }),
    }
    let magic = [header[0], header[1], header[2], header[3]];
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    match read_exact_or_eof(r, &mut payload).map_err(FrameError::Io)? {
        n if n == len as usize => {}
        got => {
            return Err(FrameError::Truncated {
                expected: len as usize,
                got,
            })
        }
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| FrameError::Utf8)
}

/// Fill `buf` completely, or return how many bytes arrived before EOF.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Worker greeting (pid recorded for span attribution, `proto` for
    /// the version handshake).
    Hello { worker: u32, pid: u32, proto: u32 },
    /// Execute one unit. `trace` is the orchestrator-stamped causal
    /// trace id carried through spans, flight events, and records.
    Run {
        unit: StudyUnit,
        attempt: u32,
        reps: u32,
        /// Paper-size apps (vs CI test size).
        paper: bool,
        trace: u64,
    },
    /// The worker is about to execute `index` — the crash-retry anchor.
    Start {
        index: usize,
        worker: u32,
        attempt: u32,
        trace: u64,
    },
    /// The unit reached a terminal state.
    Done(UnitRecord),
    /// Worker exit frame: sent on orderly shutdown, never by a crash.
    Bye { worker: u32, peak_rss_kb: u64 },
    /// Orderly shutdown.
    Exit,
}

impl Msg {
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        match self {
            Msg::Hello { worker, pid, proto } => {
                w.begin_object();
                w.key("msg").string("hello");
                w.key("worker").int(*worker as u64);
                w.key("pid").int(*pid as u64);
                w.key("proto").int(*proto as u64);
                w.end_object();
            }
            Msg::Run {
                unit,
                attempt,
                reps,
                paper,
                trace,
            } => {
                w.begin_object();
                w.key("msg").string("run");
                w.key("index").int(unit.index as u64);
                w.key("app").string(&unit.app);
                w.key("platform").string(unit.platform.label());
                w.key("toolchain").string(unit.variant.toolchain.label());
                w.key("ndRange").bool(unit.variant.nd_range);
                if let Some(s) = unit.scheme {
                    w.key("scheme").string(s.label());
                }
                w.key("attempt").int(*attempt as u64);
                w.key("reps").int(*reps as u64);
                w.key("paper").bool(*paper);
                w.key("trace").int(*trace);
                w.end_object();
            }
            Msg::Start {
                index,
                worker,
                attempt,
                trace,
            } => {
                w.begin_object();
                w.key("msg").string("start");
                w.key("index").int(*index as u64);
                w.key("worker").int(*worker as u64);
                w.key("attempt").int(*attempt as u64);
                w.key("trace").int(*trace);
                w.end_object();
            }
            Msg::Done(rec) => {
                w.begin_object();
                w.key("msg").string("done");
                w.key("record");
                rec.write_json(&mut w);
                w.end_object();
            }
            Msg::Bye {
                worker,
                peak_rss_kb,
            } => {
                w.begin_object();
                w.key("msg").string("bye");
                w.key("worker").int(*worker as u64);
                w.key("peakRssKb").int(*peak_rss_kb);
                w.end_object();
            }
            Msg::Exit => {
                w.begin_object();
                w.key("msg").string("exit");
                w.end_object();
            }
        }
        w.finish()
    }

    pub fn parse(text: &str) -> Result<Msg, String> {
        let j = json::parse(text).map_err(|e| e.to_string())?;
        let u32_of = |k: &str| -> Result<u32, String> {
            j.u64_of(k)
                .map(|v| v as u32)
                .ok_or(format!("missing '{k}'"))
        };
        match j.str_of("msg").ok_or("message missing 'msg' tag")? {
            "hello" => Ok(Msg::Hello {
                worker: u32_of("worker")?,
                pid: u32_of("pid")?,
                // Pre-handshake peers sent no version at all.
                proto: j.u64_of("proto").unwrap_or(0) as u32,
            }),
            "run" => {
                let unit = unit_from_wire(
                    j.u64_of("index").ok_or("run missing 'index'")? as usize,
                    j.str_of("app").ok_or("run missing 'app'")?,
                    j.str_of("platform").ok_or("run missing 'platform'")?,
                    j.str_of("toolchain").ok_or("run missing 'toolchain'")?,
                    matches!(j.get("ndRange"), Some(Json::Bool(true))),
                    j.str_of("scheme"),
                )
                .ok_or("run names unknown platform/toolchain/scheme")?;
                Ok(Msg::Run {
                    unit,
                    attempt: u32_of("attempt")?,
                    reps: u32_of("reps")?,
                    paper: matches!(j.get("paper"), Some(Json::Bool(true))),
                    trace: j.u64_of("trace").unwrap_or(0),
                })
            }
            "start" => Ok(Msg::Start {
                index: j.u64_of("index").ok_or("start missing 'index'")? as usize,
                worker: u32_of("worker")?,
                attempt: u32_of("attempt")?,
                trace: j.u64_of("trace").unwrap_or(0),
            }),
            "done" => {
                let rec = j.get("record").ok_or("done missing 'record'")?;
                Ok(Msg::Done(UnitRecord::from_json(rec)?))
            }
            "bye" => Ok(Msg::Bye {
                worker: u32_of("worker")?,
                peak_rss_kb: j.u64_of("peakRssKb").unwrap_or(0),
            }),
            "exit" => Ok(Msg::Exit),
            other => Err(format!("unknown message tag '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::UnitStatus;
    use crate::unit::smoke_units;
    use std::io::Cursor;

    fn messages() -> Vec<Msg> {
        let unit = smoke_units().into_iter().next().unwrap();
        vec![
            Msg::Hello {
                worker: 1,
                pid: 42,
                proto: PROTO_VERSION,
            },
            Msg::Run {
                unit: unit.clone(),
                attempt: 2,
                reps: 3,
                paper: true,
                trace: 7,
            },
            Msg::Start {
                index: unit.index,
                worker: 1,
                attempt: 2,
                trace: 7,
            },
            Msg::Done(UnitRecord {
                unit,
                status: UnitStatus::Ok,
                note: None,
                worker: 1,
                attempt: 2,
                trace: 7,
                wall_secs: 0.25,
                samples: vec![0.1, 0.15],
                sim_secs: Some(1.0),
                efficiency: Some(0.5),
                gbps: Some(700.0),
            }),
            Msg::Bye {
                worker: 1,
                peak_rss_kb: 51_200,
            },
            Msg::Exit,
        ]
    }

    #[test]
    fn messages_round_trip_through_frames() {
        let mut pipe = Vec::new();
        for m in messages() {
            write_frame(&mut pipe, &m.to_json()).unwrap();
        }
        let mut r = Cursor::new(pipe);
        let mut back = Vec::new();
        while let Some(payload) = read_frame(&mut r).unwrap() {
            back.push(Msg::parse(&payload).unwrap());
        }
        assert_eq!(back, messages());
    }

    #[test]
    fn hello_without_proto_parses_as_version_zero() {
        // A pre-handshake worker never wrote a `proto` key; it must
        // parse (as generation 0) so the orchestrator can *name* the
        // mismatch instead of choking on the frame.
        let m = Msg::parse(r#"{"msg":"hello","worker":0,"pid":9}"#).unwrap();
        assert_eq!(
            m,
            Msg::Hello {
                worker: 0,
                pid: 9,
                proto: 0
            }
        );
    }

    #[test]
    fn eof_between_frames_is_clean_but_inside_is_truncation() {
        let mut pipe = Vec::new();
        write_frame(&mut pipe, &Msg::Exit.to_json()).unwrap();
        // Cut the stream at every byte inside the frame.
        for cut in 1..pipe.len() {
            let err = {
                let mut r = Cursor::new(&pipe[..cut]);
                read_frame(&mut r).unwrap_err()
            };
            assert!(
                matches!(err, FrameError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
        let mut r = Cursor::new(&pipe[..0]);
        assert!(read_frame(&mut r).unwrap().is_none(), "empty stream = EOF");
    }

    #[test]
    fn stray_output_and_corrupt_lengths_are_rejected() {
        let mut r = Cursor::new(b"thread 'main' panicked at".to_vec());
        assert!(matches!(
            read_frame(&mut r).unwrap_err(),
            FrameError::BadMagic(_)
        ));

        let mut pipe = Vec::new();
        pipe.extend_from_slice(&MAGIC);
        pipe.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let mut r = Cursor::new(pipe);
        assert!(matches!(
            read_frame(&mut r).unwrap_err(),
            FrameError::Oversized(_)
        ));

        let mut pipe = Vec::new();
        pipe.extend_from_slice(&MAGIC);
        pipe.extend_from_slice(&2u32.to_le_bytes());
        pipe.extend_from_slice(&[0xff, 0xfe]);
        let mut r = Cursor::new(pipe);
        assert!(matches!(read_frame(&mut r).unwrap_err(), FrameError::Utf8));
    }
}
