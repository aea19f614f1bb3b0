//! The traced run's instruments: in-memory spans and the session hooks.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (name, start, end, parent span), with the spans of one cell,
//! unit or step sharing a group id. They stay in memory and are written
//! out once, as a Chrome trace, when the run ends.
//!
//! [`watch`] installs the session's public graph and launch observers
//! and timestamps what they report, which is where the per-step metrics
//! of the live workloads come from.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use sycl_sim::{GraphNodeInfo, Session};
use telemetry::json::JsonWriter;
use telemetry::CounterSnapshot;

struct Span {
    id: u64,
    parent: u64,
    group: u64,
    name: String,
    start: Instant,
    end: Instant,
}

/// Collects spans for the whole traced run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Record a finished span; returns its id. Parent 0 is the root.
    pub fn record(&self, name: &str, parent: u64, group: u64, start: Instant, end: Instant) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, name, parent, group, start, end);
        id
    }

    /// Time `f` as a span; `f` gets the span's id to parent its children.
    pub fn span<R>(&self, name: &str, parent: u64, group: u64, f: impl FnOnce(u64) -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let r = f(id);
        self.push(id, name, parent, group, start, Instant::now());
        r
    }

    fn push(&self, id: u64, name: &str, parent: u64, group: u64, start: Instant, end: Instant) {
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            group,
            name: name.to_owned(),
            start,
            end,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }

    /// Write every span as a Chrome `trace_event` document (complete
    /// `X` events; the group is the thread row, ids ride in `args`).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let mut w = JsonWriter::new();
        w.begin_object().key("traceEvents").begin_array();
        for s in spans.iter() {
            w.begin_object();
            w.key("name").string(&s.name);
            w.key("ph").string("X");
            w.key("pid").int(1);
            w.key("tid").int(s.group);
            w.key("ts").number(us(s.start));
            w.key("dur").number(us(s.end) - us(s.start));
            w.key("args").begin_object();
            w.key("id").int(s.id);
            w.key("parent").int(s.parent);
            w.key("group").int(s.group);
            w.end_object();
            w.end_object();
        }
        w.end_array().end_object();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, w.finish())
    }
}

/// One replay announced by the graph observer.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    pub graph: u64,
    pub at: Instant,
    pub counters: CounterSnapshot,
    /// Launch records delivered before this replay began.
    pub launches: u64,
}

/// What the session hooks saw.
#[derive(Debug, Default)]
pub struct Seen {
    pub replays: Vec<Replay>,
    /// Per recorded graph: Σ effective bytes of one replay's launches.
    pub graphs: HashMap<u64, f64>,
    /// Ledger records delivered to the launch observer.
    pub launches: u64,
    pub boundary_launches: u64,
}

/// One replay of the main (most replayed) graph.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub wall_s: f64,
    pub counters: CounterSnapshot,
    /// Launch records the step committed.
    pub launches: u64,
}

impl Seen {
    /// The graph replayed most often: the timestep loop.
    pub fn main_graph(&self) -> Option<u64> {
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for r in &self.replays {
            *counts.entry(r.graph).or_default() += 1;
        }
        counts
            .into_iter()
            .max_by_key(|&(id, n)| (n, std::cmp::Reverse(id)))
            .map(|(id, _)| id)
    }

    /// Each main-graph replay, from its start to the next announced
    /// replay (or `end` for the last event of the run).
    pub fn steps(&self, end: Instant) -> Vec<Step> {
        let Some(main) = self.main_graph() else {
            return Vec::new();
        };
        let now = telemetry::counters().snapshot();
        self.replays
            .iter()
            .enumerate()
            .filter(|(_, r)| r.graph == main)
            .map(|(i, r)| {
                let (until, counters, launches) = match self.replays.get(i + 1) {
                    Some(next) => (next.at, next.counters, next.launches),
                    None => (end, now, self.launches),
                };
                Step {
                    wall_s: until.saturating_duration_since(r.at).as_secs_f64(),
                    counters: counters.since(&r.counters),
                    launches: launches - r.launches,
                }
            })
            .collect()
    }

    /// Effective bytes of one main-graph replay.
    pub fn main_graph_bytes(&self) -> f64 {
        self.main_graph()
            .and_then(|id| self.graphs.get(&id).copied())
            .unwrap_or(0.0)
    }

    /// Record every replay as a span under `parent`, each in its own
    /// group (`group_base` + its index), ending where the next begins.
    pub fn record_replays(&self, tracer: &Tracer, parent: u64, group_base: u64, end: Instant) {
        for (i, r) in self.replays.iter().enumerate() {
            let until = self.replays.get(i + 1).map_or(end, |next| next.at);
            tracer.record("graph.replay", parent, group_base + i as u64, r.at, until);
        }
    }
}

/// Install the session's graph and launch observers; the returned cell
/// fills as the session replays graphs and commits launches.
pub fn watch(session: &Session) -> Arc<Mutex<Seen>> {
    let seen = Arc::new(Mutex::new(Seen::default()));
    let on_graph = Arc::clone(&seen);
    session.set_graph_observer(Some(Arc::new(move |g: &sycl_sim::GraphSummary| {
        let at = Instant::now();
        let counters = telemetry::counters().snapshot();
        let mut s = on_graph.lock().expect("observer state poisoned");
        s.graphs.entry(g.id).or_insert_with(|| {
            g.nodes
                .iter()
                .map(|node| match node {
                    GraphNodeInfo::Launch {
                        effective_bytes, ..
                    } => *effective_bytes,
                    _ => 0.0,
                })
                .sum()
        });
        let launches = s.launches;
        s.replays.push(Replay {
            graph: g.id,
            at,
            counters,
            launches,
        });
    })));
    let on_launch = Arc::clone(&seen);
    session.set_launch_observer(Some(Arc::new(move |rec: &sycl_sim::LaunchRecord| {
        let mut s = on_launch.lock().expect("observer state poisoned");
        s.launches += 1;
        s.boundary_launches += rec.boundary as u64;
    })));
    seen
}

/// Take the observed state out of its cell.
pub fn take(seen: &Arc<Mutex<Seen>>) -> Seen {
    std::mem::take(&mut *seen.lock().expect("observer state poisoned"))
}
