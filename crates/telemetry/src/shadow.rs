//! Shadow-access recording: the data-collection half of `sycl-verify`.
//!
//! A [`Shadow`] (dat registry, active loop, trace sink) is current on
//! the thread that [entered](Shadow::enter) it. Datasets created there
//! register with it; the DSL emitters read it once per launch and pass
//! it to every pool unit through [`unit()`], so each view access
//! (`ReadView::at`, `WriteView::set`, `Accum::add`, the row-sliced
//! spans, the op2 gather/scatter paths) records the touched linear
//! index into a **per-thread bitmap** for the unit (tile / chunk /
//! block) running it, whichever lane that is. When a unit finishes, its
//! bitmaps merge into the launching shadow's loop under one lock; the
//! merge also detects write–write and read–write overlap *between*
//! units — exactly the races no race-resolution scheme covers, because
//! units of one launch may run concurrently. Atomic accumulations get
//! their own bitmap: atomic/atomic overlap is accepted, atomic/plain
//! is not.
//!
//! This module records and unions; `sycl-verify` supplies the [`Sink`]
//! that turns each [`LoopTrace`] into diagnostics. Uninstrumented runs
//! pay one `sid != 0` branch per access (dats created with no shadow
//! current carry id 0) and one `Option` branch per unit, and recording
//! only *observes* memory, so shadow runs are bit-identical to
//! fast-path runs.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------- bits

/// A growable bitmap over a dataset's linear cell indices.
#[derive(Debug, Clone, Default)]
pub struct Bits {
    words: Vec<u64>,
}

impl Bits {
    /// Sized for `cells` bits, all zero.
    pub fn with_cells(cells: usize) -> Bits {
        Bits {
            words: vec![0; cells.div_ceil(64)],
        }
    }

    #[inline]
    pub fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Set `len` consecutive bits starting at `i` (row spans).
    pub fn set_span(&mut self, i: usize, len: usize) {
        let (mut w, end) = (i, i + len);
        while w < end {
            let word = w >> 6;
            let lo = w & 63;
            let hi = (end - (w - lo)).min(64);
            let mask = if hi - lo == 64 {
                !0u64
            } else {
                ((1u64 << (hi - lo)) - 1) << lo
            };
            self.words[word] |= mask;
            w = (word + 1) << 6;
        }
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words
            .get(i >> 6)
            .is_some_and(|w| w & (1u64 << (i & 63)) != 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// `self |= other`.
    pub fn union(&mut self, other: &Bits) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// First index set in both `a` and `b`.
    pub fn first_and(a: &Bits, b: &Bits) -> Option<usize> {
        for (i, (&x, &y)) in a.words.iter().zip(&b.words).enumerate() {
            let both = x & y;
            if both != 0 {
                return Some((i << 6) + both.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Iterate set-bit indices.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some((i << 6) + b)
                }
            })
        })
    }

    /// Zero every word, keeping the allocation.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Grow to hold at least `cells` bits, keeping contents. Needed
    /// because per-thread unit bitmaps are cached by shadow id, and ids
    /// restart in every [`Shadow`] — the same id may name a larger
    /// dataset in the next run.
    pub fn ensure_cells(&mut self, cells: usize) {
        let need = cells.div_ceil(64);
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
    }
}

// ------------------------------------------------------------ registry

/// Where a dataset's linear indices live.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DatGeom {
    /// Halo-padded structured field, x-fastest: index =
    /// `((z+off2)*pad1 + (y+off1))*pad0 + (x+off0)`.
    Grid { pad: [usize; 3], off: [i64; 3] },
    /// Unstructured set field: index = `element*dim + component`.
    Set { size: usize, dim: usize },
}

impl DatGeom {
    /// Total addressable slots.
    pub fn cells(&self) -> usize {
        match self {
            DatGeom::Grid { pad, .. } => pad[0] * pad[1] * pad[2],
            DatGeom::Set { size, dim } => size * dim,
        }
    }

    /// Logical coordinates of a linear index, for diagnostics.
    pub fn locate(&self, idx: usize) -> String {
        match self {
            DatGeom::Grid { pad, off } => {
                let x = (idx % pad[0]) as i64 - off[0];
                let y = ((idx / pad[0]) % pad[1]) as i64 - off[1];
                let z = (idx / (pad[0] * pad[1])) as i64 - off[2];
                format!("({x}, {y}, {z})")
            }
            DatGeom::Set { dim, .. } => {
                format!("element {} component {}", idx / dim, idx % dim)
            }
        }
    }

    /// Logical grid coordinates (structured only).
    pub fn grid_coords(&self, idx: usize) -> Option<[i64; 3]> {
        match self {
            DatGeom::Grid { pad, off } => Some([
                (idx % pad[0]) as i64 - off[0],
                ((idx / pad[0]) % pad[1]) as i64 - off[1],
                (idx / (pad[0] * pad[1])) as i64 - off[2],
            ]),
            DatGeom::Set { .. } => None,
        }
    }
}

struct DatRecord {
    name: String,
    elem_bytes: f64,
    geom: DatGeom,
    /// Cells written so far (by fills, ambient setup writes, or any
    /// finished loop) — the "initialized" set for uninit-read checks.
    init: Bits,
    init_all: bool,
}

/// Register a dataset with the calling thread's current [`Shadow`] and
/// get its shadow id (ids start at 1 in every shadow; 0 means "created
/// with no shadow current" and is never recorded).
pub fn register_dat(name: &str, elem_bytes: f64, geom: DatGeom) -> u32 {
    with_current(|sh| {
        let mut reg = lock(&sh.registry);
        reg.push(DatRecord {
            name: name.to_owned(),
            elem_bytes,
            geom,
            init: Bits::with_cells(geom.cells()),
            init_all: false,
        });
        reg.len() as u32
    })
    .unwrap_or(0)
}

/// Mark every cell of `id` initialized (`fill_with`, host slices) in the
/// calling thread's current shadow.
pub fn mark_all_init(id: u32) {
    if id == 0 {
        return;
    }
    with_current(|sh| {
        if let Some(r) = lock(&sh.registry).get_mut(id as usize - 1) {
            r.init_all = true;
        }
    });
}

// ------------------------------------------------------- declarations

/// How a loop argument was declared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Access {
    Read,
    Write,
    ReadWrite,
}

/// One declared loop argument, linked to a dataset by shadow id
/// (`dat == 0` when the declaration used an anonymous meta).
#[derive(Debug, Clone)]
pub struct ArgDecl {
    pub dat: u32,
    pub access: Access,
    pub radius: [usize; 3],
}

/// The declaration side of one parallel loop, captured at launch.
#[derive(Debug, Clone)]
pub struct LoopDecl {
    pub kernel: String,
    /// Structured (OPS) loops carry a real iteration box and dat-linked
    /// args; unstructured (OP2) loops only carry races/notes/footprint.
    pub structured: bool,
    pub lo: [i64; 3],
    pub hi: [i64; 3],
    pub args: Vec<ArgDecl>,
    pub flops_pp: f64,
    pub transc_pp: f64,
    /// Race-resolution scheme label for op2 loops (`None` = structured
    /// or direct loop).
    pub scheme: Option<&'static str>,
}

/// Classes of free-form observations instrumented code can attach to
/// the active loop (plan violations from the colouring validators,
/// declaration defects from the builders).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoteKind {
    PlanViolation,
    DeclDefect,
}

#[derive(Debug, Clone)]
pub struct Note {
    pub kind: NoteKind,
    pub text: String,
}

// ------------------------------------------------------- active loop

/// Overlap between execution units of one launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConflictKind {
    /// Two units plain-wrote the same cell.
    WriteWrite,
    /// One unit read a cell another plain-wrote.
    ReadWrite,
    /// Atomic and non-atomic access to the same cell.
    AtomicPlain,
}

#[derive(Debug, Clone)]
pub struct Conflict {
    pub dat: u32,
    pub cell: usize,
    pub kind: ConflictKind,
}

/// Per-dat union bitmaps for the active loop. `phase_*` reset at every
/// [`Shadow::next_phase`] (one phase per launch: colour groups of one
/// op2 loop are separate launches, so cross-colour overlap is legal).
struct LoopTouch {
    read: Bits,
    write: Bits,
    atomic: Bits,
    phase_read: Bits,
    phase_write: Bits,
    phase_atomic: Bits,
}

impl LoopTouch {
    fn new(cells: usize) -> LoopTouch {
        LoopTouch {
            read: Bits::with_cells(cells),
            write: Bits::with_cells(cells),
            atomic: Bits::with_cells(cells),
            phase_read: Bits::with_cells(cells),
            phase_write: Bits::with_cells(cells),
            phase_atomic: Bits::with_cells(cells),
        }
    }
}

/// Most conflicts kept per loop (the first few name the bug; thousands
/// of repeats add nothing).
const MAX_CONFLICTS: usize = 16;

struct ActiveLoop {
    decl: LoopDecl,
    dats: Vec<(u32, LoopTouch)>,
    conflicts: Vec<Conflict>,
    notes: Vec<Note>,
    phases: u32,
}

// ------------------------------------------------------------- traces

/// What one dat experienced over one loop.
#[derive(Debug, Clone)]
pub struct DatTrace {
    pub id: u32,
    pub name: String,
    pub elem_bytes: f64,
    pub geom: DatGeom,
    pub read: Bits,
    pub write: Bits,
    pub atomic: Bits,
    /// Reads of cells never initialized by a fill, setup write, or any
    /// earlier loop (and not written by this one).
    pub uninit_reads: usize,
    pub uninit_example: Option<usize>,
}

/// The full observation of one loop, handed to the sink.
#[derive(Debug, Clone)]
pub struct LoopTrace {
    pub decl: LoopDecl,
    pub dats: Vec<DatTrace>,
    pub conflicts: Vec<Conflict>,
    pub notes: Vec<Note>,
    pub phases: u32,
}

/// Consumer of finished loop traces (supplied by `sycl-verify`).
pub type Sink = Box<dyn Fn(LoopTrace) + Send + Sync>;

// -------------------------------------------------------------- shadow

/// One instrumented run's shadow state: the dataset registry, the loop
/// being recorded, and where its finished traces go.
pub struct Shadow {
    registry: Mutex<Vec<DatRecord>>,
    active: Mutex<Option<ActiveLoop>>,
    sink: Option<Sink>,
}

thread_local! {
    /// The shadow that datasets created and ambient writes made on this
    /// thread record into.
    static CURRENT: RefCell<Option<Arc<Shadow>>> = const { RefCell::new(None) };
}

fn with_current<R>(f: impl FnOnce(&Shadow) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_deref().map(f))
}

/// The calling thread's current shadow, if any. DSL emitters read it
/// once per launch and hand it to that launch's units via [`unit()`].
pub fn current() -> Option<Arc<Shadow>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Keeps a [`Shadow`] current on the thread that entered it; dropping
/// the scope restores whatever was current before. The scope is the
/// thread, so a `Scope` is not `Send`.
pub struct Scope {
    shadow: Arc<Shadow>,
    prev: Option<Arc<Shadow>>,
    _thread: PhantomData<*const ()>,
}

impl std::ops::Deref for Scope {
    type Target = Shadow;

    fn deref(&self) -> &Shadow {
        &self.shadow
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

impl Shadow {
    /// Make a fresh shadow current on this thread until the returned
    /// scope drops. Datasets only acquire shadow ids at creation, so
    /// enter *before* the instrumented run allocates. Finished loop
    /// traces go to `sink`; without one the shadow only names dats.
    pub fn enter(sink: Option<Sink>) -> Scope {
        let shadow = Arc::new(Shadow {
            registry: Mutex::new(Vec::new()),
            active: Mutex::new(None),
            sink,
        });
        let prev = CURRENT.with(|c| c.replace(Some(Arc::clone(&shadow))));
        Scope {
            shadow,
            prev,
            _thread: PhantomData,
        }
    }

    /// The registered name of dat `id`, for diagnostics (`None` for the
    /// anonymous id 0 or an id this shadow never issued).
    pub fn dat_name(&self, id: u32) -> Option<String> {
        let i = (id as usize).checked_sub(1)?;
        lock(&self.registry).get(i).map(|r| r.name.clone())
    }

    /// Begin recording a loop whose body executes. A loop already
    /// active is replaced (and dropped).
    pub fn begin_loop(&self, decl: LoopDecl) {
        *lock(&self.active) = Some(ActiveLoop {
            decl,
            dats: Vec::new(),
            conflicts: Vec::new(),
            notes: Vec::new(),
            phases: 1,
        });
    }

    /// Start the next launch phase of the active loop (op2 colour
    /// groups): conflict unions reset, total unions persist.
    pub fn next_phase(&self) {
        if let Some(al) = lock(&self.active).as_mut() {
            al.phases += 1;
            for (_, t) in &mut al.dats {
                t.phase_read.clear();
                t.phase_write.clear();
                t.phase_atomic.clear();
            }
        }
    }

    /// Attach a note to the active loop (dropped when no loop is active).
    pub fn note(&self, kind: NoteKind, text: String) {
        if let Some(al) = lock(&self.active).as_mut() {
            al.notes.push(Note { kind, text });
        }
    }

    /// Finish the active loop: compute uninit reads, fold writes into
    /// the registry's init set, and hand the trace to the sink. Dats are
    /// listed by registry id: units merge in scheduling order, so
    /// first-touch order would make the verifier's report vary from run
    /// to run.
    pub fn end_loop(&self) {
        let Some(mut al) = lock(&self.active).take() else {
            return;
        };
        al.dats.sort_unstable_by_key(|&(id, _)| id);
        let mut dats = Vec::with_capacity(al.dats.len());
        {
            let mut reg = lock(&self.registry);
            for (id, t) in al.dats {
                let Some(rec) = reg.get_mut(id as usize - 1) else {
                    continue;
                };
                let mut uninit_reads = 0;
                let mut uninit_example = None;
                if !rec.init_all {
                    for i in t.read.ones() {
                        if !rec.init.get(i) && !t.write.get(i) && !t.atomic.get(i) {
                            uninit_reads += 1;
                            uninit_example.get_or_insert(i);
                        }
                    }
                }
                rec.init.union(&t.write);
                rec.init.union(&t.atomic);
                dats.push(DatTrace {
                    id,
                    name: rec.name.clone(),
                    elem_bytes: rec.elem_bytes,
                    geom: rec.geom,
                    read: t.read,
                    write: t.write,
                    atomic: t.atomic,
                    uninit_reads,
                    uninit_example,
                });
            }
        }
        if let Some(sink) = &self.sink {
            sink(LoopTrace {
                decl: al.decl,
                dats,
                conflicts: al.conflicts,
                notes: al.notes,
                phases: al.phases,
            });
        }
    }

    /// Merge a finished unit's bitmaps into the active loop, detecting
    /// overlap against the units already merged in this phase, and
    /// clear them for the thread's next unit.
    fn merge(&self, u: &mut UnitState) {
        let mut active = lock(&self.active);
        if let Some(al) = active.as_mut() {
            for t in u.dats.iter().filter(|t| t.touched) {
                let lt = match al.dats.iter_mut().find(|(id, _)| *id == t.id) {
                    Some((_, lt)) => lt,
                    None => {
                        let cells = lock(&self.registry)
                            .get(t.id as usize - 1)
                            .map(|r| r.geom.cells())
                            .unwrap_or(0);
                        al.dats.push((t.id, LoopTouch::new(cells)));
                        &mut al.dats.last_mut().unwrap().1
                    }
                };
                if al.conflicts.len() < MAX_CONFLICTS {
                    let found = Bits::first_and(&t.write, &lt.phase_write)
                        .map(|c| (c, ConflictKind::WriteWrite))
                        .or_else(|| {
                            Bits::first_and(&t.write, &lt.phase_read)
                                .or_else(|| Bits::first_and(&t.read, &lt.phase_write))
                                .map(|c| (c, ConflictKind::ReadWrite))
                        })
                        .or_else(|| {
                            Bits::first_and(&t.atomic, &lt.phase_write)
                                .or_else(|| Bits::first_and(&t.atomic, &lt.phase_read))
                                .or_else(|| Bits::first_and(&t.write, &lt.phase_atomic))
                                .or_else(|| Bits::first_and(&t.read, &lt.phase_atomic))
                                .map(|c| (c, ConflictKind::AtomicPlain))
                        });
                    if let Some((cell_idx, kind)) = found {
                        al.conflicts.push(Conflict {
                            dat: t.id,
                            cell: cell_idx,
                            kind,
                        });
                    }
                }
                lt.read.union(&t.read);
                lt.write.union(&t.write);
                lt.atomic.union(&t.atomic);
                lt.phase_read.union(&t.read);
                lt.phase_write.union(&t.write);
                lt.phase_atomic.union(&t.atomic);
            }
        }
        drop(active);
        for t in &mut u.dats {
            t.read.clear();
            t.write.clear();
            t.atomic.clear();
            t.touched = false;
        }
    }
}

// ----------------------------------------------------- unit recording

struct UnitTouch {
    id: u32,
    touched: bool,
    read: Bits,
    write: Bits,
    atomic: Bits,
}

#[derive(Default)]
struct UnitState {
    depth: u32,
    dats: Vec<UnitTouch>,
}

thread_local! {
    static UNIT: RefCell<UnitState> = RefCell::new(UnitState::default());
}

/// Run `f` as one execution unit (tile / chunk / block) of a launch on
/// whichever thread the pool picked. `sh` is the launching thread's
/// shadow, captured once per launch: with `None` this is `f()` behind
/// one branch; with a shadow, the accesses `f` makes on this thread
/// merge into that shadow's active loop, and no other, when the
/// outermost unit ends.
#[inline]
pub fn unit<R>(sh: Option<&Shadow>, f: impl FnOnce() -> R) -> R {
    if sh.is_some() {
        UNIT.with(|u| u.borrow_mut().depth += 1);
    }
    let out = f();
    if let Some(sh) = sh {
        UNIT.with(|cell| {
            let mut u = cell.borrow_mut();
            u.depth -= 1;
            if u.depth == 0 {
                sh.merge(&mut u);
            }
        });
    }
    out
}

#[derive(Clone, Copy)]
enum Kind {
    Read,
    Write,
    Atomic,
}

fn record(id: u32, idx: usize, len: usize, cells: usize, kind: Kind) {
    UNIT.with(|cell| {
        let mut u = cell.borrow_mut();
        if u.depth == 0 {
            // Ambient access (setup/validation outside any loop):
            // writes initialize, reads are unchecked.
            if matches!(kind, Kind::Write) {
                with_current(|sh| {
                    if let Some(r) = lock(&sh.registry).get_mut(id as usize - 1) {
                        r.init.set_span(idx, len);
                    }
                });
            }
            return;
        }
        let t = match u.dats.iter_mut().position(|t| t.id == id) {
            Some(p) => {
                let t = &mut u.dats[p];
                t.read.ensure_cells(cells);
                t.write.ensure_cells(cells);
                t.atomic.ensure_cells(cells);
                t
            }
            None => {
                u.dats.push(UnitTouch {
                    id,
                    touched: false,
                    read: Bits::with_cells(cells),
                    write: Bits::with_cells(cells),
                    atomic: Bits::with_cells(cells),
                });
                u.dats.last_mut().unwrap()
            }
        };
        t.touched = true;
        let bits = match kind {
            Kind::Read => &mut t.read,
            Kind::Write => &mut t.write,
            Kind::Atomic => &mut t.atomic,
        };
        if len == 1 {
            bits.set(idx);
        } else {
            bits.set_span(idx, len);
        }
    });
}

/// Record a single-cell read. `cells` sizes the bitmap on first touch.
#[inline]
pub fn record_read(id: u32, idx: usize, cells: usize) {
    if id != 0 {
        record(id, idx, 1, cells, Kind::Read);
    }
}

/// Record a contiguous read span (row slices).
#[inline]
pub fn record_read_span(id: u32, idx: usize, len: usize, cells: usize) {
    if id != 0 && len > 0 {
        record(id, idx, len, cells, Kind::Read);
    }
}

/// Record a single-cell plain write.
#[inline]
pub fn record_write(id: u32, idx: usize, cells: usize) {
    if id != 0 {
        record(id, idx, 1, cells, Kind::Write);
    }
}

/// Record a contiguous write span (mutable row slices — conservatively
/// also a read span, since the body may read through the slice).
#[inline]
pub fn record_write_span(id: u32, idx: usize, len: usize, cells: usize) {
    if id != 0 && len > 0 {
        record(id, idx, len, cells, Kind::Read);
        record(id, idx, len, cells, Kind::Write);
    }
}

/// Record an atomic read-modify-write.
#[inline]
pub fn record_atomic(id: u32, idx: usize, cells: usize) {
    if id != 0 {
        record(id, idx, 1, cells, Kind::Atomic);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid4() -> DatGeom {
        DatGeom::Grid {
            pad: [4, 4, 1],
            off: [0, 0, 0],
        }
    }

    fn decl(kernel: &str) -> LoopDecl {
        LoopDecl {
            kernel: kernel.to_owned(),
            structured: true,
            lo: [0, 0, 0],
            hi: [4, 4, 1],
            args: Vec::new(),
            flops_pp: 0.0,
            transc_pp: 0.0,
            scheme: None,
        }
    }

    fn capture(run: impl FnOnce(&Shadow)) -> Vec<LoopTrace> {
        let traces = Arc::new(Mutex::new(Vec::new()));
        let sink_traces = Arc::clone(&traces);
        let shadow = Shadow::enter(Some(Box::new(move |t| lock(&sink_traces).push(t))));
        run(&shadow);
        drop(shadow);
        let out = lock(&traces).clone();
        out
    }

    #[test]
    fn bits_spans_and_iteration() {
        let mut b = Bits::with_cells(200);
        b.set_span(60, 70);
        assert_eq!(b.count(), 70);
        assert!(b.get(60) && b.get(129) && !b.get(59) && !b.get(130));
        assert_eq!(b.ones().next(), Some(60));
        let mut c = Bits::with_cells(200);
        c.set(100);
        assert_eq!(Bits::first_and(&b, &c), Some(100));
    }

    #[test]
    fn units_merge_and_conflicts_are_detected() {
        let traces = capture(|sh| {
            let id = register_dat("u", 8.0, grid4());
            sh.begin_loop(decl("k"));
            unit(Some(sh), || {
                record_write(id, 3, 16);
                record_read(id, 2, 16);
            });
            unit(Some(sh), || {
                record_write(id, 3, 16); // same cell as unit 1: WW race
            });
            sh.end_loop();
        });
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.conflicts.len(), 1);
        assert_eq!(t.conflicts[0].kind, ConflictKind::WriteWrite);
        assert_eq!(t.conflicts[0].cell, 3);
        assert_eq!(t.dats[0].write.count(), 1);
        assert_eq!(t.dats[0].read.count(), 1);
    }

    #[test]
    fn atomic_overlap_is_not_a_conflict_and_phases_reset() {
        let traces = capture(|sh| {
            let id = register_dat("acc", 8.0, DatGeom::Set { size: 8, dim: 1 });
            sh.begin_loop(decl("flux"));
            for _ in 0..2 {
                unit(Some(sh), || {
                    record_atomic(id, 5, 8);
                });
            }
            // New phase: a plain write over the old cells is legal.
            sh.next_phase();
            unit(Some(sh), || {
                record_write(id, 5, 8);
            });
            sh.end_loop();
        });
        assert!(traces[0].conflicts.is_empty(), "{:?}", traces[0].conflicts);
        assert_eq!(traces[0].phases, 2);
    }

    #[test]
    fn uninit_reads_are_counted_and_writes_initialize() {
        let traces = capture(|sh| {
            let id = register_dat("u", 8.0, grid4());
            sh.begin_loop(decl("first"));
            unit(Some(sh), || {
                record_read(id, 7, 16); // never initialized
                record_write(id, 1, 16);
            });
            sh.end_loop();
            sh.begin_loop(decl("second"));
            unit(Some(sh), || {
                record_read(id, 1, 16); // initialized by loop "first"
            });
            sh.end_loop();
        });
        assert_eq!(traces[0].uninit(), (1, Some(7)));
        assert_eq!(traces[1].uninit(), (0, None));
    }

    impl LoopTrace {
        fn uninit(&self) -> (usize, Option<usize>) {
            (self.dats[0].uninit_reads, self.dats[0].uninit_example)
        }
    }

    #[test]
    fn ambient_writes_initialize_without_a_loop() {
        let traces = capture(|sh| {
            let id = register_dat("u", 8.0, grid4());
            record_write(id, 9, 16); // setup outside any loop
            sh.begin_loop(decl("k"));
            unit(Some(sh), || {
                record_read(id, 9, 16);
            });
            sh.end_loop();
        });
        assert_eq!(traces[0].dats[0].uninit_reads, 0);
    }

    #[test]
    fn disabled_mode_records_nothing() {
        assert!(current().is_none());
        assert_eq!(register_dat("u", 8.0, grid4()), 0);
        record_read(0, 3, 16);
        assert_eq!(unit(None, || 7), 7);
    }

    #[test]
    fn a_shadow_is_current_only_on_its_thread_and_within_its_scope() {
        let shadow = Shadow::enter(None);
        assert_eq!(register_dat("u", 8.0, grid4()), 1);
        std::thread::scope(|s| {
            s.spawn(|| assert_eq!(register_dat("other", 8.0, grid4()), 0));
        });
        assert_eq!(shadow.dat_name(1).as_deref(), Some("u"));
        assert_eq!(shadow.dat_name(2), None);
        drop(shadow);
        assert!(current().is_none());
        assert_eq!(register_dat("u", 8.0, grid4()), 0);
    }

    #[test]
    fn geometry_locates_cells() {
        let g = DatGeom::Grid {
            pad: [6, 4, 2],
            off: [1, 1, 0],
        };
        assert_eq!(g.locate(0), "(-1, -1, 0)");
        assert_eq!(g.grid_coords(6 * 4 + 7), Some([0, 0, 1]));
        let s = DatGeom::Set { size: 10, dim: 5 };
        assert_eq!(s.locate(12), "element 2 component 2");
    }
}
