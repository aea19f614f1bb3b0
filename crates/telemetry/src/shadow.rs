//! Shadow-access recording: the data-collection half of `sycl-verify`.
//!
//! A loop is declared once. The DSLs build one [`LaunchMeta`] per loop
//! (its per-dat [`DatAccess`]es, iteration box and op2 scheme label);
//! the launch graph stores it for static analysis, and a shadowed
//! launch wraps the same metadata in its [`LoopDecl`]. `sycl-sim`
//! re-exports the three declaration types under their own names.
//!
//! A [`Shadow`] (dat registry, active loop, trace sink) is current on
//! the thread that [entered](Shadow::enter) it. Datasets created there
//! register with it, and the registry sizes every bitmap the shadow
//! keeps for them. The DSL emitters open a loop's [`bracket`] once per
//! launch and pass the shadow to every pool unit through [`unit()`], so
//! each view access (`ReadView::at`, `WriteView::set`, `Accum::add_row`, the
//! row-sliced spans, the op2 gather/scatter paths) calls [`record`] with
//! the touched span and its [`Touch`] kind. That sets bits in a
//! **per-thread bitmap** for the unit (tile / chunk / block) running it,
//! whichever lane that is. When a unit finishes, its bitmaps merge into
//! the launching shadow's loop under one lock; the merge also detects
//! write–write and read–write overlap *between* units — exactly the
//! races no race-resolution scheme covers, because units of one launch
//! may run concurrently. Atomic accumulations get their own bitmap:
//! atomic/atomic overlap is accepted, atomic/plain is not.
//!
//! This module records and unions; `sycl-verify` supplies the [`Sink`]
//! that turns each [`LoopTrace`] into diagnostics. Uninstrumented runs
//! pay one `sid != 0` branch per access (dats created with no shadow
//! current carry id 0) and one `Option` branch per unit, and recording
//! only *observes* memory, so shadow runs are bit-identical to
//! fast-path runs.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, Weak};

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------- bits

/// A bitmap over a dataset's linear cell indices. Bits past the end are
/// ignored when set and read as clear.
#[derive(Debug, Clone, Default)]
pub struct Bits {
    words: Vec<u64>,
}

impl Bits {
    /// Sized for `cells` bits, all zero.
    pub fn with_cells(cells: usize) -> Bits {
        Bits::with_words(cells.div_ceil(64))
    }

    fn with_words(words: usize) -> Bits {
        Bits {
            words: vec![0; words],
        }
    }

    #[inline]
    pub fn set(&mut self, i: usize) {
        if let Some(w) = self.words.get_mut(i >> 6) {
            *w |= 1u64 << (i & 63);
        }
    }

    /// Set `len` consecutive bits starting at `i` (row spans).
    pub fn set_span(&mut self, i: usize, len: usize) {
        let end = (i + len).min(self.words.len() << 6);
        let mut w = i;
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
            DatGeom::Grid { .. } => {
                let [x, y, z] = self.grid_coords(idx).unwrap_or_default();
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

/// How a loop declares it accesses one dataset — the declared mode, not
/// an observation. Mirrors the DSL argument kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    Read,
    Write,
    ReadWrite,
}

/// One declared per-dat access of a loop. `dat` is the shadow-registry
/// id (0 = anonymous: no shadow was current when the dataset was
/// created, so the access cannot be tracked across launches).
#[derive(Debug, Clone, Copy)]
pub struct DatAccess {
    pub dat: u32,
    pub mode: AccessMode,
    /// Declared stencil radius of the reads; writes are own-point.
    pub radius: [usize; 3],
    /// Bytes per element, for modelled-traffic estimates.
    pub elem_bytes: f64,
}

impl DatAccess {
    /// Does this access read the dat (plain or as part of an RMW)?
    pub fn reads(&self) -> bool {
        matches!(self.mode, AccessMode::Read | AccessMode::ReadWrite)
    }

    /// Does this access write the dat?
    pub fn writes(&self) -> bool {
        matches!(self.mode, AccessMode::Write | AccessMode::ReadWrite)
    }

    /// Does this access write a named dat (id ≠ 0)? Only such a write
    /// changes residency: anonymous dats share id 0 and are never
    /// tracked.
    pub fn writes_named(&self) -> bool {
        self.dat != 0 && self.writes()
    }

    /// Does this access read beyond the own point?
    pub fn stencil(&self) -> bool {
        self.radius != [0; 3]
    }
}

/// A loop's declared accesses, as the DSL built them once per loop. It
/// never enters the pricing fingerprint or the ledger: the launch graph
/// keeps it for static analysis (`graphlint`), and a shadowed launch
/// hands it to the verifier in its [`LoopDecl`].
///
/// `opaque` marks launches whose access list is *not* exhaustive (op2
/// loops with anonymous args, or plain `GraphBuilder::launch` calls that
/// declared nothing). Opaque launches suppress dat-level hazard lints
/// and break fusion chains, and the shadow checker compares no observed
/// access against them — no analysis may claim knowledge it does not
/// have.
#[derive(Debug, Clone)]
pub struct LaunchMeta {
    pub accesses: Vec<DatAccess>,
    /// Iteration range, inclusive-exclusive, as the DSL declared it.
    pub lo: [i64; 3],
    pub hi: [i64; 3],
    /// op2 race-resolution scheme label ("atomics", "global", "hier").
    pub scheme: Option<&'static str>,
    pub opaque: bool,
}

impl LaunchMeta {
    /// A fully-declared launch: `accesses` is the complete access set.
    pub fn new(accesses: Vec<DatAccess>, lo: [i64; 3], hi: [i64; 3]) -> LaunchMeta {
        LaunchMeta {
            accesses,
            lo,
            hi,
            scheme: None,
            opaque: false,
        }
    }

    /// A launch the analyzers must treat as touching unknown data.
    pub fn opaque() -> LaunchMeta {
        LaunchMeta {
            accesses: Vec::new(),
            lo: [0; 3],
            hi: [0; 3],
            scheme: None,
            opaque: true,
        }
    }

    /// Tag with the op2 scheme label.
    pub fn with_scheme(mut self, scheme: &'static str) -> LaunchMeta {
        self.scheme = Some(scheme);
        self
    }

    /// True when every access is identified well enough for dat-level
    /// dataflow (non-opaque, at least one access, no anonymous ids).
    pub fn transparent(&self) -> bool {
        !self.opaque && !self.accesses.is_empty() && self.accesses.iter().all(|a| a.dat != 0)
    }
}

/// The declaration side of one shadowed loop: its launch metadata plus
/// the per-point compute the structural lints read.
#[derive(Debug, Clone)]
pub struct LoopDecl {
    pub kernel: &'static str,
    pub meta: LaunchMeta,
    pub flops_pp: f64,
    pub transc_pp: f64,
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
    fn new(words: usize) -> LoopTouch {
        LoopTouch {
            read: Bits::with_words(words),
            write: Bits::with_words(words),
            atomic: Bits::with_words(words),
            phase_read: Bits::with_words(words),
            phase_write: Bits::with_words(words),
            phase_atomic: Bits::with_words(words),
        }
    }
}

/// Most conflicts kept per loop (the first few name the bug; thousands
/// of repeats add nothing).
const MAX_CONFLICTS: usize = 16;

struct ActiveLoop {
    decl: LoopDecl,
    /// Slot `id - 1` holds dat `id`'s unions once a unit touched it.
    dats: Vec<Option<LoopTouch>>,
    conflicts: Vec<Conflict>,
    notes: Vec<Note>,
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
        });
    }

    /// Start the next launch phase of the active loop (op2 colour
    /// groups): conflict unions reset, total unions persist.
    pub fn next_phase(&self) {
        if let Some(al) = lock(&self.active).as_mut() {
            for t in al.dats.iter_mut().flatten() {
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
        let Some(al) = lock(&self.active).take() else {
            return;
        };
        let mut dats = Vec::new();
        {
            let mut reg = lock(&self.registry);
            for (slot, t) in al.dats.into_iter().enumerate() {
                let (Some(t), Some(rec)) = (t, reg.get_mut(slot)) else {
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
                    id: slot as u32 + 1,
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
            });
        }
    }

    /// Merge a finished unit's bitmaps into the active loop, detecting
    /// overlap against the units already merged in this phase, and
    /// clear them for the thread's next unit.
    fn merge(&self, u: &mut UnitState) {
        let UnitState { slots, touched, .. } = u;
        let mut active = lock(&self.active);
        for &id in touched.iter() {
            let slot = id as usize - 1;
            let t = slots[slot].as_mut().expect("a touched dat has a slot");
            if let Some(al) = active.as_mut() {
                if al.dats.len() <= slot {
                    al.dats.resize_with(slot + 1, || None);
                }
                let lt = al.dats[slot].get_or_insert_with(|| LoopTouch::new(t.read.words.len()));
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
                    if let Some((cell, kind)) = found {
                        al.conflicts.push(Conflict {
                            dat: id,
                            cell,
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
            t.read.clear();
            t.write.clear();
            t.atomic.clear();
            t.touched = false;
        }
        drop(active);
        touched.clear();
    }
}

/// Run `f` inside one loop's shadow bracket: when the body executes and
/// the calling thread has a shadow current, `open` begins the loop on
/// it (declaration and notes), `f` gets the shadow to hand to its
/// units, and the loop ends after `f`. Otherwise `f` gets `None` and
/// `open` never runs, so a dry launch builds no declaration.
pub fn bracket(executes: bool, open: impl FnOnce(&Shadow), f: impl FnOnce(Option<&Arc<Shadow>>)) {
    let sh = executes.then(current).flatten();
    if let Some(sh) = &sh {
        open(sh);
    }
    f(sh.as_ref());
    if let Some(sh) = &sh {
        sh.end_loop();
    }
}

// ----------------------------------------------------- unit recording

/// One dat's bitmaps for the unit running on this thread.
struct UnitTouch {
    touched: bool,
    read: Bits,
    write: Bits,
    atomic: Bits,
}

#[derive(Default)]
struct UnitState {
    depth: u32,
    /// The shadow whose ids key `slots`. Ids restart in every shadow, so
    /// the slots are dropped when a unit runs under another one; the
    /// weak handle keeps the shadow's allocation, so no later shadow can
    /// take its address while the slots are kept.
    shadow: Weak<Shadow>,
    /// Slot `id - 1` holds dat `id`'s bitmaps, sized from the registry
    /// when this thread first touches the dat.
    slots: Vec<Option<UnitTouch>>,
    /// Ids the running unit touched, in first-touch order.
    touched: Vec<u32>,
}

impl UnitState {
    /// Dat `id`'s bitmaps, marked touched by the running unit; `None`
    /// when `id` is not in the registry of the shadow the unit runs
    /// under.
    fn slot(&mut self, id: u32) -> Option<&mut UnitTouch> {
        let slot = id as usize - 1;
        if self.slots.get(slot).is_none_or(Option::is_none) {
            let sh = self.shadow.upgrade()?;
            let reg = lock(&sh.registry);
            let words = reg.get(slot)?.geom.cells().div_ceil(64);
            self.slots
                .resize_with(reg.len().max(self.slots.len()), || None);
            self.slots[slot] = Some(UnitTouch {
                touched: false,
                read: Bits::with_words(words),
                write: Bits::with_words(words),
                atomic: Bits::with_words(words),
            });
        }
        let t = self.slots[slot].as_mut()?;
        if !t.touched {
            t.touched = true;
            self.touched.push(id);
        }
        Some(t)
    }
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
pub fn unit<R>(sh: Option<&Arc<Shadow>>, f: impl FnOnce() -> R) -> R {
    let Some(sh) = sh else {
        return f();
    };
    UNIT.with(|cell| {
        let mut u = cell.borrow_mut();
        if u.depth == 0 && !std::ptr::eq(u.shadow.as_ptr(), Arc::as_ptr(sh)) {
            u.shadow = Arc::downgrade(sh);
            u.slots.clear();
        }
        u.depth += 1;
    });
    let out = f();
    UNIT.with(|cell| {
        let mut u = cell.borrow_mut();
        u.depth -= 1;
        if u.depth == 0 {
            sh.merge(&mut u);
        }
    });
    out
}

/// What a view access did to the cells it names.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Touch {
    Read,
    Write,
    /// Read and written: a plain increment, or a mutable row span the
    /// body may read through.
    ReadWrite,
    /// An atomic read-modify-write.
    Atomic,
}

/// Record that the running unit touched cells `idx..idx + len` of dat
/// `sid`. Dats created with no shadow current (`sid == 0`) cost this
/// one branch. Outside any unit, a write initializes the cells and a
/// read is unchecked (setup and validation code).
#[inline]
pub fn record(sid: u32, idx: usize, len: usize, touch: Touch) {
    if sid != 0 {
        record_span(sid, idx, len, touch);
    }
}

/// The recording half of [`record`], kept out of line so that an
/// uninstrumented view access stays one compare and an untaken call.
#[inline(never)]
fn record_span(id: u32, idx: usize, len: usize, touch: Touch) {
    if len == 0 {
        return;
    }
    UNIT.with(|cell| {
        let mut u = cell.borrow_mut();
        if u.depth == 0 {
            if matches!(touch, Touch::Write | Touch::ReadWrite) {
                with_current(|sh| {
                    if let Some(r) = lock(&sh.registry).get_mut(id as usize - 1) {
                        r.init.set_span(idx, len);
                    }
                });
            }
            return;
        }
        let Some(t) = u.slot(id) else {
            return;
        };
        let set = |bits: &mut Bits| {
            if len == 1 {
                bits.set(idx);
            } else {
                bits.set_span(idx, len);
            }
        };
        match touch {
            Touch::Read => set(&mut t.read),
            Touch::Write => set(&mut t.write),
            Touch::ReadWrite => {
                set(&mut t.read);
                set(&mut t.write);
            }
            Touch::Atomic => set(&mut t.atomic),
        }
    });
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

    fn decl(kernel: &'static str) -> LoopDecl {
        LoopDecl {
            kernel,
            meta: LaunchMeta::new(Vec::new(), [0, 0, 0], [4, 4, 1]),
            flops_pp: 0.0,
            transc_pp: 0.0,
        }
    }

    fn capture(run: impl FnOnce(&Arc<Shadow>)) -> Vec<LoopTrace> {
        let traces = Arc::new(Mutex::new(Vec::new()));
        let sink_traces = Arc::clone(&traces);
        let scope = Shadow::enter(Some(Box::new(move |t| lock(&sink_traces).push(t))));
        run(&scope.shadow);
        drop(scope);
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
        // Bits past the end are dropped, not a panic.
        c.set(256);
        c.set_span(250, 20);
        assert_eq!(c.count(), 7);
    }

    #[test]
    fn units_merge_and_conflicts_are_detected() {
        let traces = capture(|sh| {
            let id = register_dat("u", 8.0, grid4());
            sh.begin_loop(decl("k"));
            unit(Some(sh), || {
                record(id, 3, 1, Touch::Write);
                record(id, 2, 1, Touch::Read);
            });
            unit(Some(sh), || {
                record(id, 3, 1, Touch::Write); // same cell as unit 1: WW race
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
                unit(Some(sh), || record(id, 5, 1, Touch::Atomic));
            }
            // New phase: a plain increment over the old cells is legal.
            sh.next_phase();
            unit(Some(sh), || record(id, 5, 1, Touch::ReadWrite));
            sh.end_loop();
        });
        assert!(traces[0].conflicts.is_empty(), "{:?}", traces[0].conflicts);
        let d = &traces[0].dats[0];
        assert_eq!(
            (d.atomic.count(), d.read.count(), d.write.count()),
            (1, 1, 1)
        );
    }

    #[test]
    fn uninit_reads_are_counted_and_writes_initialize() {
        let traces = capture(|sh| {
            let id = register_dat("u", 8.0, grid4());
            sh.begin_loop(decl("first"));
            unit(Some(sh), || {
                record(id, 7, 1, Touch::Read); // never initialized
                record(id, 1, 1, Touch::Write);
            });
            sh.end_loop();
            sh.begin_loop(decl("second"));
            unit(Some(sh), || {
                record(id, 1, 1, Touch::Read); // initialized by loop "first"
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
            record(id, 9, 1, Touch::Write); // setup outside any loop
            sh.begin_loop(decl("k"));
            unit(Some(sh), || record(id, 9, 1, Touch::Read));
            sh.end_loop();
        });
        assert_eq!(traces[0].dats[0].uninit_reads, 0);
    }

    #[test]
    fn unit_bitmaps_are_sized_by_the_shadow_they_run_under() {
        // Dat 1 is small in the first shadow and large in the second, on
        // the same thread: the second run's bitmaps must hold its cells.
        for cells in [16, 4096] {
            let traces = capture(|sh| {
                let id = register_dat(
                    "u",
                    8.0,
                    DatGeom::Set {
                        size: cells,
                        dim: 1,
                    },
                );
                sh.begin_loop(decl("k"));
                unit(Some(sh), || record(id, 0, cells, Touch::Write));
                sh.end_loop();
            });
            assert_eq!(traces[0].dats[0].write.count(), cells);
        }
    }

    #[test]
    fn a_bracket_builds_its_declaration_only_when_shadowed() {
        let traces = capture(|_| {
            bracket(
                false,
                |_| unreachable!("a dry launch builds no declaration"),
                |sh| assert!(sh.is_none()),
            );
            bracket(
                true,
                |sh| sh.begin_loop(decl("k")),
                |sh| assert!(sh.is_some()),
            );
        });
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].decl.kernel, "k");
    }

    #[test]
    fn disabled_mode_records_nothing() {
        assert!(current().is_none());
        assert_eq!(register_dat("u", 8.0, grid4()), 0);
        record(0, 3, 1, Touch::Read);
        assert_eq!(unit(None, || 7), 7);
        bracket(
            true,
            |_| unreachable!("no shadow is current"),
            |sh| assert!(sh.is_none()),
        );
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
