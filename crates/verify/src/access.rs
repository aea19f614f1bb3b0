//! The shadow-access checker: one finished [`LoopTrace`] in, findings
//! out. A loop whose launch metadata is exhaustive (OPS: a real
//! iteration box and dat-linked accesses) gets the full comparison of
//! observed against declared accesses; opaque (op2) loops contribute
//! conflicts, notes, and uninit counts.

use crate::{Collector, Pass, Severity};
use telemetry::shadow::{AccessMode, Bits, ConflictKind, DatAccess, DatTrace, LoopTrace, NoteKind};

pub(crate) fn check_trace(trace: &LoopTrace, out: &mut Collector) {
    for note in &trace.notes {
        let (pass, tag) = match note.kind {
            NoteKind::PlanViolation => (Pass::Plan, "plan-violation"),
            NoteKind::DeclDefect => (Pass::Access, "decl-defect"),
        };
        out.emit(
            Severity::Error,
            trace.decl.kernel,
            pass,
            format!("{tag}: {}", note.text),
            note.text.clone(),
        );
    }

    check_conflicts(trace, out);
    check_decl_lints(trace, out);

    for d in &trace.dats {
        if d.uninit_reads > 0 {
            let example = d
                .uninit_example
                .map(|i| d.geom.locate(i))
                .unwrap_or_default();
            out.emit(
                Severity::Info,
                trace.decl.kernel,
                Pass::Access,
                format!("uninit:{}", d.name),
                format!(
                    "reads {} cell(s) of `{}` never initialised by a fill, setup \
                     write, or earlier loop (e.g. {example})",
                    d.uninit_reads, d.name
                ),
            );
        }
        if !trace.decl.meta.opaque {
            check_structured_dat(trace, d, out);
        }
    }
}

/// Overlap between execution units. For op2 loops the race-resolution
/// scheme was supposed to prevent exactly this, so it is a plan failure;
/// for structured loops the tiling itself raced, an access failure.
fn check_conflicts(trace: &LoopTrace, out: &mut Collector) {
    for c in &trace.conflicts {
        let dat = trace.dats.iter().find(|d| d.id == c.dat);
        let (name, at) = match dat {
            Some(d) => (d.name.as_str(), d.geom.locate(c.cell)),
            None => ("?", format!("index {}", c.cell)),
        };
        let kind = match c.kind {
            ConflictKind::WriteWrite => "write-write",
            ConflictKind::ReadWrite => "read-write",
            ConflictKind::AtomicPlain => "atomic/plain",
        };
        let (pass, detail) = match trace.decl.meta.scheme {
            Some("atomics") => (
                Pass::Plan,
                format!(
                    "non-atomic RMW overlap under the atomics scheme: {kind} \
                     conflict on `{name}` at {at} between execution units"
                ),
            ),
            Some(s) => (
                Pass::Plan,
                format!(
                    "{s} colouring failed to serialise updates: {kind} conflict \
                     on `{name}` at {at} between units of one colour group"
                ),
            ),
            None => (
                Pass::Access,
                format!(
                    "{kind} conflict on `{name}` at {at} between execution \
                     units (tiles) that no race-resolution scheme covers"
                ),
            ),
        };
        out.emit(
            Severity::Error,
            trace.decl.kernel,
            pass,
            format!("conflict:{kind}:{name}"),
            detail,
        );
    }
}

/// Structural lints that need only the declaration.
fn check_decl_lints(trace: &LoopTrace, out: &mut Collector) {
    let decl = &trace.decl;
    let meta = &decl.meta;
    if decl.transc_pp > 0.0 && decl.flops_pp <= 0.0 {
        out.emit(
            Severity::Warning,
            decl.kernel,
            Pass::Footprint,
            "transc-no-flops".to_owned(),
            format!(
                "declares {} transcendental(s) per point but zero flops — a \
                 transcendental is flops too, so the compute cost model is \
                 inconsistent",
                decl.transc_pp
            ),
        );
    }
    if meta.opaque {
        return;
    }
    for (dim, name) in ["x", "y", "z"].iter().enumerate() {
        let extent = meta.hi[dim] - meta.lo[dim];
        if extent == 1 {
            for arg in &meta.accesses {
                if arg.radius[dim] > 0 {
                    out.emit(
                        Severity::Warning,
                        decl.kernel,
                        Pass::Footprint,
                        format!("zero-extent-radius:{name}"),
                        format!(
                            "declares stencil radius {} in {name} but the \
                             iteration range has extent 1 there — the priced \
                             halo in {name} costs bytes no kernel touches",
                            arg.radius[dim]
                        ),
                    );
                    break;
                }
            }
        }
    }
    // Same dat declared separately as read and as write: the effective-
    // bytes rule prices that as 1+1 instead of the 2x a read_write
    // declaration makes explicit, and hides the RMW from race analysis.
    let mut ids: Vec<u32> = Vec::new();
    for arg in &meta.accesses {
        if arg.dat == 0 || ids.contains(&arg.dat) {
            continue;
        }
        ids.push(arg.dat);
        let reads = meta
            .accesses
            .iter()
            .any(|a| a.dat == arg.dat && a.mode == AccessMode::Read);
        let writes = meta
            .accesses
            .iter()
            .any(|a| a.dat == arg.dat && a.mode == AccessMode::Write);
        if reads && writes {
            let name = trace
                .dats
                .iter()
                .find(|d| d.id == arg.dat)
                .map(|d| d.name.as_str())
                .unwrap_or("?");
            out.emit(
                Severity::Warning,
                decl.kernel,
                Pass::Access,
                format!("split-rw:{name}"),
                format!(
                    "declares `{name}` as a separate read and write argument; \
                     declare it read_write so the 2x pricing and the race \
                     analysis see the RMW"
                ),
            );
        }
    }
}

/// Max declared read radius per dim for `dat`, or `None` when no arg
/// declares it readable.
fn read_radius(args: &[DatAccess], dat: u32) -> Option<[usize; 3]> {
    let mut r: Option<[usize; 3]> = None;
    for a in args {
        if a.dat == dat && a.reads() {
            let acc = r.get_or_insert([0; 3]);
            for (m, &radius) in acc.iter_mut().zip(&a.radius) {
                *m = (*m).max(radius);
            }
        }
    }
    r
}

/// Where the first cell set in `bits` lies in `d`, for messages.
fn first_at(d: &DatTrace, bits: &Bits) -> String {
    bits.ones()
        .next()
        .map(|i| d.geom.locate(i))
        .unwrap_or_default()
}

fn check_structured_dat(trace: &LoopTrace, d: &DatTrace, out: &mut Collector) {
    let kernel = trace.decl.kernel;
    let decl = &trace.decl.meta;
    let args: Vec<&DatAccess> = decl.accesses.iter().filter(|a| a.dat == d.id).collect();

    if args.is_empty() {
        // Touched but never declared: the pricing never saw this dat.
        if d.write.any() || d.atomic.any() {
            let at = first_at(d, if d.write.any() { &d.write } else { &d.atomic });
            out.emit(
                Severity::Error,
                kernel,
                Pass::Access,
                format!("undeclared-write:{}", d.name),
                format!(
                    "writes `{}` (e.g. at {at}) without declaring it — the \
                     footprint prices zero bytes for it and dependency \
                     analysis cannot see the update",
                    d.name
                ),
            );
        } else if d.read.any() {
            let at = first_at(d, &d.read);
            out.emit(
                Severity::Warning,
                kernel,
                Pass::Access,
                format!("undeclared-read:{}", d.name),
                format!(
                    "reads `{}` (e.g. at {at}) without declaring it — the \
                     footprint prices zero bytes for the gather",
                    d.name
                ),
            );
        }
        return;
    }

    let declared_write = args.iter().any(|a| a.writes());
    let radius = read_radius(&decl.accesses, d.id);

    // Writes: must be declared, and must stay inside the iteration box
    // (every unit writes only its own points; anything else races with
    // the tile that owns the cell).
    if d.write.any() && !declared_write {
        let at = first_at(d, &d.write);
        out.emit(
            Severity::Error,
            kernel,
            Pass::Access,
            format!("undeclared-write:{}", d.name),
            format!(
                "writes `{}` (e.g. at {at}) but declares it read-only",
                d.name
            ),
        );
    } else if declared_write {
        for i in d.write.ones() {
            let Some(c) = d.geom.grid_coords(i) else {
                break;
            };
            if (0..3).any(|dim| c[dim] < decl.lo[dim] || c[dim] >= decl.hi[dim]) {
                out.emit(
                    Severity::Error,
                    kernel,
                    Pass::Access,
                    format!("write-out-of-range:{}", d.name),
                    format!(
                        "writes `{}` at {} outside the iteration range \
                         {:?}..{:?} — an out-of-range write belongs to a \
                         different point's tile and races with it",
                        d.name,
                        d.geom.locate(i),
                        decl.lo,
                        decl.hi
                    ),
                );
                break;
            }
        }
    }

    // Reads: every read must land inside range +/- the declared radius.
    let allow = radius.unwrap_or([0; 3]);
    let mut excess = [0usize; 3];
    let mut example = None;
    let mut used_halo = false;
    for i in d.read.ones() {
        let Some(c) = d.geom.grid_coords(i) else {
            break;
        };
        let mut outside = false;
        for dim in 0..3 {
            if c[dim] < decl.lo[dim] || c[dim] >= decl.hi[dim] {
                used_halo = true;
            }
            let r = allow[dim] as i64;
            let below = (decl.lo[dim] - r) - c[dim];
            let above = c[dim] - (decl.hi[dim] - 1 + r);
            let over = below.max(above).max(0) as usize;
            if over > 0 {
                outside = true;
                excess[dim] = excess[dim].max(over);
            }
        }
        if outside {
            example.get_or_insert(i);
        }
    }
    if let Some(i) = example {
        if radius.is_some() {
            out.emit(
                Severity::Error,
                kernel,
                Pass::Access,
                format!("under-declared-stencil:{}", d.name),
                format!(
                    "reads `{}` at {} — up to {:?} point(s) beyond the \
                     declared stencil radius {:?}; the priced halo and the \
                     dependency region are both too small",
                    d.name,
                    d.geom.locate(i),
                    excess,
                    allow
                ),
            );
        } else {
            out.emit(
                Severity::Error,
                kernel,
                Pass::Access,
                format!("under-declared-stencil:{}", d.name),
                format!(
                    "reads `{}` at {} beyond its own point, but the \
                     declaration only grants write access at the iteration \
                     point",
                    d.name,
                    d.geom.locate(i)
                ),
            );
        }
    } else if let Some(r) = radius {
        if r.iter().any(|&x| x > 0) && d.read.any() && !used_halo {
            out.emit(
                Severity::Warning,
                kernel,
                Pass::Footprint,
                format!("over-declared-stencil:{}", d.name),
                format!(
                    "declares stencil radius {:?} on `{}` but every observed \
                     read stayed inside the iteration range — the priced halo \
                     may be larger than needed",
                    r, d.name
                ),
            );
        }
    }

    // Declared readable but never read at all: dead argument, priced
    // bytes for a gather that never happens.
    if radius.is_some() && !d.read.any() && !d.write.any() && !d.atomic.any() {
        out.emit(
            Severity::Warning,
            kernel,
            Pass::Footprint,
            format!("dead-arg:{}", d.name),
            format!(
                "declares `{}` readable but the kernel never touches it — \
                 the footprint prices a gather that does not happen",
                d.name
            ),
        );
    }
}
