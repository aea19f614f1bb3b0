//! Static dataflow analysis over recorded launch graphs.
//!
//! A [`GraphSummary`] is an owned, bodyless snapshot of a recorded
//! [`sycl_sim::LaunchGraph`]: the op sequence plus each launch's declared
//! per-dat accesses (mode, stencil radius, element width) and iteration
//! range. Because a graph is recorded once and replayed many times, a
//! single static pass over the summary covers *every* iteration of the
//! app's time loop — no kernel execution required.
//!
//! The linter builds the dat-level dependency timeline and reports:
//!
//! * structural defects — unbalanced `phase`/`end_phase` nesting
//!   captured at record time;
//! * intra-launch hazards — a single parallel launch that both reads and
//!   writes the same dat through separate arguments (work-items race),
//!   with the reflective-boundary read-write-stencil idiom downgraded to
//!   an Info;
//! * missing halo exchanges — a dat that some launch stencil-reads and
//!   some launch writes, on a multi-rank decomposition, with no recorded
//!   exchange refreshing it;
//! * stale-halo reads — a stencil read that follows a write of the same
//!   dat with no exchange in between (positional, cyclic);
//! * dead code — writes overwritten before any read, dats written but
//!   never read, transfers delivering bytes that are only overwritten,
//!   launches that neither write nor reduce;
//! * redundant back-to-back exchanges of the same dats;
//! * resident transfers — uploads/downloads of dats whose host/device
//!   residency (tracked from the graph's own transfers and writes)
//!   already matches: the runtime elides them, so the node is noise;
//! * per-platform scheme legality — f64 atomics on hardware that
//!   compiles them to CAS loops;
//! * fusion candidates — maximal chains of adjacent, same-range,
//!   hazard-free launches, with the bytes and launch overheads a fused
//!   kernel would save priced from the machine model.
//!
//! All analysis is *cyclic*: graphs are replayed in a loop, so the node
//! after the last is the first. A write whose next cyclic access is
//! another write really is dead on every iteration but the final one.
//!
//! [`cross_check`] reconciles the static verdicts with dynamic shadow
//! evidence: a kernel whose declaration lints clean but whose
//! instrumented run raced has under-declared its stencil.

use crate::{Diagnostic, Pass, Severity};
use std::collections::{BTreeMap, BTreeSet};
use sycl_sim::{AccessMode, GraphNodeInfo, GraphSummary, TransferDir};

/// Machine-model facts the lints price against.
#[derive(Debug, Clone)]
pub struct LintContext {
    /// MPI ranks of the session the graph was recorded for. Halo lints
    /// only apply when > 1 (single-rank plans exchange zero bytes and
    /// record no exchange nodes).
    pub ranks: usize,
    /// Streaming bandwidth (bytes/s) used to price fusion savings.
    pub stream_bw: f64,
    /// Per-launch overhead (s) of the platform/toolchain pair.
    pub launch_overhead: f64,
    /// True when the platform compiles f64 atomics to CAS loops.
    pub cas_atomics: bool,
    /// Platform label for messages.
    pub platform: String,
}

/// Resolves a shadow dat id to its registered name.
pub type DatResolver<'a> = dyn Fn(u32) -> Option<String> + 'a;

fn dat_label(resolve: &DatResolver, id: u32) -> String {
    resolve(id).unwrap_or_else(|| format!("dat#{id}"))
}

/// One launch's analysable view, indexed by op position.
struct L<'a> {
    op: usize,
    kernel: &'a str,
    meta: &'a sycl_sim::LaunchMeta,
    reductions: usize,
    fp64: bool,
    atomic_updates: u64,
}

/// What one op does to one dat, in op order.
#[derive(Clone, Copy, PartialEq)]
enum Ev {
    /// Pure read; `stencil` when the declared radius is non-zero.
    Read {
        stencil: bool,
    },
    Write,
    ReadWrite,
    Exchange,
    Transfer,
}

impl Ev {
    fn reads(self) -> bool {
        // An exchange sends the dat's boundary values (a read); a
        // transfer copies the whole dat (read + write).
        !matches!(self, Ev::Write)
    }
    fn pure_write(self) -> bool {
        matches!(self, Ev::Write)
    }
}

/// Run every lint over one recorded graph.
pub fn lint_graph(g: &GraphSummary, ctx: &LintContext, resolve: &DatResolver) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // -- structural phase defects (recorded by the builder) -------------
    for d in &g.phase_defects {
        out.push(Diagnostic {
            severity: Severity::Error,
            kernel: "<graph>".to_owned(),
            pass: Pass::Dataflow,
            detail: format!("unbalanced phase nesting: {d}"),
        });
    }

    let launches: Vec<L<'_>> = g
        .nodes
        .iter()
        .enumerate()
        .filter_map(|(op, n)| match n {
            GraphNodeInfo::Launch {
                kernel,
                reductions,
                fp64,
                atomic_updates,
                meta,
                ..
            } => Some(L {
                op,
                kernel,
                meta,
                reductions: *reductions,
                fp64: *fp64,
                atomic_updates: *atomic_updates,
            }),
            _ => None,
        })
        .collect();

    let transparent = launches.iter().filter(|l| l.meta.transparent()).count();
    if transparent == 0 && !launches.is_empty() {
        out.push(Diagnostic {
            severity: Severity::Info,
            kernel: "<graph>".to_owned(),
            pass: Pass::Dataflow,
            detail: format!(
                "none of the {} recorded launches declares dat-level accesses; \
                 dataflow lints are vacuous for this graph",
                launches.len()
            ),
        });
    }
    // Opaque launches have unknown footprints: flow-sensitive lints
    // (dead code, staleness, redundancy) would report false positives
    // across them, so they only run on fully transparent graphs.
    let fully_transparent = transparent == launches.len();

    intra_launch_hazards(&launches, resolve, &mut out);
    scheme_legality(&launches, ctx, &mut out);

    // -- per-dat cyclic timelines ---------------------------------------
    let timelines = build_timelines(g);

    halo_coverage(g, &launches, &timelines, ctx, resolve, &mut out);
    if fully_transparent {
        stale_halo_reads(g, &timelines, ctx, resolve, &mut out);
        dead_code(g, &launches, &timelines, resolve, &mut out);
        redundant_exchanges(g, &timelines, resolve, &mut out);
        resident_transfers(g, resolve, &mut out);
    }
    fusion_candidates(g, &launches, ctx, resolve, &mut out);

    out.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.kernel.cmp(&b.kernel)));
    out
}

/// dat id → ordered (op index, event) list.
fn build_timelines(g: &GraphSummary) -> BTreeMap<u32, Vec<(usize, Ev)>> {
    let mut t: BTreeMap<u32, Vec<(usize, Ev)>> = BTreeMap::new();
    for (op, n) in g.nodes.iter().enumerate() {
        match n {
            GraphNodeInfo::Launch { meta, .. } if meta.transparent() => {
                for a in &meta.accesses {
                    let ev = match a.mode {
                        AccessMode::Read => Ev::Read {
                            stencil: a.stencil(),
                        },
                        AccessMode::Write => Ev::Write,
                        AccessMode::ReadWrite => Ev::ReadWrite,
                    };
                    t.entry(a.dat).or_default().push((op, ev));
                }
            }
            GraphNodeInfo::Exchange { dats, .. } => {
                for &d in dats {
                    t.entry(d).or_default().push((op, Ev::Exchange));
                }
            }
            GraphNodeInfo::Transfer { dats, dir, .. } => {
                // An upload (or on-device copy) writes the dat's device
                // copy; a download only observes it (a read).
                let ev = match dir {
                    TransferDir::D2H => Ev::Read { stencil: false },
                    _ => Ev::Transfer,
                };
                for &d in dats {
                    t.entry(d).or_default().push((op, ev));
                }
            }
            _ => {}
        }
    }
    t
}

/// Hazards *inside* one parallel launch: the recorded sequence orders
/// launches against each other, but nothing orders the work-items of a
/// single launch — two arguments naming the same dat where either
/// writes is a race.
fn intra_launch_hazards(launches: &[L<'_>], resolve: &DatResolver, out: &mut Vec<Diagnostic>) {
    for l in launches {
        if !l.meta.transparent() {
            continue;
        }
        let mut by_dat: BTreeMap<u32, Vec<AccessMode>> = BTreeMap::new();
        for a in &l.meta.accesses {
            by_dat.entry(a.dat).or_default().push(a.mode);
            if a.mode == AccessMode::ReadWrite && a.stencil() {
                out.push(Diagnostic {
                    severity: Severity::Info,
                    kernel: l.kernel.to_owned(),
                    pass: Pass::Dataflow,
                    detail: format!(
                        "read-write stencil access on {}: work-items read cells \
                         other work-items may write (boundary-mirror idiom; safe \
                         only when the read and write index sets are disjoint)",
                        dat_label(resolve, a.dat)
                    ),
                });
            }
        }
        for (dat, modes) in by_dat {
            let writes = modes.iter().filter(|&&m| m != AccessMode::Read).count();
            if modes.len() >= 2 && writes >= 1 {
                let hazard = if writes >= 2 {
                    "write-write"
                } else {
                    "read-write"
                };
                out.push(Diagnostic {
                    severity: Severity::Error,
                    kernel: l.kernel.to_owned(),
                    pass: Pass::Dataflow,
                    detail: format!(
                        "{} accesses {} through {} arguments ({} writing): a \
                         {hazard} hazard the recorded sequence cannot order \
                         because it races across work-items of one launch",
                        l.kernel,
                        dat_label(resolve, dat),
                        modes.len(),
                        writes,
                    ),
                });
            }
        }
    }
}

/// Per-platform scheme legality: f64 atomic RMWs on CAS-loop hardware.
fn scheme_legality(launches: &[L<'_>], ctx: &LintContext, out: &mut Vec<Diagnostic>) {
    if !ctx.cas_atomics {
        return;
    }
    for l in launches {
        if l.atomic_updates > 0 && l.fp64 {
            let scheme = l.meta.scheme.unwrap_or("unspecified");
            out.push(Diagnostic {
                severity: Severity::Warning,
                kernel: l.kernel.to_owned(),
                pass: Pass::Dataflow,
                detail: format!(
                    "{} f64 atomic updates per replay compile to CAS loops on \
                     {} (scheme `{scheme}`); a colouring scheme avoids the \
                     retry traffic",
                    l.atomic_updates, ctx.platform,
                ),
            });
        }
    }
}

/// The halo-coverage rule: a dat needs exchange coverage iff some launch
/// *pure*-reads it at non-zero radius and some launch writes it inside
/// the graph. Read-write stencils (reflective mirrors) refresh their own
/// halo and are exempt. Only meaningful on multi-rank decompositions —
/// single-rank plans exchange zero bytes and record nothing.
fn halo_coverage(
    g: &GraphSummary,
    launches: &[L<'_>],
    timelines: &BTreeMap<u32, Vec<(usize, Ev)>>,
    ctx: &LintContext,
    resolve: &DatResolver,
    out: &mut Vec<Diagnostic>,
) {
    if ctx.ranks <= 1 {
        return;
    }
    // A legacy exchange with no dat list covers an unknown set: coverage
    // cannot be proven either way, so note it and stand down.
    let undeclared = g
        .nodes
        .iter()
        .any(|n| matches!(n, GraphNodeInfo::Exchange { dats, .. } if dats.is_empty()));
    if undeclared {
        out.push(Diagnostic {
            severity: Severity::Info,
            kernel: "<graph>".to_owned(),
            pass: Pass::Dataflow,
            detail: "an exchange declares no datasets; halo-coverage \
                     analysis is skipped for this graph"
                .to_owned(),
        });
        return;
    }
    let exchanged: BTreeSet<u32> = g
        .nodes
        .iter()
        .filter_map(|n| match n {
            GraphNodeInfo::Exchange { dats, .. } => Some(dats.iter().copied()),
            _ => None,
        })
        .flatten()
        .collect();
    for l in launches {
        if !l.meta.transparent() {
            continue;
        }
        for a in &l.meta.accesses {
            let needs = a.mode == AccessMode::Read
                && a.stencil()
                && timelines.get(&a.dat).is_some_and(|tl| {
                    tl.iter()
                        .any(|(_, e)| e.pure_write() || *e == Ev::ReadWrite)
                });
            if needs && !exchanged.contains(&a.dat) {
                out.push(Diagnostic {
                    severity: Severity::Error,
                    kernel: l.kernel.to_owned(),
                    pass: Pass::Dataflow,
                    detail: format!(
                        "{} reads {} with a radius-{:?} stencil on {} ranks, the \
                         graph writes it, but no recorded exchange refreshes its \
                         halo",
                        l.kernel,
                        dat_label(resolve, a.dat),
                        a.radius,
                        ctx.ranks,
                    ),
                });
            }
        }
    }
}

fn kernel_at(g: &GraphSummary, op: usize) -> &str {
    match &g.nodes[op] {
        GraphNodeInfo::Launch { kernel, .. } => kernel,
        GraphNodeInfo::Exchange { .. } => "<exchange>",
        GraphNodeInfo::Transfer { .. } => "<transfer>",
        _ => "<phase>",
    }
}

/// Positional staleness: a stencil read whose closest preceding write
/// (cyclically) has no exchange in between reads stale halo cells on
/// every replay. Weaker than missing coverage — the dat *is* exchanged
/// somewhere — so an Info.
fn stale_halo_reads(
    g: &GraphSummary,
    timelines: &BTreeMap<u32, Vec<(usize, Ev)>>,
    ctx: &LintContext,
    resolve: &DatResolver,
    out: &mut Vec<Diagnostic>,
) {
    if ctx.ranks <= 1 {
        return;
    }
    let mut seen = BTreeSet::new();
    for (&dat, tl) in timelines {
        if !tl.iter().any(|(_, e)| *e == Ev::Exchange) {
            continue; // no coverage at all: halo_coverage's department
        }
        let n = tl.len();
        for (i, &(_, ev)) in tl.iter().enumerate() {
            if !matches!(ev, Ev::Read { stencil: true }) {
                continue;
            }
            // Walk backwards (cyclically) to the nearest write; if we
            // hit an exchange first the read is fresh.
            for back in 1..n {
                let (op_j, ev_j) = tl[(i + n - back) % n];
                if ev_j == Ev::Exchange {
                    break;
                }
                if ev_j.pure_write() || ev_j == Ev::ReadWrite || ev_j == Ev::Transfer {
                    let (op_i, _) = tl[i];
                    let reader = kernel_at(g, op_i).to_owned();
                    if seen.insert((dat, reader.clone())) {
                        out.push(Diagnostic {
                            severity: Severity::Info,
                            kernel: reader,
                            pass: Pass::Dataflow,
                            detail: format!(
                                "stencil read of {} follows its write by {} with \
                                 no halo exchange in between: halo cells are one \
                                 exchange stale on {} ranks",
                                dat_label(resolve, dat),
                                kernel_at(g, op_j),
                                ctx.ranks,
                            ),
                        });
                    }
                    break;
                }
            }
        }
    }
}

/// Dead writes, dead stores, dead transfers, launches with no effect.
fn dead_code(
    g: &GraphSummary,
    launches: &[L<'_>],
    timelines: &BTreeMap<u32, Vec<(usize, Ev)>>,
    resolve: &DatResolver,
    out: &mut Vec<Diagnostic>,
) {
    for (&dat, tl) in timelines {
        let n = tl.len();
        let ever_read = tl.iter().any(|(_, e)| e.reads());
        if !ever_read {
            let (op, _) = tl[0];
            out.push(Diagnostic {
                severity: Severity::Warning,
                kernel: kernel_at(g, op).to_owned(),
                pass: Pass::Dataflow,
                detail: format!(
                    "{} is written but never read, exchanged or transferred \
                     anywhere in the graph (dead store)",
                    dat_label(resolve, dat)
                ),
            });
            continue;
        }
        for (i, &(op_i, ev)) in tl.iter().enumerate() {
            if !(ev.pure_write() || ev == Ev::Transfer) {
                continue;
            }
            // Next cyclic access from a *different* op decides whether
            // this value is ever observed.
            for fwd in 1..n {
                let (op_j, ev_j) = tl[(i + fwd) % n];
                if op_j == op_i {
                    continue;
                }
                if ev_j.reads() {
                    break;
                }
                // Overwritten before any read.
                let (what, sev) = if ev == Ev::Transfer {
                    ("transfer delivers", Severity::Error)
                } else {
                    ("write of", Severity::Error)
                };
                out.push(Diagnostic {
                    severity: sev,
                    kernel: kernel_at(g, op_i).to_owned(),
                    pass: Pass::Dataflow,
                    detail: format!(
                        "{what} {} in {} is overwritten by {} before anything \
                         reads it (dead on every replay)",
                        dat_label(resolve, dat),
                        kernel_at(g, op_i),
                        kernel_at(g, op_j),
                    ),
                });
                break;
            }
        }
    }
    for l in launches {
        let writes = l.meta.accesses.iter().any(|a| a.writes());
        if l.meta.transparent() && !writes && l.reductions == 0 {
            out.push(Diagnostic {
                severity: Severity::Warning,
                kernel: l.kernel.to_owned(),
                pass: Pass::Dataflow,
                detail: format!(
                    "{} writes no dat and performs no reduction: the launch \
                     has no observable effect (dead launch)",
                    l.kernel
                ),
            });
        }
    }
}

/// Back-to-back exchanges of the same dats with no intervening write
/// move the same halo bytes twice.
fn redundant_exchanges(
    g: &GraphSummary,
    timelines: &BTreeMap<u32, Vec<(usize, Ev)>>,
    resolve: &DatResolver,
    out: &mut Vec<Diagnostic>,
) {
    let exchanges: Vec<(usize, &Vec<u32>)> = g
        .nodes
        .iter()
        .enumerate()
        .filter_map(|(op, n)| match n {
            GraphNodeInfo::Exchange { dats, .. } if !dats.is_empty() => Some((op, dats)),
            _ => None,
        })
        .collect();
    for w in exchanges.windows(2) {
        let [(op_a, dats_a), (op_b, dats_b)] = w else {
            continue;
        };
        if dats_a != dats_b {
            continue;
        }
        // Redundant iff none of the exchanged dats is written between
        // the two exchange ops.
        let written_between = dats_a.iter().any(|d| {
            timelines.get(d).is_some_and(|tl| {
                tl.iter().any(|&(op, e)| {
                    op > *op_a && op < *op_b && (e.pure_write() || e == Ev::ReadWrite)
                })
            })
        });
        if !written_between {
            let names: Vec<String> = dats_a.iter().map(|&d| dat_label(resolve, d)).collect();
            out.push(Diagnostic {
                severity: Severity::Warning,
                kernel: "<exchange>".to_owned(),
                pass: Pass::Dataflow,
                detail: format!(
                    "two consecutive exchanges refresh [{}] with no write in \
                     between: the second moves identical halo bytes",
                    names.join(", ")
                ),
            });
        }
    }
}

/// Transfers of dats whose residency already matches the destination.
/// The tracker starts from what the graph itself proves (its own
/// uploads, downloads and declared kernel writes) and flags a transfer
/// only when the destination copy is *known* valid at that point — the
/// runtime's residency tracker will elide it, so the recorded node
/// moves no bytes and should be dropped.
fn resident_transfers(g: &GraphSummary, resolve: &DatResolver, out: &mut Vec<Diagnostic>) {
    #[derive(Clone, Copy, PartialEq)]
    enum R {
        DeviceOnly,
        Shared,
    }
    let mut res: BTreeMap<u32, R> = BTreeMap::new();
    for n in &g.nodes {
        match n {
            GraphNodeInfo::Launch { meta, .. } => {
                for a in meta.accesses.iter().filter(|a| a.writes() && a.dat != 0) {
                    res.insert(a.dat, R::DeviceOnly);
                }
            }
            // Id 0 is anonymous (shared by every unregistered dat), so
            // it can never prove a transfer redundant.
            GraphNodeInfo::Transfer { dats, dir, .. } if dats.iter().any(|&d| d != 0) => {
                let redundant = match dir {
                    // Upload of dats all known device-valid.
                    TransferDir::H2D => dats.iter().all(|d| res.contains_key(d)),
                    // Download of dats all known host-valid (uploaded or
                    // downloaded here, never device-written since).
                    TransferDir::D2H => dats.iter().all(|d| res.get(d) == Some(&R::Shared)),
                    TransferDir::D2D => false,
                };
                if redundant {
                    let names: Vec<String> = dats.iter().map(|&d| dat_label(resolve, d)).collect();
                    let what = if *dir == TransferDir::H2D {
                        "upload"
                    } else {
                        "download"
                    };
                    out.push(Diagnostic {
                        severity: Severity::Warning,
                        kernel: "<transfer>".to_owned(),
                        pass: Pass::Dataflow,
                        detail: format!(
                            "{what} of [{}] whose residency already matches: the                              destination copy is valid at this point, the runtime                              elides the transfer, and the node moves no bytes",
                            names.join(", ")
                        ),
                    });
                }
                if *dir != TransferDir::D2D {
                    for &d in dats {
                        if d != 0 {
                            res.insert(d, R::Shared);
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// Maximal chains of adjacent launches a code generator could fuse:
/// identical iteration ranges, fully declared accesses, no reductions,
/// and no stencil-crossing hazard between any pair in the chain.
/// Phase markers are transparent to adjacency; exchanges, transfers and
/// opaque launches break chains.
fn fusion_candidates(
    g: &GraphSummary,
    launches: &[L<'_>],
    ctx: &LintContext,
    resolve: &DatResolver,
    out: &mut Vec<Diagnostic>,
) {
    // Map op index → launch index for adjacency over the op sequence.
    let mut chain: Vec<&L<'_>> = Vec::new();
    let mut chains: Vec<Vec<&L<'_>>> = Vec::new();
    let by_op: BTreeMap<usize, &L<'_>> = launches.iter().map(|l| (l.op, l)).collect();
    for (op, node) in g.nodes.iter().enumerate() {
        match node {
            GraphNodeInfo::PhaseBegin { .. } | GraphNodeInfo::PhaseEnd => continue,
            GraphNodeInfo::Launch { .. } => {
                let l = by_op[&op];
                if fusable_extension(&chain, l) {
                    chain.push(l);
                } else {
                    chains.push(std::mem::take(&mut chain));
                    if l.meta.transparent() && l.reductions == 0 {
                        chain.push(l);
                    }
                }
            }
            _ => chains.push(std::mem::take(&mut chain)),
        }
    }
    chains.push(chain);

    for c in chains.iter().filter(|c| c.len() >= 2) {
        let (lo, hi) = (c[0].meta.lo, c[0].meta.hi);
        let points: f64 = (0..3).map(|i| (hi[i] - lo[i]).max(0) as f64).product();
        // Every dat touched by more than one launch in the chain is
        // loaded from memory that many times; a fused kernel keeps it
        // in registers after the first access.
        let mut touches: BTreeMap<u32, (usize, f64)> = BTreeMap::new();
        for l in c {
            let dats: BTreeSet<u32> = l.meta.accesses.iter().map(|a| a.dat).collect();
            for d in dats {
                let eb = l
                    .meta
                    .accesses
                    .iter()
                    .find(|a| a.dat == d)
                    .map_or(8.0, |a| a.elem_bytes);
                let e = touches.entry(d).or_insert((0, eb));
                e.0 += 1;
            }
        }
        let shared: Vec<(u32, usize, f64)> = touches
            .iter()
            .filter(|(_, (n, _))| *n > 1)
            .map(|(&d, &(n, eb))| (d, n, eb))
            .collect();
        // Folded from +0.0: `f64::sum` starts from -0.0, so an empty
        // chain would print `-0.00` in builds that keep the sign.
        let bytes_saved = shared
            .iter()
            .fold(0.0, |acc, &(_, n, eb)| acc + (n - 1) as f64 * points * eb);
        let launch_saved = (c.len() - 1) as f64 * ctx.launch_overhead;
        let bw_saved = bytes_saved / ctx.stream_bw;
        let names: Vec<&str> = c.iter().map(|l| l.kernel).collect();
        let share = if shared.is_empty() {
            "share no datasets".to_owned()
        } else {
            let dat_names: Vec<String> = shared
                .iter()
                .map(|&(d, _, _)| dat_label(resolve, d))
                .collect();
            format!("share [{}]", dat_names.join(", "))
        };
        out.push(Diagnostic {
            severity: Severity::Info,
            kernel: names.join("+"),
            pass: Pass::Dataflow,
            detail: format!(
                "fusion candidate: {} adjacent hazard-free launches over the \
                 same {:.0}-point range {share}; fusing saves ~{:.2} MB and \
                 ~{:.1} us per replay ({:.1} us bandwidth + {:.1} us launch \
                 overhead) on {}",
                c.len(),
                points,
                bytes_saved / 1e6,
                (bw_saved + launch_saved) * 1e6,
                bw_saved * 1e6,
                launch_saved * 1e6,
                ctx.platform,
            ),
        });
    }
}

/// Can `l` join the current chain? It must be transparent, reduction-
/// free, share the chain's range, and form no stencil-crossing hazard
/// with *any* chain member: after fusion all members run point-wise
/// interleaved, so a write in one paired with a stencil read of the
/// same dat in another reads neighbours mid-update. Point-wise RAW/WAW
/// within a chain is fine — per-point program order is preserved.
fn fusable_extension(chain: &[&L<'_>], l: &L<'_>) -> bool {
    if !l.meta.transparent() || l.reductions != 0 {
        return false;
    }
    let Some(first) = chain.first() else {
        return true;
    };
    if l.meta.lo != first.meta.lo || l.meta.hi != first.meta.hi {
        return false;
    }
    for m in chain {
        for a in &m.meta.accesses {
            for b in &l.meta.accesses {
                if a.dat != b.dat {
                    continue;
                }
                let cross_stencil = (a.writes() && b.reads() && b.stencil())
                    || (a.reads() && a.stencil() && b.writes());
                if cross_stencil {
                    return false;
                }
            }
        }
    }
    true
}

/// Reconcile static verdicts with dynamic shadow evidence: a kernel the
/// static linter saw as cleanly declared (transparent, no intra-launch
/// hazard) but whose instrumented run produced access-pass findings has
/// under-declared its footprint — the declaration the static analysis
/// trusted is the defect.
pub fn cross_check(summaries: &[GraphSummary], dynamic: &[Diagnostic]) -> Vec<Diagnostic> {
    let mut declared: BTreeSet<&str> = BTreeSet::new();
    for g in summaries {
        for n in &g.nodes {
            if let GraphNodeInfo::Launch { kernel, meta, .. } = n {
                if meta.transparent() {
                    declared.insert(kernel);
                }
            }
        }
    }
    let mut out = Vec::new();
    for d in dynamic {
        if d.pass == Pass::Access
            && d.severity >= Severity::Warning
            && declared.contains(d.kernel.as_str())
        {
            out.push(Diagnostic {
                severity: Severity::Error,
                kernel: d.kernel.clone(),
                pass: Pass::Dataflow,
                detail: format!(
                    "statically clean but dynamically flagged: {} lints clean \
                     from its declaration, yet the shadow run reports \
                     \"{}\" — the declared stencil under-states the kernel's \
                     true footprint",
                    d.kernel, d.detail
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_sim::{DatAccess, LaunchMeta};

    fn ctx() -> LintContext {
        LintContext {
            ranks: 4,
            stream_bw: 1e12,
            launch_overhead: 5e-6,
            cas_atomics: false,
            platform: "test".to_owned(),
        }
    }

    fn acc(dat: u32, mode: AccessMode, r: usize) -> DatAccess {
        DatAccess {
            dat,
            mode,
            radius: [r, r, 0],
            elem_bytes: 8.0,
        }
    }

    fn launch(kernel: &str, accesses: Vec<DatAccess>) -> GraphNodeInfo {
        GraphNodeInfo::Launch {
            kernel: kernel.to_owned(),
            items: 100,
            effective_bytes: 800.0,
            reductions: 0,
            fp64: true,
            atomic_updates: 0,
            meta: LaunchMeta::new(accesses, [0, 0, 0], [10, 10, 1]),
        }
    }

    fn summary(nodes: Vec<GraphNodeInfo>) -> GraphSummary {
        GraphSummary {
            id: 1,
            nodes,
            phase_defects: Vec::new(),
        }
    }

    fn no_name(_: u32) -> Option<String> {
        None
    }

    #[test]
    fn a_clean_producer_consumer_graph_lints_clean() {
        let g = summary(vec![
            launch(
                "produce",
                vec![acc(1, AccessMode::Read, 0), acc(2, AccessMode::Write, 0)],
            ),
            GraphNodeInfo::Exchange {
                bytes: 64.0,
                messages: 4,
                dats: vec![2],
            },
            launch(
                "consume",
                vec![
                    acc(2, AccessMode::Read, 1),
                    acc(1, AccessMode::ReadWrite, 0),
                ],
            ),
        ]);
        let diags = lint_graph(&g, &ctx(), &no_name);
        assert!(
            !diags.iter().any(|d| d.severity >= Severity::Warning),
            "{diags:?}"
        );
    }

    #[test]
    fn intra_launch_read_write_same_dat_is_an_error() {
        let g = summary(vec![launch(
            "racy",
            vec![acc(1, AccessMode::Read, 1), acc(1, AccessMode::Write, 0)],
        )]);
        let diags = lint_graph(&g, &ctx(), &no_name);
        let hit = diags
            .iter()
            .find(|d| d.severity == Severity::Error)
            .expect("intra-launch hazard");
        assert_eq!(hit.kernel, "racy");
        assert!(hit.detail.contains("read-write hazard"), "{}", hit.detail);
    }

    #[test]
    fn missing_halo_exchange_is_an_error_on_multiple_ranks_only() {
        let nodes = vec![
            launch("writer", vec![acc(1, AccessMode::Write, 0)]),
            launch("stencil_reader", vec![acc(1, AccessMode::Read, 2)]),
        ];
        let g = summary(nodes);
        let diags = lint_graph(&g, &ctx(), &no_name);
        let hit = diags
            .iter()
            .find(|d| d.severity == Severity::Error)
            .expect("missing exchange");
        assert_eq!(hit.kernel, "stencil_reader");
        let single = LintContext { ranks: 1, ..ctx() };
        let diags = lint_graph(&g, &single, &no_name);
        assert!(!crate::has_errors(&diags), "single rank needs no exchange");
    }

    #[test]
    fn overwritten_write_is_dead_and_named() {
        let g = summary(vec![
            launch("first_writer", vec![acc(1, AccessMode::Write, 0)]),
            launch("second_writer", vec![acc(1, AccessMode::Write, 0)]),
            launch(
                "reader",
                vec![acc(1, AccessMode::Read, 0), acc(2, AccessMode::Write, 0)],
            ),
            launch(
                "drain",
                vec![acc(2, AccessMode::Read, 0), acc(3, AccessMode::Write, 0)],
            ),
            launch(
                "sink",
                vec![acc(3, AccessMode::Read, 0), acc(1, AccessMode::Write, 0)],
            ),
        ]);
        let diags = lint_graph(&g, &ctx(), &no_name);
        let hit = diags
            .iter()
            .find(|d| d.detail.contains("dead on every replay"))
            .expect("dead write");
        assert_eq!(hit.severity, Severity::Error);
        assert_eq!(hit.kernel, "first_writer");
        assert!(hit.detail.contains("second_writer"), "{}", hit.detail);
        // The wrap-around write by `sink` is *not* dead: `first_writer`
        // is the same-dat writer, but `second_writer`'s value is read
        // next iteration... no — sink's write is overwritten by
        // first_writer cyclically, which is also flagged.
        assert!(
            diags.iter().any(|d| d.kernel == "sink"),
            "cyclic dead write must be seen too: {diags:?}"
        );
    }

    #[test]
    fn dead_store_is_a_warning() {
        let g = summary(vec![
            launch(
                "use",
                vec![acc(1, AccessMode::Read, 0), acc(2, AccessMode::Write, 0)],
            ),
            launch(
                "drain",
                vec![acc(2, AccessMode::Read, 0), acc(1, AccessMode::Write, 0)],
            ),
            launch(
                "wasted",
                vec![acc(1, AccessMode::Read, 0), acc(9, AccessMode::Write, 0)],
            ),
        ]);
        let diags = lint_graph(&g, &ctx(), &no_name);
        let hit = diags
            .iter()
            .find(|d| d.detail.contains("dead store"))
            .expect("dead store");
        assert_eq!(hit.severity, Severity::Warning);
        assert_eq!(hit.kernel, "wasted");
    }

    #[test]
    fn dead_transfer_is_an_error() {
        let g = summary(vec![
            GraphNodeInfo::Transfer {
                bytes: 800.0,
                dats: vec![1],
                dir: TransferDir::H2D,
            },
            launch("clobber", vec![acc(1, AccessMode::Write, 0)]),
            launch(
                "reader",
                vec![acc(1, AccessMode::Read, 0), acc(2, AccessMode::Write, 0)],
            ),
            launch(
                "drain",
                vec![acc(2, AccessMode::Read, 0), acc(1, AccessMode::Write, 0)],
            ),
        ]);
        let diags = lint_graph(&g, &ctx(), &no_name);
        let hit = diags
            .iter()
            .find(|d| d.detail.contains("transfer delivers"))
            .expect("dead transfer");
        assert_eq!(hit.severity, Severity::Error);
        assert!(hit.detail.contains("clobber"), "{}", hit.detail);
    }

    #[test]
    fn double_upload_of_a_resident_dat_warns() {
        // Seeded defect: the second upload of dat 1 moves nothing — the
        // device copy is already valid, so the runtime elides it.
        let up = |d: u32| GraphNodeInfo::Transfer {
            bytes: 800.0,
            dats: vec![d],
            dir: TransferDir::H2D,
        };
        let g = summary(vec![
            up(1),
            up(1),
            launch(
                "reader",
                vec![acc(1, AccessMode::Read, 0), acc(2, AccessMode::Write, 0)],
            ),
            GraphNodeInfo::Transfer {
                bytes: 800.0,
                dats: vec![2],
                dir: TransferDir::D2H,
            },
        ]);
        let diags = lint_graph(&g, &ctx(), &no_name);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.detail.contains("residency already matches"))
            .collect();
        assert_eq!(hits.len(), 1, "{diags:?}");
        assert_eq!(hits[0].severity, Severity::Warning);
        assert!(hits[0].detail.contains("upload"), "{}", hits[0].detail);
    }

    #[test]
    fn download_right_after_upload_warns_but_readback_after_write_does_not() {
        let g = summary(vec![
            GraphNodeInfo::Transfer {
                bytes: 800.0,
                dats: vec![1],
                dir: TransferDir::H2D,
            },
            // Host copy still valid: this download is elided.
            GraphNodeInfo::Transfer {
                bytes: 800.0,
                dats: vec![1],
                dir: TransferDir::D2H,
            },
            launch("writer", vec![acc(1, AccessMode::ReadWrite, 0)]),
            // After a device write the readback is real: no warning.
            GraphNodeInfo::Transfer {
                bytes: 800.0,
                dats: vec![1],
                dir: TransferDir::D2H,
            },
        ]);
        let diags = lint_graph(&g, &ctx(), &no_name);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.detail.contains("residency already matches"))
            .collect();
        assert_eq!(hits.len(), 1, "{diags:?}");
        assert!(hits[0].detail.contains("download"), "{}", hits[0].detail);
    }

    #[test]
    fn transfers_of_unknown_state_dats_are_not_flagged() {
        // A graph that only downloads (a readback graph) proves nothing
        // about residency — the dats were written by earlier graphs.
        let g = summary(vec![GraphNodeInfo::Transfer {
            bytes: 800.0,
            dats: vec![9],
            dir: TransferDir::D2H,
        }]);
        let diags = lint_graph(&g, &ctx(), &no_name);
        assert!(
            !diags.iter().any(|d| d.detail.contains("residency")),
            "{diags:?}"
        );
    }

    #[test]
    fn redundant_back_to_back_exchanges_warn() {
        let ex = || GraphNodeInfo::Exchange {
            bytes: 64.0,
            messages: 4,
            dats: vec![1],
        };
        let g = summary(vec![
            launch("writer", vec![acc(1, AccessMode::Write, 0)]),
            ex(),
            ex(),
            launch("reader", vec![acc(1, AccessMode::Read, 1)]),
        ]);
        let diags = lint_graph(&g, &ctx(), &no_name);
        assert!(
            diags
                .iter()
                .any(|d| d.severity == Severity::Warning
                    && d.detail.contains("identical halo bytes")),
            "{diags:?}"
        );
    }

    #[test]
    fn fusion_chain_reports_modelled_savings() {
        let g = summary(vec![
            launch(
                "a",
                vec![acc(1, AccessMode::Read, 0), acc(2, AccessMode::Write, 0)],
            ),
            launch(
                "b",
                vec![acc(1, AccessMode::Read, 0), acc(3, AccessMode::Write, 0)],
            ),
            launch(
                "sink",
                vec![
                    acc(2, AccessMode::Read, 0),
                    acc(3, AccessMode::Read, 0),
                    acc(1, AccessMode::Write, 0),
                ],
            ),
        ]);
        let diags = lint_graph(&g, &ctx(), &no_name);
        let hit = diags
            .iter()
            .find(|d| d.detail.contains("fusion candidate"))
            .expect("fusion chain");
        assert!(hit.kernel.starts_with("a+b"), "{}", hit.kernel);
        assert!(hit.detail.contains("MB"), "{}", hit.detail);
    }

    #[test]
    fn stencil_crossing_breaks_fusion() {
        let g = summary(vec![
            launch(
                "producer",
                vec![acc(2, AccessMode::Write, 0), acc(1, AccessMode::Read, 0)],
            ),
            launch(
                "stencil_consumer",
                vec![
                    acc(2, AccessMode::Read, 1),
                    acc(1, AccessMode::ReadWrite, 0),
                ],
            ),
            GraphNodeInfo::Exchange {
                bytes: 64.0,
                messages: 4,
                dats: vec![2],
            },
        ]);
        let diags = lint_graph(&g, &ctx(), &no_name);
        assert!(
            !diags.iter().any(|d| d.detail.contains("fusion candidate")),
            "a write feeding a stencil read cannot fuse: {diags:?}"
        );
    }

    #[test]
    fn phase_defects_surface_as_errors() {
        let mut g = summary(vec![launch(
            "k",
            vec![acc(1, AccessMode::Read, 0), acc(2, AccessMode::Write, 0)],
        )]);
        g.nodes.push(launch(
            "drain",
            vec![acc(2, AccessMode::Read, 0), acc(1, AccessMode::Write, 0)],
        ));
        g.phase_defects
            .push("phase `halo` opened but never closed".to_owned());
        let diags = lint_graph(&g, &ctx(), &no_name);
        let hit = diags
            .iter()
            .find(|d| d.severity == Severity::Error)
            .unwrap();
        assert!(hit.detail.contains("unbalanced phase nesting"));
        assert!(hit.detail.contains("halo"));
    }

    #[test]
    fn cas_atomics_flag_fp64_atomic_launches() {
        let mut node = launch("edge_kernel", vec![]);
        if let GraphNodeInfo::Launch {
            atomic_updates,
            meta,
            ..
        } = &mut node
        {
            *atomic_updates = 1000;
            *meta = LaunchMeta::opaque().with_scheme("atomics");
        }
        let g = summary(vec![node]);
        let cas = LintContext {
            cas_atomics: true,
            ..ctx()
        };
        let diags = lint_graph(&g, &cas, &no_name);
        assert!(
            diags
                .iter()
                .any(|d| d.severity == Severity::Warning && d.detail.contains("CAS")),
            "{diags:?}"
        );
    }

    #[test]
    fn cross_check_blames_under_declared_stencils() {
        let g = summary(vec![launch(
            "under_declared",
            vec![acc(1, AccessMode::Read, 0), acc(2, AccessMode::Write, 0)],
        )]);
        let dynamic = vec![Diagnostic {
            severity: Severity::Warning,
            kernel: "under_declared".to_owned(),
            pass: Pass::Access,
            detail: "read outside the declared stencil".to_owned(),
        }];
        let out = cross_check(&[g], &dynamic);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, Severity::Error);
        assert_eq!(out[0].kernel, "under_declared");
        assert!(out[0].detail.contains("under-states"));
        // A kernel the graphs never declared is not blamed.
        let other = vec![Diagnostic {
            severity: Severity::Error,
            kernel: "eager_only".to_owned(),
            pass: Pass::Access,
            detail: "whatever".to_owned(),
        }];
        assert!(cross_check(&[], &other).is_empty());
    }
}
