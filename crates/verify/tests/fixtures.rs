//! Regression fixtures: seeded defects the verifier must catch, with
//! the right severity and the offending kernel named.
//!
//! Each fixture plants exactly one defect — a tampered colouring plan,
//! an under-declared stencil, an undeclared write — and asserts the
//! corresponding pass reports it as an Error naming the kernel. The
//! plans are checked the way a verified run checks them: an edge loop
//! runs over the tampered mesh under an attached verifier.

use op2_dsl::parloop::ColoredMesh;
use op2_dsl::{DatU, EdgeLoop, GlobalColoring, HierColoring, Mesh, Ordering};
use ops_dsl::prelude::*;
use sycl_sim::{PlatformId, Precision, Scheme, Session, SessionConfig, Toolchain};
use verify::{has_errors, Diagnostic, Pass, Severity, Verifier};

fn live(app: &str) -> Session {
    Session::create(SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app(app)).unwrap()
}

fn mesh() -> Mesh {
    Mesh::grid(6, 6, 2, Ordering::Natural)
}

/// Run an edge loop named `res_calc` over `mesh` with one of the two
/// colourings under a verifier, gathering both vertices of every edge,
/// and return the findings.
fn verify_edge_loop(
    mesh: &Mesh,
    global: Option<GlobalColoring>,
    hier: Option<HierColoring>,
) -> Vec<Diagnostic> {
    let scheme = match global {
        Some(_) => Scheme::GlobalColor,
        None => Scheme::HierColor,
    };
    let colored = ColoredMesh {
        mesh: mesh.clone(),
        global,
        hier,
    };
    let s = live("fixture_plan");
    let v = Verifier::attach(&s);
    let mut q = DatU::<f64>::zeroed("q", mesh.n_vertices, 1);
    q.fill_with(|e, _| e as f64);
    let r = q.reader();
    EdgeLoop::new("res_calc", mesh.stats(), scheme, Precision::F64)
        .vertex_read(r)
        .flops(1.0)
        .run(&s, Some(&colored), |e| {
            for &vertex in mesh.edges.row(e) {
                let _ = r.at(vertex as usize, 0);
            }
        });
    v.finish(&s)
}

/// The verified run must report a plan Error naming `res_calc` whose
/// detail contains `needle`.
fn assert_plan_error(diags: &[Diagnostic], needle: &str) {
    assert!(
        diags.iter().any(|d| d.severity == Severity::Error
            && d.pass == Pass::Plan
            && d.kernel == "res_calc"
            && d.detail.contains(needle)),
        "no plan error mentioning {needle:?}: {diags:?}"
    );
}

#[test]
fn a_tampered_global_colouring_is_a_plan_error_naming_the_kernel() {
    let mesh = mesh();
    let mut g = GlobalColoring::build(&mesh.edges);
    let clean = verify_edge_loop(&mesh, Some(g.clone()), None);
    assert!(!has_errors(&clean), "the built plan runs clean: {clean:?}");

    // Force a vertex-sharing edge into edge 0's colour group.
    let v = mesh.edges.row(0)[0];
    let c0 = g.color[0] as usize;
    let other = (1..mesh.n_edges())
        .find(|&e| g.color[e] as usize != c0 && mesh.edges.row(e).contains(&v))
        .expect("a grid mesh has a vertex-sharing edge of another colour");
    let c_old = g.color[other] as usize;
    g.color[other] = c0 as u32;
    g.by_color[c_old].retain(|&e| e as usize != other);
    g.by_color[c0].push(other as u32);

    let diags = verify_edge_loop(&mesh, Some(g), None);
    assert_plan_error(&diags, "global colouring invalid");
}

#[test]
fn a_tampered_hierarchical_block_colouring_is_a_plan_error() {
    let mesh = mesh();
    let mut h = HierColoring::build(&mesh.edges, 8);
    let clean = verify_edge_loop(&mesh, None, Some(h.clone()));
    assert!(!has_errors(&clean), "the built plan runs clean: {clean:?}");

    // Move a block that shares a vertex with block 0 into block 0's
    // colour: the two now run concurrently in one pass.
    let vertices = |b: usize| {
        let (lo, hi) = h.block_range(b, mesh.n_edges());
        (lo..hi)
            .flat_map(|e| mesh.edges.row(e).to_vec())
            .collect::<Vec<_>>()
    };
    let first = vertices(0);
    let other = (1..mesh.n_edges().div_ceil(h.block_size))
        .find(|&b| {
            h.block_color[b] != h.block_color[0] && vertices(b).iter().any(|v| first.contains(v))
        })
        .expect("block 0 has a vertex-sharing neighbour of another colour");
    let (c0, c_old) = (h.block_color[0] as usize, h.block_color[other] as usize);
    h.block_color[other] = c0 as u32;
    h.blocks_by_color[c_old].retain(|&b| b as usize != other);
    h.blocks_by_color[c0].push(other as u32);

    let diags = verify_edge_loop(&mesh, None, Some(h));
    assert_plan_error(&diags, "hierarchical colouring invalid: blocks");
}

#[test]
fn a_tampered_hierarchical_colouring_is_a_plan_error() {
    let mesh = mesh();
    let mut h = HierColoring::build(&mesh.edges, 8);

    // Within block 0, force two vertex-sharing edges onto one intra
    // colour — the block's sequential-by-colour schedule now races.
    let (lo, hi) = h.block_range(0, mesh.n_edges());
    let shares = |a: usize, b: usize| {
        mesh.edges
            .row(a)
            .iter()
            .any(|v| mesh.edges.row(b).contains(v))
    };
    let (a, b) = (lo..hi)
        .flat_map(|a| (a + 1..hi).map(move |b| (a, b)))
        .find(|&(a, b)| shares(a, b) && h.intra_color[a] != h.intra_color[b])
        .expect("block 0 has adjacent edges on different intra colours");
    h.intra_color[b] = h.intra_color[a];

    let diags = verify_edge_loop(&mesh, None, Some(h));
    assert_plan_error(&diags, "intra-block colouring invalid");
}

#[test]
fn an_under_declared_stencil_is_an_access_error_naming_the_kernel() {
    let s = live("fixture_stencil");
    let block = Block::new_3d(8, 8, 1, 2);
    // Dats allocated before attach are invisible to the shadow pass, so
    // the fixture allocates after.
    let v = Verifier::attach(&s);
    let mut a = ops_dsl::Dat::<f64>::zeroed(&block, "a");
    let mut b = ops_dsl::Dat::<f64>::zeroed(&block, "b");
    a.fill_with(|i, j, _| (i + j) as f64);
    {
        let bm = b.meta();
        let r = a.reader();
        let w = b.writer();
        // Declared as a point read of `a`, but the body reads i+1.
        ParLoop::new("bad_stencil", block.interior())
            .read(a.meta(), Stencil::point())
            .write(bm)
            .flops(1.0)
            .run(&s, |tile| {
                for (i, j, k) in tile.iter() {
                    w.set(i, j, k, r.at(i + 1, j, k));
                }
            });
    }
    let diags = v.finish(&s);
    assert!(has_errors(&diags), "{diags:?}");
    assert!(
        diags.iter().any(|d| d.severity == Severity::Error
            && d.pass == Pass::Access
            && d.kernel == "bad_stencil"
            && d.detail.contains("declared stencil")),
        "{diags:?}"
    );
}

#[test]
fn an_undeclared_write_is_an_access_error_naming_the_kernel() {
    let s = live("fixture_write");
    let block = Block::new_3d(8, 8, 1, 2);
    let v = Verifier::attach(&s);
    let mut a = ops_dsl::Dat::<f64>::zeroed(&block, "a");
    let mut b = ops_dsl::Dat::<f64>::zeroed(&block, "b");
    a.fill_with(|_, _, _| 1.0);
    {
        let r = a.reader();
        let w = b.writer();
        // `b` is written but never declared at all.
        ParLoop::new("sneaky_write", block.interior())
            .read(a.meta(), Stencil::point())
            .flops(1.0)
            .run(&s, |tile| {
                for (i, j, k) in tile.iter() {
                    w.set(i, j, k, 2.0 * r.at(i, j, k));
                }
            });
    }
    let diags = v.finish(&s);
    assert!(has_errors(&diags), "{diags:?}");
    assert!(
        diags.iter().any(|d| d.severity == Severity::Error
            && d.pass == Pass::Access
            && d.kernel == "sneaky_write"
            && d.detail.contains("`b`")),
        "{diags:?}"
    );
}

#[test]
fn a_correctly_declared_loop_passes_clean() {
    let s = live("fixture_clean");
    let block = Block::new_3d(8, 8, 1, 2);
    let v = Verifier::attach(&s);
    let mut a = ops_dsl::Dat::<f64>::zeroed(&block, "a");
    let mut b = ops_dsl::Dat::<f64>::zeroed(&block, "b");
    a.fill_with(|i, j, _| (i * j) as f64);
    b.fill_with(|_, _, _| 0.0);
    {
        let bm = b.meta();
        let r = a.reader();
        let w = b.writer();
        ParLoop::new("good_stencil", block.interior())
            .read(a.meta(), Stencil::star_2d(1))
            .write(bm)
            .flops(4.0)
            .run(&s, |tile| {
                for (i, j, k) in tile.iter() {
                    let sum = r.at(i + 1, j, k)
                        + r.at(i - 1, j, k)
                        + r.at(i, j + 1, k)
                        + r.at(i, j - 1, k);
                    w.set(i, j, k, 0.25 * sum);
                }
            });
    }
    let diags = v.finish(&s);
    assert!(
        diags.iter().all(|d| d.severity < Severity::Error),
        "a correct loop must not error: {diags:?}"
    );
}
