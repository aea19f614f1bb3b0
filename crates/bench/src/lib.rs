//! # bench-harness — regenerates every table and figure of the paper
//!
//! Every cross-product artifact is a pure function of one table, the
//! 306 cells [`portability::paper_measurements`] prices once;
//! [`artifacts`] renders them all and `regenerate_all` writes them into
//! `results/`:
//!
//! | `results/` file | Paper artifact |
//! |-----------------|----------------|
//! | `table1.txt` | Table 1 — STREAM Triad bandwidth per platform |
//! | `fig_structured_{a100,mi250x,max1100}.txt` | Figures 2–4 — structured app runtimes on GPUs |
//! | `fig_structured_{xeon8360y,genoax,altra}.txt` | Figures 5–7 — structured app runtimes on CPUs |
//! | `fig8_mgcfd_gpu.txt` | Figure 8 — MG-CFD runtimes on GPUs |
//! | `fig9_mgcfd_cpu.txt` | Figure 9 — MG-CFD runtimes on CPUs |
//! | `fig10_efficiency.txt` | Figure 10 — structured-mesh efficiency heatmap |
//! | `fig11_efficiency_mgcfd.txt` | Figure 11 — MG-CFD efficiency heatmap |
//! | `summary_stats.txt` | §4.4 in-text aggregates and PP̄ values |
//! | `gpu_gaps.txt` | §4.1 average SYCL-vs-native gaps on the GPUs |
//! | `conclusions.txt` | §5 best native vs best SYCL efficiency |
//! | `consistency_stats.txt` | §4.1 per-platform consistency of the best variant |
//! | `boundary_fractions.txt` | the boundary-loop (kernel-launch) probe of §4.1–§4.2 |
//! | `ablation_*.txt` | the [`ablation`] sweeps over off-paper cells |
//! | `measurements.csv` | every cell of the table |
//! | `LINT_<app>.json` | [`reports::lint_report`] — static dataflow findings over the app's recorded graphs |
//! | `VERIFY_<app>.json` | [`reports::verify_report`] — shadow-verifier findings of a live test-size run |
//! | `TRANSFER.json` | [`transfer::transfer_json`] — interconnect curves, app splits and CPU-vs-GPU crossovers |
//!
//! Every other `results/` file is a wall-clock record: `BENCH_engine.json`,
//! `BENCH_study.json`, `PROFILE_cloverleaf2d.json`, `STUDY.json` and
//! `DASHBOARD.html`. The same functions are exercised by the benches in
//! `benches/figures.rs`.

pub mod ablation;
pub mod cli;
pub mod json;
pub mod reports;
pub mod transfer;

use babelstream::BabelStream;
use portability::{
    format_table, mean, pp_rows, std_dev, MeasCell, Measurement, PpCell, StudyVariant,
};
use sycl_sim::{FailureKind, PlatformId, Session, SessionConfig, Toolchain};

/// Table 1: (platform, native toolchain, simulated Triad GB/s).
pub fn table1_rows() -> Vec<(PlatformId, Toolchain, f64)> {
    let cases = [
        (PlatformId::Mi250x, Toolchain::NativeHip),
        (PlatformId::A100, Toolchain::NativeCuda),
        (PlatformId::Max1100, Toolchain::Dpcpp),
        (PlatformId::Xeon8360Y, Toolchain::MpiOpenMp),
        (PlatformId::GenoaX, Toolchain::MpiOpenMp),
        (PlatformId::Altra, Toolchain::OpenMp),
    ];
    cases
        .into_iter()
        .map(|(p, tc)| {
            let session = Session::create(SessionConfig::new(p, tc).app("babelstream").dry_run())
                .expect("the Table-1 toolchains run BabelStream everywhere");
            let n = babelstream::table1_len(session.platform());
            let bw = BabelStream::triad_bandwidth(&session, n, 20);
            (p, tc, bw / 1e9)
        })
        .collect()
}

/// Render Table 1 as text.
pub fn table1_text() -> String {
    let mut out = String::from("## Table 1: Achieved bandwidth on STREAM Triad (BabelStream)\n");
    for (p, tc, gbs) in table1_rows() {
        out.push_str(&format!(
            "{:32} {:12} {:7.0} GB/s\n",
            sycl_sim::Platform::get(p).name,
            tc.label(),
            gbs
        ));
    }
    out
}

/// The paper's platforms, figure order: GPUs then CPUs.
fn paper_platforms() -> impl Iterator<Item = PlatformId> {
    portability::gpu_platforms()
        .into_iter()
        .chain(portability::cpu_platforms())
}

/// The table's structured-app cells, in table order.
fn structured(table: &[Measurement]) -> impl Iterator<Item = &Measurement> {
    table.iter().filter(|m| m.scheme.is_none())
}

/// The distinct structured apps of the table, table (paper) order.
fn structured_apps(table: &[Measurement]) -> Vec<&'static str> {
    let mut apps: Vec<&'static str> = Vec::new();
    for m in structured(table) {
        if !apps.contains(&m.app) {
            apps.push(m.app);
        }
    }
    apps
}

/// The runtime cell of a figure: seconds, or the failure marker.
fn runtime_cell(m: &Measurement) -> MeasCell {
    match m.runtime {
        Ok(t) => MeasCell::Seconds(t),
        Err(k) => MeasCell::Failed(k),
    }
}

/// The efficiency cell of a heatmap: a fraction of STREAM, or the
/// failure marker.
fn efficiency_cell(m: &Measurement) -> MeasCell {
    match (&m.runtime, m.efficiency) {
        (Ok(_), Some(e)) => MeasCell::Efficiency(e),
        (Err(k), _) => MeasCell::Failed(*k),
        _ => MeasCell::Failed(FailureKind::RuntimeCrash),
    }
}

/// One figure panel: rows keyed by `row_key`, one column per variant,
/// each cell rendered by `cell`, in the order the cells arrive.
fn grouped_table<'a>(
    title: &str,
    cells: impl Iterator<Item = &'a Measurement>,
    row_key: impl Fn(&Measurement) -> &'static str,
    cell: impl Fn(&Measurement) -> MeasCell,
) -> String {
    let mut rows: Vec<(&str, Vec<(String, MeasCell)>)> = Vec::new();
    for m in cells {
        let key = row_key(m);
        let column = (m.variant.label(), cell(m));
        match rows.iter_mut().find(|(k, _)| *k == key) {
            Some((_, cells)) => cells.push(column),
            None => rows.push((key, vec![column])),
        }
    }
    format_table(title, &rows)
}

fn app_key(m: &Measurement) -> &'static str {
    m.app
}

fn scheme_key(m: &Measurement) -> &'static str {
    m.scheme.map(|s| s.label()).unwrap_or("-")
}

/// Rows keyed by scheme for the MG-CFD cells, by app for the
/// structured ones.
fn row_key(mgcfd_rows: bool) -> fn(&Measurement) -> &'static str {
    if mgcfd_rows {
        scheme_key
    } else {
        app_key
    }
}

/// One platform's runtime panel over its structured or MG-CFD cells.
fn runtime_figure(title: &str, table: &[Measurement], p: PlatformId, mgcfd_rows: bool) -> String {
    let cells = table
        .iter()
        .filter(|m| m.platform == p && m.scheme.is_some() == mgcfd_rows);
    let title = format!(
        "{title} on {} (simulated seconds)",
        sycl_sim::Platform::get(p).name
    );
    grouped_table(&title, cells, row_key(mgcfd_rows), runtime_cell)
}

/// One efficiency panel per platform over its structured or MG-CFD
/// cells.
fn efficiency_figure(title: &str, table: &[Measurement], mgcfd_rows: bool) -> String {
    let mut out = format!("## {title}\n");
    for p in paper_platforms() {
        let cells = table
            .iter()
            .filter(|m| m.platform == p && m.scheme.is_some() == mgcfd_rows);
        out.push_str(&grouped_table(
            p.label(),
            cells,
            row_key(mgcfd_rows),
            efficiency_cell,
        ));
        out.push('\n');
    }
    out
}

/// Figures 2–7: structured-app runtime table for one platform.
pub fn figure_structured_text(table: &[Measurement], platform: PlatformId) -> String {
    runtime_figure("Structured-mesh app runtimes", table, platform, false)
}

/// Figures 8–9: MG-CFD runtime table for one platform (rows = schemes).
pub fn figure_mgcfd_text(table: &[Measurement], platform: PlatformId) -> String {
    runtime_figure("MG-CFD (Rotor37) runtimes", table, platform, true)
}

/// Figure 10: efficiency (fraction of STREAM) per structured app ×
/// platform × variant.
pub fn figure10_text(table: &[Measurement]) -> String {
    efficiency_figure(
        "Figure 10: achieved architectural efficiency (structured)",
        table,
        false,
    )
}

/// Figure 11: MG-CFD efficiency per platform × variant × scheme.
pub fn figure11_text(table: &[Measurement]) -> String {
    efficiency_figure(
        "Figure 11: achieved efficiency, MG-CFD (effective BW rule)",
        table,
        true,
    )
}

/// §4.4's headline aggregates, computed exactly as the paper describes.
#[derive(Debug, Clone)]
pub struct SummaryStats {
    /// Mean/std of best-native efficiency over structured (app, platform).
    pub native_eff: (f64, f64),
    /// Mean/std for DPC++ nd_range.
    pub dpcpp_nd_eff: (f64, f64),
    /// Mean/std for OpenSYCL nd_range.
    pub opensycl_nd_eff: (f64, f64),
    /// Mean for the flat variants.
    pub dpcpp_flat_eff: (f64, f64),
    pub opensycl_flat_eff: (f64, f64),
    /// The six labelled PP̄ rows of [`portability::pp_rows`]: the four
    /// structured SYCL variants (failures ignored, paper §4.4), then
    /// MG-CFD OpenSYCL+atomics and best-per-platform SYCL.
    pub pp: Vec<(String, f64)>,
}

/// Compute the summary statistics over the paper table.
pub fn summary_stats(table: &[Measurement]) -> SummaryStats {
    let apps: Vec<&str> = {
        let mut v = structured_apps(table);
        v.sort();
        v
    };

    // Best-native efficiency per (app, platform).
    let mut native = Vec::new();
    for &app in &apps {
        for p in paper_platforms() {
            let best = structured(table)
                .filter(|m| m.app == app && m.platform == p && m.variant.is_native())
                .filter_map(|m| m.efficiency)
                .fold(f64::NAN, f64::max);
            if best.is_finite() {
                native.push(best);
            }
        }
    }

    let sycl_effs = |toolchain: Toolchain, nd_range: bool| -> (f64, f64) {
        let variant = StudyVariant {
            toolchain,
            nd_range,
        };
        let effs: Vec<f64> = structured(table)
            .filter(|m| m.variant == variant)
            .filter_map(|m| m.efficiency)
            .collect();
        (mean(&effs), std_dev(&effs))
    };
    let cells: Vec<PpCell> = table.iter().map(PpCell::from).collect();

    SummaryStats {
        native_eff: (mean(&native), std_dev(&native)),
        dpcpp_nd_eff: sycl_effs(Toolchain::Dpcpp, true),
        opensycl_nd_eff: sycl_effs(Toolchain::OpenSycl, true),
        dpcpp_flat_eff: sycl_effs(Toolchain::Dpcpp, false),
        opensycl_flat_eff: sycl_effs(Toolchain::OpenSycl, false),
        pp: pp_rows(&cells),
    }
}

/// Render the summary with the paper's reference values alongside.
pub fn summary_text(table: &[Measurement]) -> String {
    let s = summary_stats(table);
    let pct = |x: f64| format!("{:.0}%", x * 100.0);
    let pair = |(m, sd): (f64, f64)| format!("{} (std {})", pct(m), pct(sd));
    let pp: Vec<f64> = s.pp.iter().map(|(_, v)| *v).collect();
    format!(
        "## §4.4 summary aggregates (simulated vs paper)\n\
         native best          : {:24} paper: 59% (std 21%)\n\
         DPC++ nd_range       : {:24} paper: 54% (std 19%)\n\
         OpenSYCL nd_range    : {:24} paper: 52% (std 21%)\n\
         DPC++ flat           : {:24} paper: 47% (std 19%)\n\
         OpenSYCL flat        : {:24} paper: 41% (std 19%)\n\
         PP(DPC++ nd)         : {:<24.2} paper: 0.49\n\
         PP(OpenSYCL nd)      : {:<24.2} paper: 0.46\n\
         PP(DPC++ flat)       : {:<24.2} paper: 0.35\n\
         PP(OpenSYCL flat)    : {:<24.2} paper: 0.29\n\
         PP(MG-CFD OpenSYCL+atomics): {:<17.2} paper: 0.42\n\
         PP(MG-CFD best SYCL) : {:<24.2} paper: 0.67\n",
        pair(s.native_eff),
        pair(s.dpcpp_nd_eff),
        pair(s.opensycl_nd_eff),
        pair(s.dpcpp_flat_eff),
        pair(s.opensycl_flat_eff),
        pp[0],
        pp[1],
        pp[2],
        pp[3],
        pp[4],
        pp[5],
    )
}

/// §4.1's average SYCL-vs-native runtime gaps on one GPU: the mean over
/// the structured apps of `t_sycl / t_native − 1` (positive = slower).
pub fn gpu_gap(
    table: &[Measurement],
    platform: PlatformId,
    tc: Toolchain,
    nd: bool,
    baseline: Toolchain,
) -> f64 {
    let runtime = |app: &str, toolchain: Toolchain, nd_range: bool| {
        let variant = StudyVariant {
            toolchain,
            nd_range,
        };
        structured(table)
            .find(|m| m.app == app && m.platform == platform && m.variant == variant)
            .map(|m| m.runtime)
    };
    let mut gaps = Vec::new();
    for app in structured_apps(table) {
        if let (Some(Ok(tb)), Some(Ok(ts))) = (runtime(app, baseline, false), runtime(app, tc, nd))
        {
            gaps.push(ts / tb - 1.0);
        }
    }
    mean(&gaps)
}

/// Render §4.1's gap aggregates with the paper's values alongside.
pub fn gpu_gaps_text(table: &[Measurement]) -> String {
    use PlatformId::{Max1100, Mi250x, A100};
    use Toolchain::{Dpcpp, NativeCuda, NativeHip, OmpOffload, OpenSycl};
    let gap = |p, tc, baseline| format!("{:+.1}%", gpu_gap(table, p, tc, true, baseline) * 100.0);
    format!(
        "## §4.1 average SYCL nd_range runtime gap vs native (structured apps)
         A100    : DPC++ {:8} (paper +1.2%) | OpenSYCL {:8} (paper +5.3%)
         MI250X  : DPC++ {:8} (paper +15.9%) | OpenSYCL {:8} (paper +4.5%)
         MI250X vs Cray offload: DPC++ {:8} (paper +2.3%) | OpenSYCL {:8} (paper -9.1%)
         Max 1100 vs OMP offload: DPC++ {:8} (paper -30.2%) | OpenSYCL {:8} (paper -27.6%)
",
        gap(A100, Dpcpp, NativeCuda),
        gap(A100, OpenSycl, NativeCuda),
        gap(Mi250x, Dpcpp, NativeHip),
        gap(Mi250x, OpenSycl, NativeHip),
        gap(Mi250x, Dpcpp, OmpOffload),
        gap(Mi250x, OpenSycl, OmpOffload),
        gap(Max1100, Dpcpp, OmpOffload),
        gap(Max1100, OpenSycl, OmpOffload),
    )
}

/// §5's conclusion aggregates: best-native vs best-SYCL efficiency,
/// overall and split by GPU/CPU.
pub struct ConclusionStats {
    pub native_all: f64,
    pub sycl_all: f64,
    pub native_gpu: f64,
    pub sycl_gpu: f64,
    pub native_cpu: f64,
    pub sycl_cpu: f64,
}

/// Compute §5's numbers over all seven applications.
pub fn conclusion_stats(table: &[Measurement]) -> ConclusionStats {
    let apps: Vec<&str> = {
        let mut v: Vec<&str> = table.iter().map(|m| m.app).collect();
        v.sort();
        v.dedup();
        v
    };
    let best = |p: PlatformId, app: &str, native: bool| -> Option<f64> {
        table
            .iter()
            .filter(|m| m.platform == p && m.app == app && m.variant.is_native() == native)
            .filter_map(|m| m.efficiency)
            .fold(None, |acc: Option<f64>, e| {
                Some(acc.map_or(e, |a| a.max(e)))
            })
    };
    let collect = |native: bool, gpus: Option<bool>| -> f64 {
        let vals: Vec<f64> = paper_platforms()
            .filter(|p| gpus.is_none_or(|g| p.is_gpu() == g))
            .flat_map(|p| apps.iter().filter_map(move |&a| best(p, a, native)))
            .collect();
        mean(&vals)
    };
    ConclusionStats {
        native_all: collect(true, None),
        sycl_all: collect(false, None),
        native_gpu: collect(true, Some(true)),
        sycl_gpu: collect(false, Some(true)),
        native_cpu: collect(true, Some(false)),
        sycl_cpu: collect(false, Some(false)),
    }
}

/// Render §5's conclusions with the paper values alongside.
pub fn conclusions_text(table: &[Measurement]) -> String {
    let c = conclusion_stats(table);
    let pct = |x: f64| format!("{:.1}%", x * 100.0);
    format!(
        "## §5 conclusions (best variant per app × platform)
         all platforms : native {:6} vs SYCL {:6}   paper: 62.7% vs 59.1%
         GPUs          : native {:6} vs SYCL {:6}   paper: 57.6% vs 62.7%
         CPUs          : native {:6} vs SYCL {:6}   paper: 67.8% vs 55.5%
",
        pct(c.native_all),
        pct(c.sycl_all),
        pct(c.native_gpu),
        pct(c.sycl_gpu),
        pct(c.native_cpu),
        pct(c.sycl_cpu),
    )
}

/// Boundary-loop time fractions (the paper's kernel-launch probe):
/// CloverLeaf 2D/3D per platform and toolchain.
pub fn boundary_fractions_text(table: &[Measurement]) -> String {
    let mut out = String::from(
        "## Boundary-loop time fractions (paper anchors: A100 1.5%/7.8%,
         ## MI250X 2.6%/11.1%, Max 0.9%/4.8%; Xeon DPC++ 5.4-8.7% vs
         ## MPI+OpenMP 0.34% and OpenSYCL 1.2-2.5%)
",
    );
    for p in paper_platforms() {
        out.push_str(&format!(
            "{}:
",
            sycl_sim::Platform::get(p).name
        ));
        for variant in portability::variants_for(p) {
            let mut row = format!("  {:18}", variant.label());
            for app in ["cloverleaf2d", "cloverleaf3d"] {
                let fraction = structured(table)
                    .find(|m| m.app == app && m.platform == p && m.variant == variant)
                    .and_then(|m| m.boundary_fraction);
                match fraction {
                    Some(f) => row.push_str(&format!(" {:>6.2}%", f * 100.0)),
                    None => row.push_str("    n/a"),
                }
            }
            out.push_str(&row);
            out.push('\n');
        }
    }
    out
}

/// Every artifact `regenerate_all` writes, as (file name, contents),
/// rendered from the paper table (`portability::paper_measurements()`).
/// Table 1, the ablations, the lint and verify reports and the transfer
/// document price their own runs.
pub fn artifacts(table: &[Measurement]) -> Vec<(String, String)> {
    let mgcfd_panels = |platforms: [PlatformId; 3]| -> String {
        platforms
            .into_iter()
            .map(|p| figure_mgcfd_text(table, p) + "\n")
            .collect()
    };
    // Structured rows first, then MG-CFD, as the CSV always listed them.
    let mgcfd_cells = table.iter().filter(|m| m.scheme.is_some());
    let csv_rows: Vec<Measurement> = structured(table).chain(mgcfd_cells).cloned().collect();
    let mut out = vec![("table1.txt".to_owned(), table1_text())];
    out.extend(paper_platforms().map(|p| {
        let name = format!("fig_structured_{}.txt", p.label());
        (name, figure_structured_text(table, p))
    }));
    let named = [
        (
            "fig8_mgcfd_gpu.txt",
            mgcfd_panels(portability::gpu_platforms()),
        ),
        (
            "fig9_mgcfd_cpu.txt",
            mgcfd_panels(portability::cpu_platforms()),
        ),
        ("fig10_efficiency.txt", figure10_text(table)),
        ("fig11_efficiency_mgcfd.txt", figure11_text(table)),
        ("summary_stats.txt", summary_text(table)),
        ("gpu_gaps.txt", gpu_gaps_text(table)),
        ("conclusions.txt", conclusions_text(table)),
        ("consistency_stats.txt", ablation::consistency_text(table)),
        ("boundary_fractions.txt", boundary_fractions_text(table)),
        ("ablation_workgroup.txt", ablation::workgroup_sweep_text()),
        ("ablation_ordering.txt", ablation::ordering_sweep_text()),
        ("ablation_cache.txt", ablation::cache_sweep_text()),
        ("ablation_blocksize.txt", ablation::block_size_sweep_text()),
        ("measurements.csv", portability::write_csv(&csv_rows)),
    ];
    out.extend(named.map(|(name, text)| (name.to_owned(), text)));
    // One thread per app, because the live verifier runs dominate the
    // debug build's wall time. A shadow is scoped to the thread that
    // enters it, so each report still numbers its dats from 1.
    let reports: Vec<[(String, String); 2]> = std::thread::scope(|s| {
        let threads = APP_NAMES.map(|app| {
            s.spawn(move || {
                [
                    (format!("LINT_{app}.json"), reports::lint_report(app)),
                    (format!("VERIFY_{app}.json"), reports::verify_report(app)),
                ]
            })
        });
        threads
            .into_iter()
            .map(|t| t.join().expect("a report thread panicked"))
            .collect()
    });
    out.extend(reports.into_iter().flatten());
    out.push(("TRANSFER.json".to_owned(), transfer::transfer_json()));
    out
}

/// The platform's best native toolchain (the Table-1 pairing): what
/// the reports, the transfer document and the tracing binaries run.
pub fn native_toolchain(p: PlatformId) -> Toolchain {
    match p {
        PlatformId::A100 => Toolchain::NativeCuda,
        PlatformId::Mi250x => Toolchain::NativeHip,
        PlatformId::Max1100 => Toolchain::Dpcpp,
        PlatformId::Xeon8360Y | PlatformId::GenoaX => Toolchain::MpiOpenMp,
        PlatformId::Altra => Toolchain::OpenMp,
    }
}

/// All app names `make_app` accepts, in paper order.
pub const APP_NAMES: [&str; 7] = [
    "cloverleaf2d",
    "cloverleaf3d",
    "opensbli_sa",
    "opensbli_sn",
    "rtm",
    "acoustic",
    "mgcfd",
];

/// Instantiate an app by CLI name at paper or test size.
pub fn make_app(name: &str, paper: bool) -> Option<Box<dyn miniapps::App>> {
    use miniapps::{Acoustic, CloverLeaf2d, CloverLeaf3d, Mgcfd, OpenSbli, Rtm, SbliVariant};
    Some(match (name, paper) {
        ("cloverleaf2d", true) => Box::new(CloverLeaf2d::paper()),
        ("cloverleaf2d", false) => Box::new(CloverLeaf2d::test()),
        ("cloverleaf3d", true) => Box::new(CloverLeaf3d::paper()),
        ("cloverleaf3d", false) => Box::new(CloverLeaf3d::test()),
        ("opensbli_sa", true) => Box::new(OpenSbli::paper(SbliVariant::StoreAll)),
        ("opensbli_sa", false) => Box::new(OpenSbli::test(SbliVariant::StoreAll)),
        ("opensbli_sn", true) => Box::new(OpenSbli::paper(SbliVariant::StoreNone)),
        ("opensbli_sn", false) => Box::new(OpenSbli::test(SbliVariant::StoreNone)),
        ("rtm", true) => Box::new(Rtm::paper()),
        ("rtm", false) => Box::new(Rtm::test()),
        ("acoustic", true) => Box::new(Acoustic::paper()),
        ("acoustic", false) => Box::new(Acoustic::test()),
        ("mgcfd", true) => Box::new(Mgcfd::paper()),
        ("mgcfd", false) => Box::new(Mgcfd::test()),
        _ => return None,
    })
}
