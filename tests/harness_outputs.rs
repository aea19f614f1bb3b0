//! Snapshot-style integration tests for the figure harness: every
//! table/figure generator must produce structurally complete output
//! (all apps, all variant columns, all platforms, failure markers where
//! the paper reports them), every artifact rendered from the paper
//! table must equal the committed `results/` file byte for byte, and
//! every committed `results/` file is either rendered or a named
//! wall-clock record.

use portability::{write_csv, Measurement};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use sycl_sim::quirks::apps;
use telemetry::json::{self, Json};

/// The paper's cross-product, priced once for this test binary.
fn table() -> &'static [Measurement] {
    static TABLE: OnceLock<Vec<Measurement>> = OnceLock::new();
    TABLE.get_or_init(portability::paper_measurements)
}

/// Every artifact `regenerate_all` writes, rendered once for this test
/// binary while its other tests run on other threads.
fn artifacts() -> &'static [(String, String)] {
    static ARTIFACTS: OnceLock<Vec<(String, String)>> = OnceLock::new();
    ARTIFACTS.get_or_init(|| bench_harness::artifacts(table()))
}

/// One rendered artifact, parsed.
fn rendered_json(name: &str) -> Json {
    let (_, text) = artifacts()
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("{name} is not rendered"));
    json::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// The `results/` files whose contents depend on the wall clock: they
/// are committed as records of one run and not rendered.
const WALL_CLOCK_RECORDS: [&str; 4] = [
    "BENCH_engine.json",
    "PROFILE_cloverleaf2d.json",
    "STUDY.json",
    "DASHBOARD.html",
];

/// A committed wall-clock record, or the `profile` trace of any app
/// (`PROFILE_<app>.json`; only CloverLeaf 2D's is committed).
fn is_wall_clock_record(name: &str) -> bool {
    WALL_CLOCK_RECORDS.contains(&name)
        || apps::ALL
            .iter()
            .any(|app| name == format!("PROFILE_{app}.json"))
}

#[test]
fn committed_results_match_every_rendered_artifact() {
    for (name, content) in artifacts() {
        let committed = std::fs::read_to_string(results_dir().join(name))
            .unwrap_or_else(|e| panic!("results/{name}: {e}"));
        assert!(
            committed == *content,
            "results/{name} is stale: rerun `cargo run --release -p bench-harness --bin regenerate_all`"
        );
    }
}

/// A file dropped from `artifacts()` must not linger stale in
/// `results/`. Directories and `*.journal` files are a study run's
/// working state, which `.gitignore` keeps out of the repository.
#[test]
fn every_committed_result_is_rendered_or_a_wall_clock_record() {
    let entries = std::fs::read_dir(results_dir()).expect("results/ exists");
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() || path.extension().is_some_and(|x| x == "journal") {
            continue;
        }
        let name = path.file_name().unwrap().to_str().unwrap();
        assert!(
            is_wall_clock_record(name) || artifacts().iter().any(|(n, _)| n == name),
            "results/{name} is neither rendered by `bench_harness::artifacts` nor a wall-clock record"
        );
    }
}

/// Every app has a lint report, none with an Error-severity finding,
/// and the reports surface at least one fusion candidate.
#[test]
fn lint_reports_are_clean_and_surface_fusion_candidates() {
    let mut fused = 0;
    for app in apps::ALL {
        let doc = rendered_json(&format!("LINT_{app}.json"));
        assert_eq!(doc.str_of("app"), Some(app));
        assert_eq!(doc.u64_of("errors"), Some(0), "LINT_{app}.json has errors");
        let diags = doc.get("diagnostics").and_then(Json::as_arr).unwrap();
        fused += diags
            .iter()
            .filter(|d| {
                d.str_of("detail")
                    .is_some_and(|t| t.starts_with("fusion candidate"))
            })
            .count();
    }
    assert!(fused > 0, "no fusion candidates surfaced across the apps");
}

/// The transfer document prices every link, charges every app for its
/// data movement, and pricing it moves at least one CPU-vs-GPU
/// crossover by more than 0.1 %.
#[test]
fn transfer_artifact_prices_every_link_and_moves_a_crossover() {
    let doc = rendered_json("TRANSFER.json");
    let arr = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap();
    let mut platforms: Vec<&str> = Vec::new();
    for c in arr("curves") {
        let label = c.str_of("platform").unwrap();
        if !platforms.contains(&label) {
            platforms.push(label);
        }
        let points = c.get("points").and_then(Json::as_arr).unwrap();
        assert!(!points.is_empty(), "empty ladder for {label}");
        for p in points {
            let secs = p.f64_of("secs").unwrap();
            assert!(secs > 0.0, "free transfer on {label}: {secs}");
        }
    }
    assert_eq!(platforms.len(), 6, "curves cover {platforms:?}");
    let apps = arr("apps");
    assert!(!apps.is_empty(), "no per-app splits");
    for a in apps {
        let secs = a.f64_of("transferSecs").unwrap();
        assert!(secs > 0.0, "{:?} moved no data", a.str_of("app"));
    }
    let shifts: Vec<f64> = arr("crossover")
        .iter()
        .map(|c| c.f64_of("shiftPct").unwrap())
        .collect();
    assert!(
        shifts.iter().any(|s| s.abs() > 0.1),
        "pricing transfers moved no crossover: {shifts:?}"
    );
}

#[test]
fn table1_text_lists_all_six_platforms() {
    let t = bench_harness::table1_text();
    for name in ["MI250X", "A100", "Max 1100", "Xeon", "Genoa-X", "Altra"] {
        assert!(t.contains(name), "missing {name} in:\n{t}");
    }
    assert!(t.contains("GB/s"));
}

#[test]
fn structured_figures_contain_every_app_and_variant() {
    use sycl_sim::PlatformId;
    for p in [PlatformId::A100, PlatformId::GenoaX] {
        let t = bench_harness::figure_structured_text(table(), p);
        for app in sycl_sim::quirks::apps::STRUCTURED {
            assert!(t.contains(app), "{p:?}: missing {app}");
        }
        assert!(t.contains("DPC++ flat"));
        assert!(t.contains("OpenSYCL ndrange"));
    }
    // Genoa-X must show the "wrong" marker for CloverLeaf 2D.
    let genoa = bench_harness::figure_structured_text(table(), PlatformId::GenoaX);
    assert!(genoa.contains("wrong"), "{genoa}");
    // Altra must show n/a for DPC++.
    let altra = bench_harness::figure_structured_text(table(), PlatformId::Altra);
    assert!(altra.contains("n/a"), "{altra}");
}

#[test]
fn mgcfd_figures_contain_every_scheme_and_failures() {
    let t = bench_harness::figure_mgcfd_text(table(), sycl_sim::PlatformId::Xeon8360Y);
    for scheme in ["atomics", "global", "hierarchical"] {
        assert!(t.contains(scheme), "missing {scheme}");
    }
    assert!(t.contains("ICE"), "OpenSYCL global must ICE on CPUs:\n{t}");
    assert!(t.contains("crash"), "DPC++ global must crash on CPUs:\n{t}");
}

#[test]
fn efficiency_figures_cover_all_platforms() {
    let f10 = bench_harness::figure10_text(table());
    let f11 = bench_harness::figure11_text(table());
    for label in ["a100", "mi250x", "max1100", "xeon8360y", "genoax", "altra"] {
        assert!(f10.contains(label), "fig10 missing {label}");
        assert!(f11.contains(label), "fig11 missing {label}");
    }
    assert!(f10.contains('%'));
}

#[test]
fn summary_text_reports_all_pp_metrics() {
    let s = bench_harness::summary_text(table());
    for needle in [
        "PP(DPC++ nd)",
        "PP(OpenSYCL nd)",
        "PP(DPC++ flat)",
        "PP(OpenSYCL flat)",
        "PP(MG-CFD OpenSYCL+atomics)",
        "paper: 0.49",
    ] {
        assert!(s.contains(needle), "missing {needle} in:\n{s}");
    }
}

#[test]
fn conclusions_split_gpu_and_cpu() {
    let c = bench_harness::conclusions_text(table());
    assert!(c.contains("GPUs"));
    assert!(c.contains("CPUs"));
    assert!(c.contains("62.7%"), "paper reference values must print");
}

#[test]
fn csv_export_covers_the_full_cross_product() {
    let csv = write_csv(table());
    let lines: Vec<&str> = csv.lines().collect();
    // 6 apps × (5+6+5+6+6+6 variants) + mgcfd × 3 schemes × variants.
    assert!(lines.len() > 250, "only {} csv rows", lines.len());
    assert!(lines[0].starts_with("app,platform,variant"));
    // Failures appear with their kinds.
    assert!(csv.contains("IncorrectResult"));
    assert!(csv.contains("Unsupported"));
    assert!(csv.contains("CompileError"));
    // Every row has the right column count.
    for l in &lines[1..] {
        assert_eq!(l.split(',').count(), 7, "bad row: {l}");
    }
}

#[test]
fn ablation_texts_are_complete() {
    let w = bench_harness::ablation::workgroup_sweep_text();
    assert!(w.contains("best") && w.contains("worst"));
    let c = bench_harness::ablation::cache_sweep_text();
    assert!(c.contains("208"), "must sweep up to the Max 1100's L2");
    let o = bench_harness::ablation::ordering_sweep_text();
    assert!(o.contains("locality 1.0") && o.contains("locality 0.1"));
    let b = bench_harness::ablation::block_size_sweep_text();
    assert!(b.contains("block    256") || b.contains("block  256") || b.contains("256"));
    let cons = bench_harness::ablation::consistency_text(table());
    assert!(cons.matches('%').count() >= 12);
}
