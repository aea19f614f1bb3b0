//! Snapshot-style integration tests for the figure harness: every
//! table/figure generator must produce structurally complete output
//! (all apps, all variant columns, all platforms, failure markers where
//! the paper reports them), and every artifact rendered from the paper
//! table must equal the committed `results/` file byte for byte.

use portability::{write_csv, Measurement};
use std::sync::OnceLock;

/// The paper's cross-product, priced once for this test binary.
fn table() -> &'static [Measurement] {
    static TABLE: OnceLock<Vec<Measurement>> = OnceLock::new();
    TABLE.get_or_init(portability::paper_measurements)
}

#[test]
fn committed_results_match_every_rendered_artifact() {
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    for (name, content) in bench_harness::artifacts(table()) {
        let committed = std::fs::read_to_string(results.join(&name))
            .unwrap_or_else(|e| panic!("results/{name}: {e}"));
        assert!(
            committed == content,
            "results/{name} is stale: rerun `cargo run --release -p bench-harness --bin regenerate_all`"
        );
    }
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
