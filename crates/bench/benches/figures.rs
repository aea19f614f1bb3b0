//! Plain-harness benches (`cargo bench` with `harness = false`): one
//! group per paper artifact so benching regenerates every table and
//! figure, plus micro-benches of the core runtime primitives (pool,
//! colouring, partitioner, model evaluation). Timing is a simple
//! best-of-N wall-clock loop — no external bench framework, so the
//! workspace builds offline.

use std::hint::black_box;
use std::time::Instant;

/// Run `f` for `iters` iterations, `samples` times; report the best
/// per-iteration time in a criterion-like line.
fn bench<F: FnMut()>(name: &str, samples: usize, iters: usize, mut f: F) {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let dt = t0.elapsed().as_secs_f64() / iters as f64;
        best = best.min(dt);
    }
    let (value, unit) = if best >= 1.0 {
        (best, "s")
    } else if best >= 1e-3 {
        (best * 1e3, "ms")
    } else if best >= 1e-6 {
        (best * 1e6, "µs")
    } else {
        (best * 1e9, "ns")
    };
    println!("{name:48} time: {value:10.3} {unit}/iter");
}

fn bench_table1() {
    bench("table1_stream_triad", 3, 1, || {
        black_box(bench_harness::table1_rows());
    });
}

/// One pricing pass over the paper's 306 cells, then each renderer
/// over that table.
fn bench_figures() {
    bench("paper_measurements_306_cells", 2, 1, || {
        black_box(portability::paper_measurements().len());
    });
    let table = portability::paper_measurements();
    for p in portability::gpu_platforms()
        .into_iter()
        .chain(portability::cpu_platforms())
    {
        bench(&format!("fig_structured_{}", p.label()), 3, 20, || {
            black_box(bench_harness::figure_structured_text(&table, p));
        });
        bench(&format!("fig_mgcfd_{}", p.label()), 3, 20, || {
            black_box(bench_harness::figure_mgcfd_text(&table, p));
        });
    }
    bench("fig10_efficiency", 3, 20, || {
        black_box(bench_harness::figure10_text(&table));
    });
    bench("fig11_efficiency_mgcfd", 3, 20, || {
        black_box(bench_harness::figure11_text(&table));
    });
    bench("summary_stats_section44", 3, 20, || {
        black_box(bench_harness::summary_stats(&table).pp);
    });
    bench("gpu_gaps", 3, 20, || {
        black_box(bench_harness::gpu_gaps_text(&table));
    });
    bench("conclusions", 3, 20, || {
        black_box(bench_harness::conclusions_text(&table));
    });
    bench("consistency_stats", 3, 20, || {
        black_box(bench_harness::ablation::consistency_text(&table));
    });
    bench("boundary_fractions", 3, 20, || {
        black_box(bench_harness::boundary_fractions_text(&table));
    });
    bench("measurements_csv", 3, 20, || {
        black_box(portability::write_csv(&table));
    });
}

fn bench_primitives() {
    use op2_dsl::color::{GlobalColoring, HierColoring};
    use op2_dsl::mesh::{Mesh, Ordering};
    use op2_dsl::partition::Partition;

    let mesh = Mesh::grid(32, 32, 16, Ordering::Natural);
    bench("global_coloring_16k_vertices", 3, 5, || {
        black_box(GlobalColoring::build(&mesh.edges).n_colors());
    });
    bench("hier_coloring_16k_vertices", 3, 5, || {
        black_box(HierColoring::build(&mesh.edges, 256).n_colors());
    });
    bench("rcb_partition_16_parts", 3, 5, || {
        black_box(Partition::rcb(&mesh, 16).imbalance());
    });

    let pool = parkit::ThreadPool::new(4);
    let data: Vec<f64> = (0..1 << 16).map(|i| (i as f64).sin()).collect();
    bench("parkit_reduce_64k", 3, 50, || {
        black_box(pool.reduce(
            data.len(),
            4096,
            0.0f64,
            |a, x| a + x,
            |r| r.map(|i| data[i]).sum::<f64>(),
        ));
    });

    // One model evaluation (the innermost operation of every figure).
    let platform = sycl_sim::Platform::get(sycl_sim::PlatformId::A100);
    let fp = sycl_sim::KernelFootprint::streaming(
        "triad",
        1 << 25,
        3.0 * 8.0 * (1 << 25) as f64,
        2.0 * (1 << 25) as f64,
        sycl_sim::Precision::F64,
    );
    let exec = sycl_sim::ExecProfile::native(sycl_sim::PlatformId::A100);
    bench("machine_model_predict", 3, 10_000, || {
        black_box(machine_model::predict(&platform, &fp, &exec).total);
    });
}

fn bench_ablations() {
    bench("workgroup_sweep_rtm", 2, 1, || {
        black_box(sycl_sim::tune::sweep(
            sycl_sim::PlatformId::A100,
            sycl_sim::Toolchain::Dpcpp,
            &bench_harness::ablation::rtm_wave_kernel(),
        ));
    });
    bench("ordering_sweep_a100", 2, 1, || {
        black_box(bench_harness::ablation::ordering_sweep(
            sycl_sim::PlatformId::A100,
        ));
    });
    bench("cache_capacity_sweep", 2, 1, || {
        black_box(bench_harness::ablation::cache_sweep());
    });
}

fn main() {
    // `cargo bench` passes harness flags like `--bench`; ignore them.
    bench_table1();
    bench_figures();
    bench_primitives();
    bench_ablations();
}
