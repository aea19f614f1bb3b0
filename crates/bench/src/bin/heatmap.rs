//! Figures 10-11 as ASCII heatmaps: the paper's colour grids, shaded
//! with density glyphs. Usage: `heatmap [platform]` (default: all).
use portability::heatmap::from_measurements;

fn main() {
    let arg = std::env::args().nth(1);
    let platforms: Vec<sycl_sim::PlatformId> =
        match arg.as_deref().and_then(sycl_sim::PlatformId::parse) {
            Some(p) => vec![p],
            None => portability::gpu_platforms()
                .into_iter()
                .chain(portability::cpu_platforms())
                .collect(),
        };
    for p in platforms {
        let structured = portability::structured_measurements(p);
        println!(
            "{}",
            from_measurements(
                &format!(
                    "{} — structured efficiency",
                    sycl_sim::Platform::get(p).name
                ),
                &structured,
                |m| m.app.to_owned(),
            )
        );
        let mgcfd = portability::unstructured_measurements(p);
        println!(
            "{}",
            from_measurements(
                &format!("{} — MG-CFD efficiency", sycl_sim::Platform::get(p).name),
                &mgcfd,
                |m| m.scheme.map(|s| s.label().to_owned()).unwrap_or_default(),
            )
        );
    }
}
