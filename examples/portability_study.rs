//! A miniature performance-portability study: run CloverLeaf 2D at paper
//! size across all six platforms and every available programming
//! approach, then compute the Pennycook–Sewall PP̄ metric — the paper's
//! §4.4 analysis in one binary.
//!
//!     cargo run --release --example portability_study

use portability::{measure_structured, pennycook, variants_for, StudyVariant};
use sycl_portability::prelude::*;
use sycl_sim::Toolchain;

fn main() {
    let app = miniapps::CloverLeaf2d::paper();
    println!("=== CloverLeaf 2D (7680^2, 50 iter) across all platforms ===\n");
    println!(
        "{:12} {:18} {:>12} {:>12} {:>10}",
        "platform", "variant", "runtime", "efficiency", "boundary"
    );

    // platform -> per-(toolchain, nd) efficiency for PP.
    let mut dpcpp_nd: Vec<Option<f64>> = Vec::new();
    let mut opensycl_nd: Vec<Option<f64>> = Vec::new();

    for platform in PlatformId::ALL {
        for variant in variants_for(platform) {
            let m = measure_structured(&app, platform, variant);
            match (&m.runtime, m.efficiency) {
                (Ok(t), Some(e)) => println!(
                    "{:12} {:18} {:>10.3} s {:>11.0}% {:>9.1}%",
                    platform.label(),
                    variant.label(),
                    t,
                    e * 100.0,
                    m.boundary_fraction.unwrap_or(0.0) * 100.0
                ),
                (Err(kind), _) => println!(
                    "{:12} {:18} {:>12} {:>12} {:>10}",
                    platform.label(),
                    variant.label(),
                    format!("{kind}"),
                    "-",
                    "-"
                ),
                _ => {}
            }
        }
        let grab = |tc: Toolchain| -> Option<f64> {
            let v = StudyVariant {
                toolchain: tc,
                nd_range: true,
            };
            measure_structured(&app, platform, v).efficiency
        };
        dpcpp_nd.push(grab(Toolchain::Dpcpp));
        opensycl_nd.push(grab(Toolchain::OpenSycl));
    }

    println!("\n=== Pennycook-Sewall PP̄ over the six platforms ===");
    println!(
        "DPC++ nd_range    : {:.2} (failures zeroed) / {:.2} (failures ignored)",
        pennycook(&dpcpp_nd, false),
        pennycook(&dpcpp_nd, true)
    );
    println!(
        "OpenSYCL nd_range : {:.2} (failures zeroed) / {:.2} (failures ignored)",
        pennycook(&opensycl_nd, false),
        pennycook(&opensycl_nd, true)
    );
    println!("\n(The paper's §4.4: a variant that fails anywhere scores PP̄ = 0 unless");
    println!(" failing platforms are excluded — CloverLeaf 2D only works with DPC++");
    println!(" nd_range on Genoa-X, and DPC++ does not target the Altra at all.)");
}
