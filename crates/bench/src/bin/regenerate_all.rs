//! One-command reproduction: price the paper's cross-product once and
//! write every table, figure, in-text aggregate, ablation and the CSV
//! into `results/` (see `bench_harness::artifacts` for the file map).
//!
//!     cargo run --release -p bench-harness --bin regenerate_all [outdir]

use std::fs;
use std::path::PathBuf;

fn main() -> std::io::Result<()> {
    let outdir = PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| "results".into()));
    fs::create_dir_all(&outdir)?;
    let table = portability::paper_measurements();
    for (name, content) in bench_harness::artifacts(&table) {
        let path = outdir.join(name);
        fs::write(&path, content)?;
        println!("wrote {}", path.display());
    }
    println!("\nAll artifacts regenerated into {}/", outdir.display());
    Ok(())
}
