//! MPI-style Cartesian decomposition and halo-exchange accounting.
//!
//! OPS decomposes a block over MPI ranks with a standard Cartesian grid.
//! Functionally our fields live in one address space, so an exchange is a
//! no-op; its *cost* (message latency + copied bytes) is charged to the
//! session's clock — on CPU platforms this is what separates pure-MPI
//! from MPI+OpenMP (fewer, fatter ranks ⇒ less halo traffic).

use crate::block::Block;
use sycl_sim::Session;

/// A rank decomposition of a block, plus per-exchange volumes.
#[derive(Debug, Clone, Copy)]
pub struct HaloPlan {
    /// Rank grid (px, py, pz).
    pub grid: [usize; 3],
    /// Bytes moved per exchanged dataset per exchange (both directions,
    /// all faces, all ranks).
    pub bytes_per_dat: f64,
    /// Point-to-point messages per exchange.
    pub messages: u64,
}

impl HaloPlan {
    /// Decompose `block` over `ranks` ranks (near-cubic rank grid) with
    /// halos of `depth` layers of `elem_bytes`-wide elements.
    pub fn new(block: &Block, ranks: usize, depth: usize, elem_bytes: f64) -> Self {
        let grid = rank_grid(block, ranks.max(1));
        let [nx, ny, nz] = block.dims.map(|d| d as f64);
        let d = depth as f64;
        // Internal cut planes per dimension × their area × halo depth,
        // exchanged in both directions.
        let cuts_x = (grid[0] - 1) as f64 * ny * nz;
        let cuts_y = (grid[1] - 1) as f64 * nx * nz;
        let cuts_z = (grid[2] - 1) as f64 * nx * ny;
        let bytes_per_dat = 2.0 * d * elem_bytes * (cuts_x + cuts_y + cuts_z);
        // Each rank messages each touching neighbour (up to 2 per dim).
        let neighbours = (0..3)
            .map(|i| if grid[i] > 1 { 2u64 } else { 0 })
            .sum::<u64>();
        let messages = ranks as u64 * neighbours;
        HaloPlan {
            grid,
            bytes_per_dat,
            messages,
        }
    }

    /// Build a plan matching the session's rank count.
    pub fn for_session(block: &Block, session: &Session, depth: usize, elem_bytes: f64) -> Self {
        HaloPlan::new(block, session.ranks(), depth, elem_bytes)
    }

    /// Charge one exchange of `n_dats` datasets to the session clock.
    pub fn exchange(&self, session: &Session, n_dats: usize) {
        if self.bytes_per_dat > 0.0 {
            session.exchange(self.bytes_per_dat * n_dats as f64, self.messages);
        }
    }

    /// Record one exchange into a launch graph, declaring *which*
    /// datasets it refreshes so the static dataflow lint can prove
    /// halo-read coverage. Charges exactly what [`HaloPlan::exchange`]
    /// charges for `dats.len()` datasets, including the zero-volume
    /// guard, so eager and replayed ledgers stay bit-identical.
    pub fn record_exchange_for(&self, g: &mut sycl_sim::GraphBuilder<'_>, dats: &[crate::DatMeta]) {
        if self.bytes_per_dat > 0.0 {
            g.exchange_dats(
                self.bytes_per_dat * dats.len() as f64,
                self.messages,
                dats.iter().map(|m| m.id).collect(),
            );
        }
    }
}

/// Near-cubic factorisation of `ranks` honouring block dimensionality.
fn rank_grid(block: &Block, ranks: usize) -> [usize; 3] {
    let dims = if block.is_3d() { 3 } else { 2 };
    let mut best = [ranks, 1, 1];
    let mut best_cost = f64::INFINITY;
    let [nx, ny, nz] = block.dims.map(|d| d as f64);
    for px in 1..=ranks {
        if !ranks.is_multiple_of(px) {
            continue;
        }
        let rest = ranks / px;
        for py in 1..=rest {
            if !rest.is_multiple_of(py) {
                continue;
            }
            let pz = rest / py;
            if dims == 2 && pz != 1 {
                continue;
            }
            // Communication surface proxy.
            let cost =
                (px - 1) as f64 * ny * nz + (py - 1) as f64 * nx * nz + (pz - 1) as f64 * nx * ny;
            if cost < best_cost {
                best_cost = cost;
                best = [px, py, pz];
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_sim::{PlatformId, SessionConfig, Toolchain};

    #[test]
    fn rank_grid_multiplies_back_and_respects_dimensionality() {
        let b2 = Block::new_2d(1000, 1000, 2);
        for ranks in [1usize, 2, 4, 8, 12, 64, 72] {
            let g = rank_grid(&b2, ranks);
            assert_eq!(g[0] * g[1] * g[2], ranks);
            assert_eq!(g[2], 1, "2-D blocks only split in x/y");
        }
        let b3 = Block::new_3d(100, 100, 100, 2);
        let g = rank_grid(&b3, 64);
        assert_eq!(g[0] * g[1] * g[2], 64);
        assert!(g.iter().all(|&p| p > 1), "64 ranks on a cube go 4×4×4");
    }

    #[test]
    fn single_rank_has_no_traffic() {
        let b = Block::new_2d(100, 100, 2);
        let plan = HaloPlan::new(&b, 1, 2, 8.0);
        assert_eq!(plan.bytes_per_dat, 0.0);
        assert_eq!(plan.messages, 0);
    }

    #[test]
    fn more_ranks_exchange_more_bytes() {
        let b = Block::new_3d(320, 320, 320, 2);
        let few = HaloPlan::new(&b, 2, 2, 8.0);
        let many = HaloPlan::new(&b, 64, 2, 8.0);
        assert!(many.bytes_per_dat > few.bytes_per_dat);
        assert!(many.messages > few.messages);
    }

    #[test]
    fn exchange_charges_mpi_sessions_only() {
        let b = Block::new_2d(1000, 1000, 2);
        let mpi = Session::create(
            SessionConfig::new(PlatformId::Xeon8360Y, Toolchain::Mpi).app("halo-test"),
        )
        .unwrap();
        let plan = HaloPlan::for_session(&b, &mpi, 2, 8.0);
        plan.exchange(&mpi, 4);
        assert!(mpi.comm_time() > 0.0);

        let gpu = Session::create(
            SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app("halo-test"),
        )
        .unwrap();
        let plan = HaloPlan::for_session(&b, &gpu, 2, 8.0);
        plan.exchange(&gpu, 4);
        assert_eq!(gpu.comm_time(), 0.0);
    }

    #[test]
    fn halo_volume_scales_with_depth_and_elem_size() {
        let b = Block::new_2d(512, 512, 4);
        let thin = HaloPlan::new(&b, 4, 1, 4.0);
        let thick = HaloPlan::new(&b, 4, 4, 8.0);
        assert!((thick.bytes_per_dat / thin.bytes_per_dat - 8.0).abs() < 1e-9);
    }
}
