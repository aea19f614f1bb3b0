//! Property tests for the colouring plans a verified edge loop checks:
//! colourings built from random meshes must always be conflict-free
//! (every `first_*_conflict` finds nothing), and the §4.3
//! bytes-per-wave model must preserve the paper's scheme ordering on
//! the Rotor37 mesh.

use op2_dsl::{EdgeLoop, GlobalColoring, HierColoring, Mesh, MeshStats, Ordering};
use sycl_sim::{Precision, Scheme};

/// Seeded xorshift64* — deterministic across runs, no external RNG.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[test]
fn random_meshes_always_colour_conflict_free() {
    let mut rng = XorShift::new(0x5EED_CAFE_F00D);
    for trial in 0..40 {
        let ni = 2 + (rng.next_u64() % 7) as usize;
        let nj = 2 + (rng.next_u64() % 7) as usize;
        let nk = 1 + (rng.next_u64() % 4) as usize;
        let ordering = if rng.next_u64().is_multiple_of(2) {
            Ordering::Natural
        } else {
            Ordering::Shuffled(rng.next_u64())
        };
        let mesh = Mesh::grid(ni, nj, nk, ordering);

        let g = GlobalColoring::build(&mesh.edges);
        assert_eq!(
            g.first_conflict(&mesh.edges),
            None,
            "trial {trial} ({ni}x{nj}x{nk}): global colouring invalid"
        );

        let block_size = 1 + (rng.next_u64() % 16) as usize;
        let h = HierColoring::build(&mesh.edges, block_size);
        assert_eq!(
            h.first_block_conflict(&mesh.edges),
            None,
            "trial {trial} (bs {block_size}): block colouring invalid"
        );
        assert_eq!(
            h.first_intra_conflict(&mesh.edges),
            None,
            "trial {trial} (bs {block_size}): intra-block colouring invalid"
        );
    }
}

#[test]
fn bytes_per_wave_preserves_the_papers_scheme_ordering() {
    // §4.3 on the MI250X: atomics gather the fewest DRAM bytes per
    // 64-item wave, hierarchical colouring more, global colouring the
    // most (3 500 / 8 600 / 39 000 B measured).
    let stats = MeshStats::rotor37();
    let bpw = |s: Scheme| {
        EdgeLoop::new("flux", stats, s, Precision::F64)
            .vertex_read(5)
            .vertex_inc(5)
            .bytes_per_wave(64.0)
    };
    let atomics = bpw(Scheme::Atomics);
    let hier = bpw(Scheme::HierColor);
    let global = bpw(Scheme::GlobalColor);
    assert!(
        atomics < hier && hier < global,
        "ordering must be atomics < hierarchical < global: {atomics} {hier} {global}"
    );
}
