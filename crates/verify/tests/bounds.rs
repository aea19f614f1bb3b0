//! An access past a field's allocation under an attached verifier
//! panics naming the field, in release builds too, instead of reading
//! out of bounds.
//!
//! The fixture panics inside a loop, so it has this test binary to
//! itself: no other test shares its process or its pool.

use ops_dsl::prelude::*;
use sycl_sim::{PlatformId, Session, SessionConfig, Toolchain};
use verify::Verifier;

#[test]
#[should_panic(expected = "k_probe: ")]
fn a_read_past_a_2d_dat_panics_naming_the_dat() {
    let s = Session::create(
        SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app("fixture_bounds"),
    )
    .unwrap();
    let block = Block::new_2d(8, 8, 1);
    let _v = Verifier::attach(&s);
    let mut a = Dat::<f64>::zeroed(&block, "k_probe");
    let mut b = Dat::<f64>::zeroed(&block, "b");
    a.fill_with(|i, j, _| (i + j) as f64);
    let bm = b.meta();
    let r = a.reader();
    let w = b.writer();
    // A 2-D dat holds one z-plane: `k = 1` lies past its allocation.
    ParLoop::new("read_past_k", block.interior())
        .read(a.meta(), Stencil::point())
        .write(bm)
        .run(&s, |tile| {
            for (i, j, _) in tile.iter() {
                w.set(i, j, 0, r.at(i, j, 1));
            }
        });
}
