//! Heap allocations of one dry-run paper cell, pinned under a bound.
//!
//! A dry cell records launch graphs, replays them and prices them; it
//! runs no kernel body. What it allocates is what its prices need: the
//! recorded kernels, their access lists and the plans. A boxed body per
//! launch, or a kernel name copied per launch, shows up here as a
//! count far over the bound.
//!
//! The counting allocator counts per thread, so the tests this binary
//! runs in parallel cannot disturb each other's counts.

use miniapps::{OpenSbli, SbliVariant};
use portability::{measure_mgcfd, measure_structured, StudyVariant};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use sycl_sim::{PlatformId, Scheme, Toolchain};

/// The system allocator, counting the allocations of each thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread's allocations during its own teardown go
    // uncounted instead of panicking.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so the caller's `GlobalAlloc` contract is exactly `System`'s; the
// counter is a const-initialised thread-local `Cell` that allocates
// nothing, so counting cannot recurse into the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) the calling thread makes in `f`.
/// `f` runs once before counting, so lazily built tables are not
/// charged to the cell.
fn allocs_of(f: impl Fn()) -> u64 {
    f();
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const NATIVE: StudyVariant = StudyVariant {
    toolchain: Toolchain::NativeCuda,
    nd_range: false,
};

#[test]
fn a_dry_opensbli_store_all_cell_allocates_under_the_bound() {
    // A boxed body and two copies of the name per recorded launch took
    // this cell 940 allocations.
    const BOUND: u64 = 500;
    let app = OpenSbli::paper(SbliVariant::StoreAll);
    let n = allocs_of(|| {
        measure_structured(&app, PlatformId::A100, NATIVE)
            .runtime
            .expect("OpenSBLI SA prices on A100");
    });
    assert!(
        n <= BOUND,
        "OpenSBLI SA dry cell on A100: {n} allocations > {BOUND}"
    );
}

#[test]
fn a_dry_mgcfd_cell_allocates_under_the_bound() {
    // Global colouring records one launch per colour pass: a boxed body
    // and a copied name per pass took this cell 175 allocations.
    const BOUND: u64 = 100;
    let n = allocs_of(|| {
        measure_mgcfd(PlatformId::A100, NATIVE, Scheme::GlobalColor)
            .runtime
            .expect("MG-CFD prices on A100");
    });
    assert!(
        n <= BOUND,
        "MG-CFD dry cell on A100: {n} allocations > {BOUND}"
    );
}
