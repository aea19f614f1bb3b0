//! Cache prefetch hints, shared by the edge loops and the colour
//! builders. A hint never changes a result, only when data arrives.

/// How many elements ahead, in execution order, a sweep prefetches
/// what the element will touch: an edge loop the vertex rows of its
/// bound args, a colour builder the colour masks of the targets.
pub(crate) const DISTANCE: usize = 16;

/// Hint the cache to fetch the line holding `addr`.
#[inline(always)]
pub(crate) fn line(addr: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is only a hint: it never faults, reads nothing
    // into the program and has no effect on its semantics, whatever the
    // address (a stale one merely wastes the hint).
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(addr as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = addr;
}

/// Hint the cache to fetch `items[i]`.
#[inline(always)]
pub(crate) fn slot<T>(items: &[T], i: usize) {
    line(items.as_ptr().wrapping_add(i) as usize);
}
