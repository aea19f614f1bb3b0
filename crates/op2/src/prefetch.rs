//! Cache prefetch hints, shared by the edge loops and the colour
//! builders. A hint never changes a result, only when data arrives.

/// How many elements ahead, in execution order, a sweep prefetches
/// what the element will touch: an edge loop the vertex rows of its
/// bound args, a colour builder the colour masks of the targets.
pub(crate) const DISTANCE: usize = 16;

/// Hint the cache to fetch the line holding `addr`.
pub(crate) use parkit::mem::prefetch as line;

/// Hint the cache to fetch `items[i]`.
#[inline(always)]
pub(crate) fn slot<T>(items: &[T], i: usize) {
    line(items.as_ptr().wrapping_add(i) as usize);
}
