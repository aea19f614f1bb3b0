//! Raw views: the one place a DSL field's memory is reached through a
//! pointer.
//!
//! A loop body runs on many pool lanes at once. Both DSLs hand it a
//! [`View`] per field: a `Copy + Sync` pointer, length and shadow id,
//! which the DSL's own view indexes through its geometry (a padded box
//! in OPS, rows of `dim` components in OP2).
//!
//! The mode parameter says how the view was built. A `View<T, Shared>`
//! comes from `&[T]` and only reads. A `View<T, Exclusive>` comes from
//! `&mut [T]` and also writes and adds: the exclusive borrow keeps any
//! other view of the field from existing, and the DSL's iteration
//! contract keeps the lanes apart. A body writes only the points its
//! unit owns, and an increment is either row-locked
//! ([`View::add_locked`]) or serialised by a colouring. A body must
//! not hold two overlapping spans from [`View::span_mut`] at once.
//!
//! An access to a field created under a shadow (`sid != 0`) hands its
//! span to [`shadow::record`]; any other access costs one `sid != 0`
//! branch. When a shadow records, the span is also checked against the
//! view's length in every build, and an access out of bounds panics
//! naming the field. Without a shadow the check runs in debug builds
//! only, and a release build relies on the DSL's ranges.

use std::marker::PhantomData;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicBool, Ordering};
use telemetry::shadow::{self, Touch};

/// The mode of a view built from `&[T]`: reads only.
#[derive(Debug, Clone, Copy)]
pub enum Shared {}

/// The mode of a view built from `&mut [T]`: reads, writes and adds.
#[derive(Debug, Clone, Copy)]
pub enum Exclusive {}

/// A linear view of one field's `len` elements, `Copy` so that
/// closures running on any lane can capture it.
pub struct View<'a, T, M> {
    ptr: *mut T,
    len: usize,
    sid: u32,
    _borrow: PhantomData<(&'a mut [T], M)>,
}

impl<T, M> Copy for View<'_, T, M> {}
impl<T, M> Clone for View<'_, T, M> {
    fn clone(&self) -> Self {
        *self
    }
}

// SAFETY: a view is a borrow of `len` live elements that outlive `'a`.
// Another thread may read them through a shared view (`T: Sync`), or
// write them through an exclusive one; those writes follow the
// disjoint-write contract in the module doc (`T: Send`). `len` and
// `sid` are plain values.
unsafe impl<T: Send + Sync, M> Send for View<'_, T, M> {}
// SAFETY: as for `Send`: every access through `&View` is a read, or a
// write the iteration contract keeps disjoint from every other lane's.
unsafe impl<T: Send + Sync, M> Sync for View<'_, T, M> {}

impl<'a, T> View<'a, T, Shared> {
    /// A read-only view of `data`, recording into dat `sid` (0: none).
    pub fn shared(data: &'a [T], sid: u32) -> Self {
        View {
            ptr: data.as_ptr().cast_mut(),
            len: data.len(),
            sid,
            _borrow: PhantomData,
        }
    }
}

impl<'a, T> View<'a, T, Exclusive> {
    /// A read-write view of `data`, recording into dat `sid` (0: none).
    pub fn exclusive(data: &'a mut [T], sid: u32) -> Self {
        View {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            sid,
            _borrow: PhantomData,
        }
    }
}

impl<T: Copy, M> View<'_, T, M> {
    /// The address of the first element (a prefetcher's base).
    pub fn addr(&self) -> usize {
        self.ptr as usize
    }

    /// The number of elements viewed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view holds no element.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The field's registered name, for a diagnostic.
    pub fn name(&self) -> String {
        shadow::name_of(self.sid).unwrap_or_else(|| format!("dat #{}", self.sid))
    }

    /// Element `idx`.
    #[inline]
    pub fn read(&self, idx: usize) -> T {
        self.touch(idx, 1, Touch::Read);
        // SAFETY: `idx` is in bounds (see `touch`); no lane writes it
        // while the body reads it.
        unsafe { *self.ptr.add(idx) }
    }

    /// Elements `idx..idx + len`.
    #[inline]
    pub fn span(&self, idx: usize, len: usize) -> &[T] {
        self.touch(idx, len, Touch::Read);
        // SAFETY: the span is in bounds (see `touch`); no lane writes it
        // while the body reads it.
        unsafe { std::slice::from_raw_parts(self.ptr.add(idx), len) }
    }

    /// Record the access `idx..idx + len` and check its bounds: always
    /// while a shadow records, in debug builds otherwise. A release
    /// build without a shadow relies on the DSL's ranges, so the fast
    /// path is one branch.
    #[inline]
    fn touch(&self, idx: usize, len: usize, touch: Touch) {
        if self.sid != 0 {
            self.record(idx, len, touch);
        } else if cfg!(debug_assertions) {
            self.check(idx, len);
        }
    }

    /// The recording half of [`View::touch`], kept out of line so that
    /// an uninstrumented access stays one compare and an untaken call.
    #[inline(never)]
    fn record(&self, idx: usize, len: usize, touch: Touch) {
        self.check(idx, len);
        shadow::record(self.sid, idx, len, touch);
    }

    fn check(&self, idx: usize, len: usize) {
        if idx.checked_add(len).is_none_or(|end| end > self.len) {
            out_of_bounds(&self.name(), idx, len, self.len);
        }
    }
}

#[cold]
#[inline(never)]
fn out_of_bounds(name: &str, idx: usize, len: usize, elems: usize) -> ! {
    panic!(
        "{name}: span {idx}..{} is out of bounds of its {elems} elements",
        idx.saturating_add(len)
    )
}

impl<T: Copy> View<'_, T, Exclusive> {
    /// Store `v` at `idx`.
    #[inline]
    pub fn write(&self, idx: usize, v: T) {
        self.touch(idx, 1, Touch::Write);
        // SAFETY: `idx` is in bounds (see `touch`); only this lane's unit
        // touches it.
        unsafe { *self.ptr.add(idx) = v };
    }

    /// Elements `idx..idx + len`, which the body may both read and write.
    #[inline]
    #[allow(clippy::mut_from_ref)] // the view is the DSLs' sanctioned aliasing hole
    pub fn span_mut(&self, idx: usize, len: usize) -> &mut [T] {
        self.touch(idx, len, Touch::ReadWrite);
        // SAFETY: the span is in bounds (see `touch`); it belongs to this
        // lane's unit, and the body holds no other span overlapping it.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(idx), len) }
    }
}

impl<T: Copy + AddAssign> View<'_, T, Exclusive> {
    /// `self[at + c] += v[c]` in component order, with plain adds: the
    /// caller's schedule (a colouring) keeps every other lane off these
    /// elements.
    #[inline]
    pub fn add<const N: usize>(&self, at: usize, v: &[T; N]) {
        // A plain increment is a read-modify-write: record both sides
        // so overlap between concurrent units surfaces.
        self.touch(at, N, Touch::ReadWrite);
        self.add_unrecorded(at, v);
    }

    /// `self[at + c] += v[c]` in component order, holding the stripe
    /// lock of the row that starts at element `row`. Every atomic add
    /// to that row takes the same lock, so the adds never race.
    ///
    /// A model prices an atomic increment as one FP atomic or CAS
    /// update per component; the host runs one locked operation per
    /// row instead of one CAS loop per component.
    #[inline]
    pub fn add_locked<const N: usize>(&self, row: usize, at: usize, v: &[T; N]) {
        self.touch(at, N, Touch::Atomic);
        let lock = self.row_lock(row);
        if lock.swap(true, Ordering::Acquire) {
            acquire_contended(lock);
        }
        self.add_unrecorded(at, v);
        lock.store(false, Ordering::Release);
    }

    /// The stripe lock of the row that starts at element `row`.
    #[inline(always)]
    fn row_lock(&self, row: usize) -> &'static AtomicBool {
        stripe(self.ptr.wrapping_add(row) as usize)
    }

    #[inline]
    fn add_unrecorded<const N: usize>(&self, at: usize, v: &[T; N]) {
        // SAFETY: the span is in bounds (see the caller's `touch`), and
        // the row lock or the colouring keeps every other lane off it.
        let dst = unsafe { &mut *self.ptr.add(at).cast::<[T; N]>() };
        for (d, &x) in dst.iter_mut().zip(v) {
            *d += x;
        }
    }
}

/// log2 of the number of row-lock stripes.
const STRIPE_BITS: u32 = 16;

/// One-byte locks that serialise atomic-mode increments (64 KiB, shared
/// by every dat in the process). A row takes the stripe its address
/// hashes to, so rows of any dat can share a stripe, which only costs
/// an occasional wait.
static STRIPES: [AtomicBool; 1 << STRIPE_BITS] =
    [const { AtomicBool::new(false) }; 1 << STRIPE_BITS];

/// Spins on a held stripe before a waiter starts yielding its core: with
/// more threads than cores, a holder descheduled mid-row must not stall
/// a spinner for a whole timeslice.
const SPINS_BEFORE_YIELD: u32 = 64;

/// The stripe lock of the row whose first element sits at address
/// `row`: a Fibonacci hash of the address picks it. [`View::add_locked`]
/// and [`prefetch_row_lock`] both name a stripe through it, so the lock
/// a prefetch warms is the one the add takes.
#[inline(always)]
fn stripe(row: usize) -> &'static AtomicBool {
    let hash = (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    &STRIPES[(hash >> (64 - STRIPE_BITS)) as usize]
}

/// Prefetch, for write, the stripe lock that [`View::add_locked`] takes
/// for the row whose first element sits at address `row` (the view's
/// [`View::addr`] plus the row's byte offset). An edge loop issues it a
/// few edges ahead, so the lock's line is in this core's cache when the
/// add swaps it.
#[inline(always)]
pub fn prefetch_row_lock(row: usize) {
    crate::mem::prefetch_write(stripe(row) as *const AtomicBool as usize);
}

/// Wait for a held stripe and take it: spin while it stays held, then
/// yield the core between polls.
#[cold]
#[inline(never)]
fn acquire_contended(lock: &AtomicBool) {
    let mut spins = 0;
    loop {
        while lock.load(Ordering::Relaxed) {
            if spins < SPINS_BEFORE_YIELD {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        if !lock.swap(true, Ordering::Acquire) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_alias_the_viewed_elements() {
        let mut data = [1.0f64, 2.0, 3.0, 4.0];
        let w = View::exclusive(&mut data, 0);
        w.write(0, 5.0);
        w.span_mut(1, 2).copy_from_slice(&[6.0, 7.0]);
        w.add(2, &[0.5, 1.0]);
        w.add_locked(0, 1, &[1.0]);
        assert_eq!(w.span(0, 4), &[5.0, 7.0, 7.5, 5.0]);
        assert_eq!(View::shared(&data, 0).read(3), 5.0);
    }

    /// A prefetcher names a row by its address, `addr() + row * size`;
    /// `add_locked` by its first element. Both must reach one stripe,
    /// for rows of dats of either element size.
    #[test]
    fn a_row_lock_prefetch_names_the_stripe_add_locked_takes() {
        fn check<T: Copy + AddAssign>(data: &mut [T], dim: usize) {
            let v = View::exclusive(data, 0);
            for e in 0..v.len() / dim {
                let row = e * dim;
                let addr = v.addr() + row * std::mem::size_of::<T>();
                assert!(std::ptr::eq(v.row_lock(row), stripe(addr)), "row {e}");
            }
        }
        check(&mut [0.0f64; 5 * 64], 5);
        check(&mut [0.0f32; 3 * 64], 3);
    }

    /// No `cfg(debug_assertions)`: a recording view checks every build.
    #[test]
    #[should_panic(expected = "dat #7: span 3..7 is out of bounds of its 4 elements")]
    fn a_span_past_the_end_panics_while_a_shadow_records() {
        let data = [0.0f64; 4];
        View::shared(&data, 7).span(3, 4);
    }
}
