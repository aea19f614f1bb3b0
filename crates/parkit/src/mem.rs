//! Page advice and cache hints for the DSLs' large host buffers.
//!
//! A field reached at random (MG-CFD's shuffled gathers) misses the TLB
//! on nearly every row when it sits on 4 KiB pages, and a fresh mapping
//! takes one fault per 4 KiB on first touch. [`advise_huge_pages`] asks
//! the kernel to back a buffer's whole 2 MiB pages with transparent huge
//! pages instead. It is a hint: contents never change, a kernel with
//! THP set to `never` keeps 4 KiB pages, and buffers too small to hold
//! one aligned 2 MiB page issue no system call at all.
//!
//! [`prefetch`] asks the cache for one line ahead of a gather; like the
//! page advice, it never changes a result, only when data arrives.

use std::ops::Range;

/// The transparent huge page size on x86-64 and 4 KiB-page aarch64.
const HUGE_PAGE: usize = 2 << 20;

/// The whole `HUGE_PAGE`-aligned pages inside `[addr, addr + len)`: the
/// range rounded inward to huge-page boundaries, or `None` when that
/// leaves no whole page.
fn huge_range(addr: usize, len: usize) -> Option<Range<usize>> {
    let mask = !(HUGE_PAGE - 1);
    let start = addr.checked_add(HUGE_PAGE - 1)? & mask;
    let end = addr.checked_add(len)? & mask;
    (end > start).then_some(start..end)
}

/// Advise transparent huge pages for the whole 2 MiB pages of `buf`.
/// Call it before the buffer's first touch, so the faults that map it
/// already take huge pages. Returns whether advice was given, which is
/// `false` for any buffer under 2 MiB.
pub fn advise_huge_pages<T>(buf: &mut [T]) -> bool {
    match huge_range(buf.as_mut_ptr() as usize, std::mem::size_of_val(buf)) {
        Some(range) => {
            madvise_hugepage(range);
            true
        }
        None => false,
    }
}

#[cfg(target_os = "linux")]
fn madvise_hugepage(range: Range<usize>) {
    use std::ffi::{c_int, c_void};
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    /// `<asm-generic/mman-common.h>`.
    const MADV_HUGEPAGE: c_int = 14;
    // SAFETY: `range` was rounded inward, so it lies inside a live,
    // exclusively borrowed buffer and touches no other allocation, and
    // it starts on a huge-page (hence page) boundary, as `madvise` requires.
    // `MADV_HUGEPAGE` only changes how the kernel backs the range; it
    // never changes memory contents. Advice that discards contents
    // (`MADV_DONTNEED`, `MADV_FREE`) must never be used here. The return
    // value is ignored: a refused hint leaves 4 KiB pages, nothing else.
    unsafe {
        madvise(range.start as *mut c_void, range.len(), MADV_HUGEPAGE);
    }
}

#[cfg(not(target_os = "linux"))]
fn madvise_hugepage(_range: Range<usize>) {}

/// Hint the cache to fetch the line holding `addr`.
#[inline(always)]
pub fn prefetch(addr: usize) {
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

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: usize = 1 << 20;

    #[test]
    fn an_empty_buffer_holds_no_huge_page() {
        assert_eq!(huge_range(0, 0), None);
        assert_eq!(huge_range(HUGE_PAGE, 0), None);
        assert_eq!(huge_range(HUGE_PAGE + 8, 0), None);
    }

    #[test]
    fn a_buffer_under_two_mib_holds_none_wherever_it_starts() {
        for addr in [0, 16, 4096, HUGE_PAGE - 8, HUGE_PAGE, 3 * HUGE_PAGE + 4096] {
            assert_eq!(huge_range(addr, HUGE_PAGE - 1), None, "at {addr:#x}");
            assert_eq!(huge_range(addr, 40), None, "at {addr:#x}");
        }
    }

    #[test]
    fn an_unaligned_buffer_rounds_inward() {
        // Starts 16 B past a boundary, ends 16 B past the third one.
        let addr = HUGE_PAGE + 16;
        assert_eq!(
            huge_range(addr, 3 * HUGE_PAGE),
            Some(2 * HUGE_PAGE..4 * HUGE_PAGE)
        );
        // Straddles one boundary by less than a page on each side.
        assert_eq!(huge_range(HUGE_PAGE + 16, HUGE_PAGE), None);
    }

    #[test]
    fn an_aligned_multiple_is_taken_whole() {
        assert_eq!(
            huge_range(4 * HUGE_PAGE, 3 * HUGE_PAGE),
            Some(4 * HUGE_PAGE..7 * HUGE_PAGE)
        );
        assert_eq!(
            huge_range(HUGE_PAGE, HUGE_PAGE),
            Some(HUGE_PAGE..2 * HUGE_PAGE)
        );
    }

    #[test]
    fn four_mib_or_more_always_holds_a_huge_page() {
        for addr in (0..2 * HUGE_PAGE).step_by(HUGE_PAGE / 8 + 8) {
            let r = huge_range(addr, 4 * MIB).expect("4 MiB holds a whole 2 MiB page");
            assert!(r.start >= addr && r.end <= addr + 4 * MIB);
            assert_eq!(r.start % HUGE_PAGE, 0);
            assert_eq!(r.len() % HUGE_PAGE, 0);
        }
        assert_eq!(huge_range(usize::MAX - MIB, 4 * MIB), None, "no overflow");
    }

    #[test]
    fn a_dry_cell_sized_dat_is_not_advised() {
        // MG-CFD's dry cells allocate 1 x 5 fields.
        let mut dat = vec![0.0f64; 5];
        assert!(!advise_huge_pages(&mut dat));
        assert!(!advise_huge_pages(&mut [0u8; 0]));
    }

    #[test]
    fn advice_keeps_the_contents() {
        let mut zeroed = vec![0.0f64; 5 * MIB / 8];
        assert!(advise_huge_pages(&mut zeroed));
        assert!(zeroed.iter().all(|&v| v == 0.0));
        let mut filled: Vec<u64> = (0..(5 * MIB / 8) as u64).collect();
        assert!(advise_huge_pages(&mut filled));
        assert!(filled.iter().enumerate().all(|(i, &v)| v == i as u64));
    }
}
