//! A counting global allocator behind a read-mostly enable flag.
//!
//! `db_bytes_per_xml_byte` needs the live heap a `Database` owns, measured by
//! the allocator itself rather than modelled.  A process-wide counter that
//! two ingest threads bump on every allocation would bounce a cache line
//! inside the timed windows, so counting is off by default and switched on
//! only for the untimed memory round: while off, an allocation pays one
//! relaxed load of a flag nobody writes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// Net bytes allocated minus freed while counting was on.  Signed: memory
/// allocated before the window and freed inside it counts negative.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

pub struct CountingAlloc;

#[inline]
fn add(bytes: isize) {
    // Relaxed: both are statistics that publish no other memory; the window
    // is opened and closed by the one thread that also reads the total,
    // after the build's worker threads have been joined.
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_add(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged and only adjusts a
// counter, so the allocator contract is exactly `System`'s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds the layout contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            add(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as isize));
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds the layout contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            add(layout.size() as isize);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator and the
        // caller upholds the resize contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            add(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Runs `build` with counting on and returns its value with the net bytes
/// it left allocated.  Call from one thread at a time, outside timed windows.
pub fn count_live_bytes<T>(build: impl FnOnce() -> T) -> (T, usize) {
    LIVE.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let value = build();
    COUNTING.store(false, Ordering::Relaxed);
    let live = LIVE.load(Ordering::Relaxed);
    (value, live.max(0) as usize)
}
