//! Counting global allocator: live / peak bytes and allocation counts of
//! the whole process, switched on only in the repetitions that report heap
//! numbers so the timed repetitions pay one relaxed load per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

pub struct Counting;

// Statistics only: nothing is published through these, so `Relaxed`.
static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(size: usize) {
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer, unchanged; the counters beside the calls never touch the
// memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded contract (see the impl comment).
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ON.load(Relaxed) {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && ON.load(Relaxed) {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Heap counters since [`enable`].
#[derive(Clone, Copy, Debug, Default)]
pub struct HeapStats {
    pub live_bytes: i64,
    pub peak_bytes: i64,
    pub alloc_count: u64,
    pub alloc_bytes: u64,
}

/// Start counting. Called before the repetition allocates anything it will
/// still hold later, so blocks freed afterwards were also counted when they
/// were allocated.
pub fn enable() {
    ON.store(true, Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Relaxed)
}

pub fn stats() -> HeapStats {
    HeapStats {
        live_bytes: LIVE.load(Relaxed),
        peak_bytes: PEAK.load(Relaxed),
        alloc_count: COUNT.load(Relaxed),
        alloc_bytes: BYTES.load(Relaxed),
    }
}
