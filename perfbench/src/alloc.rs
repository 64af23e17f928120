//! Counting global allocator: allocation events, live heap bytes and
//! the live-heap high-water mark.
//!
//! The benchmark measures one call at a time on one thread, so the
//! counters are plain relaxed atomics and the high-water mark is a
//! load-compare-store rather than a read-modify-write loop.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Wraps [`System`], counting every `alloc`/`realloc` call and tracking
/// live bytes.
pub struct Counting;

static EVENTS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

fn shrink(bytes: u64) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the bookkeeping around
// the call only touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            EVENTS.fetch_add(1, Relaxed);
            grow(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by
        // `System`, with this `layout` (the caller's contract).
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller guarantees `ptr` came
        // from this allocator (hence `System`) with `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            EVENTS.fetch_add(1, Relaxed);
            shrink(layout.size() as u64);
            grow(new_size as u64);
        }
        p
    }
}

/// Allocation figures of one measured region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Usage {
    /// `alloc` + `realloc` calls.
    pub events: u64,
    /// Peak live heap above the live heap at the region's start.
    pub peak_bytes: u64,
}

/// Allocation events so far, for regions that enclose other regions
/// and so cannot read a peak of their own.
pub fn events() -> u64 {
    EVENTS.load(Relaxed)
}

/// Marks the start of a region: the high-water mark is reset to the
/// current live heap, so [`Region::end`] sees only this region's peak.
/// Regions therefore must not nest.
pub struct Region {
    events: u64,
    live: u64,
}

impl Region {
    pub fn start() -> Region {
        let live = LIVE.load(Relaxed);
        PEAK.store(live, Relaxed);
        Region {
            events: EVENTS.load(Relaxed),
            live,
        }
    }

    pub fn end(self) -> Usage {
        Usage {
            events: EVENTS.load(Relaxed) - self.events,
            peak_bytes: PEAK.load(Relaxed).saturating_sub(self.live),
        }
    }
}

/// Runs `f` as one region.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Usage) {
    let region = Region::start();
    let out = f();
    (out, region.end())
}
