//! The counting global allocator the allocation tests install (hand-rolled;
//! no crates.io access). It wraps the system allocator and counts every
//! `alloc`/`realloc`/`alloc_zeroed` twice: process-wide in atomics, for the
//! tests that free across threads, and per thread in a const-initialized
//! cell, for counts that another thread's allocations must not disturb.
//!
//! A test crate declares `mod counting;` and installs it with
//! `#[global_allocator] static ALLOCATOR: counting::CountingAlloc = counting::CountingAlloc;`.
// Each test crate that includes the module reads a part of its counters.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

pub struct CountingAlloc;

pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, as requested (not as the system
/// allocator rounds them).
pub static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The largest `LIVE` since it was last reset.
pub static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Allocations and frees of exactly `WATCHED` bytes (0: none watched).
pub static WATCHED: AtomicUsize = AtomicUsize::new(0);
pub static WATCHED_ALLOCS: AtomicU64 = AtomicU64::new(0);
pub static WATCHED_FREES: AtomicU64 = AtomicU64::new(0);

/// One thread's counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadCounts {
    /// Allocations, a `realloc` included.
    pub allocs: u64,
    /// Bytes those allocations asked for (a `realloc`: its new size).
    pub bytes: u64,
    /// Bytes this thread allocated and not yet freed, less what it freed of
    /// other threads' allocations.
    pub live: i64,
    /// The largest `live` since [`reset_thread_peak`].
    pub peak: i64,
}

thread_local! {
    /// The current thread's counts (const-initialized: no allocation or
    /// destructor of its own).
    static THREAD: Cell<ThreadCounts> =
        const { Cell::new(ThreadCounts { allocs: 0, bytes: 0, live: 0, peak: 0 }) };
}

/// The current thread's counts so far.
pub fn thread_counts() -> ThreadCounts {
    THREAD.with(Cell::get)
}

/// Restart the current thread's peak at its live bytes now.
pub fn reset_thread_peak() {
    THREAD.with(|c| c.set(ThreadCounts { peak: c.get().live, ..c.get() }));
}

fn count_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    THREAD.with(|c| {
        let t = c.get();
        c.set(ThreadCounts { allocs: t.allocs + 1, bytes: t.bytes + size as u64, ..t });
    });
    if size == WATCHED.load(Ordering::Relaxed) {
        WATCHED_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
    THREAD.with(|c| {
        let t = c.get();
        let live = t.live + bytes as i64;
        c.set(ThreadCounts { live, peak: t.peak.max(live), ..t });
    });
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
    THREAD.with(|c| c.set(ThreadCounts { live: c.get().live - bytes as i64, ..c.get() }));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if layout.size() == WATCHED.load(Ordering::Relaxed) {
            WATCHED_FREES.fetch_add(1, Ordering::Relaxed);
        }
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }
}
