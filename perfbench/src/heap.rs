//! Live heap accounting: the benchmark's global allocator forwards to
//! the system allocator and counts the bytes the process holds, so a
//! run can read the most heap one operation needed.
//!
//! The peak is reset before each timed operation and read after it; the
//! workloads report the mean over operations. Unlike the resident set
//! size, this does not depend on how much freed memory the allocator
//! kept from earlier, larger inputs, nor on which input of a run's pool
//! happened to be the largest.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

pub struct Counting;

// Relaxed throughout: the counters are statistics read by the single
// client thread between operations, when every worker of the operation
// has finished.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Bytes a thread allocates or frees before it folds them into the
/// shared counters. Updating a shared counter on every allocation slowed
/// 2-thread inference by a fifth; batching keeps the shared cache lines
/// off the allocation path and bounds a reading's error to this much
/// per thread.
const BATCH: isize = 64 * 1024;

/// A thread's unfolded count, folded in when the thread exits (worker
/// pools come and go with the systems a run builds), so the shared
/// count does not drift.
struct Pending(Cell<isize>);

impl Drop for Pending {
    fn drop(&mut self) {
        fold(self.0.replace(0));
    }
}

thread_local! {
    // const-initialised: reading it never allocates; its destructor is
    // registered with the C runtime, outside this allocator
    static PENDING: Pending = const { Pending(Cell::new(0)) };
}

fn fold(delta: isize) {
    if delta != 0 {
        let live = LIVE.fetch_add(delta, Relaxed) + delta;
        // the common case reads the peak without writing its cache line
        if live > PEAK.load(Relaxed) {
            PEAK.fetch_max(live, Relaxed);
        }
    }
}

fn count(delta: isize) {
    // after the thread's destructor ran, count directly
    let full = PENDING
        .try_with(|p| {
            let v = p.0.get() + delta;
            let full = v.abs() >= BATCH;
            p.0.set(if full { 0 } else { v });
            if full {
                v
            } else {
                0
            }
        })
        .unwrap_or(delta);
    fold(full);
}

fn grew(n: usize) {
    count(n as isize);
}

fn shrank(n: usize) {
    count(-(n as isize));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adjusts the counters afterwards.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => shrank(layout.size() - new_size),
            }
        }
        p
    }
}

/// Starts a new peak window at the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// The most live heap since the last [`reset_peak`], in MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed).max(0) as f64 / (1024.0 * 1024.0)
}

/// Times `f` and records the heap peak it reached: returns its result
/// and its wall time in seconds, and pushes the peak onto `peaks_mb`.
pub fn measured<T>(peaks_mb: &mut Vec<f64>, f: impl FnOnce() -> T) -> (T, f64) {
    reset_peak();
    let t0 = std::time::Instant::now();
    let out = f();
    let dt = t0.elapsed().as_secs_f64();
    peaks_mb.push(peak_mb());
    (out, dt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_allocation_inside_the_window_counts_towards_its_peak() {
        let mut peaks = Vec::new();
        let (len, _) = measured(&mut peaks, || {
            let mut v = vec![1u8; 4 << 20];
            v.extend_from_slice(&[2u8; 4 << 20]);
            v.len()
        });
        assert_eq!(len, 8 << 20);
        // other tests may allocate concurrently, which only adds
        assert!(peaks[0] >= 8.0, "{peaks:?}");
    }
}
