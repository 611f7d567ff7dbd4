//! # rayon — offline stand-in
//!
//! This workspace builds in a hermetic environment with no crates-io
//! access (see `crates/compat/rand`), so the slice of the `rayon` API
//! that `onion-exec` needs is vendored here behind the same paths:
//!
//! * [`ThreadPool`] / [`ThreadPoolBuilder`] — an explicit thread count;
//! * [`ThreadPool::par_chunk_map`] — the `par_chunks().map().collect()`
//!   shape as a single helper (the real `ParallelIterator` machinery is
//!   far outside stand-in scope).
//!
//! Nothing else of rayon is here: no global pool, no `scope`, no
//! `install`, no `join`, no free functions.
//!
//! # What is simplified
//!
//! Real rayon keeps persistent workers with work-stealing deques. This
//! stand-in keeps no threads at all: a [`ThreadPool`] is a thread
//! count, and each `par_chunk_map` call with more than one chunk runs
//! on [`std::thread::scope`] — the caller plus up to `threads − 1`
//! scoped helpers that end with the call, all taking the next chunk
//! from one shared counter. A call with one chunk, or any call on a
//! one-thread pool, runs inline on the caller and spawns nothing: the
//! deterministic sequential baseline the benches compare against. The
//! callers fan out once per query batch or inference round, so a
//! helper's start (tens of microseconds) is paid per call rather than
//! once per pool.
//!
//! Swapping this crate for crates-io rayon is a manifest edit plus
//! replacing `par_chunk_map` calls with `par_chunks().map().collect()`.

#![forbid(unsafe_code)]

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Error type returned by [`ThreadPoolBuilder::build`]. The stand-in
/// pool cannot actually fail to build; the type exists so call sites
/// match the real API.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

/// Builder matching `rayon::ThreadPoolBuilder`'s shape.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with default settings (thread count = available
    /// parallelism).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pool's thread count; `0` (the default) means available
    /// parallelism.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool. Nothing is spawned here.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = match self.num_threads {
            0 => thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        };
        Ok(ThreadPool { threads: n })
    }
}

/// A thread count for [`ThreadPool::par_chunk_map`]; it holds no
/// threads between calls.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Applies `f` to consecutive chunks of `items` (each of length
    /// `chunk_size`, except possibly the last), in parallel, returning
    /// the results in chunk order — the stand-in for
    /// `items.par_chunks(n).map(f).collect()`.
    ///
    /// With one thread or at most one chunk, the chunks run on the
    /// caller in order. Otherwise the caller and up to
    /// `min(threads, chunks) − 1` scoped helpers take chunks until none
    /// is left; if a helper cannot be spawned, the threads already
    /// running finish every chunk. A panic in a chunk re-raises that
    /// chunk's payload on the caller once every thread has stopped.
    pub fn par_chunk_map<T, R>(
        &self,
        items: &[T],
        chunk_size: usize,
        f: impl Fn(&[T]) -> R + Sync,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        let chunks = items.chunks(chunk_size.max(1));
        let helpers = self.threads.min(chunks.len()).saturating_sub(1);
        if helpers == 0 {
            return chunks.map(f).collect();
        }
        let chunks: Vec<&[T]> = chunks.collect();
        // `Relaxed` suffices: the counter only hands out indices, and the
        // results reach the caller through `join`.
        let next = AtomicUsize::new(0);
        let run = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(chunk) = chunks.get(i) else { return done };
                done.push((i, f(chunk)));
            }
        };
        let mut done = thread::scope(|s| {
            let handles: Vec<_> = (0..helpers)
                .map_while(|_| thread::Builder::new().spawn_scoped(s, run).ok())
                .collect();
            // A panic in the caller's chunk, or one re-raised from a
            // helper's, unwinds out of this closure; `thread::scope`
            // waits for every helper still running, then resumes it.
            let mut done = run();
            for h in handles {
                done.extend(h.join().unwrap_or_else(|payload| resume_unwind(payload)));
            }
            done
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Barrier, Mutex};
    use std::thread::ThreadId;

    fn pool(n: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    #[test]
    fn par_chunk_map_preserves_chunk_order() {
        for threads in [1, 2, 4] {
            let p = pool(threads);
            let items: Vec<usize> = (0..37).collect();
            let sums = p.par_chunk_map(&items, 5, |c| c.iter().sum::<usize>());
            let expected: Vec<usize> = items.chunks(5).map(|c| c.iter().sum()).collect();
            assert_eq!(sums, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_chunk_map_empty_input() {
        let p = pool(2);
        let out = p.par_chunk_map(&[] as &[u8], 4, |c| c.len());
        assert!(out.is_empty());
    }

    #[test]
    fn job_panic_propagates_after_drain() {
        let p = pool(2);
        let caller = thread::current().id();
        for (on_caller, expected) in [(false, "helper chunk"), (true, "caller chunk")] {
            // two one-item chunks; the barrier holds each chunk until the
            // other has started, so each runs on its own thread
            let barrier = Barrier::new(2);
            let completed = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                p.par_chunk_map(&[0u8, 1], 1, |_| {
                    barrier.wait();
                    if (thread::current().id() == caller) == on_caller {
                        std::panic::panic_any(expected);
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                })
            }));
            let payload = caught.expect_err("the chunk's panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&expected), "the chunk's own payload");
            assert_eq!(completed.into_inner(), 1, "the other chunk finished before the re-raise");
            // the pool still works afterwards
            assert_eq!(p.par_chunk_map(&[1u32, 2, 3], 2, |c| c.len()), vec![2, 1]);
        }
    }

    #[test]
    fn single_thread_pool_is_inline_and_deterministic() {
        let caller = thread::current().id();
        // a 1-thread pool runs every chunk on the caller, in chunk order
        let order = Mutex::new(Vec::new());
        let ids = pool(1).par_chunk_map(&[0usize, 1, 2, 3, 4], 2, |c| {
            order.lock().unwrap().push(c[0]);
            thread::current().id()
        });
        assert_eq!(order.into_inner().unwrap(), vec![0, 2, 4]);
        assert!(ids.iter().all(|&id| id == caller));
        // so does a one-chunk call on a 2-thread pool
        let ids: Vec<ThreadId> = pool(2).par_chunk_map(&[0u8; 3], 8, |_| thread::current().id());
        assert_eq!(ids, vec![caller]);
    }
}
