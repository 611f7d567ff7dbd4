//! # onion-exec — parallel batch execution
//!
//! The execution subsystem behind ONION's batched reads and parallel
//! inference. The division of labour:
//!
//! * the vendored `rayon` stand-in (`crates/compat/rayon`) owns the
//!   threads: each parallel call runs on scoped threads that end with
//!   the call;
//! * this crate owns the *batching*: an [`Executor`] that fans work —
//!   generic closures ([`Executor::par_map`]), reformulated query
//!   batches and the sequential engine's semi-naive work units
//!   ([`ParallelEngine`], cut into delta-row ranges) — across those
//!   threads, with results **identical to the sequential path** (same
//!   values, same order);
//! * [`ResultCache`] memoises query results per state epoch.
//!
//! Determinism is load-bearing, not cosmetic: every parallel routine
//! here partitions its input, computes per-partition results with
//! per-thread scratch, and reassembles them in input order, so
//! `Executor::new(n)` produces byte-identical output for every `n`.
//!
//! ```
//! use onion_exec::Executor;
//!
//! let items: Vec<u64> = (0..100).collect();
//! let squares = Executor::new(4).par_map(&items, |x| x * x);
//! assert_eq!(squares, Executor::sequential().par_map(&items, |x| x * x));
//! assert_eq!(squares[9], 81);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod inference;

pub use cache::{CacheKey, CacheStats, ResultCache};
pub use inference::{fact_set_checksum, ParallelEngine};

/// A handle for running batches in parallel over immutable data.
///
/// Holds an explicit thread count and no threads: a call with more
/// than one chunk runs on the caller plus up to `n − 1` scoped threads
/// that end with the call, so `new(n)` uses at most `n` CPUs during a
/// batch. A call with one chunk, and every call on `Executor::new(1)`,
/// runs inline on the caller — the sequential baseline every parallel
/// result is compared against.
#[derive(Debug)]
pub struct Executor {
    pool: rayon::ThreadPool,
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Self::with_default_parallelism()
    }
}

impl Executor {
    /// An executor with exactly `threads` threads (min 1). Nothing is
    /// spawned until a call has more than one chunk.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("stand-in pool build is infallible");
        Executor { pool, threads }
    }

    /// An executor sized to the machine (`available_parallelism`).
    pub fn with_default_parallelism() -> Self {
        Self::new(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }

    /// The strictly sequential executor (1 thread, everything inline).
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// The executor's thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item in parallel, returning results in
    /// input order. Items are grouped into contiguous chunks (several
    /// per thread, so uneven items still balance) and each thread takes
    /// the next chunk until none is left. A panic in `f` re-raises on
    /// the caller once every thread has stopped.
    pub fn par_map<T, R>(&self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        let _span = onion_obs::span!("exec_batch");
        onion_obs::gauge_set!("onion_exec_batch_items", items.len());
        let chunk = self.chunk_size(items.len());
        let chunks =
            self.pool.par_chunk_map(items, chunk, |c| c.iter().map(&f).collect::<Vec<R>>());
        chunks.into_iter().flatten().collect()
    }

    /// A few chunks per thread: balances uneven per-item cost without
    /// cutting the batch into tiny chunks.
    fn chunk_size(&self, len: usize) -> usize {
        len.div_ceil(self.threads * 4).max(1)
    }
}

/// Order-sensitive FNV-1a accumulator, the one hash used everywhere a
/// batch result is checksummed (fact sets here, query batches in
/// `onion-bench`): two result sequences checksum equal only if they
/// agree element for element, in order.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes one word.
    pub fn mix(&mut self, x: u64) {
        self.0 ^= x;
        self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
    }

    /// Mixes a byte string, order-sensitively.
    pub fn mix_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_at_every_thread_count() {
        let items: Vec<u32> = (0..103).collect();
        let expected: Vec<u32> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 4, 8] {
            let exec = Executor::new(threads);
            assert_eq!(exec.par_map(&items, |x| x * 3), expected, "threads={threads}");
        }
    }

    #[test]
    fn sequential_executor_has_one_thread() {
        assert_eq!(Executor::sequential().threads(), 1);
        assert!(Executor::with_default_parallelism().threads() >= 1);
    }

    #[test]
    fn empty_batch_is_fine() {
        let exec = Executor::new(4);
        let out: Vec<u32> = exec.par_map(&[] as &[u32], |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn one_thread_and_one_chunk_batches_run_on_the_caller() {
        let caller = std::thread::current().id();
        let items: Vec<u32> = (0..50).collect();
        let ids = Executor::sequential().par_map(&items, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        // one item makes one chunk, which a 2-thread executor runs inline
        assert_eq!(Executor::new(2).par_map(&[7u32], |_| std::thread::current().id()), [caller]);
    }

    #[test]
    fn a_panicking_item_re_raises_its_payload_and_the_executor_still_works() {
        let exec = Executor::new(2);
        let caller = std::thread::current().id();
        for on_caller in [false, true] {
            // two items make two chunks; the barrier holds each chunk
            // until the other has started, so each runs on its own thread
            let barrier = std::sync::Barrier::new(2);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                exec.par_map(&[0u32, 1], |_| {
                    barrier.wait();
                    if (std::thread::current().id() == caller) == on_caller {
                        std::panic::panic_any(on_caller);
                    }
                })
            }));
            let payload = caught.expect_err("the panic reaches the caller");
            assert_eq!(payload.downcast_ref::<bool>(), Some(&on_caller), "the chunk's own payload");
            let items: Vec<u32> = (0..40).collect();
            assert_eq!(exec.par_map(&items, |x| x + 1), (1..41).collect::<Vec<u32>>());
        }
    }
}
