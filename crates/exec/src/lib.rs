//! # onion-exec — parallel batch execution
//!
//! The execution subsystem behind ONION's batched reads and parallel
//! inference. The division of labour:
//!
//! * the vendored `rayon` stand-in (`crates/compat/rayon`) owns the
//!   threads: a persistent scoped pool;
//! * this crate owns the *batching*: an [`Executor`] that fans work —
//!   generic closures ([`Executor::par_map`]), reformulated query
//!   batches and the sequential engine's semi-naive work units
//!   ([`ParallelEngine`], cut into delta-row ranges) — across the pool,
//!   with results **identical to the sequential path** (same values,
//!   same order);
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
/// Wraps a dedicated thread pool with an explicit thread count.
/// `Executor::new(1)` spawns no OS threads and runs everything inline
/// on the caller — the sequential baseline every parallel result is
/// compared against. The calling thread always participates, so
/// `new(n)` uses `n` CPUs during a batch.
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
    /// An executor with exactly `threads` threads (min 1).
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
    /// per thread, so uneven items still balance) and each chunk runs
    /// as one pool job.
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
    /// drowning the queue in tiny jobs.
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
}
