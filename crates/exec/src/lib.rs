//! # onion-exec — snapshot-isolated parallel execution
//!
//! The execution subsystem behind ONION's "serve reads from every core"
//! scaling story. The division of labour:
//!
//! * `onion-graph` owns the data: the live [`OntGraph`](onion_graph::OntGraph)
//!   (single-writer) and its immutable, `Send + Sync`
//!   [`ShardedSnapshot`]s, published incrementally (dirty shards only)
//!   through a [`SnapshotStore`](onion_graph::SnapshotStore) whose
//!   `load` is mutex-free;
//! * the vendored `rayon` stand-in (`crates/compat/rayon`) owns the
//!   threads: a persistent scoped pool;
//! * this crate owns the *batching*: an [`Executor`] that fans work —
//!   generic closures, multi-source transitive closure (grouped by the
//!   snapshot shard owning each source), single-root frontier-split
//!   BFS, reformulated query batches — across the pool, over one
//!   snapshot, with results **identical to the sequential path** (same
//!   values, same order).
//!
//! Determinism is load-bearing, not cosmetic: every parallel routine
//! here partitions its input, computes per-partition results with
//! per-thread scratch, and reassembles them in input order, so
//! `Executor::new(n)` produces byte-identical output for every `n`.
//! The property tests in `tests/exec_parallel_props.rs` pin this
//! against the sequential implementations in `onion_graph::closure`
//! and `onion_graph::traverse`.
//!
//! ```
//! use onion_exec::Executor;
//! use onion_graph::{rel, OntGraph};
//! use onion_graph::traverse::{Direction, EdgeFilter};
//!
//! let mut g = OntGraph::new("t");
//! for (a, b) in [("SUV", "Car"), ("Car", "Vehicle"), ("Truck", "Vehicle")] {
//!     g.ensure_edge_by_labels(a, rel::SUBCLASS_OF, b).unwrap();
//! }
//! let snap = g.snapshot();
//! let exec = Executor::new(4);
//! let sources: Vec<_> = snap.node_ids().collect();
//! let reach =
//!     onion_exec::par_reachable(&exec, &snap, &sources, Direction::Forward, &EdgeFilter::All);
//! assert_eq!(reach.len(), sources.len());
//! ```

pub mod cache;
pub mod closure;
pub mod inference;

pub use cache::{CacheKey, CacheStats, ResultCache};
pub use closure::{
    par_closure_pairs, par_descendants, par_frontier_bfs, par_reachable, par_subclass_closure,
};
pub use inference::{fact_set_checksum, par_seed_subclass_facts, ParallelEngine, ShardSeedStats};

use onion_graph::ShardedSnapshot;

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

    /// Access to the underlying pool (for `scope`/`join` composition).
    pub fn pool(&self) -> &rayon::ThreadPool {
        &self.pool
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

    /// Applies `f` to consecutive chunks of `items` (the partition unit
    /// for routines that carry per-chunk scratch), returning per-chunk
    /// results in chunk order. Chunk size is chosen by the executor.
    pub fn par_chunks<T, R>(&self, items: &[T], f: impl Fn(&[T]) -> R + Sync) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        self.pool.par_chunk_map(items, self.chunk_size(items.len()), f)
    }

    /// A few chunks per thread: balances uneven per-item cost without
    /// drowning the queue in tiny jobs.
    fn chunk_size(&self, len: usize) -> usize {
        len.div_ceil(self.threads * 4).max(1)
    }
}

/// Order-sensitive FNV-1a accumulator, the one hash used everywhere a
/// batch result is checksummed (here and in `onion-bench`'s B10): two
/// result sequences checksum equal only if they agree element for
/// element, in order.
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

/// Checksum of per-source traversal results (FNV-1a over node ids in
/// order) — used by the benches to assert byte-identical outputs across
/// thread counts.
pub fn result_checksum(snapshot: &ShardedSnapshot, results: &[Vec<onion_graph::NodeId>]) -> u64 {
    let mut h = Fnv::new();
    h.mix(snapshot.node_count() as u64);
    for set in results {
        h.mix(set.len() as u64);
        for n in set {
            h.mix(n.index() as u64);
        }
    }
    h.finish()
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
    fn par_chunks_covers_all_items_in_order() {
        let items: Vec<u32> = (0..50).collect();
        let exec = Executor::new(3);
        let per_chunk = exec.par_chunks(&items, |c| c.to_vec());
        let flat: Vec<u32> = per_chunk.into_iter().flatten().collect();
        assert_eq!(flat, items);
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
