//! B10 — parallel query-batch throughput (`onion-exec`).
//!
//! `OnionSystem::run_batch` over 64 generated articulation-vocabulary
//! queries against two 5000-instance sources (the B4 shape, batched),
//! measured at 1/2/4/`available_parallelism` threads.
//!
//! Every row records a checksum of the produced results and the runner
//! asserts it equals the sequential executor's checksum before
//! reporting a speedup — "fast but different" is a failure, not a
//! result. On a single-core container the speedup is necessarily ~1×;
//! the interesting numbers come from multi-core hardware, which is why
//! `available_parallelism` is part of the emitted record.

use onion_core::exec::Executor;
use onion_core::prelude::*;
use onion_core::testkit::random_queries;

use crate::{batch_checksum, run_series};

/// One measured thread count.
#[derive(Debug, Clone, Default)]
pub struct B10Row {
    /// Executor thread count.
    pub threads: usize,
    /// Median wall time of one query batch, µs.
    pub query_us: f64,
    /// Queries per second at that median.
    pub query_per_sec: f64,
    /// Checksum over the query batch results (identical across rows).
    pub checksum: u64,
}

/// The full B10 record.
#[derive(Debug, Clone, Default)]
pub struct B10Report {
    /// Number of queries per batch.
    pub batch_queries: usize,
    /// What the host reports as available parallelism.
    pub available_parallelism: usize,
    /// One row per measured thread count (ascending; first row is the
    /// sequential baseline).
    pub rows: Vec<B10Row>,
}

impl B10Report {
    /// Speedup of `row` over the sequential baseline for the query
    /// batch.
    pub fn query_speedup(&self, row: &B10Row) -> f64 {
        self.rows[0].query_us / row.query_us
    }
}

/// The thread counts a run measures: 1, 2, 4 and (when different) the
/// machine's available parallelism.
pub fn thread_counts() -> Vec<usize> {
    let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut v = vec![1, 2, 4];
    if !v.contains(&avail) {
        v.push(avail);
    }
    v.sort_unstable();
    v
}

/// Prebuilt B10 workload: an articulated two-source system with a
/// query batch.
pub struct ParallelFixture {
    system: onion_core::OnionSystem,
    queries: Vec<Query>,
}

impl ParallelFixture {
    /// Builds the standard fixture (`queries` batched queries,
    /// `instances` rows per knowledge base).
    pub fn new(queries: usize, instances: usize) -> Self {
        let pair = crate::pair(31, 400, 0.25);
        let art = crate::articulated(&pair);
        let (lkb, rkb) = crate::instance_kbs(&pair, instances);
        let queries = random_queries(&art, "Price", queries, 23);
        let mut system = onion_core::OnionSystem::new(pair.lexicon.clone());
        system.add_source(pair.left.clone());
        system.add_source(pair.right.clone());
        system.add_knowledge_base(lkb);
        system.add_knowledge_base(rkb);
        // install the truth-generated articulation directly
        system.set_articulation(art);
        ParallelFixture { system, queries }
    }

    /// One query batch on `exec`; returns per-query result sets
    /// (shared `Arc`s — duplicate queries in the batch alias).
    pub fn query_batch(&self, exec: &Executor) -> Vec<std::sync::Arc<ResultSet>> {
        self.system
            .run_batch(exec, &self.queries)
            .into_iter()
            .map(|r| r.expect("generated queries execute"))
            .collect()
    }

    /// Number of queries in the batch.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// Checksum of a query batch: whole rows, in order
    /// ([`batch_checksum`]).
    pub fn query_checksum(&self, results: &[std::sync::Arc<ResultSet>]) -> u64 {
        batch_checksum(results)
    }
}

/// Runs B10 on the standard workload (64 queries, 5000 instances per
/// side) and asserts byte-identical results across all thread counts.
pub fn run_b10() -> B10Report {
    run_b10_sized(64, 5000, 5)
}

/// Parameterised B10 (smaller tiers for tests).
pub fn run_b10_sized(queries: usize, instances: usize, reps: usize) -> B10Report {
    let fx = ParallelFixture::new(queries, instances);
    let baseline = fx.query_batch(&Executor::sequential());
    let checksum = fx.query_checksum(&baseline);

    let mut rows = Vec::new();
    for threads in thread_counts() {
        let exec = Executor::new(threads);
        let got = fx.query_batch(&exec);
        assert_eq!(
            fx.query_checksum(&got),
            checksum,
            "query batch differs from the sequential path at {threads} threads"
        );
        assert_eq!(got, baseline, "query results must be byte-identical");

        let query_us =
            run_series("b10_query", reps, || fx.query_batch(&exec).len() as u64).median_us;
        rows.push(B10Row {
            threads,
            query_us,
            query_per_sec: fx.query_count() as f64 / (query_us / 1e6),
            checksum,
        });
    }
    B10Report {
        batch_queries: fx.query_count(),
        available_parallelism: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b10_runs_on_a_small_tier_with_identical_results() {
        // the assert_eq!s inside run_b10_sized are the real test: any
        // divergence between thread counts panics
        let report = run_b10_sized(8, 200, 1);
        assert_eq!(report.rows.len(), thread_counts().len());
        assert!(report.rows.iter().all(|r| r.checksum == report.rows[0].checksum));
        assert!(report.rows[0].query_per_sec > 0.0);
    }
}
