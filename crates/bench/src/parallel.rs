//! B10 — parallel batch throughput over a snapshot (`onion-exec`).
//!
//! Two workloads, each measured at 1/2/4/`available_parallelism`
//! threads on a shared immutable [`ShardedSnapshot`]:
//!
//! * **closure batch** — multi-source reachability (256 seeded sources,
//!   forward, all edges) over the testkit 10k-node / 50k-edge tier:
//!   the traversal shape reformulation and viewer queries lean on;
//! * **query batch** — `OnionSystem::run_batch` over 64 generated
//!   articulation-vocabulary queries against two 5000-instance sources
//!   (the B4 shape, batched).
//!
//! Every row records a checksum of the produced results and the runner
//! asserts it equals the sequential executor's checksum before
//! reporting a speedup — "fast but different" is a failure, not a
//! result. On a single-core container the speedup is necessarily ~1×;
//! the interesting numbers come from multi-core hardware, which is why
//! `available_parallelism` is part of the emitted record.

use onion_core::exec::{par_reachable, result_checksum, Executor, Fnv};
use onion_core::graph::snapshot::ShardedSnapshot;
use onion_core::graph::traverse::{Direction, EdgeFilter};
use onion_core::graph::NodeId;
use onion_core::prelude::*;
use onion_core::testkit::{closure_sources, generate_graph, random_queries};

use crate::hotpaths::tier;
use crate::run_series;

/// One measured thread count.
#[derive(Debug, Clone, Default)]
pub struct B10Row {
    /// Executor thread count.
    pub threads: usize,
    /// Median wall time of one closure batch, µs.
    pub closure_us: f64,
    /// Closure traversals per second at that median.
    pub closure_per_sec: f64,
    /// Median wall time of one query batch, µs.
    pub query_us: f64,
    /// Queries per second at that median.
    pub query_per_sec: f64,
    /// Checksum over the closure batch results (identical across rows).
    pub checksum: u64,
}

/// The full B10 record.
#[derive(Debug, Clone, Default)]
pub struct B10Report {
    /// Number of closure sources per batch.
    pub closure_sources: usize,
    /// Number of queries per batch.
    pub batch_queries: usize,
    /// What the host reports as available parallelism.
    pub available_parallelism: usize,
    /// One row per measured thread count (ascending; first row is the
    /// sequential baseline).
    pub rows: Vec<B10Row>,
}

impl B10Report {
    /// Speedup of `row` over the sequential baseline for the closure
    /// batch.
    pub fn closure_speedup(&self, row: &B10Row) -> f64 {
        self.rows[0].closure_us / row.closure_us
    }

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

/// Prebuilt B10 workload: tier snapshot + closure sources + an
/// articulated two-source system with a query batch.
pub struct ParallelFixture {
    /// Frozen tier graph.
    pub snapshot: ShardedSnapshot,
    /// Seeded closure sources.
    pub sources: Vec<NodeId>,
    system: onion_core::OnionSystem,
    queries: Vec<Query>,
}

impl ParallelFixture {
    /// Builds the standard fixture (`sources` closure seeds, `queries`
    /// batched queries, `instances` rows per knowledge base).
    pub fn new(sources: usize, queries: usize, instances: usize) -> Self {
        let g = generate_graph(&tier());
        let snapshot = g.snapshot();
        let sources = closure_sources(&g, sources, 41);

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
        ParallelFixture { snapshot, sources, system, queries }
    }

    /// One closure batch on `exec`; returns per-source reach sets.
    pub fn closure_batch(&self, exec: &Executor) -> Vec<Vec<NodeId>> {
        par_reachable(exec, &self.snapshot, &self.sources, Direction::Forward, &EdgeFilter::All)
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

    /// Checksum of a query batch (row/attr aware, order sensitive).
    pub fn query_checksum(&self, results: &[std::sync::Arc<ResultSet>]) -> u64 {
        let mut h = Fnv::new();
        for rs in results {
            h.mix(rs.len() as u64);
            for row in &rs.rows {
                h.mix_bytes(row.id.as_bytes());
                h.mix(row.attrs.len() as u64);
            }
        }
        h.finish()
    }
}

/// Runs B10 on the standard workload (256 sources, 64 queries, 5000
/// instances per side) and asserts byte-identical results across all
/// thread counts.
pub fn run_b10() -> B10Report {
    run_b10_sized(256, 64, 5000, 5)
}

/// Parameterised B10 (smaller tiers for tests).
pub fn run_b10_sized(sources: usize, queries: usize, instances: usize, reps: usize) -> B10Report {
    let fx = ParallelFixture::new(sources, queries, instances);
    let seq = Executor::sequential();
    let baseline_closure = fx.closure_batch(&seq);
    let closure_ck = result_checksum(&fx.snapshot, &baseline_closure);
    let baseline_query = fx.query_batch(&seq);
    let query_ck = fx.query_checksum(&baseline_query);

    let mut rows = Vec::new();
    for threads in thread_counts() {
        let exec = Executor::new(threads);
        let got_closure = fx.closure_batch(&exec);
        assert_eq!(
            result_checksum(&fx.snapshot, &got_closure),
            closure_ck,
            "closure batch differs from the sequential path at {threads} threads"
        );
        assert_eq!(got_closure, baseline_closure, "closure results must be byte-identical");
        let got_query = fx.query_batch(&exec);
        assert_eq!(
            fx.query_checksum(&got_query),
            query_ck,
            "query batch differs from the sequential path at {threads} threads"
        );
        assert_eq!(got_query, baseline_query, "query results must be byte-identical");

        let closure_us =
            run_series("b10_closure", reps, || fx.closure_batch(&exec).len() as u64).median_us;
        let query_us =
            run_series("b10_query", reps, || fx.query_batch(&exec).len() as u64).median_us;
        rows.push(B10Row {
            threads,
            closure_us,
            closure_per_sec: fx.sources.len() as f64 / (closure_us / 1e6),
            query_us,
            query_per_sec: fx.query_count() as f64 / (query_us / 1e6),
            checksum: closure_ck,
        });
    }
    B10Report {
        closure_sources: fx.sources.len(),
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
        let report = run_b10_sized(16, 8, 200, 1);
        assert_eq!(report.rows.len(), thread_counts().len());
        assert!(report.rows.iter().all(|r| r.checksum == report.rows[0].checksum));
        assert!(report.rows[0].closure_per_sec > 0.0);
        assert!(report.rows[0].query_per_sec > 0.0);
    }
}
