//! B11 — incremental snapshot publish latency vs dirty-shard fraction.
//!
//! The sharded snapshot's contract is that
//! [`SnapshotStore::publish`](onion_core::graph::SnapshotStore::publish)
//! costs `O(dirty shards)`, not `O(graph)`. B11 measures exactly that
//! curve: on the testkit 10k-node / 50k-edge tier frozen at 64 shards,
//! it dirties `k ∈ {1, 4, 16, 32, 64}` shards per round (one
//! add+delete self-loop per shard, which leaves the graph's content
//! unchanged but bumps the shard's version stamp) and times the
//! publish. The runner asserts the store rebuilt **exactly** `k`
//! shards each round — "fast because it skipped work it should have
//! done" is a failure, not a result — and reports the latency per row
//! next to the full-rebuild (64/64) baseline so the scaling with dirty
//! fraction (rather than graph size) is visible in one series.

use onion_core::graph::snapshot::SnapshotStore;
use onion_core::graph::{NodeId, OntGraph, PublishStats};
use onion_core::testkit::generate_graph;

use crate::hotpaths::tier;
use crate::run_series_with;

/// Shard count B11 freezes the tier at.
pub const B11_SHARDS: usize = 64;

/// One measured dirty fraction.
#[derive(Debug, Clone, Default)]
pub struct B11Row {
    /// Shards dirtied (and rebuilt) per publish.
    pub dirty_shards: usize,
    /// `dirty_shards / B11_SHARDS`.
    pub fraction: f64,
    /// Median publish wall time, µs.
    pub median_us: f64,
    /// Fastest / slowest sample, µs (run-to-run variance).
    pub min_us: f64,
    /// Slowest sample, µs.
    pub max_us: f64,
}

/// The full B11 record.
#[derive(Debug, Clone, Default)]
pub struct B11Report {
    /// Tier node count.
    pub nodes: usize,
    /// Tier edge count.
    pub edges: usize,
    /// Shard count of the frozen view.
    pub shards: usize,
    /// Timed repetitions per row.
    pub reps: usize,
    /// One row per dirty-shard count, ascending; the last row (all
    /// shards dirty) is the full-rebuild baseline.
    pub rows: Vec<B11Row>,
}

impl B11Report {
    /// Publish speedup of `row` over the full-rebuild baseline.
    pub fn speedup_vs_full(&self, row: &B11Row) -> f64 {
        self.rows.last().map(|full| full.median_us / row.median_us).unwrap_or(1.0)
    }
}

/// Prebuilt B11 workload: the tier graph frozen at [`B11_SHARDS`]
/// shards behind a [`SnapshotStore`], plus one probe node per shard to
/// hang the dirtying self-loop on.
pub struct B11Fixture {
    g: OntGraph,
    store: SnapshotStore,
    probe: Vec<NodeId>,
}

impl Default for B11Fixture {
    fn default() -> Self {
        Self::new()
    }
}

impl B11Fixture {
    /// Builds the standard fixture (tier graph, 64 shards, epoch 0
    /// published).
    pub fn new() -> Self {
        let mut g = generate_graph(&tier());
        g.set_shard_count(B11_SHARDS);
        let store = SnapshotStore::new(&g);
        let mut probe: Vec<Option<NodeId>> = vec![None; B11_SHARDS];
        for n in g.node_ids() {
            let s = g.shard_of(n);
            if probe[s].is_none() {
                probe[s] = Some(n);
            }
        }
        let probe = probe.into_iter().map(|p| p.expect("tier fills 64 shards")).collect();
        B11Fixture { g, store, probe }
    }

    /// Dirties exactly `k` shards: a content-neutral add+delete of a
    /// self-loop bumps each shard's version stamp without changing the
    /// graph. Not part of the timed region — B11 measures publish
    /// latency, not mutation cost.
    pub fn dirty(&mut self, k: usize) -> usize {
        let k = k.min(B11_SHARDS);
        for &n in &self.probe[..k] {
            let e = self.g.add_edge(n, "b11dirty", n).expect("probe node is live");
            self.g.delete_edge(e).expect("just added");
        }
        k
    }

    /// Publishes and asserts the store rebuilt exactly `expect_dirty`
    /// shards — "fast because it skipped work it should have done" is
    /// a failure, not a result.
    pub fn publish_checked(&mut self, expect_dirty: usize) -> PublishStats {
        let (_, stats) = self.store.publish_stats(&self.g);
        assert_eq!(
            (stats.rebuilt, stats.reused),
            (expect_dirty, B11_SHARDS - expect_dirty),
            "publish must rebuild exactly the dirty shards"
        );
        stats
    }

    /// One dirty-then-publish cycle (mutations included — use
    /// [`B11Fixture::dirty`] + [`B11Fixture::publish_checked`] to time
    /// the publish alone).
    pub fn publish_dirty(&mut self, k: usize) -> PublishStats {
        let k = self.dirty(k);
        self.publish_checked(k)
    }
}

/// Runs B11 on the standard tier (64 shards, 5 repetitions per row).
pub fn run_b11() -> B11Report {
    run_b11_sized(&[1, 4, 16, 32, 64], 5)
}

/// Parameterised B11 (smaller rows/reps for tests).
pub fn run_b11_sized(dirty_counts: &[usize], reps: usize) -> B11Report {
    let spec = tier();
    let mut fx = B11Fixture::new();
    let rows = dirty_counts
        .iter()
        .map(|&k| {
            let k = k.min(B11_SHARDS);
            let r = run_series_with(
                "b11_publish",
                reps,
                &mut fx,
                |fx| {
                    fx.dirty(k);
                },
                |fx| fx.publish_checked(k).rebuilt as u64,
            );
            B11Row {
                dirty_shards: k,
                fraction: k as f64 / B11_SHARDS as f64,
                median_us: r.median_us,
                min_us: r.min_us,
                max_us: r.max_us,
            }
        })
        .collect();
    B11Report { nodes: spec.nodes, edges: spec.edges, shards: B11_SHARDS, reps: reps.max(1), rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b11_rebuild_accounting_holds_on_a_quick_run() {
        // the assert_eq inside run_b11_sized is the real test: any
        // publish that rebuilds more or less than the dirtied shard set
        // panics
        let report = run_b11_sized(&[1, 64], 1);
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.rows[0].dirty_shards, 1);
        assert_eq!(report.rows[1].dirty_shards, 64);
        assert!(report.rows.iter().all(|r| r.median_us > 0.0));
    }
}
