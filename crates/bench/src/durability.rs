//! B13 — durability: WAL append throughput, checkpoint latency vs
//! dirty-shard fraction, recovery time vs WAL length.
//!
//! Three series on the durability stack introduced with the WAL
//! refactor, all with their correctness contracts asserted inside the
//! timed loop (mirroring B10: "fast because it skipped work" is a
//! failure, not a result):
//!
//! * **append** — group-flushing a 1 000-op committed batch
//!   (`Begin … Commit`, one `write` + `sync_data`); the checksum is
//!   the final LSN, so a run that dropped records cannot pass;
//! * **checkpoint** — shard-incremental checkpoints of the 10k/50k
//!   tier graph at 64 shards, with `k ∈ {1, 16, 64}` shards dirtied per
//!   round by a content-neutral self-loop probe; each round asserts the
//!   checkpoint rewrote **exactly** `k` shards and reused the other
//!   `64 − k`;
//! * **recover** — `Durability::open` of a WAL-only directory (no
//!   checkpoint to shortcut through) at 1 000 and 8 000 logged ops;
//!   each open asserts the replayed op count.

use onion_core::graph::wal::Durability;
use onion_core::graph::{GraphOp, OntGraph};
use onion_core::testkit::fs::TempDir;
use onion_core::testkit::generate_graph;

use crate::hotpaths::tier;
use crate::{run_series, BenchResult};

/// Shard count of the checkpoint series' tier graph.
pub const B13_SHARDS: usize = 64;

/// Ops per appended batch in the WAL-append series.
pub const B13_BATCH_OPS: usize = 1_000;

/// The full B13 record.
#[derive(Debug, Clone, Default)]
pub struct B13Report {
    /// Tier node count (checkpoint series).
    pub nodes: usize,
    /// Tier edge count (checkpoint series).
    pub edges: usize,
    /// Shard count of the checkpointed graph.
    pub shards: usize,
    /// Timed repetitions per row.
    pub reps: usize,
    /// One row per series; names are stable JSON keys.
    pub rows: Vec<BenchResult>,
}

/// A deterministic op stream: distinct `EdgeAdd` triples over a bounded
/// label universe (realistic interner pressure, no tombstone buildup).
fn op_stream(n: usize) -> Vec<GraphOp> {
    (0..n)
        .map(|i| GraphOp::EdgeAdd {
            edges: vec![(
                format!("n{}", i % 500),
                format!("r{}", i % 7),
                format!("n{}", (i * 7 + 1) % 500),
            )],
        })
        .collect()
}

/// WAL-append series: one committed 1 000-op batch per repetition.
fn append_row(reps: usize) -> BenchResult {
    let td = TempDir::new("b13-append");
    let mut dur = Durability::create(td.path(), "b13").expect("fresh dir");
    let ops = op_stream(B13_BATCH_OPS);
    run_series("b13_wal_append_1k_ops", reps, || {
        dur.log_batch(&ops);
        dur.flush().expect("flush").0
    })
}

/// Checkpoint series: tier graph at 64 shards, `k` shards dirtied per
/// round, exact rewrite accounting asserted every checkpoint.
fn checkpoint_rows(dirty_counts: &[usize], reps: usize) -> Vec<BenchResult> {
    let td = TempDir::new("b13-ckpt");
    let mut g = generate_graph(&tier());
    g.set_shard_count(B13_SHARDS);
    let mut probe = Vec::with_capacity(B13_SHARDS);
    let mut seen = vec![false; B13_SHARDS];
    for n in g.node_ids() {
        let s = g.shard_of(n);
        if !seen[s] {
            seen[s] = true;
            probe.push(n);
        }
    }
    assert_eq!(probe.len(), B13_SHARDS, "tier fills 64 shards");
    let mut dur = Durability::create(td.path(), g.name()).expect("fresh dir");
    let full = dur.checkpoint(&g, dur.last_lsn()).expect("first checkpoint");
    assert_eq!((full.shards_written, full.shards_reused), (B13_SHARDS, 0));
    dirty_counts
        .iter()
        .map(|&k| {
            let k = k.min(B13_SHARDS);
            let name: &'static str = match k {
                1 => "b13_checkpoint_dirty_1_of_64",
                16 => "b13_checkpoint_dirty_16_of_64",
                _ => "b13_checkpoint_dirty_64_of_64",
            };
            run_series(name, reps, || {
                // Content-neutral dirtying: bumps the shard version
                // without changing what gets serialized.
                for &n in &probe[..k] {
                    let e = g.add_edge(n, "b13dirty", n).expect("probe node is live");
                    g.delete_edge(e).expect("just added");
                }
                let stats = dur.checkpoint(&g, dur.last_lsn()).expect("checkpoint");
                assert_eq!(
                    (stats.shards_written, stats.shards_reused),
                    (k, B13_SHARDS - k),
                    "checkpoint must rewrite exactly the dirty shards"
                );
                stats.seq
            })
        })
        .collect()
}

/// Recovery series: open a WAL-only directory of `n` logged ops.
fn recover_row(name: &'static str, n: usize, reps: usize) -> BenchResult {
    let td = TempDir::new("b13-recover");
    let logged = {
        let mut dur = Durability::create(td.path(), "b13").expect("fresh dir");
        let mut g = OntGraph::new("b13");
        g.enable_journal();
        for op in op_stream(n) {
            op.apply(&mut g).expect("stream ops apply");
        }
        // The journal holds the *effective* ops: NodeAdds for first
        // sightings, EdgeAdds minus the duplicates `ensure` dropped.
        let journal = g.drain_journal();
        for chunk in journal.chunks(100) {
            dur.log_batch(chunk);
        }
        dur.flush().expect("flush");
        journal.len()
    };
    let want_edges = {
        let (g, _, stats) = Durability::open(td.path()).expect("reopen");
        assert_eq!(stats.replayed_ops, logged, "all logged ops replay");
        g.edge_count()
    };
    run_series(name, reps, || {
        let (g, _, _) = Durability::open(td.path()).expect("reopen");
        assert_eq!(g.edge_count(), want_edges, "recovery must rebuild the full graph");
        g.edge_count() as u64
    })
}

/// Runs B13 at the standard sizes (5 repetitions per row).
pub fn run_b13() -> B13Report {
    run_b13_sized(&[1, 16, 64], &[1_000, 8_000], 5)
}

/// Parameterised B13 (smaller rows/reps for tests).
pub fn run_b13_sized(dirty_counts: &[usize], wal_lengths: &[usize], reps: usize) -> B13Report {
    let spec = tier();
    let reps = reps.max(1);
    let mut rows = vec![append_row(reps)];
    rows.extend(checkpoint_rows(dirty_counts, reps));
    for &n in wal_lengths {
        let name: &'static str =
            if n <= 1_000 { "b13_recover_wal_1k_ops" } else { "b13_recover_wal_8k_ops" };
        rows.push(recover_row(name, n, reps));
    }
    B13Report { nodes: spec.nodes, edges: spec.edges, shards: B13_SHARDS, reps, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b13_accounting_holds_on_a_quick_run() {
        // the asserts inside the series are the real test: dropped WAL
        // records, inexact checkpoint accounting, or lossy recovery
        // all panic
        let report = run_b13_sized(&[1, 64], &[200], 1);
        assert_eq!(report.rows.len(), 4);
        assert!(report.rows.iter().all(|r| r.median_us > 0.0));
    }
}
