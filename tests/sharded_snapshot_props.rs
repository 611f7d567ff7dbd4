//! Properties of the sharded snapshot layer:
//!
//! * a [`ShardedSnapshot`] at shard counts {1, 2, 7, 64} reads
//!   **identically** to the monolithic (1-shard) build — node ids,
//!   labels and out-edge rows, in order — and facade query batches are
//!   identical at every shard and thread count;
//! * incremental publish rebuilds exactly the dirty shards: after `k`
//!   edge edits the dirty shards are exactly the edited edges' source
//!   shards (≤ k), the store rebuilds those and shares every clean
//!   shard's allocation with the previous epoch, the new epoch reads
//!   like a fresh freeze, and a single edit rebuilds exactly one.

use proptest::prelude::*;

use onion_core::graph::snapshot::SnapshotStore;
use onion_core::graph::LabelId;
use onion_core::prelude::*;
use onion_core::testkit::{generate_graph, GraphSpec};
use onion_core::OnionSystem;

const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 64];

fn small_graph(seed: u64) -> OntGraph {
    generate_graph(&GraphSpec::sized(seed, 120, 500))
}

/// Everything a snapshot's readers see: each live node with its label
/// and out-edge row, ascending by id, rows in stored order.
type Shape = Vec<(NodeId, String, Vec<(LabelId, NodeId)>)>;

fn shape(s: &ShardedSnapshot) -> Shape {
    s.node_ids()
        .map(|n| (n, s.node_label(n).unwrap().to_string(), s.out_entries(n).to_vec()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Labels and out-edge rows are identical across shard counts
    /// {1, 2, 7, 64}.
    #[test]
    fn shard_count_never_changes_results(seed in 0u64..20) {
        let mut g = small_graph(seed);
        g.set_shard_count(1);
        let mono = g.snapshot();
        let want = shape(&mono);
        for &count in &SHARD_COUNTS[1..] {
            g.set_shard_count(count);
            let snap = g.snapshot();
            prop_assert_eq!(snap.shard_count(), count);
            prop_assert_eq!(snap.node_count(), mono.node_count());
            prop_assert_eq!(snap.edge_count(), mono.edge_count());
            prop_assert_eq!(&shape(&snap), &want, "shards={}", count);
        }
    }

    /// After k edge edits, publish rebuilds exactly the shards the
    /// edits dirtied — each edge edit stamps only its source's shard,
    /// since a shard holds out-rows — reuses every clean shard's
    /// allocation, and the new epoch reads like a fresh freeze.
    #[test]
    fn publish_rebuilds_at_most_the_dirty_shards(seed in 0u64..20, edits in 1usize..12) {
        let mut g = small_graph(seed);
        g.set_shard_count(7);
        let mut store = SnapshotStore::new(&g);
        let before = store.load();
        let versions: Vec<u64> = (0..7).map(|s| g.shard_version(s)).collect();
        // k edge edits: delete an existing edge or add a fresh one
        let victims: Vec<(NodeId, String, NodeId)> = g
            .edges()
            .take(edits)
            .map(|e| (e.src, e.label.to_string(), e.dst))
            .collect();
        for (i, (s, l, d)) in victims.iter().enumerate() {
            if i % 2 == 0 {
                g.delete_edge_by_labels(
                    g.node_label(*s).unwrap().to_string().as_str(),
                    l,
                    g.node_label(*d).unwrap().to_string().as_str(),
                ).unwrap();
            } else {
                g.ensure_edge(*s, "fresh-edit", *d).unwrap();
            }
        }
        let dirty: Vec<usize> =
            (0..7).filter(|&s| g.shard_version(s) != versions[s]).collect();
        let mut sources: Vec<usize> = victims.iter().map(|(s, _, _)| g.shard_of(*s)).collect();
        sources.sort_unstable();
        sources.dedup();
        prop_assert_eq!(&dirty, &sources, "an edge edit dirties its source's shard only");
        let (after, stats) = store.publish_stats(&g);
        prop_assert_eq!(stats.rebuilt, dirty.len(), "rebuilds exactly the dirty shards");
        prop_assert!(stats.rebuilt <= edits, "≤ one shard per edge edit");
        for s in 0..7 {
            prop_assert_eq!(
                after.shares_shard_with(&before, s),
                !dirty.contains(&s),
                "shard {} sharing mismatch", s
            );
        }
        // the incremental epoch reads exactly like a fresh freeze
        let fresh = g.snapshot();
        prop_assert_eq!(after.edge_count(), fresh.edge_count());
        prop_assert_eq!(shape(&after), shape(&fresh));
    }
}

/// Acceptance pin: an incremental publish after a single-edge mutation
/// whose endpoints share a shard rebuilds exactly 1 of the 64 shards.
#[test]
fn single_edge_mutation_rebuilds_exactly_one_shard() {
    let mut g = small_graph(11);
    g.set_shard_count(64);
    let mut store = SnapshotStore::new(&g);
    // two nodes in the same shard (same index mod 64)
    let nodes: Vec<NodeId> = g.node_ids().collect();
    let a = nodes[0];
    let b = *nodes[1..].iter().find(|n| n.index() % 64 == a.index() % 64).unwrap_or(&a);
    g.ensure_edge(a, "same-shard-edit", b).unwrap();
    let (_, stats) = store.publish_stats(&g);
    assert_eq!(stats.rebuilt, 1, "one dirty shard, one rebuild");
    assert_eq!(stats.reused, 63);
}

/// Facade-level identity: `run_batch` results are unaffected by the
/// system's shard configuration, at every thread count.
#[test]
fn query_batches_are_identical_across_shard_counts() {
    use onion_core::testkit::random_queries;

    let build = |shards: usize| {
        let mut s = OnionSystem::with_transport_lexicon();
        s.set_shard_count(shards);
        s.add_source(examples::carrier());
        s.add_source(examples::factory());
        s.add_rules(examples::fig2_rules_text()).unwrap();
        s.articulate_from_rules("carrier", "factory").unwrap();
        let mut ckb = KnowledgeBase::new("carrier");
        for i in 0..40 {
            ckb.add(
                Instance::new(&format!("c{i}"), if i % 2 == 0 { "Cars" } else { "SUV" })
                    .with("Price", Value::Num((i * 997) as f64)),
            );
        }
        s.add_knowledge_base(ckb);
        s
    };
    let reference = build(1);
    let queries = random_queries(reference.articulation().unwrap(), "Price", 12, 3);
    let want: Vec<ResultSet> = queries.iter().map(|q| reference.run_query(q).unwrap()).collect();
    for shards in [2usize, 7, 64] {
        let system = build(shards);
        for threads in [1usize, 4] {
            let exec = Executor::new(threads);
            let got: Vec<ResultSet> = system
                .run_batch(&exec, &queries)
                .into_iter()
                .map(|r| r.unwrap().as_ref().clone())
                .collect();
            assert_eq!(got, want, "shards={shards} threads={threads}");
        }
    }
}
