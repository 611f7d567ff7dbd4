//! The shard-stamp contract, read where the program reports it.
//!
//! A graph stamps the shard of every node it adds or deletes and the
//! source shard of every edge it adds or deletes (a shard holds its
//! nodes' labels and out-rows, nothing of their in-edges). A facade
//! publish counts the shards whose stamp moved since the source's
//! previous publish (`PublishStats`), and a checkpoint rewrites exactly
//! the shards whose stamp moved since the previous manifest
//! (`CheckpointStats::shards_written`). Checks:
//!
//! * after `k` edge edits the marked shards are exactly the edited
//!   edges' source shards (≤ k), read through the stamps,
//!   `PublishStats` and `CheckpointStats::shards_written`;
//! * a single edit marks exactly one shard of 64;
//! * facade query batches are identical at every shard and thread
//!   count.

use std::path::Path;

use proptest::prelude::*;

use onion_core::prelude::*;
use onion_core::testkit::fs::TempDir;
use onion_core::testkit::{generate_graph, GraphSpec};
use onion_core::OnionSystem;

fn small_graph(seed: u64) -> OntGraph {
    generate_graph(&GraphSpec::sized(seed, 120, 500))
}

/// A system holding `g` as its one source at `shards` shards, made
/// durable under `dir` (one publish, one full checkpoint). Returns the
/// system and the source's name.
fn durable_system(g: OntGraph, shards: usize, dir: &Path) -> (OnionSystem, String) {
    let name = g.name().to_string();
    let mut s = OnionSystem::with_transport_lexicon();
    s.set_shard_count(shards);
    s.add_source(Ontology::from_graph(g));
    let full = s.open_durable(&name, dir).unwrap().checkpoint.expect("a fresh directory");
    assert_eq!((full.shards_written, full.shards_reused), (shards, 0));
    (s, name)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// After k edge edits the marked shards are exactly the edited
    /// edges' source shards: the stamps that moved, the shards the next
    /// publish counts, and the shard files the next checkpoint writes.
    #[test]
    fn k_edge_edits_mark_exactly_their_source_shards(seed in 0u64..20, edits in 1usize..12) {
        const SHARDS: usize = 7;
        let td = TempDir::new("stamp-k-edits");
        let (mut s, name) = durable_system(small_graph(seed), SHARDS, td.path());
        let g = s.source_mut(&name).unwrap().graph_mut();
        let before = g.shard_stamps().to_vec();
        // k edge edits: delete an existing edge or add a fresh one
        let victims: Vec<(NodeId, String, NodeId)> =
            g.edges().take(edits).map(|e| (e.src, e.label.to_string(), e.dst)).collect();
        for (i, (src, label, dst)) in victims.iter().enumerate() {
            if i % 2 == 0 {
                let e = g.find_edge(*src, label, *dst).unwrap();
                g.delete_edge(e).unwrap();
            } else {
                g.ensure_edge(*src, "fresh-edit", *dst).unwrap();
            }
        }
        let moved: Vec<usize> = (0..SHARDS).filter(|&s| g.shard_version(s) != before[s]).collect();
        let mut sources: Vec<usize> = victims.iter().map(|(src, _, _)| g.shard_of(*src)).collect();
        sources.sort_unstable();
        sources.dedup();
        prop_assert_eq!(&moved, &sources, "an edge edit marks its source's shard only");
        let marked = moved.len();
        prop_assert!(marked <= edits, "at most one shard per edge edit");
        let (_, publish) = s.publish_source(&name).unwrap();
        prop_assert_eq!((publish.rebuilt, publish.reused), (marked, SHARDS - marked));
        let checkpoint = s.checkpoint_source(&name).unwrap();
        prop_assert_eq!(
            (checkpoint.shards_written, checkpoint.shards_reused),
            (marked, SHARDS - marked)
        );
    }
}

/// An edge edit whose endpoints share a shard marks exactly one of 64
/// shards: the publish counts one and the checkpoint writes one.
#[test]
fn single_edge_edit_marks_exactly_one_shard() {
    let td = TempDir::new("stamp-one-edit");
    let (mut s, name) = durable_system(small_graph(11), 64, td.path());
    let g = s.source_mut(&name).unwrap().graph_mut();
    // two nodes in the same shard (same index mod 64)
    let nodes: Vec<NodeId> = g.node_ids().collect();
    let a = nodes[0];
    let b = *nodes[1..].iter().find(|n| n.index() % 64 == a.index() % 64).unwrap_or(&a);
    g.ensure_edge(a, "same-shard-edit", b).unwrap();
    let (_, stats) = s.publish_source(&name).unwrap();
    assert_eq!((stats.rebuilt, stats.reused), (1, 63), "one marked shard, one counted");
    let ck = s.checkpoint_source(&name).unwrap();
    assert_eq!((ck.shards_written, ck.shards_reused), (1, 63), "one marked shard, one written");
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
