//! Properties of the parallel executor and of snapshot isolation:
//!
//! * snapshot isolation holds: a snapshot keeps answering exactly like
//!   the graph it froze — node ids, labels and out-edge rows, in order —
//!   no matter how the live graph is mutated (and republished)
//!   meanwhile, including while pool workers are reading it;
//! * every published epoch reads exactly like its live graph;
//! * parallel query batches are **identical** to the sequential path
//!   at every thread count.

use std::sync::Arc;

use proptest::prelude::*;

use onion_core::exec::{Executor, Fnv};
use onion_core::graph::rel;
use onion_core::graph::snapshot::SnapshotStore;
use onion_core::prelude::*;
use onion_core::testkit::{generate_graph, GraphSpec};

fn small_graph(seed: u64) -> OntGraph {
    generate_graph(&GraphSpec::sized(seed, 120, 500))
}

/// Order-sensitive fold of a snapshot's live node ids, labels and
/// out-edge rows (the reader a snapshot keeps).
fn snapshot_checksum(s: &ShardedSnapshot) -> u64 {
    let mut h = Fnv::new();
    h.mix(s.node_count() as u64);
    for n in s.node_ids() {
        h.mix(n.index() as u64);
        h.mix_bytes(s.node_label(n).unwrap().as_bytes());
        let row = s.out_entries(n);
        h.mix(row.len() as u64);
        for &(lid, dst) in row {
            h.mix_bytes(s.resolve(lid).as_bytes());
            h.mix(dst.index() as u64);
        }
    }
    h.finish()
}

/// [`snapshot_checksum`] of the live graph: equal to a snapshot's
/// exactly when the snapshot reads like `g`.
fn graph_checksum(g: &OntGraph) -> u64 {
    let mut h = Fnv::new();
    h.mix(g.node_count() as u64);
    for n in g.node_ids() {
        h.mix(n.index() as u64);
        h.mix_bytes(g.node_label(n).unwrap().as_bytes());
        h.mix(g.out_degree(n) as u64);
        for (_, lid, dst) in g.out_edge_entries(n) {
            h.mix_bytes(g.resolve(lid).as_bytes());
            h.mix(dst.index() as u64);
        }
    }
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// A snapshot taken before an arbitrary mutation burst keeps
    /// answering exactly like the pre-mutation graph, and the epoch
    /// published after the burst reads like the mutated graph.
    #[test]
    fn snapshot_survives_mutation_burst(seed in 0u64..24, kills in 1usize..40) {
        let mut g = small_graph(seed);
        let mut store = SnapshotStore::new(&g);
        let frozen = store.load();
        let before = snapshot_checksum(&frozen);
        prop_assert_eq!(before, graph_checksum(&g));
        // mutate: delete nodes, add nodes and edges, publish a new epoch
        let victims: Vec<NodeId> = g.node_ids().take(kills).collect();
        for v in victims {
            g.delete_node(v).unwrap();
        }
        for i in 0..10 {
            g.ensure_edge_by_labels(&format!("Fresh{i}"), rel::SUBCLASS_OF, "Fresh0").unwrap();
        }
        let published = store.publish(&g);
        // the old Arc still answers from its epoch
        prop_assert_eq!(snapshot_checksum(&frozen), before);
        prop_assert_eq!(snapshot_checksum(&published), graph_checksum(&g));
        prop_assert_eq!(frozen.epoch(), 0);
        prop_assert_eq!(store.load().epoch(), 1);
    }
}

/// Snapshot isolation under real concurrency: reader threads re-read
/// one epoch while the main thread deletes nodes and publishes new
/// epochs. Every read must agree with the epoch's pre-computed checksum.
#[test]
fn concurrent_readers_see_only_their_epoch() {
    let mut g = small_graph(7);
    let mut store = SnapshotStore::new(&g);
    let snap0: Arc<_> = store.load();
    let expected0 = graph_checksum(&g);
    assert_eq!(snapshot_checksum(&snap0), expected0);

    // re-read the epoch-0 snapshot on four scoped threads while this
    // thread mutates the live graph and publishes; each reader holds
    // the epoch-0 Arc the whole time
    let mut results: Vec<Vec<u64>> = vec![Vec::new(); 4];
    std::thread::scope(|s| {
        for slot in results.iter_mut() {
            let snap = Arc::clone(&snap0);
            s.spawn(move || {
                for _ in 0..20 {
                    slot.push(snapshot_checksum(&snap));
                }
            });
        }
        // writer: heavy churn + publishes while readers run
        for round in 0..5 {
            let victims: Vec<NodeId> = g.node_ids().skip(round * 3).take(3).collect();
            for v in victims {
                g.delete_node(v).unwrap();
            }
            g.ensure_edge_by_labels(&format!("W{round}"), rel::SUBCLASS_OF, "C0").unwrap();
            store.publish(&g);
        }
    });
    for r in results {
        assert_eq!(r.len(), 20, "spawned reader ran");
        assert!(r.iter().all(|&c| c == expected0), "epoch-0 reader was torn");
    }
    assert_eq!(store.epoch(), 5);
    // new readers see the new epoch
    let now = store.load();
    assert_eq!(now.epoch(), 5);
    assert_eq!(snapshot_checksum(&now), graph_checksum(&g));
    let has_w4 = |s: &ShardedSnapshot| s.node_ids().any(|n| s.node_label(n) == Some("W4"));
    assert!(has_w4(&now));
    assert!(!has_w4(&snap0));
}

/// `compact()` composes with the snapshot layer: publishing after a
/// compact serves the dense arena, while pre-compact snapshots keep the
/// old (sparse) id space — each answers consistently for itself.
#[test]
fn compact_then_publish_keeps_old_snapshots_coherent() {
    let mut g = small_graph(3);
    let mut store = SnapshotStore::new(&g);
    let sparse = store.load();
    let sparse_labels: Vec<String> =
        sparse.node_ids().filter_map(|n| sparse.node_label(n).map(str::to_string)).collect();
    let victims: Vec<NodeId> = g.node_ids().take(40).collect();
    for v in victims {
        g.delete_node(v).unwrap();
    }
    let cap_before = g.node_capacity();
    g.compact();
    assert!(g.node_capacity() < cap_before);
    let dense = store.publish(&g);
    assert_eq!(dense.node_capacity(), g.node_capacity());
    // the old snapshot still resolves its own (pre-compact) ids
    let again: Vec<String> =
        sparse.node_ids().filter_map(|n| sparse.node_label(n).map(str::to_string)).collect();
    assert_eq!(sparse_labels, again);
    // and label-level content of the dense snapshot matches the live graph
    let mut live: Vec<&str> = g.nodes().map(|n| n.label).collect();
    let mut frozen: Vec<&str> = dense.node_ids().filter_map(|n| dense.node_label(n)).collect();
    live.sort_unstable();
    frozen.sort_unstable();
    assert_eq!(live, frozen);
}

/// Batch query execution through the facade: parallel `run_batch`
/// equals per-query sequential execution on a generated two-source
/// system (end-to-end, through reformulation and conversion).
#[test]
fn run_batch_equals_sequential_on_generated_sources() {
    use onion_core::testkit::{overlap_pair, random_queries, OverlapSpec};

    let pair = overlap_pair(&OverlapSpec {
        seed: 5,
        concepts: 120,
        overlap: 0.3,
        rename_prob: 0.5,
        max_children: 5,
    });
    let mut rules = RuleSet::new();
    for (l, r) in &pair.truth {
        let (lo, ln) = l.split_once('.').unwrap();
        let (ro, rn) = r.split_once('.').unwrap();
        rules
            .push(ArticulationRule::term_implies(Term::qualified(lo, ln), Term::qualified(ro, rn)));
    }
    let art = ArticulationGenerator::new().generate(&rules, &[&pair.left, &pair.right]).unwrap();
    let queries = random_queries(&art, "Price", 24, 11);

    let mut system = onion_core::OnionSystem::new(pair.lexicon.clone());
    system.add_source(pair.left.clone());
    system.add_source(pair.right.clone());
    system.set_articulation(art);
    let mut lkb = KnowledgeBase::new("left");
    let mut rkb = KnowledgeBase::new("right");
    for (kb, onto) in [(&mut lkb, &pair.left), (&mut rkb, &pair.right)] {
        let classes: Vec<String> = onto.graph().nodes().map(|x| x.label.to_string()).collect();
        for i in 0..200 {
            let class = &classes[i % classes.len()];
            kb.add(
                Instance::new(&format!("{}_{i}", kb.name()), class)
                    .with("Price", Value::Num(((i * 37) % 50_000) as f64)),
            );
        }
    }
    system.add_knowledge_base(lkb);
    system.add_knowledge_base(rkb);

    let sequential: Vec<ResultSet> = queries.iter().map(|q| system.run_query(q).unwrap()).collect();
    for threads in [1usize, 2, 4] {
        let exec = Executor::new(threads);
        let batch = system.run_batch(&exec, &queries);
        let got: Vec<ResultSet> = batch.into_iter().map(|r| r.unwrap().as_ref().clone()).collect();
        assert_eq!(got, sequential, "threads={threads}");
    }
}
