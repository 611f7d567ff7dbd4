//! Kill-and-restart properties of the durability layer (WAL +
//! shard-incremental checkpoints + recovery):
//!
//! * a clean restart reproduces the exact pre-crash graph, however the
//!   random op script interleaved edits, commits, and checkpoints;
//! * truncating the WAL tail at an **arbitrary byte offset** recovers
//!   to some flushed commit point — a state from the run's checksum
//!   ledger, never a torn half-batch or an invented state;
//! * tearing the newest checkpoint manifest falls back to the previous
//!   checkpoint and still replays forward to the full final state
//!   (segment retirement keeps the older manifest's WAL suffix);
//! * a checkpoint after `k` edge edits rewrites **exactly** the dirty
//!   shards (the shards whose version stamp moved: the edited edges'
//!   source shards, at most `k`) and reuses the rest, mirroring the B11
//!   incremental-publish accounting;
//! * recovery keeps every node's out-edge order: the live graph,
//!   WAL-only recovery and checkpoint recovery agree node by node;
//! * a recovered source articulates byte-identically to the uncrashed
//!   run.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::Path;

use proptest::prelude::*;

use onion_core::prelude::*;
use onion_core::testkit::fs::TempDir;
use onion_core::OnionSystem;

const VERBS: [&str; 3] = ["SubclassOf", "AttributeOf", "uses.part"];

fn node(i: u8) -> String {
    format!("n{}", i % 20)
}

/// Label-level fingerprint: node labels and edge triples, sorted.
fn checksum(g: &OntGraph) -> u64 {
    let mut h = DefaultHasher::new();
    g.node_labels_sorted().hash(&mut h);
    g.edge_triples_sorted().hash(&mut h);
    h.finish()
}

#[derive(Clone, Debug)]
enum Act {
    AddEdge(u8, u8, u8),
    DelEdge(u8, u8, u8),
    DelNode(u8),
    /// Flush the journal tail to the WAL as one committed batch.
    Commit,
    /// Commit, then take a shard-incremental checkpoint.
    Checkpoint,
}

fn edit() -> impl Strategy<Value = Act> {
    prop_oneof![
        (0u8..20, 0u8..3, 0u8..20).prop_map(|(a, l, b)| Act::AddEdge(a, l, b)),
        (0u8..20, 0u8..3, 0u8..20).prop_map(|(a, l, b)| Act::AddEdge(a, l, b)),
        (0u8..20, 0u8..3, 0u8..20).prop_map(|(a, l, b)| Act::DelEdge(a, l, b)),
        (0u8..20).prop_map(Act::DelNode),
    ]
}

fn act() -> impl Strategy<Value = Act> {
    prop_oneof![edit(), edit(), edit(), Just(Act::Commit), Just(Act::Checkpoint),]
}

struct Run {
    g: OntGraph,
    dur: Durability,
    /// Checksum after the initial (empty) state and after every flushed
    /// commit point — the states a crash may legally recover to.
    ledger: Vec<u64>,
    checkpoints: usize,
}

fn commit(g: &mut OntGraph, dur: &mut Durability, ledger: &mut Vec<u64>) {
    let ops = g.drain_journal();
    if ops.is_empty() {
        return;
    }
    dur.log_batch(&ops);
    dur.flush().unwrap();
    ledger.push(checksum(g));
}

fn run_script(dir: &Path, acts: &[Act]) -> Run {
    let mut dur = Durability::create(dir, "g").unwrap();
    let mut g = OntGraph::new("g");
    g.enable_journal();
    let mut ledger = vec![checksum(&g)];
    let mut checkpoints = 0;
    for act in acts {
        match *act {
            Act::AddEdge(a, l, b) => {
                g.ensure_edge_by_labels(&node(a), VERBS[l as usize], &node(b)).unwrap();
            }
            Act::DelEdge(a, l, b) => {
                if g.find_edge_by_labels(&node(a), VERBS[l as usize], &node(b)).is_some() {
                    g.delete_edge_by_labels(&node(a), VERBS[l as usize], &node(b)).unwrap();
                }
            }
            Act::DelNode(a) => {
                if g.node_by_label(&node(a)).is_some() {
                    g.delete_node_by_label(&node(a)).unwrap();
                }
            }
            Act::Commit => commit(&mut g, &mut dur, &mut ledger),
            Act::Checkpoint => {
                commit(&mut g, &mut dur, &mut ledger);
                let snap = ShardedSnapshot::of(&g);
                dur.checkpoint(&snap, dur.last_lsn()).unwrap();
                checkpoints += 1;
            }
        }
    }
    commit(&mut g, &mut dur, &mut ledger);
    Run { g, dur, ledger, checkpoints }
}

/// Each live node's out-edges as `(edge label, target label)` in
/// adjacency order, keyed by node label.
fn out_rows(g: &OntGraph) -> BTreeMap<String, Vec<(String, String)>> {
    g.node_ids()
        .map(|n| {
            let row = g
                .out_edges(n)
                .map(|e| (e.label.to_string(), g.node_label(e.dst).unwrap().to_string()))
                .collect();
            (g.node_label(n).unwrap().to_string(), row)
        })
        .collect()
}

fn files_with_prefix(dir: &Path, prefix: &str) -> Vec<std::path::PathBuf> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with(prefix)))
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Clean kill-and-restart: reopening reproduces the final flushed
    /// state exactly, and a second reopen is stable.
    #[test]
    fn clean_restart_reproduces_state(acts in proptest::collection::vec(act(), 1..80)) {
        let td = TempDir::new("rec-clean");
        let run = run_script(td.path(), &acts);
        let want = checksum(&run.g);
        prop_assert!(run.g.journal().is_empty(), "final commit drains the journal");
        prop_assert_eq!(run.dur.unflushed_bytes(), 0);
        drop(run);

        let (g2, dur2, stats) = Durability::open(td.path()).unwrap();
        prop_assert_eq!(checksum(&g2), want, "first reopen diverges");
        drop(dur2);
        let (g3, _dur3, _) = Durability::open(td.path()).unwrap();
        prop_assert_eq!(checksum(&g3), want, "second reopen diverges");
        // Recovery replayed from the newest checkpoint if one was taken.
        let _ = stats;
    }

    /// Crash mid-write: truncate the newest WAL segment at an arbitrary
    /// byte offset. Recovery lands on a flushed commit point — a state
    /// from the checksum ledger — never on a torn half-batch.
    #[test]
    fn torn_tail_recovers_to_a_committed_prefix(
        acts in proptest::collection::vec(act(), 1..80),
        frac in 0f64..1.0,
    ) {
        let td = TempDir::new("rec-torn");
        let run = run_script(td.path(), &acts);
        let ledger = run.ledger.clone();
        let checkpoints = run.checkpoints;
        drop(run);

        let segs = files_with_prefix(td.path(), "wal-");
        prop_assert!(!segs.is_empty());
        let last = segs.last().unwrap();
        let len = std::fs::metadata(last).unwrap().len();
        let cut = (len as f64 * frac) as u64;
        std::fs::OpenOptions::new().write(true).open(last).unwrap().set_len(cut).unwrap();

        let (g2, _dur2, stats) = Durability::open(td.path()).unwrap();
        prop_assert!(
            ledger.contains(&checksum(&g2)),
            "recovered state is not on the commit ledger (cut {} of {} bytes)", cut, len
        );
        if checkpoints > 0 {
            // Manifests live outside the WAL: a torn WAL tail never
            // loses the checkpoint itself.
            prop_assert!(stats.manifest_seq.is_some());
        }
    }

    /// Crash mid-checkpoint: the newest manifest is torn. Recovery
    /// falls back to the previous checkpoint and still replays the WAL
    /// suffix to the **full** final state (retirement keeps the older
    /// manifest's horizon replayable).
    #[test]
    fn torn_newest_manifest_still_recovers_fully(
        a in proptest::collection::vec(edit(), 1..30),
        b in proptest::collection::vec(edit(), 1..30),
        c in proptest::collection::vec(edit(), 1..30),
    ) {
        let td = TempDir::new("rec-mf");
        let mut script = a;
        script.push(Act::Checkpoint);
        script.extend(b);
        script.push(Act::Checkpoint);
        script.extend(c);
        let run = run_script(td.path(), &script);
        let want = checksum(&run.g);
        drop(run);

        let manifests = files_with_prefix(td.path(), "ckpt-");
        prop_assert!(manifests.len() >= 2, "two checkpoints retain two manifests");
        let newest = manifests.last().unwrap();
        let len = std::fs::metadata(newest).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(newest).unwrap().set_len(len / 2).unwrap();

        let (g2, _dur2, stats) = Durability::open(td.path()).unwrap();
        prop_assert_eq!(checksum(&g2), want, "fallback recovery lost flushed state");
        prop_assert!(stats.manifest_seq.is_some(), "older manifest should be used");
    }

    /// Recovery keeps each node's out-edge order, whether it replays
    /// the WAL alone or restores a checkpoint and replays the rest: the
    /// live graph and both recoveries agree node by node, in adjacency
    /// order. (In-edge order follows restore order and is not compared.)
    #[test]
    fn recovery_keeps_each_nodes_out_edge_order(
        before in proptest::collection::vec(edit(), 0..30),
        after in proptest::collection::vec(edit(), 0..30),
    ) {
        // n3's out-edges are not in (label, target) order
        let mut script = vec![
            Act::AddEdge(1, 0, 2),
            Act::AddEdge(3, 2, 4),
            Act::AddEdge(3, 0, 2),
            Act::AddEdge(3, 2, 5),
        ];
        script.extend(before);
        let split = script.len();
        script.push(Act::Commit);
        script.extend(after);
        let wal_dir = TempDir::new("rec-order-wal");
        let live = run_script(wal_dir.path(), &script).g;
        script[split] = Act::Checkpoint;
        let ckpt_dir = TempDir::new("rec-order-ckpt");
        let run = run_script(ckpt_dir.path(), &script);
        let want = out_rows(&live);
        prop_assert_eq!(&out_rows(&run.g), &want);
        drop(run);

        let (from_wal, _dur, stats) = Durability::open(wal_dir.path()).unwrap();
        prop_assert!(stats.manifest_seq.is_none());
        prop_assert_eq!(&out_rows(&from_wal), &want, "WAL-only recovery");
        let (from_ckpt, _dur, stats) = Durability::open(ckpt_dir.path()).unwrap();
        prop_assert!(stats.manifest_seq.is_some());
        prop_assert_eq!(&out_rows(&from_ckpt), &want, "checkpoint recovery");
    }

    /// Incremental checkpoint accounting, mirroring B11: after `k` edge
    /// edits, the next checkpoint rewrites exactly the shards whose
    /// version stamp moved — the edited edges' source shards — and
    /// reuses every other shard's file.
    #[test]
    fn checkpoint_rewrites_exactly_the_dirty_shards(
        seed in 0u64..1000,
        edits in proptest::collection::vec((0u8..20, 0u8..20), 1..5),
    ) {
        const SHARDS: usize = 8;
        let td = TempDir::new("rec-dirty");
        let mut dur = Durability::create(td.path(), "g").unwrap();
        let mut g = OntGraph::new("g");
        g.set_shard_count(SHARDS);
        g.enable_journal();
        // Dense-ish base graph so every shard owns nodes.
        for i in 0u8..20 {
            g.ensure_edge_by_labels(&node(i), VERBS[(seed % 3) as usize], &node(i.wrapping_add(1)))
                .unwrap();
        }
        let mut ledger = Vec::new();
        commit(&mut g, &mut dur, &mut ledger);
        let full = dur.checkpoint(&ShardedSnapshot::of(&g), dur.last_lsn()).unwrap();
        prop_assert_eq!((full.shards_written, full.shards_reused), (SHARDS, 0));

        let before: Vec<u64> = (0..SHARDS).map(|s| g.shard_version(s)).collect();
        for &(a, b) in &edits {
            g.ensure_edge_by_labels(&node(a), "probe.rel", &node(b)).unwrap();
        }
        let moved: Vec<usize> = (0..SHARDS).filter(|&s| g.shard_version(s) != before[s]).collect();
        let mut sources: Vec<usize> = edits
            .iter()
            .map(|&(a, _)| g.shard_of(g.node_by_label(&node(a)).expect("base node")))
            .collect();
        sources.sort_unstable();
        sources.dedup();
        prop_assert_eq!(&moved, &sources, "an edge edit dirties its source's shard only");
        let dirty = moved.len();

        commit(&mut g, &mut dur, &mut ledger);
        let inc = dur.checkpoint(&ShardedSnapshot::of(&g), dur.last_lsn()).unwrap();
        prop_assert_eq!(
            (inc.shards_written, inc.shards_reused),
            (dirty, SHARDS - dirty),
            "checkpoint accounting disagrees with the shard version stamps"
        );

        let want = checksum(&g);
        drop(dur);
        let (g2, _dur2, _) = Durability::open(td.path()).unwrap();
        prop_assert_eq!(checksum(&g2), want);
    }
}

/// Deleting the newest manifest outright (instead of tearing it) also
/// falls back cleanly.
#[test]
fn deleted_newest_manifest_still_recovers_fully() {
    let td = TempDir::new("rec-mf-del");
    let script = vec![
        Act::AddEdge(1, 0, 2),
        Act::AddEdge(2, 0, 3),
        Act::Checkpoint,
        Act::AddEdge(3, 1, 4),
        Act::Checkpoint,
        Act::AddEdge(4, 2, 5),
        Act::DelNode(1),
    ];
    let run = run_script(td.path(), &script);
    let want = checksum(&run.g);
    drop(run);

    let manifests = files_with_prefix(td.path(), "ckpt-");
    assert_eq!(manifests.len(), 2);
    std::fs::remove_file(manifests.last().unwrap()).unwrap();

    let (g2, _dur, stats) = Durability::open(td.path()).unwrap();
    assert_eq!(checksum(&g2), want);
    assert!(stats.manifest_seq.is_some());
}

/// End to end through the facade: a recovered source articulates
/// byte-identically to the uncrashed run (same report, same bridges).
#[test]
fn recovered_source_articulates_identically() {
    let td = TempDir::new("rec-artic");

    let mut s1 = OnionSystem::with_transport_lexicon();
    s1.add_source(examples::factory());
    s1.add_source(examples::carrier());
    s1.open_durable("carrier", td.path()).unwrap();
    let g = s1.source_mut("carrier").unwrap().graph_mut();
    g.ensure_edge_by_labels("Minivan", "SubclassOf", "Cars").unwrap();
    s1.checkpoint_source("carrier").unwrap();
    let g = s1.source_mut("carrier").unwrap().graph_mut();
    g.ensure_edge_by_labels("Cargobike", "SubclassOf", "Bicycles").unwrap();
    s1.publish_source("carrier").unwrap(); // flushed, not checkpointed
    s1.add_rules(examples::fig2_rules_text()).unwrap();
    let r1 = s1.articulate("carrier", "factory", &mut AcceptAll).unwrap();
    let art1 = render(s1.articulation().unwrap());
    drop(s1);

    let mut s2 = OnionSystem::with_transport_lexicon();
    s2.add_source(examples::factory());
    let open = s2.open_durable("carrier", td.path()).unwrap();
    assert!(open.recovered);
    s2.add_rules(examples::fig2_rules_text()).unwrap();
    let r2 = s2.articulate("carrier", "factory", &mut AcceptAll).unwrap();
    assert_eq!(r1.accepted, r2.accepted);
    assert_eq!(art1, render(s2.articulation().unwrap()));
}

/// Renders an articulation's **full** Debug form for byte-exact
/// comparison — ontology (interner layout, adjacency, shard versions),
/// bridges, rules, and the bridge-support map, which is ordered
/// (`BTreeMap`/`BTreeSet`) precisely so this rendering is
/// deterministic. The only masked artifact is `graph_id`: recovery
/// deliberately assigns the restored graph a fresh identity, so its
/// first checkpoint is full by construction.
fn render(a: &Articulation) -> String {
    let mut out = String::new();
    let s = format!("{a:?}");
    let mut rest = s.as_str();
    while let Some(i) = rest.find("graph_id: ") {
        let tail = &rest[i + "graph_id: ".len()..];
        let digits = tail.find(|c: char| !c.is_ascii_digit()).unwrap_or(tail.len());
        out.push_str(&rest[..i]);
        out.push_str("graph_id: _");
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}
