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
//!   source shards, at most `k`) and reuses the rest;
//! * recovery keeps every node's out-edge order: the live graph,
//!   WAL-only recovery and checkpoint recovery agree node by node;
//! * the checkpoint encoder, which reads the graph's slots and out-rows
//!   directly, writes every shard file and the strings file byte for
//!   byte as the snapshot-based writer it replaced did (a copy of that
//!   writer is kept below, in `snapshot_writer`), and the manifest
//!   differs at most in its 8 epoch bytes; a directory in the old
//!   writer's format, epoch bytes set, recovers to the same graph;
//! * a recovered source articulates byte-identically to the uncrashed
//!   run.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::Path;

use proptest::prelude::*;

use onion_core::prelude::*;
use onion_core::testkit::fs::TempDir;
use onion_core::testkit::{generate_graph, GraphSpec};
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
                dur.checkpoint(&g, dur.last_lsn()).unwrap();
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

    /// Incremental checkpoint accounting: after `k` edge edits, the
    /// next checkpoint rewrites exactly the shards whose version stamp
    /// moved — the edited edges' source shards — and reuses every other
    /// shard's file.
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
        let full = dur.checkpoint(&g, dur.last_lsn()).unwrap();
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
        let inc = dur.checkpoint(&g, dur.last_lsn()).unwrap();
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

    /// The checkpoint encoder reads the graph's slots and out-rows
    /// directly. On generated graphs after node and edge churn (dead
    /// slots, out-rows not in label order) at every shard count, every
    /// shard file and the strings file equal, byte for byte, what the
    /// snapshot-based writer it replaced wrote, and the manifest differs
    /// at most in its 8 epoch bytes. A directory holding the old
    /// writer's files, its manifest carrying a publish epoch, recovers
    /// to the same graph as the new one.
    #[test]
    fn checkpoint_files_equal_the_snapshot_writers(
        seed in 0u64..1000,
        shards in prop_oneof![Just(1usize), Just(2), Just(7), Just(64)],
        churn in proptest::collection::vec((0u8..4, 0u8..255, 0u8..255), 0..60),
        epoch in 1u64..1000,
    ) {
        let mut g = generate_graph(&GraphSpec::sized(seed, 60, 240));
        g.set_shard_count(shards);
        for &(kind, a, b) in &churn {
            let nodes: Vec<NodeId> = g.node_ids().collect();
            let (x, y) = (nodes[a as usize % nodes.len()], nodes[b as usize % nodes.len()]);
            match kind {
                0 if nodes.len() > 2 => g.delete_node(x).unwrap(),
                1 => {
                    let first = g.out_edge_entries(x).next();
                    if let Some((e, _, _)) = first {
                        g.delete_edge(e).unwrap();
                    }
                }
                // appended after the row's existing edges, whatever its label
                2 => {
                    g.ensure_edge(x, VERBS[b as usize % VERBS.len()], y).unwrap();
                }
                _ => {
                    g.ensure_node(&format!("added{a}")).unwrap();
                }
            }
        }
        let td = TempDir::new("rec-encoder");
        let mut dur = Durability::create(td.path(), g.name()).unwrap();
        let last_lsn = dur.last_lsn();
        let stats = dur.checkpoint(&g, last_lsn).unwrap();
        prop_assert_eq!(stats.shards_written, shards);
        let read = |file: &str| std::fs::read(td.path().join(file)).unwrap();
        for (s, version) in g.shard_stamps().iter().enumerate() {
            let file = format!("shard-{:016x}-{s:05}-v{version:020}.bin", g.graph_id());
            let old = snapshot_writer::framed(&snapshot_writer::encode_shard(&g, s));
            prop_assert!(read(&file) == old, "shard {} of {}", s, shards);
        }
        let strings = snapshot_writer::framed(&snapshot_writer::encode_strings(&g));
        prop_assert!(read(&format!("strings-{:020}.bin", stats.seq)) == strings);
        let manifest = read(&format!("ckpt-{:020}.mf", stats.seq));
        let old = snapshot_writer::encode_manifest(&g, stats.seq, epoch, last_lsn);
        let at = snapshot_writer::epoch_offset(g.name());
        let mut masked = old.clone();
        masked[at..at + 8].fill(0);
        prop_assert!(manifest[8..] == masked[..], "only the epoch bytes differ");
        prop_assert!(manifest == snapshot_writer::framed(&masked));
        drop(dur);

        // the same checkpoint as the old writer wrote it
        let parent = TempDir::new("rec-encoder-parent");
        for entry in std::fs::read_dir(td.path()).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            if name == "meta.bin" || name.starts_with("wal-") {
                std::fs::copy(&path, parent.path().join(&name)).unwrap();
            }
        }
        for s in 0..shards {
            let file = format!("shard-{:016x}-{s:05}-v{:020}.bin", g.graph_id(), g.shard_version(s));
            let bytes = snapshot_writer::framed(&snapshot_writer::encode_shard(&g, s));
            std::fs::write(parent.path().join(file), bytes).unwrap();
        }
        std::fs::write(parent.path().join(format!("strings-{:020}.bin", stats.seq)), strings)
            .unwrap();
        std::fs::write(
            parent.path().join(format!("ckpt-{:020}.mf", stats.seq)),
            snapshot_writer::framed(&old),
        )
        .unwrap();
        let (from_new, _dur, new_stats) = Durability::open(td.path()).unwrap();
        let (from_old, _dur, old_stats) = Durability::open(parent.path()).unwrap();
        prop_assert_eq!(new_stats.manifest_seq, Some(stats.seq));
        prop_assert_eq!(old_stats.manifest_seq, Some(stats.seq));
        prop_assert_eq!(checksum(&from_old), checksum(&g));
        prop_assert_eq!(&out_rows(&from_old), &out_rows(&g));
        prop_assert_eq!(&out_rows(&from_new), &out_rows(&from_old));
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

/// A copy of the checkpoint writer as it was while checkpoints
/// serialised a frozen `ShardedSnapshot`: `SnapshotShard::build` took
/// each owned slot's label (none for a dead slot) and, for a live slot,
/// its out-edge row in adjacency order; `encode_shard`,
/// `encode_strings` and `Manifest::encode` wrote them, the manifest
/// with the snapshot's publish epoch. Every file is framed as
/// `[u32 len][u32 crc32][payload]`.
mod snapshot_writer {
    use onion_core::graph::{LabelId, NodeId, OntGraph};

    const MAGIC_MANIFEST: u32 = 0x4F4E_4D46;
    const MAGIC_STRINGS: u32 = 0x4F4E_5354;
    const MAGIC_SHARD: u32 = 0x4F4E_5348;
    const FORMAT_VERSION: u32 = 1;
    const DEAD_SLOT: u32 = u32::MAX;

    fn put_u32(p: &mut Vec<u8>, v: u32) {
        p.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64(p: &mut Vec<u8>, v: u64) {
        p.extend_from_slice(&v.to_le_bytes());
    }

    fn put_str(p: &mut Vec<u8>, s: &str) {
        put_u32(p, s.len() as u32);
        p.extend_from_slice(s.as_bytes());
    }

    /// CRC-32 (IEEE), bit by bit.
    fn crc32(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    /// `payload` as a whole file: length, CRC, payload.
    pub fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(payload.len() + 8);
        put_u32(&mut out, payload.len() as u32);
        put_u32(&mut out, crc32(payload));
        out.extend_from_slice(payload);
        out
    }

    /// A frozen shard: per owned slot its label, and one out-CSR.
    struct SnapshotShard {
        labels: Vec<Option<LabelId>>,
        start: Vec<u32>,
        out: Vec<(LabelId, NodeId)>,
        version: u64,
    }

    fn owned_slots(cap: usize, shard: usize, count: usize) -> usize {
        if cap > shard {
            (cap - shard - 1) / count + 1
        } else {
            0
        }
    }

    fn build(g: &OntGraph, shard: usize, count: usize) -> SnapshotShard {
        // slot index -> live node (a dead slot has no live `NodeId`)
        let live: std::collections::HashMap<usize, NodeId> =
            g.node_ids().map(|n| (n.index(), n)).collect();
        let owned = owned_slots(g.node_capacity(), shard, count);
        let mut labels = Vec::with_capacity(owned);
        let mut start = vec![0u32];
        let mut out = Vec::new();
        for local in 0..owned {
            let n = live.get(&(shard + local * count)).copied();
            let label = n.and_then(|n| g.node_label_id(n));
            if let (Some(n), Some(_)) = (n, label) {
                out.extend(g.out_edge_entries(n).map(|(_, lid, dst)| (lid, dst)));
            }
            labels.push(label);
            start.push(out.len() as u32);
        }
        SnapshotShard { labels, start, out, version: g.shard_version(shard) }
    }

    pub fn encode_shard(g: &OntGraph, s: usize) -> Vec<u8> {
        let count = g.shard_count();
        let shard = build(g, s, count);
        let slots = owned_slots(g.node_capacity(), s, count);
        let mut p = Vec::new();
        put_u32(&mut p, MAGIC_SHARD);
        put_u32(&mut p, s as u32);
        put_u32(&mut p, count as u32);
        put_u64(&mut p, shard.version);
        put_u32(&mut p, slots as u32);
        for local in 0..slots {
            match shard.labels.get(local).copied().flatten() {
                Some(lid) => put_u32(&mut p, lid.index() as u32),
                None => put_u32(&mut p, DEAD_SLOT),
            }
        }
        for local in 0..slots {
            let row = &shard.out[shard.start[local] as usize..shard.start[local + 1] as usize];
            put_u32(&mut p, row.len() as u32);
            for &(lid, dst) in row {
                put_u32(&mut p, lid.index() as u32);
                put_u32(&mut p, dst.index() as u32);
            }
        }
        p
    }

    pub fn encode_strings(g: &OntGraph) -> Vec<u8> {
        let mut p = Vec::new();
        put_u32(&mut p, MAGIC_STRINGS);
        put_u32(&mut p, g.interner().len() as u32);
        for (_, label) in g.interner().iter() {
            put_str(&mut p, label);
        }
        p
    }

    pub fn encode_manifest(
        g: &OntGraph,
        seq: u64,
        epoch: u64,
        last_lsn: onion_core::graph::Lsn,
    ) -> Vec<u8> {
        let mut p = Vec::new();
        put_u32(&mut p, MAGIC_MANIFEST);
        put_u32(&mut p, FORMAT_VERSION);
        put_u64(&mut p, seq);
        put_str(&mut p, g.name());
        p.push(1); // consistent-label byte
        put_u64(&mut p, g.graph_id());
        put_u64(&mut p, epoch);
        put_u32(&mut p, g.shard_count() as u32);
        put_u64(&mut p, last_lsn.0);
        put_u32(&mut p, g.shard_count() as u32);
        for s in 0..g.shard_count() {
            put_u64(&mut p, g.shard_version(s));
        }
        p
    }

    /// Offset of the epoch bytes in a manifest payload for a graph
    /// named `name`: magic, version, seq, name, label byte, graph_id.
    pub fn epoch_offset(name: &str) -> usize {
        4 + 4 + 8 + 4 + name.len() + 1 + 8
    }
}
