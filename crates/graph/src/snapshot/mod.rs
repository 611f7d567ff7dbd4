//! Sharded, immutable frozen views of a graph: what a publish hands
//! out and what a checkpoint writes.
//!
//! Writers mutate the live [`OntGraph`] single-threaded; a publish
//! freezes it into a [`ShardedSnapshot`] — per shard, every owned
//! slot's label and out-edge row — that is `Send + Sync` and never
//! changes under a reader. It has two readers: [`SnapshotStore`], which
//! publishes it incrementally, and the WAL checkpoint writer
//! ([`crate::wal`]), which serialises each shard's labels and out-edge
//! rows. Whoever holds its `Arc` can read it too, at its epoch.
//!
//! The frozen view is **N node-partitioned shards** ([`SnapshotShard`]),
//! node `n` owned by shard `n.index() % N`. The live graph stamps a
//! per-shard version on every mutation; [`SnapshotStore::publish`]
//! rebuilds only the shards whose stamp changed and structurally shares
//! the clean ones (`Arc`) with the previous epoch, so publish cost is
//! `O(dirty shards)`, not `O(graph)`, and a checkpoint rewrites only the
//! shard files whose stamp moved.
//!
//! Node and edge-label ids are **preserved** from the source graph
//! ([`NodeId`]s index the same arena slots, [`LabelId`]s the same
//! interner entries), and each node's out-edge row keeps the live
//! graph's adjacency order.

pub(crate) mod shard;

pub use shard::SnapshotShard;

use std::sync::Arc;

use crate::graph::{NodeId, OntGraph};
use crate::label::{Interner, LabelId};

/// An immutable frozen view of an [`OntGraph`] at one epoch, stored as
/// node-partitioned shards (see the [module docs](self)).
///
/// Cheap to share (`Arc`, and clean shards are shared *between epochs*
/// too), safe to read from any thread, and guaranteed not to change
/// under a reader: mutations go to the live graph and become visible
/// only through the *next* snapshot.
#[derive(Debug, Clone)]
pub struct ShardedSnapshot {
    name: String,
    epoch: u64,
    graph_id: u64,
    interner: Arc<Interner>,
    shards: Vec<Arc<SnapshotShard>>,
    node_cap: usize,
    live_nodes: usize,
    live_edges: usize,
}

/// What one [`SnapshotStore::publish_stats`] did: how many shards were
/// rebuilt vs structurally shared with the previous epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishStats {
    /// Epoch assigned to the published snapshot.
    pub epoch: u64,
    /// Shards rebuilt because their version stamp changed (or no
    /// previous epoch was reusable).
    pub rebuilt: usize,
    /// Shards shared (`Arc`) from the previous epoch unchanged.
    pub reused: usize,
}

impl ShardedSnapshot {
    /// Freezes `g` at its configured shard count. Prefer
    /// [`OntGraph::snapshot`].
    pub fn of(g: &OntGraph) -> Self {
        let count = g.shard_count();
        let shards: Vec<Arc<SnapshotShard>> =
            (0..count).map(|s| Arc::new(SnapshotShard::build(g, s, count))).collect();
        Self::assemble(g, Arc::new(g.interner().clone()), shards, 0)
    }

    /// Freezes `g`, reusing every shard of `prev` whose version stamp
    /// still matches the live graph. Returns the snapshot and the
    /// rebuild/reuse split.
    fn of_incremental(g: &OntGraph, prev: &ShardedSnapshot, epoch: u64) -> (Self, PublishStats) {
        let count = g.shard_count();
        let comparable = prev.graph_id == g.graph_id() && prev.shard_count() == count;
        let mut rebuilt = 0usize;
        let mut reused = 0usize;
        let shards: Vec<Arc<SnapshotShard>> = (0..count)
            .map(|s| {
                if comparable && prev.shards[s].version() == g.shard_version(s) {
                    reused += 1;
                    Arc::clone(&prev.shards[s])
                } else {
                    rebuilt += 1;
                    if onion_obs::enabled() {
                        let t = std::time::Instant::now();
                        let shard = Arc::new(SnapshotShard::build(g, s, count));
                        onion_obs::observe_us!(
                            "onion_publish_shard_rebuild_us",
                            t.elapsed().as_micros()
                        );
                        shard
                    } else {
                        Arc::new(SnapshotShard::build(g, s, count))
                    }
                }
            })
            .collect();
        // the interner is append-only, so same graph + same length
        // means identical content — share it too
        let interner = if prev.graph_id == g.graph_id() && prev.interner.len() == g.interner().len()
        {
            Arc::clone(&prev.interner)
        } else {
            Arc::new(g.interner().clone())
        };
        let snap = Self::assemble(g, interner, shards, epoch);
        (snap, PublishStats { epoch, rebuilt, reused })
    }

    fn assemble(
        g: &OntGraph,
        interner: Arc<Interner>,
        shards: Vec<Arc<SnapshotShard>>,
        epoch: u64,
    ) -> Self {
        ShardedSnapshot {
            name: g.name().to_string(),
            epoch,
            graph_id: g.graph_id(),
            interner,
            live_nodes: shards.iter().map(|s| s.live_nodes()).sum(),
            live_edges: shards.iter().map(|s| s.out_edges()).sum(),
            shards,
            node_cap: g.node_capacity(),
        }
    }

    /// The source graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The store epoch this snapshot was published at (0 for snapshots
    /// taken directly via [`OntGraph::snapshot`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Identity of the graph this snapshot froze (see
    /// [`OntGraph::graph_id`]).
    pub fn graph_id(&self) -> u64 {
        self.graph_id
    }

    /// Number of shards the frozen view is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read access to one frozen shard.
    pub fn shard(&self, s: usize) -> &SnapshotShard {
        &self.shards[s]
    }

    /// True if shard `s` of this snapshot is the same allocation as
    /// shard `s` of `other` (structural sharing across epochs).
    pub fn shares_shard_with(&self, other: &ShardedSnapshot, s: usize) -> bool {
        self.shard_count() == other.shard_count() && Arc::ptr_eq(&self.shards[s], &other.shards[s])
    }

    /// Number of live nodes at freeze time.
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of live edges at freeze time.
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Upper bound (exclusive) for [`NodeId::index`], matching the
    /// source graph's [`OntGraph::node_capacity`] at freeze time.
    pub fn node_capacity(&self) -> usize {
        self.node_cap
    }

    /// Read access to the frozen interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Looks up a label id without interning.
    pub fn label_id(&self, label: &str) -> Option<LabelId> {
        self.interner.get(label)
    }

    /// Resolves an interned label id to its string.
    pub fn resolve(&self, id: LabelId) -> &str {
        self.interner.resolve(id)
    }

    /// The shard owning `n` and `n`'s slot within it.
    #[inline]
    fn shard_slot(&self, n: NodeId) -> (&SnapshotShard, usize) {
        let count = self.shards.len();
        (&self.shards[n.index() % count], n.index() / count)
    }

    /// True if `id` was a live node at freeze time.
    pub fn is_live_node(&self, id: NodeId) -> bool {
        self.node_label_id(id).is_some()
    }

    /// The label of a (frozen-live) node.
    pub fn node_label(&self, id: NodeId) -> Option<&str> {
        self.node_label_id(id).map(|l| self.interner.resolve(l))
    }

    /// The interned label id of a (frozen-live) node.
    pub fn node_label_id(&self, id: NodeId) -> Option<LabelId> {
        let (shard, local) = self.shard_slot(id);
        shard.label_local(local)
    }

    /// Iterates all frozen-live node ids, ascending.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_cap as u32).map(NodeId).filter(|&n| self.is_live_node(n))
    }

    /// The out-edges of `n` as `(label, dst)` entries, in the live
    /// graph's adjacency order (empty for dead nodes).
    pub fn out_entries(&self, n: NodeId) -> &[(LabelId, NodeId)] {
        let (shard, local) = self.shard_slot(n);
        shard.out_local(local)
    }
}

impl OntGraph {
    /// Freezes the current state into an immutable, thread-shareable
    /// [`ShardedSnapshot`] at the graph's configured shard count
    /// (epoch 0; use a [`SnapshotStore`] for epoch management and
    /// incremental publish).
    pub fn snapshot(&self) -> ShardedSnapshot {
        ShardedSnapshot::of(self)
    }
}

/// The current [`ShardedSnapshot`] of one graph: a single-writer slot.
///
/// Its owner publishes through `&mut self`, and
/// [`SnapshotStore::load`] hands out the current snapshot's `Arc`. A
/// publish replaces the store's `Arc` and leaves every loaded one
/// alone, so a reader keeps the epoch it loaded for as long as it
/// holds the `Arc`.
///
/// `publish` is **incremental**: only shards whose version stamp
/// changed since the previous epoch are rebuilt; clean shards are
/// shared structurally (see [`PublishStats`]).
#[derive(Debug)]
pub struct SnapshotStore {
    current: Arc<ShardedSnapshot>,
}

impl SnapshotStore {
    /// A store whose epoch-0 snapshot freezes `g`'s current state.
    pub fn new(g: &OntGraph) -> Self {
        SnapshotStore { current: Arc::new(g.snapshot()) }
    }

    /// The current snapshot. The returned `Arc` stays valid (and
    /// unchanged) for as long as the caller holds it, regardless of
    /// later publishes.
    pub fn load(&self) -> Arc<ShardedSnapshot> {
        Arc::clone(&self.current)
    }

    /// The epoch of the current snapshot.
    pub fn epoch(&self) -> u64 {
        self.current.epoch()
    }

    /// Freezes `g` and makes it the current snapshot, returning it. See
    /// [`SnapshotStore::publish_stats`] for the rebuild/reuse
    /// accounting.
    pub fn publish(&mut self, g: &OntGraph) -> Arc<ShardedSnapshot> {
        self.publish_stats(g).0
    }

    /// Incremental publish: rebuilds exactly the shards whose version
    /// stamps differ from the previous epoch's (all of them when the
    /// graph identity or shard count changed), bumps the epoch, and
    /// makes the new snapshot current.
    pub fn publish_stats(&mut self, g: &OntGraph) -> (Arc<ShardedSnapshot>, PublishStats) {
        let _span = onion_obs::span!("publish");
        let epoch = self.current.epoch() + 1;
        let (snap, stats) = ShardedSnapshot::of_incremental(g, &self.current, epoch);
        self.current = Arc::new(snap);
        onion_obs::count!("onion_publish_total");
        onion_obs::count!("onion_publish_shards_rebuilt_total", stats.rebuilt);
        onion_obs::count!("onion_publish_shards_reused_total", stats.reused);
        (self.load(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel;

    fn hierarchy() -> OntGraph {
        let mut g = OntGraph::new("t");
        for (a, b) in [("SUV", "Car"), ("Car", "Vehicle"), ("Truck", "Vehicle")] {
            g.ensure_edge_by_labels(a, rel::SUBCLASS_OF, b).unwrap();
        }
        g.ensure_edge_by_labels("Price", rel::ATTRIBUTE_OF, "Car").unwrap();
        // out-rows whose adjacency order is not sorted by (label, dst)
        g.ensure_edge_by_labels("Car", "Uses", "Fuel").unwrap();
        g.ensure_edge_by_labels("Car", "Uses", "Air").unwrap();
        g
    }

    /// The frozen-live node carrying `label`, if any.
    fn find(s: &ShardedSnapshot, label: &str) -> Option<NodeId> {
        s.node_ids().find(|&n| s.node_label(n) == Some(label))
    }

    #[test]
    fn snapshot_mirrors_counts_ids_and_labels() {
        let g = hierarchy();
        let s = g.snapshot();
        assert_eq!(s.node_count(), g.node_count());
        assert_eq!(s.edge_count(), g.edge_count());
        assert_eq!(s.node_capacity(), g.node_capacity());
        assert_eq!(s.node_ids().collect::<Vec<_>>(), g.node_ids().collect::<Vec<_>>());
        for n in g.node_ids() {
            assert_eq!(s.node_label(n), g.node_label(n));
            assert_eq!(s.node_label_id(n), g.node_label_id(n));
        }
        assert_eq!(s.label_id("Car"), g.label_id("Car"));
        assert_eq!(find(&s, "Car"), g.node_by_label("Car"));
    }

    #[test]
    fn snapshot_adjacency_agrees_with_graph_at_every_shard_count() {
        for count in [1usize, 2, 7, 64] {
            let mut g = hierarchy();
            g.set_shard_count(count);
            let s = g.snapshot();
            assert_eq!(s.shard_count(), count);
            for n in g.node_ids() {
                let from_g: Vec<(LabelId, NodeId)> =
                    g.out_edge_entries(n).map(|(_, lid, dst)| (lid, dst)).collect();
                assert_eq!(s.out_entries(n), from_g.as_slice(), "shards={count}");
            }
        }
    }

    #[test]
    fn shard_counts_produce_identical_reads() {
        let mut g = hierarchy();
        g.set_shard_count(1);
        let mono = g.snapshot();
        let read = |s: &ShardedSnapshot| -> Vec<_> {
            s.node_ids().map(|n| (n, s.node_label_id(n), s.out_entries(n).to_vec())).collect()
        };
        let want = read(&mono);
        for count in [2usize, 7, 64] {
            g.set_shard_count(count);
            let s = g.snapshot();
            assert_eq!(read(&s), want, "shards={count}");
            assert_eq!((s.node_count(), s.edge_count()), (mono.node_count(), mono.edge_count()));
        }
    }

    #[test]
    fn snapshot_excludes_tombstones() {
        let mut g = hierarchy();
        let car = g.node_by_label("Car").unwrap();
        g.delete_node_by_label("Car").unwrap();
        let s = g.snapshot();
        assert_eq!(s.node_count(), g.node_count());
        assert_eq!(s.edge_count(), g.edge_count());
        assert!(!s.is_live_node(car));
        assert!(s.out_entries(car).is_empty());
        assert!(find(&s, "Car").is_none());
        let dead = g.node_capacity(); // capacity spans tombstones too
        assert_eq!(s.node_capacity(), dead);
        assert_eq!(s.node_ids().count(), g.node_count());
    }

    #[test]
    fn snapshot_is_isolated_from_later_mutation() {
        let mut g = hierarchy();
        let s = g.snapshot();
        g.delete_node_by_label("Vehicle").unwrap();
        g.ensure_edge_by_labels("Bike", rel::SUBCLASS_OF, "Car").unwrap();
        // the frozen view still sees the original graph
        let vehicle = find(&s, "Vehicle").expect("still frozen-live");
        assert!(find(&s, "Bike").is_none());
        let suv = find(&s, "SUV").unwrap();
        let car = find(&s, "Car").unwrap();
        let sub = s.label_id(rel::SUBCLASS_OF).unwrap();
        assert_eq!(s.out_entries(suv), &[(sub, car)]);
        assert_eq!(s.out_entries(car)[0], (sub, vehicle));
    }

    #[test]
    fn store_epochs_advance_and_old_readers_keep_their_view() {
        let mut g = hierarchy();
        let mut store = SnapshotStore::new(&g);
        assert_eq!(store.epoch(), 0);
        let before = store.load();
        g.ensure_edge_by_labels("Bike", rel::SUBCLASS_OF, "Vehicle").unwrap();
        let after = store.publish(&g);
        assert_eq!(store.epoch(), 1);
        assert_eq!(after.epoch(), 1);
        assert_eq!(before.epoch(), 0);
        assert!(find(&before, "Bike").is_none(), "old epoch untouched");
        let bike = find(&after, "Bike").expect("new epoch sees the edit");
        assert_eq!(after.out_entries(bike).len(), 1);
        assert_eq!(store.load().epoch(), 1);
    }

    #[test]
    fn incremental_publish_rebuilds_only_dirty_shards() {
        let mut g = OntGraph::new("t");
        g.set_shard_count(4);
        // nodes 0..8 spread round-robin across the 4 shards
        for i in 0..8 {
            g.add_node(&format!("N{i}")).unwrap();
        }
        let mut store = SnapshotStore::new(&g);
        let before = store.load();
        // a self-loop on node 0 touches only shard 0
        let n0 = g.node_by_label("N0").unwrap();
        g.add_edge(n0, "loop", n0).unwrap();
        let (after, stats) = store.publish_stats(&g);
        assert_eq!(stats, PublishStats { epoch: 1, rebuilt: 1, reused: 3 });
        for s in 1..4 {
            assert!(after.shares_shard_with(&before, s), "clean shard {s} shared");
        }
        assert!(!after.shares_shard_with(&before, 0));
        assert_eq!(after.edge_count(), 1);
        // an untouched publish reuses everything
        let (_, stats) = store.publish_stats(&g);
        assert_eq!((stats.rebuilt, stats.reused), (0, 4));
    }

    #[test]
    fn publish_after_shard_count_change_or_clone_rebuilds_fully() {
        let mut g = hierarchy();
        let mut store = SnapshotStore::new(&g);
        g.set_shard_count(2);
        let (_, stats) = store.publish_stats(&g);
        assert_eq!(stats.rebuilt, 2, "count change invalidates everything");
        // a clone has a fresh identity: its versions are not comparable
        let clone = g.clone();
        let (_, stats) = store.publish_stats(&clone);
        assert_eq!(stats.rebuilt, 2);
        assert_eq!(stats.reused, 0);
    }

    #[test]
    fn cross_shard_edges_live_in_their_source_shard() {
        let mut g = OntGraph::new("t");
        g.set_shard_count(2);
        let a = g.add_node("A").unwrap(); // shard 0
        let b = g.add_node("B").unwrap(); // shard 1
        g.add_edge(a, "S", b).unwrap();
        let s = g.snapshot();
        let lid = s.label_id("S").unwrap();
        assert_eq!((a.index() % 2, b.index() % 2), (0, 1));
        assert_eq!(s.out_entries(a), &[(lid, b)]);
        assert!(s.out_entries(b).is_empty());
        assert_eq!(s.shard(0).out_edges(), 1);
        assert_eq!(s.shard(1).out_edges(), 0);
        assert_eq!(s.edge_count(), 1);
    }

    #[test]
    fn snapshot_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedSnapshot>();
        assert_send_sync::<SnapshotShard>();
        assert_send_sync::<SnapshotStore>();
    }
}
