//! Per-shard build: the unit of incremental publish.
//!
//! A [`SnapshotShard`] freezes the slice of an
//! [`OntGraph`](crate::OntGraph) its shard owns — nodes with
//! `index() % shard_count == shard` — as per-slot labels plus one
//! compressed-sparse-row out-adjacency. Entries carry **global**
//! [`NodeId`]s, so an edge is stored once, in its source's shard,
//! whichever shard owns its target. Each node's row keeps the live
//! graph's adjacency order, which is the order a checkpoint writes and
//! recovery restores.
//!
//! Building one shard costs `O(owned slots + their out-edges)` and
//! touches nothing outside the shard, so a publish that finds `k` dirty
//! shards does `k/N` of a full freeze (see
//! [`SnapshotStore::publish`](crate::SnapshotStore::publish)).

use crate::graph::{NodeId, OntGraph};
use crate::label::LabelId;

/// Number of arena slots a shard owns under `cap` total slots.
#[inline]
pub(crate) fn owned_slots(cap: usize, shard: usize, count: usize) -> usize {
    if cap > shard {
        (cap - shard - 1) / count + 1
    } else {
        0
    }
}

/// An immutable frozen view of one shard's slice of the graph.
///
/// Shards are shared by `Arc` between consecutive
/// [`ShardedSnapshot`](crate::ShardedSnapshot) epochs: a publish reuses
/// every shard whose [`version`](SnapshotShard::version) still matches
/// the live graph's and rebuilds only the dirty ones.
#[derive(Debug)]
pub struct SnapshotShard {
    /// Per owned slot (local index): the node's label, `None` for
    /// tombstones and never-allocated tail slots.
    labels: Vec<Option<LabelId>>,
    /// `start[local]..start[local + 1]` spans the `local`-th owned
    /// slot's `(label, dst)` entries in `out`.
    start: Vec<u32>,
    out: Vec<(LabelId, NodeId)>,
    live_nodes: usize,
    version: u64,
}

impl SnapshotShard {
    /// Freezes shard `shard` of `count` from `g` in one pass over its
    /// owned slots, stamping it with the graph's current version for
    /// that shard.
    pub(crate) fn build(g: &OntGraph, shard: usize, count: usize) -> Self {
        let owned = owned_slots(g.node_capacity(), shard, count);
        let mut labels = Vec::with_capacity(owned);
        let mut start = Vec::with_capacity(owned + 1);
        let mut out = Vec::new();
        let mut live_nodes = 0usize;
        start.push(0);
        for local in 0..owned {
            let n = NodeId((shard + local * count) as u32);
            let label = g.node_label_id(n);
            if label.is_some() {
                live_nodes += 1;
                out.extend(g.out_edge_entries(n).map(|(_, lid, dst)| (lid, dst)));
            }
            labels.push(label);
            start.push(out.len() as u32);
        }
        SnapshotShard { labels, start, out, live_nodes, version: g.shard_version(shard) }
    }

    /// The graph shard-version this shard was frozen at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Live nodes owned by this shard.
    pub fn live_nodes(&self) -> usize {
        self.live_nodes
    }

    /// Live edges whose **source** this shard owns (summing this over
    /// all shards counts every edge exactly once).
    pub fn out_edges(&self) -> usize {
        self.out.len()
    }

    #[inline]
    pub(crate) fn label_local(&self, local: usize) -> Option<LabelId> {
        self.labels.get(local).copied().flatten()
    }

    /// The out-edge row of the shard's `local`-th owned slot, in the
    /// live graph's adjacency order (empty for dead and out-of-range
    /// slots).
    #[inline]
    pub(crate) fn out_local(&self, local: usize) -> &[(LabelId, NodeId)] {
        match self.start.get(local..local + 2) {
            Some(w) => &self.out[w[0] as usize..w[1] as usize],
            None => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_slots_partition_the_capacity() {
        for cap in [0usize, 1, 7, 8, 63, 64, 65, 1000] {
            for count in [1usize, 2, 7, 64] {
                let total: usize = (0..count).map(|s| owned_slots(cap, s, count)).sum();
                assert_eq!(total, cap, "cap={cap} count={count}");
            }
        }
    }

    #[test]
    fn owned_slots_are_stable_under_growth() {
        // adding one slot grows exactly the shard that owns it
        for cap in 0usize..130 {
            for count in [2usize, 7] {
                for s in 0..count {
                    let before = owned_slots(cap, s, count);
                    let after = owned_slots(cap + 1, s, count);
                    if s == cap % count {
                        assert_eq!(after, before + 1);
                    } else {
                        assert_eq!(after, before);
                    }
                }
            }
        }
    }
}
