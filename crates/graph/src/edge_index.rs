//! Open-addressed `(src, label, dst) → EdgeId` index with inline keys.
//!
//! The edge index is probed once per `find_edge`/`ensure_edge` and the
//! probes are random-access (B4-style point lookups), so the limiting
//! factor is cache misses, not hashing (ROADMAP "Point-probe latency").
//! A `HashMap<(NodeId, LabelId, NodeId), EdgeId>` stores 16-byte keys
//! behind SwissTable control bytes in a separate metadata array — two
//! dependent cache lines per probe. This table instead stores the key
//! *inline* with its value in one flat array of 16-byte slots (four per
//! cache line): a probe is one multiply-hash plus a linear scan that
//! almost always ends within the first line touched.
//!
//! Deletion uses tombstones (the slot keeps its key, the value field
//! becomes the `TOMBSTONE` sentinel); rehashing on growth drops them,
//! and a rehash is also forced when tombstones outnumber live entries,
//! so churn cannot degrade probe lengths permanently. Capacity is a
//! power of two with load (live + tombstones) kept under 7/8.

use crate::graph::{EdgeId, NodeId};
use crate::label::LabelId;

/// Value sentinel: slot never used.
const EMPTY: u32 = u32::MAX;
/// Value sentinel: slot deleted (key remains for probe continuation).
const TOMBSTONE: u32 = u32::MAX - 1;
/// The FxHash multiplier (same constant as [`crate::hash`]).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One 16-byte slot: the full key inline plus the edge id / state word.
#[derive(Debug, Clone, Copy)]
struct Slot {
    src: u32,
    label: u32,
    dst: u32,
    edge: u32,
}

const VACANT: Slot = Slot { src: 0, label: 0, dst: 0, edge: EMPTY };

#[inline]
fn hash3(src: u32, label: u32, dst: u32) -> u64 {
    let mut h = 0u64;
    for w in [src, label, dst] {
        h = (h.rotate_left(5) ^ u64::from(w)).wrapping_mul(SEED);
    }
    h
}

/// The open-addressed edge index (linear probing, power-of-two
/// capacity, inline keys). Holds exactly the live `(src, label, dst)`
/// triples of its [`crate::OntGraph`].
#[derive(Debug, Clone, Default)]
pub(crate) struct EdgeIndex {
    slots: Vec<Slot>,
    live: usize,
    tombstones: usize,
}

impl EdgeIndex {
    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Looks up the edge id of a triple: one hash, one linear scan.
    #[inline]
    pub(crate) fn get(&self, src: NodeId, label: LabelId, dst: NodeId) -> Option<EdgeId> {
        if self.slots.is_empty() {
            return None;
        }
        let (s, l, d) = (src.0, label.0, dst.0);
        let mut i = hash3(s, l, d) as usize & self.mask();
        loop {
            let slot = &self.slots[i];
            if slot.edge == EMPTY {
                return None;
            }
            if slot.edge != TOMBSTONE && slot.src == s && slot.label == l && slot.dst == d {
                return Some(EdgeId(slot.edge));
            }
            i = (i + 1) & self.mask();
        }
    }

    /// True if the triple is present.
    #[inline]
    pub(crate) fn contains(&self, src: NodeId, label: LabelId, dst: NodeId) -> bool {
        self.get(src, label, dst).is_some()
    }

    /// Inserts (or updates) a triple's edge id.
    pub(crate) fn insert(&mut self, src: NodeId, label: LabelId, dst: NodeId, edge: EdgeId) {
        debug_assert!(edge.0 < TOMBSTONE, "edge arena outgrew the sentinel range");
        self.reserve_one();
        let (s, l, d) = (src.0, label.0, dst.0);
        let mut i = hash3(s, l, d) as usize & self.mask();
        let mut first_tomb: Option<usize> = None;
        loop {
            let slot = &self.slots[i];
            if slot.edge == EMPTY {
                let at = first_tomb.unwrap_or(i);
                if self.slots[at].edge == TOMBSTONE {
                    self.tombstones -= 1;
                }
                self.slots[at] = Slot { src: s, label: l, dst: d, edge: edge.0 };
                self.live += 1;
                return;
            }
            if slot.edge == TOMBSTONE {
                if first_tomb.is_none() {
                    first_tomb = Some(i);
                }
            } else if slot.src == s && slot.label == l && slot.dst == d {
                self.slots[i].edge = edge.0;
                return;
            }
            i = (i + 1) & self.mask();
        }
    }

    /// Removes a triple, returning its edge id if it was present.
    pub(crate) fn remove(&mut self, src: NodeId, label: LabelId, dst: NodeId) -> Option<EdgeId> {
        if self.slots.is_empty() {
            return None;
        }
        let (s, l, d) = (src.0, label.0, dst.0);
        let mut i = hash3(s, l, d) as usize & self.mask();
        loop {
            let slot = &self.slots[i];
            if slot.edge == EMPTY {
                return None;
            }
            if slot.edge != TOMBSTONE && slot.src == s && slot.label == l && slot.dst == d {
                let id = EdgeId(slot.edge);
                self.slots[i].edge = TOMBSTONE;
                self.live -= 1;
                self.tombstones += 1;
                // churn guard: never let dead slots dominate the table
                if self.tombstones > self.live.max(8) {
                    self.rehash(self.slots.len());
                }
                return Some(id);
            }
            i = (i + 1) & self.mask();
        }
    }

    /// Ensures room for one more entry at < 7/8 load (live + tombstones).
    fn reserve_one(&mut self) {
        if self.slots.is_empty() {
            self.slots = vec![VACANT; 16];
            return;
        }
        if (self.live + self.tombstones + 1) * 8 >= self.slots.len() * 7 {
            // size for the live set only; rehash drops tombstones
            let target = ((self.live + 1) * 4).next_power_of_two().max(16);
            self.rehash(target.max(self.slots.len()));
        }
    }

    fn rehash(&mut self, capacity: usize) {
        let old = std::mem::replace(&mut self.slots, vec![VACANT; capacity]);
        self.tombstones = 0;
        let mask = self.slots.len() - 1;
        for slot in old {
            if slot.edge == EMPTY || slot.edge == TOMBSTONE {
                continue;
            }
            let mut i = hash3(slot.src, slot.label, slot.dst) as usize & mask;
            while self.slots[i].edge != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: u32, l: u32, d: u32) -> (NodeId, LabelId, NodeId) {
        (NodeId(s), LabelId(l), NodeId(d))
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut ix = EdgeIndex::default();
        let (s, l, d) = k(1, 2, 3);
        assert_eq!(ix.get(s, l, d), None);
        ix.insert(s, l, d, EdgeId(7));
        assert_eq!(ix.get(s, l, d), Some(EdgeId(7)));
        assert!(ix.contains(s, l, d));
        assert_eq!(ix.len(), 1);
        assert_eq!(ix.remove(s, l, d), Some(EdgeId(7)));
        assert_eq!(ix.get(s, l, d), None);
        assert_eq!(ix.remove(s, l, d), None);
        assert_eq!(ix.len(), 0);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut ix = EdgeIndex::default();
        for i in 0..10_000u32 {
            ix.insert(NodeId(i), LabelId(i % 7), NodeId(i.wrapping_mul(31)), EdgeId(i));
        }
        assert_eq!(ix.len(), 10_000);
        for i in 0..10_000u32 {
            assert_eq!(
                ix.get(NodeId(i), LabelId(i % 7), NodeId(i.wrapping_mul(31))),
                Some(EdgeId(i)),
                "key {i}"
            );
        }
        assert_eq!(ix.get(NodeId(10_001), LabelId(0), NodeId(0)), None);
    }

    #[test]
    fn churn_keeps_probes_correct() {
        // add/remove cycles leave tombstones; the rehash guard must keep
        // every surviving key findable and absent keys absent
        let mut ix = EdgeIndex::default();
        for round in 0..50u32 {
            for i in 0..100u32 {
                ix.insert(NodeId(i), LabelId(round), NodeId(i + 1), EdgeId(round * 100 + i));
            }
            for i in 0..100u32 {
                assert!(ix.remove(NodeId(i), LabelId(round), NodeId(i + 1)).is_some());
            }
        }
        assert_eq!(ix.len(), 0);
        ix.insert(NodeId(5), LabelId(5), NodeId(6), EdgeId(1));
        assert_eq!(ix.get(NodeId(5), LabelId(5), NodeId(6)), Some(EdgeId(1)));
        assert_eq!(ix.get(NodeId(5), LabelId(49), NodeId(6)), None);
    }

    #[test]
    fn update_in_place_does_not_grow_live_count() {
        let mut ix = EdgeIndex::default();
        let (s, l, d) = k(9, 9, 9);
        ix.insert(s, l, d, EdgeId(1));
        ix.insert(s, l, d, EdgeId(2));
        assert_eq!(ix.len(), 1);
        assert_eq!(ix.get(s, l, d), Some(EdgeId(2)));
    }

    #[test]
    fn colliding_keys_coexist() {
        // identical hashes are impossible to force portably; instead mass
        // insert into a small table so probes wrap and overlap
        let mut ix = EdgeIndex::default();
        for i in 0..64u32 {
            ix.insert(NodeId(0), LabelId(0), NodeId(i), EdgeId(i));
        }
        for i in 0..64u32 {
            assert_eq!(ix.get(NodeId(0), LabelId(0), NodeId(i)), Some(EdgeId(i)));
        }
    }

    #[test]
    fn bulk_insert_then_half_delete_keeps_lookups_exact() {
        // 32k entries force several growth rehashes; every key must stay
        // findable through them, and deleting every other key must leave
        // exactly the odd ones
        let mut ix = EdgeIndex::default();
        let n = 32 * 1024u32;
        for i in 0..n {
            ix.insert(NodeId(i), LabelId(i % 5), NodeId(i ^ 0x55aa), EdgeId(i));
        }
        assert_eq!(ix.len(), n as usize);
        for i in 0..n {
            assert_eq!(ix.get(NodeId(i), LabelId(i % 5), NodeId(i ^ 0x55aa)), Some(EdgeId(i)));
        }
        for i in (0..n).step_by(2) {
            assert!(ix.remove(NodeId(i), LabelId(i % 5), NodeId(i ^ 0x55aa)).is_some());
        }
        assert_eq!(ix.len(), (n / 2) as usize);
        for i in 0..n {
            let got = ix.get(NodeId(i), LabelId(i % 5), NodeId(i ^ 0x55aa));
            assert_eq!(got.is_some(), i % 2 == 1, "key {i}");
        }
    }

    #[test]
    fn single_source_hot_spot_stays_correct() {
        // every key shares src 0, so all of them hash around one source's
        // neighbourhood of the table
        let mut ix = EdgeIndex::default();
        let n = 16 * 1024u32 + 100;
        for i in 0..n {
            ix.insert(NodeId(0), LabelId(1), NodeId(i), EdgeId(i));
        }
        assert_eq!(ix.len(), n as usize);
        for i in 0..n {
            assert_eq!(ix.get(NodeId(0), LabelId(1), NodeId(i)), Some(EdgeId(i)));
        }
    }
}
