//! Per-label transitive closure.
//!
//! The paper's ontologies carry rules such as "the transitive nature of
//! the `SubclassOf` relationship" (§2.5), and the articulation generator
//! materialises "the transitive closure of the edges" in expert-selected
//! portions (§4.2). This module computes closures as pair sets or writes
//! them back into a graph as new edges.

use std::collections::{HashSet, VecDeque};

use crate::graph::{NodeId, OntGraph};
use crate::hash::FxHashSet;
use crate::label::LabelId;
use crate::traverse::EdgeFilter;
use crate::Result;

/// All pairs `(a, b)` with a non-empty directed path from `a` to `b`
/// using only `filter`-admitted edges. Self-pairs appear only for nodes
/// on cycles.
///
/// The filter is resolved to label ids once and the BFS runs on a dense
/// arena-indexed adjacency with an epoch-stamped visited vector — no
/// per-edge string work, no hashing in the inner loop.
pub fn transitive_pairs(g: &OntGraph, filter: &EdgeFilter) -> FxHashSet<(NodeId, NodeId)> {
    let rf = filter.resolve(g);
    let cap = g.node_capacity();
    // CSR adjacency restricted to the filter: two passes over the edge
    // arena, no per-node allocation
    let mut deg = vec![0usize; cap];
    for (_, src, lid, _) in g.edge_entries() {
        if rf.admits(lid) {
            deg[src.index()] += 1;
        }
    }
    let mut start_of = vec![0usize; cap + 1];
    for i in 0..cap {
        start_of[i + 1] = start_of[i] + deg[i];
    }
    let mut flat = vec![NodeId(0); start_of[cap]];
    let mut fill = start_of.clone();
    for (_, src, lid, dst) in g.edge_entries() {
        if rf.admits(lid) {
            flat[fill[src.index()]] = dst;
            fill[src.index()] += 1;
        }
    }
    let adj = |n: NodeId| &flat[start_of[n.index()]..start_of[n.index() + 1]];

    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    let mut stamp: Vec<u32> = vec![0; cap];
    let mut epoch: u32 = 0;
    let mut q: VecDeque<NodeId> = VecDeque::new();
    for start in g.node_ids() {
        if adj(start).is_empty() {
            continue;
        }
        epoch += 1;
        q.push_back(start);
        // note: `start` not pre-stamped, so a path back to start is
        // found; the stamp guarantees each (start, m) is pushed once
        while let Some(n) = q.pop_front() {
            for &m in adj(n) {
                if stamp[m.index()] != epoch {
                    stamp[m.index()] = epoch;
                    pairs.push((start, m));
                    q.push_back(m);
                }
            }
        }
    }
    let mut set = FxHashSet::with_capacity_and_hasher(pairs.len(), Default::default());
    set.extend(pairs);
    set
}

/// Materialises the transitive closure of `label` edges: for every path
/// `a →* b` adds the edge `(a, label, b)` unless present. Returns the
/// number of edges added.
///
/// Self-loops discovered through cycles are **not** added (a term being
/// its own subclass carries no information and consistency checking
/// rejects subclass cycles separately).
pub fn materialize_closure(g: &mut OntGraph, label: &str) -> Result<usize> {
    let pairs = transitive_pairs(g, &EdgeFilter::label(label));
    let lid = g.intern(label);
    let mut added = 0;
    for (a, b) in pairs {
        if a == b {
            continue;
        }
        if g.find_edge_by_ids(a, lid, b).is_none() {
            g.add_edge(a, label, b)?;
            added += 1;
        }
    }
    Ok(added)
}

/// The closure *reduction*: removes `label` edges implied by transitivity
/// through other `label` edges (the inverse of
/// [`materialize_closure`]). Returns the number of edges removed.
pub fn transitive_reduce(g: &mut OntGraph, label: &str) -> Result<usize> {
    let Some(lid) = g.label_id(label) else { return Ok(0) };
    // Collect candidate edges first.
    let edges: Vec<(NodeId, NodeId)> = g
        .edge_entries()
        .filter(|&(_, _, l, _)| l == lid)
        .map(|(_, src, _, dst)| (src, dst))
        .collect();
    let mut removed = 0;
    for (a, b) in edges {
        // Is there an alternative path a -> b of length >= 2 avoiding the
        // direct edge?
        if indirect_path_exists(g, a, b, lid) {
            let e =
                g.find_edge_by_ids(a, lid, b).expect("edge collected above and not yet deleted");
            g.delete_edge(e)?;
            removed += 1;
        }
    }
    Ok(removed)
}

fn indirect_path_exists(g: &OntGraph, a: NodeId, b: NodeId, label: LabelId) -> bool {
    let mut seen: HashSet<NodeId> = HashSet::new();
    let mut q: VecDeque<NodeId> = VecDeque::new();
    // start from a's label-successors other than the direct hop to b
    for m in g.out_neighbors_by_id(a, label) {
        if m != b && seen.insert(m) {
            q.push_back(m);
        }
    }
    while let Some(n) = q.pop_front() {
        if n == b {
            return true;
        }
        for m in g.out_neighbors_by_id(n, label) {
            // never traverse the direct edge under test — a cycle can
            // lead back to `a`, and a "path" finishing with (a, b)
            // itself must not justify deleting (a, b)
            if n == a && m == b {
                continue;
            }
            if m == b {
                return true;
            }
            if seen.insert(m) {
                q.push_back(m);
            }
        }
    }
    false
}

/// All ancestors of `n` along `label` edges (excluding `n` unless cyclic):
/// e.g. all superclasses under `SubclassOf`.
pub fn ancestors(g: &OntGraph, n: NodeId, label: &str) -> FxHashSet<NodeId> {
    follow(g, n, label, true)
}

/// All descendants of `n` along `label` edges: e.g. all subclasses.
pub fn descendants(g: &OntGraph, n: NodeId, label: &str) -> FxHashSet<NodeId> {
    follow(g, n, label, false)
}

fn follow(g: &OntGraph, n: NodeId, label: &str, up: bool) -> FxHashSet<NodeId> {
    let Some(lid) = g.label_id(label) else { return FxHashSet::default() };
    // dense visited vector + stack frontier (the result is a set, so
    // visit order is free); the hash set is built once at the end
    let mut visited = vec![false; g.node_capacity()];
    let mut reached: Vec<NodeId> = Vec::new();
    let mut frontier: Vec<NodeId> = vec![n];
    let mut scan = 0;
    while scan < frontier.len() {
        let cur = frontier[scan];
        scan += 1;
        if up {
            for m in g.out_neighbors_by_id(cur, lid) {
                if !visited[m.index()] {
                    visited[m.index()] = true;
                    reached.push(m);
                    frontier.push(m);
                }
            }
        } else {
            for m in g.in_neighbors_by_id(cur, lid) {
                if !visited[m.index()] {
                    visited[m.index()] = true;
                    reached.push(m);
                    frontier.push(m);
                }
            }
        }
    }
    let mut set = FxHashSet::with_capacity_and_hasher(reached.len(), Default::default());
    set.extend(reached);
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel;

    fn hierarchy() -> OntGraph {
        // SUV -S-> Car -S-> Vehicle, Truck -S-> Vehicle
        let mut g = OntGraph::new("t");
        for (a, b) in [("SUV", "Car"), ("Car", "Vehicle"), ("Truck", "Vehicle")] {
            g.ensure_edge_by_labels(a, rel::SUBCLASS_OF, b).unwrap();
        }
        g
    }

    #[test]
    fn transitive_pairs_of_chain() {
        let g = hierarchy();
        let pairs = transitive_pairs(&g, &EdgeFilter::label(rel::SUBCLASS_OF));
        let lbl = |n: NodeId| g.node_label(n).unwrap().to_string();
        let set: HashSet<(String, String)> =
            pairs.into_iter().map(|(a, b)| (lbl(a), lbl(b))).collect();
        assert!(set.contains(&("SUV".into(), "Vehicle".into())));
        assert!(set.contains(&("SUV".into(), "Car".into())));
        assert!(set.contains(&("Car".into(), "Vehicle".into())));
        assert!(!set.contains(&("Vehicle".into(), "SUV".into())));
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn pairs_include_cycle_self_pairs() {
        let mut g = OntGraph::new("t");
        g.ensure_edge_by_labels("A", "S", "B").unwrap();
        g.ensure_edge_by_labels("B", "S", "A").unwrap();
        let pairs = transitive_pairs(&g, &EdgeFilter::All);
        let a = g.node_by_label("A").unwrap();
        let b = g.node_by_label("B").unwrap();
        assert!(pairs.contains(&(a, a)));
        assert!(pairs.contains(&(b, b)));
        assert_eq!(pairs.len(), 4);
    }

    #[test]
    fn materialize_adds_only_missing() {
        let mut g = hierarchy();
        let added = materialize_closure(&mut g, rel::SUBCLASS_OF).unwrap();
        assert_eq!(added, 1); // SUV -> Vehicle
        assert!(g.has_edge("SUV", rel::SUBCLASS_OF, "Vehicle"));
        // idempotent
        assert_eq!(materialize_closure(&mut g, rel::SUBCLASS_OF).unwrap(), 0);
    }

    #[test]
    fn materialize_skips_cycle_self_loops() {
        let mut g = OntGraph::new("t");
        g.ensure_edge_by_labels("A", "S", "B").unwrap();
        g.ensure_edge_by_labels("B", "S", "A").unwrap();
        materialize_closure(&mut g, "S").unwrap();
        assert!(!g.has_edge("A", "S", "A"));
        assert!(!g.has_edge("B", "S", "B"));
    }

    #[test]
    fn materialize_ignores_other_labels() {
        let mut g = OntGraph::new("t");
        g.ensure_edge_by_labels("A", "S", "B").unwrap();
        g.ensure_edge_by_labels("B", "other", "C").unwrap();
        materialize_closure(&mut g, "S").unwrap();
        assert!(!g.has_edge("A", "S", "C"));
    }

    #[test]
    fn reduce_inverts_materialize() {
        let mut g = hierarchy();
        materialize_closure(&mut g, rel::SUBCLASS_OF).unwrap();
        let removed = transitive_reduce(&mut g, rel::SUBCLASS_OF).unwrap();
        assert_eq!(removed, 1);
        assert!(g.same_shape(&hierarchy()));
    }

    #[test]
    fn ancestors_and_descendants() {
        let g = hierarchy();
        let suv = g.node_by_label("SUV").unwrap();
        let vehicle = g.node_by_label("Vehicle").unwrap();
        let anc = ancestors(&g, suv, rel::SUBCLASS_OF);
        assert_eq!(anc.len(), 2); // Car, Vehicle
        let desc = descendants(&g, vehicle, rel::SUBCLASS_OF);
        assert_eq!(desc.len(), 3); // Car, SUV, Truck
        assert!(desc.contains(&suv));
    }

    #[test]
    fn ancestors_of_root_is_empty() {
        let g = hierarchy();
        let vehicle = g.node_by_label("Vehicle").unwrap();
        assert!(ancestors(&g, vehicle, rel::SUBCLASS_OF).is_empty());
    }
}
