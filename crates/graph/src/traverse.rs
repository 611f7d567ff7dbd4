//! Traversals and reachability over ontology graphs.
//!
//! These underpin several parts of the paper: transitive `SubclassOf`
//! reasoning (§2.5), the articulation generator's structure inheritance
//! (§4.2 "the transitive closure of the edges"), and the Difference
//! operator's path condition (§5.3: a node survives only if "there exists
//! no path from n to any n′ in N2").
//!
//! Every reachability question runs one breadth-first loop: [`bfs`],
//! [`reachable`], [`reachable_from_all`] and [`has_path`] all call it.
//! It resolves its [`EdgeFilter`] once and then walks the graph's
//! incident lists, comparing label ids, never strings. "What does `n`
//! reach by a path of one or more edges" (the superclasses of a class,
//! say) is a walk from `n`'s direct neighbours: `n` is then reached
//! only through a cycle.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::graph::{NodeId, OntGraph};
use crate::hash::FxHashSet;
use crate::label::LabelId;

/// Which edge direction a traversal follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow edges from source to target.
    Forward,
    /// Follow edges from target to source.
    Backward,
    /// Treat edges as undirected.
    Both,
}

/// Edge-label filter for traversals.
#[derive(Debug, Clone)]
pub enum EdgeFilter {
    /// Follow every edge.
    All,
    /// Follow only edges whose label is in this set.
    Labels(Vec<String>),
}

impl EdgeFilter {
    /// Filter for a single label.
    pub fn label(l: &str) -> Self {
        EdgeFilter::Labels(vec![l.to_string()])
    }

    /// Resolves the filter's labels against `g`'s interner once, so the
    /// traversal itself never compares strings. Labels the graph has
    /// never interned cannot match any edge and are dropped here.
    pub fn resolve(&self, g: &OntGraph) -> ResolvedFilter {
        match self {
            EdgeFilter::All => ResolvedFilter::All,
            EdgeFilter::Labels(ls) => {
                ResolvedFilter::Ids(ls.iter().filter_map(|l| g.label_id(l)).collect())
            }
        }
    }
}

/// An [`EdgeFilter`] with its labels interned for one graph — the form
/// every traversal in this module actually runs on.
#[derive(Debug, Clone)]
pub enum ResolvedFilter {
    /// Follow every edge.
    All,
    /// Follow only edges with one of these interned labels.
    Ids(Vec<LabelId>),
}

impl ResolvedFilter {
    /// Does the filter admit an edge with this label id?
    #[inline]
    pub fn admits(&self, label: LabelId) -> bool {
        match self {
            ResolvedFilter::All => true,
            ResolvedFilter::Ids(ids) => ids.contains(&label),
        }
    }
}

/// Visits each admitted neighbour of `n` (push style: one pass over
/// each followed incident list, with an id comparison per edge under a
/// `Labels` filter).
#[inline]
fn for_each_neighbor(
    g: &OntGraph,
    n: NodeId,
    dir: Direction,
    filter: &ResolvedFilter,
    mut f: impl FnMut(NodeId),
) {
    if matches!(dir, Direction::Forward | Direction::Both) {
        for (_, lid, dst) in g.out_edge_entries(n) {
            if filter.admits(lid) {
                f(dst);
            }
        }
    }
    if matches!(dir, Direction::Backward | Direction::Both) {
        for (_, lid, src) in g.in_edge_entries(n) {
            if filter.admits(lid) {
                f(src);
            }
        }
    }
}

/// The one reachability loop: breadth-first from the live nodes of
/// `starts` (each entered once, in order), then along `filter`-admitted
/// edges in `dir`. Returns the nodes in the order they were entered,
/// the starts first; that list is also the walk's queue. The walk ends
/// early right after entering a node `stop` accepts.
fn walk(
    g: &OntGraph,
    starts: &[NodeId],
    dir: Direction,
    filter: &EdgeFilter,
    stop: impl Fn(NodeId) -> bool,
) -> Vec<NodeId> {
    let rf = filter.resolve(g);
    let mut visited = vec![false; g.node_capacity()];
    let mut order = Vec::new();
    for &s in starts {
        if g.is_live_node(s) && !visited[s.index()] {
            visited[s.index()] = true;
            order.push(s);
            if stop(s) {
                return order;
            }
        }
    }
    let mut next = 0;
    while let Some(&n) = order.get(next) {
        next += 1;
        let mut stopped = false;
        for_each_neighbor(g, n, dir, &rf, |m| {
            if !stopped && !visited[m.index()] {
                visited[m.index()] = true;
                order.push(m);
                stopped = stop(m);
            }
        });
        if stopped {
            break;
        }
    }
    order
}

/// Breadth-first order from `start` (inclusive).
pub fn bfs(g: &OntGraph, start: NodeId, dir: Direction, filter: &EdgeFilter) -> Vec<NodeId> {
    walk(g, &[start], dir, filter, |_| false)
}

/// The set of nodes reachable from `start` (inclusive).
pub fn reachable(
    g: &OntGraph,
    start: NodeId,
    dir: Direction,
    filter: &EdgeFilter,
) -> FxHashSet<NodeId> {
    reachable_from_all(g, &[start], dir, filter)
}

/// The set of nodes reachable from any node in `starts` (inclusive).
pub fn reachable_from_all(
    g: &OntGraph,
    starts: &[NodeId],
    dir: Direction,
    filter: &EdgeFilter,
) -> FxHashSet<NodeId> {
    walk(g, starts, dir, filter, |_| false).into_iter().collect()
}

/// True if a (directed, filtered) path from `a` to `b` exists. The walk
/// stops at `b`, so `b` is the last node it entered exactly when found.
pub fn has_path(g: &OntGraph, a: NodeId, b: NodeId, filter: &EdgeFilter) -> bool {
    if a == b {
        return g.is_live_node(a);
    }
    walk(g, &[a], Direction::Forward, filter, |n| n == b).last() == Some(&b)
}

/// Topological order of the subgraph induced by `filter`ed edges.
///
/// Returns `Err(cycle_nodes)` with one witness cycle's nodes when the
/// filtered subgraph is cyclic — used by consistency checking to reject
/// cyclic `SubclassOf` hierarchies.
pub fn topo_sort(
    g: &OntGraph,
    filter: &EdgeFilter,
) -> std::result::Result<Vec<NodeId>, Vec<NodeId>> {
    let rf = filter.resolve(g);
    let live = g.node_count();
    let mut indeg: Vec<usize> = vec![0; g.node_capacity()];
    for (_, _, lid, dst) in g.edge_entries() {
        if rf.admits(lid) {
            indeg[dst.index()] += 1;
        }
    }
    let mut q: VecDeque<NodeId> = g.node_ids().filter(|n| indeg[n.index()] == 0).collect();
    let mut order = Vec::with_capacity(live);
    while let Some(n) = q.pop_front() {
        order.push(n);
        for_each_neighbor(g, n, Direction::Forward, &rf, |dst| {
            indeg[dst.index()] -= 1;
            if indeg[dst.index()] == 0 {
                q.push_back(dst);
            }
        });
    }
    if order.len() == live {
        Ok(order)
    } else {
        // find one witness cycle among remaining nodes
        let remaining: HashSet<NodeId> = g.node_ids().filter(|n| indeg[n.index()] > 0).collect();
        Err(find_cycle_within(g, &remaining, &rf))
    }
}

fn find_cycle_within(
    g: &OntGraph,
    within: &HashSet<NodeId>,
    filter: &ResolvedFilter,
) -> Vec<NodeId> {
    // walk forward from an arbitrary node until a repeat
    let start = *within.iter().min().expect("non-empty remainder");
    let mut path = vec![start];
    let mut on_path: HashMap<NodeId, usize> = HashMap::new();
    on_path.insert(start, 0);
    let mut cur = start;
    loop {
        let next = g
            .out_edge_entries(cur)
            .filter(|(_, lid, dst)| filter.admits(*lid) && within.contains(dst))
            .map(|(_, _, dst)| dst)
            .next()
            .expect("every remaining node has an admissible out-edge in the cyclic core");
        if let Some(&i) = on_path.get(&next) {
            return path[i..].to_vec();
        }
        on_path.insert(next, path.len());
        path.push(next);
        cur = next;
    }
}

/// Strongly connected components (Tarjan, iterative).
///
/// Components are returned in reverse topological order of the condensed
/// graph; singleton components without self-loops are included.
pub fn tarjan_scc(g: &OntGraph, filter: &EdgeFilter) -> Vec<Vec<NodeId>> {
    let rf = filter.resolve(g);
    #[derive(Clone, Copy)]
    struct Meta {
        index: u32,
        low: u32,
        on_stack: bool,
        visited: bool,
    }
    let cap = g.node_ids().map(|n| n.index() + 1).max().unwrap_or(0);
    let mut meta = vec![Meta { index: 0, low: 0, on_stack: false, visited: false }; cap];
    let mut counter: u32 = 0;
    let mut stack: Vec<NodeId> = Vec::new();
    let mut components = Vec::new();

    // Iterative Tarjan with an explicit call stack.
    enum Frame {
        Enter(NodeId),
        Resume(NodeId, Vec<NodeId>, usize),
    }

    for root in g.node_ids() {
        if meta[root.index()].visited {
            continue;
        }
        let mut call = vec![Frame::Enter(root)];
        while let Some(frame) = call.pop() {
            match frame {
                Frame::Enter(v) => {
                    let m = &mut meta[v.index()];
                    m.visited = true;
                    m.index = counter;
                    m.low = counter;
                    counter += 1;
                    m.on_stack = true;
                    stack.push(v);
                    let mut succ: Vec<NodeId> = Vec::new();
                    for_each_neighbor(g, v, Direction::Forward, &rf, |m| succ.push(m));
                    call.push(Frame::Resume(v, succ, 0));
                }
                Frame::Resume(v, succ, mut i) => {
                    let mut descended = false;
                    while i < succ.len() {
                        let w = succ[i];
                        i += 1;
                        if !meta[w.index()].visited {
                            call.push(Frame::Resume(v, succ.clone(), i));
                            call.push(Frame::Enter(w));
                            descended = true;
                            break;
                        } else if meta[w.index()].on_stack {
                            let wl = meta[w.index()].index;
                            let m = &mut meta[v.index()];
                            m.low = m.low.min(wl);
                        }
                    }
                    if descended {
                        continue;
                    }
                    // all successors done
                    if meta[v.index()].low == meta[v.index()].index {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack non-empty");
                            meta[w.index()].on_stack = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        components.push(comp);
                    }
                    // propagate lowlink to parent Resume frame
                    if let Some(Frame::Resume(p, _, _)) = call.last() {
                        let p = *p;
                        let vl = meta[v.index()].low;
                        let pm = &mut meta[p.index()];
                        pm.low = pm.low.min(vl);
                    }
                }
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> (OntGraph, Vec<NodeId>) {
        let mut g = OntGraph::new("t");
        let ids: Vec<NodeId> =
            ["A", "B", "C", "D"].iter().map(|l| g.add_node(l).unwrap()).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], "S", w[1]).unwrap();
        }
        (g, ids)
    }

    #[test]
    fn bfs_order_from_chain_head() {
        let (g, ids) = chain();
        let order = bfs(&g, ids[0], Direction::Forward, &EdgeFilter::All);
        assert_eq!(order, ids);
    }

    #[test]
    fn bfs_respects_direction() {
        let (g, ids) = chain();
        let fwd = bfs(&g, ids[3], Direction::Forward, &EdgeFilter::All);
        assert_eq!(fwd, vec![ids[3]]);
        let bwd = bfs(&g, ids[3], Direction::Backward, &EdgeFilter::All);
        assert_eq!(bwd.len(), 4);
        let both = bfs(&g, ids[1], Direction::Both, &EdgeFilter::All);
        assert_eq!(both.len(), 4);
    }

    #[test]
    fn bfs_respects_edge_filter() {
        let mut g = OntGraph::new("t");
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        let c = g.add_node("C").unwrap();
        g.add_edge(a, "S", b).unwrap();
        g.add_edge(a, "A", c).unwrap();
        let only_s = bfs(&g, a, Direction::Forward, &EdgeFilter::label("S"));
        assert_eq!(only_s, vec![a, b]);
    }

    #[test]
    fn dead_start_yields_empty() {
        let (mut g, ids) = chain();
        g.delete_node(ids[0]).unwrap();
        assert!(bfs(&g, ids[0], Direction::Forward, &EdgeFilter::All).is_empty());
    }

    #[test]
    fn has_path_follows_edge_direction() {
        let (g, ids) = chain();
        assert!(has_path(&g, ids[0], ids[3], &EdgeFilter::All));
        assert!(!has_path(&g, ids[3], ids[0], &EdgeFilter::All));
        assert!(has_path(&g, ids[1], ids[1], &EdgeFilter::All));
    }

    /// SUV -S-> Car -S-> Vehicle, Truck -S-> Vehicle.
    fn hierarchy() -> OntGraph {
        let mut g = OntGraph::new("t");
        for (a, b) in [("SUV", "Car"), ("Car", "Vehicle"), ("Truck", "Vehicle")] {
            g.ensure_edge_by_labels(a, "S", b).unwrap();
        }
        g
    }

    /// What `n` reaches by a path of one or more edges: a walk from its
    /// direct neighbours.
    fn beyond(g: &OntGraph, n: NodeId, dir: Direction) -> FxHashSet<NodeId> {
        let mut next = Vec::new();
        for_each_neighbor(g, n, dir, &ResolvedFilter::All, |m| next.push(m));
        reachable_from_all(g, &next, dir, &EdgeFilter::All)
    }

    #[test]
    fn ancestors_and_descendants() {
        let g = hierarchy();
        let id = |l: &str| g.node_by_label(l).unwrap();
        let up = |l: &str| beyond(&g, id(l), Direction::Forward);
        assert_eq!(up("SUV"), [id("Car"), id("Vehicle")].into_iter().collect());
        assert_eq!(up("Car"), [id("Vehicle")].into_iter().collect());
        let down = beyond(&g, id("Vehicle"), Direction::Backward);
        assert_eq!(down, [id("Car"), id("SUV"), id("Truck")].into_iter().collect());
    }

    #[test]
    fn transitive_pairs_of_chain() {
        // every path pair of the hierarchy, each start walked once
        let g = hierarchy();
        let lbl = |n: NodeId| g.node_label(n).unwrap().to_string();
        let pairs: HashSet<(String, String)> = g
            .node_ids()
            .flat_map(|n| beyond(&g, n, Direction::Forward).into_iter().map(move |m| (n, m)))
            .map(|(a, b)| (lbl(a), lbl(b)))
            .collect();
        assert!(pairs.contains(&("SUV".into(), "Vehicle".into())));
        assert!(pairs.contains(&("SUV".into(), "Car".into())));
        assert!(pairs.contains(&("Car".into(), "Vehicle".into())));
        assert!(!pairs.contains(&("Vehicle".into(), "SUV".into())));
        assert_eq!(pairs.len(), 4);
    }

    #[test]
    fn ancestors_of_root_is_empty() {
        let g = hierarchy();
        let vehicle = g.node_by_label("Vehicle").unwrap();
        assert!(beyond(&g, vehicle, Direction::Forward).is_empty());
    }

    #[test]
    fn a_walk_from_the_neighbours_reaches_the_start_only_through_a_cycle() {
        let mut g = OntGraph::new("t");
        g.ensure_edge_by_labels("A", "S", "B").unwrap();
        g.ensure_edge_by_labels("B", "S", "A").unwrap();
        g.ensure_edge_by_labels("B", "S", "C").unwrap();
        let id = |l: &str| g.node_by_label(l).unwrap();
        assert_eq!(beyond(&g, id("A"), Direction::Forward).len(), 3, "A, B and C");
        assert!(beyond(&g, id("C"), Direction::Forward).is_empty());
        assert!(!beyond(&g, id("C"), Direction::Backward).contains(&id("C")));
    }

    #[test]
    fn reachable_from_all_unions_sources() {
        let mut g = OntGraph::new("t");
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        let c = g.add_node("C").unwrap();
        let d = g.add_node("D").unwrap();
        g.add_edge(a, "e", b).unwrap();
        g.add_edge(c, "e", d).unwrap();
        let r = reachable_from_all(&g, &[a, c], Direction::Forward, &EdgeFilter::All);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn topo_sort_on_dag() {
        let (g, ids) = chain();
        let order = topo_sort(&g, &EdgeFilter::All).unwrap();
        let pos: HashMap<NodeId, usize> = order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for e in g.edges() {
            assert!(pos[&e.src] < pos[&e.dst]);
        }
        assert_eq!(order.len(), ids.len());
    }

    #[test]
    fn topo_sort_reports_cycle_witness() {
        let mut g = OntGraph::new("t");
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        let c = g.add_node("C").unwrap();
        g.add_edge(a, "S", b).unwrap();
        g.add_edge(b, "S", c).unwrap();
        g.add_edge(c, "S", a).unwrap();
        let cycle = topo_sort(&g, &EdgeFilter::All).unwrap_err();
        assert_eq!(cycle.len(), 3);
        // witness is a real cycle: each consecutive pair has an edge
        for i in 0..cycle.len() {
            let u = cycle[i];
            let v = cycle[(i + 1) % cycle.len()];
            assert!(g.out_edges(u).any(|e| e.dst == v));
        }
    }

    #[test]
    fn topo_sort_cycle_limited_to_filtered_labels() {
        let mut g = OntGraph::new("t");
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        g.add_edge(a, "S", b).unwrap();
        g.add_edge(b, "other", a).unwrap();
        // full graph is cyclic, S-subgraph is not
        assert!(topo_sort(&g, &EdgeFilter::All).is_err());
        assert!(topo_sort(&g, &EdgeFilter::label("S")).is_ok());
    }

    #[test]
    fn scc_finds_cycle_component() {
        let mut g = OntGraph::new("t");
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        let c = g.add_node("C").unwrap();
        let d = g.add_node("D").unwrap();
        g.add_edge(a, "e", b).unwrap();
        g.add_edge(b, "e", a).unwrap();
        g.add_edge(b, "e", c).unwrap();
        g.add_edge(c, "e", d).unwrap();
        let mut comps = tarjan_scc(&g, &EdgeFilter::All);
        comps.iter_mut().for_each(|c| c.sort_unstable());
        comps.sort_by_key(|c| c.len());
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[2], {
            let mut v = vec![a, b];
            v.sort_unstable();
            v
        });
    }

    #[test]
    fn scc_on_dag_is_all_singletons() {
        let (g, _) = chain();
        let comps = tarjan_scc(&g, &EdgeFilter::All);
        assert_eq!(comps.len(), 4);
        assert!(comps.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn scc_respects_filter() {
        let mut g = OntGraph::new("t");
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        g.add_edge(a, "S", b).unwrap();
        g.add_edge(b, "other", a).unwrap();
        let comps = tarjan_scc(&g, &EdgeFilter::label("S"));
        assert_eq!(comps.len(), 2);
        let comps = tarjan_scc(&g, &EdgeFilter::All);
        assert_eq!(comps.len(), 1);
    }
}
