//! Property tests for the adjacency layer, the one view each node keeps
//! of its live edges (its incident lists): the id-typed and string-typed
//! APIs must agree on arbitrary graphs (this is the executable witness
//! that the string wrappers are thin — they resolve the label once and
//! run the same id path).
//!
//! Edge lookup has its own oracle: a brute-force search of
//! `edge_entries()` for the `(src, label, dst)` triple. `find_edge`,
//! `find_edge_by_ids`, `ensure_edge` and `add_edge`'s duplicate check
//! must agree with it on present and absent triples, after delete /
//! re-add churn, and on graphs with one hub holding a few hundred
//! out-edges under one label (the longest out-list a lookup scans).
//!
//! So does label-filtered adjacency: the neighbour iterators must equal
//! a filter of `edge_entries()` in order, and `reachable_from_all` and
//! `has_path` a search over that filtered edge list, after edge and
//! node churn.
//!
//! And the label index: a label names at most one live node, so
//! `node_by_label` must return the one node a scan of `nodes()` finds
//! with that label, after scripts that delete labels and add them back.

use std::collections::BTreeSet;

use proptest::prelude::*;

use onion_core::graph::traverse::{has_path, reachable_from_all, Direction, EdgeFilter};
use onion_core::graph::{GraphError, LabelId};
use onion_core::prelude::*;
use onion_core::testkit::{generate_graph, GraphSpec};

/// The hub's one out-edge label.
const HUB_LABEL: &str = "hubOf";

/// The oracle: the live edge carrying `(s, l, d)`, found by scanning
/// every live edge. `E` is a set, so at most one may match.
fn brute_find(
    g: &OntGraph,
    s: NodeId,
    l: LabelId,
    d: NodeId,
) -> Result<Option<EdgeId>, TestCaseError> {
    let hits: Vec<EdgeId> = g
        .edge_entries()
        .filter(|&(_, es, el, ed)| (es, el, ed) == (s, l, d))
        .map(|(e, ..)| e)
        .collect();
    prop_assert!(hits.len() <= 1, "E is a set, yet {} live edges carry one triple", hits.len());
    Ok(hits.first().copied())
}

/// Checks every edge lookup on one triple against [`brute_find`]:
/// `find_edge`, `find_edge_by_ids`, `add_edge`'s duplicate rejection
/// and `ensure_edge`. An absent triple between live nodes is added
/// through `ensure_edge` and again through `add_edge`, each time
/// checked as a present one and deleted, so the graph's edge set ends
/// as it began.
fn check_triple(g: &mut OntGraph, s: NodeId, label: &str, d: NodeId) -> TestCaseResult {
    let want = match g.label_id(label) {
        Some(l) => brute_find(g, s, l, d)?,
        None => None,
    };
    prop_assert_eq!(g.find_edge(s, label, d), want);
    if let Some(l) = g.label_id(label) {
        prop_assert_eq!(g.find_edge_by_ids(s, l, d), want);
    }
    let before = g.edge_count();
    match want {
        Some(e) => {
            let dup = g.add_edge(s, label, d);
            prop_assert!(matches!(dup, Err(GraphError::DuplicateEdge(_))), "{dup:?}");
            prop_assert_eq!(g.ensure_edge(s, label, d), Ok(e));
            prop_assert_eq!(g.edge_count(), before);
        }
        None if g.is_live_node(s) && g.is_live_node(d) => {
            for via_ensure in [true, false] {
                let added =
                    if via_ensure { g.ensure_edge(s, label, d) } else { g.add_edge(s, label, d) };
                let Ok(e) = added else {
                    return Err(TestCaseError::fail(format!("adding an absent triple: {added:?}")));
                };
                prop_assert_eq!(g.edge_count(), before + 1);
                prop_assert_eq!(g.find_edge(s, label, d), Some(e));
                check_triple(g, s, label, d)?;
                g.delete_edge(e).unwrap();
                prop_assert_eq!(g.find_edge(s, label, d), None);
                prop_assert_eq!(g.edge_count(), before);
            }
        }
        None => {
            // a dead endpoint: nothing to find, nothing can be added
            prop_assert!(g.ensure_edge(s, label, d).is_err());
            prop_assert!(g.add_edge(s, label, d).is_err());
            prop_assert_eq!(g.edge_count(), before);
        }
    }
    Ok(())
}

/// A generated mixed-label graph plus a hub node with `hub_edges`
/// out-edges under [`HUB_LABEL`]: to every generated node, then to
/// fresh leaves.
fn graph_with_hub(seed: u64, hub_edges: usize) -> OntGraph {
    let mut g = generate_graph(&GraphSpec::sized(seed, 60, 240));
    let hub = g.add_node("Hub").unwrap();
    let targets: Vec<NodeId> = g.node_ids().filter(|&n| n != hub).collect();
    for i in 0..hub_edges {
        let dst = match targets.get(i) {
            Some(&n) => n,
            None => g.add_node(&format!("Leaf{i}")).unwrap(),
        };
        g.add_edge(hub, HUB_LABEL, dst).unwrap();
    }
    g
}

/// Probes every live triple, every fourth one reversed and under the
/// next label, the hub against every node, and `random` triples drawn
/// over the live nodes, the `dead` ones and every label (plus one the
/// graph never interned).
fn check_all_lookups(
    g: &mut OntGraph,
    dead: &[NodeId],
    random: &[(usize, usize, usize)],
) -> TestCaseResult {
    let mut labels: Vec<String> = g.edge_labels().into_iter().map(str::to_string).collect();
    labels.push("NeverInterned".to_string());
    let mut probes: Vec<(NodeId, String, NodeId)> = Vec::new();
    for (i, e) in g.edges().enumerate() {
        probes.push((e.src, e.label.to_string(), e.dst));
        if i % 4 == 0 {
            let at = labels.iter().position(|l| l == e.label).expect("label in use");
            probes.push((e.src, labels[(at + 1) % labels.len()].clone(), e.dst));
            probes.push((e.dst, e.label.to_string(), e.src));
        }
    }
    let all: Vec<NodeId> = g.node_ids().chain(dead.iter().copied()).collect();
    if let Some(hub) = g.node_by_label("Hub") {
        probes.extend(all.iter().map(|&n| (hub, HUB_LABEL.to_string(), n)));
    }
    for &(a, l, b) in random {
        probes.push((all[a % all.len()], labels[l % labels.len()].clone(), all[b % all.len()]));
    }
    let triples_before = g.edge_triples_sorted();
    for (s, label, d) in probes {
        check_triple(g, s, &label, d)?;
    }
    prop_assert_eq!(g.edge_triples_sorted(), triples_before);
    Ok(())
}

/// A generated mixed-label graph after churn: every `stride`-th edge
/// deleted, the nodes `node_kills` picks deleted with their incident
/// edges, then the surviving deleted edges re-added in reverse order,
/// so incident lists no longer follow generation order. Returns the
/// graph and its deleted nodes.
fn churned_graph(seed: u64, stride: usize, node_kills: &[usize]) -> (OntGraph, Vec<NodeId>) {
    let mut g = generate_graph(&GraphSpec::sized(seed, 60, 300));
    let victims: Vec<(NodeId, String, NodeId)> =
        g.edges().step_by(stride).map(|e| (e.src, e.label.to_string(), e.dst)).collect();
    for (s, l, d) in &victims {
        let id = g.find_edge(*s, l, *d).expect("listed edge");
        g.delete_edge(id).unwrap();
    }
    let ids: Vec<NodeId> = g.node_ids().collect();
    let mut dead = Vec::new();
    for k in node_kills {
        let n = ids[k % ids.len()];
        if g.is_live_node(n) {
            g.delete_node(n).unwrap();
            dead.push(n);
        }
    }
    for (s, l, d) in victims.iter().rev() {
        if g.is_live_node(*s) && g.is_live_node(*d) {
            g.add_edge(*s, l, *d).unwrap();
        }
    }
    (g, dead)
}

/// The oracle adjacency: `n`'s neighbours across live `label` edges
/// (its out-neighbours when `out`, else its in-neighbours), by a filter
/// of `edge_entries()` in edge-id order, which is insertion order.
fn brute_neighbors(g: &OntGraph, n: NodeId, label: LabelId, out: bool) -> Vec<NodeId> {
    g.edge_entries()
        .filter(|&(_, s, l, d)| l == label && n == if out { s } else { d })
        .map(|(_, s, _, d)| if out { d } else { s })
        .collect()
}

/// The oracle traversal: every node a search from the live `starts`
/// reaches over the live edges whose label `admits`, each followed
/// forwards or backwards, read from `edge_entries()`.
fn brute_reach(
    g: &OntGraph,
    starts: &[NodeId],
    forward: bool,
    admits: &dyn Fn(LabelId) -> bool,
) -> BTreeSet<NodeId> {
    let steps: Vec<(NodeId, NodeId)> = g
        .edge_entries()
        .filter(|&(_, _, l, _)| admits(l))
        .map(|(_, s, _, d)| if forward { (s, d) } else { (d, s) })
        .collect();
    let mut seen: BTreeSet<NodeId> =
        starts.iter().copied().filter(|&s| g.is_live_node(s)).collect();
    let mut frontier: Vec<NodeId> = seen.iter().copied().collect();
    while let Some(n) = frontier.pop() {
        for &(a, b) in &steps {
            if a == n && seen.insert(b) {
                frontier.push(b);
            }
        }
    }
    seen
}

proptest! {
    /// Id-based and string-based neighbour/find APIs agree on
    /// random mixed-label graphs — and the id path never consults the
    /// interner, so agreement proves the wrappers do exactly one
    /// resolution at the boundary.
    #[test]
    fn id_and_string_apis_agree(seed in 0u64..48) {
        let g = generate_graph(&GraphSpec::sized(seed, 80, 400));
        let mut labels: Vec<String> =
            g.edges().map(|e| e.label.to_string()).collect();
        labels.push("NeverInterned".to_string());
        labels.sort();
        labels.dedup();
        for n in g.node_ids() {
            for label in &labels {
                let lid = g.label_id(label);
                let by_str: Vec<NodeId> = g.out_neighbors(n, label).collect();
                let by_id: Vec<NodeId> = match lid {
                    Some(l) => g.out_neighbors_by_id(n, l).collect(),
                    None => Vec::new(),
                };
                prop_assert_eq!(&by_str, &by_id);
                let in_str: Vec<NodeId> = g.in_neighbors(n, label).collect();
                let in_id: Vec<NodeId> = match lid {
                    Some(l) => g.in_neighbors_by_id(n, l).collect(),
                    None => Vec::new(),
                };
                prop_assert_eq!(&in_str, &in_id);
                if let Some(l) = lid {
                    for &m in &by_id {
                        prop_assert_eq!(g.find_edge(n, label, m), g.find_edge_by_ids(n, l, m));
                        prop_assert!(g.find_edge_by_ids(n, l, m).is_some());
                    }
                }
            }
            prop_assert_eq!(g.out_edge_entries(n).count(), g.out_degree(n));
            prop_assert_eq!(g.in_edge_entries(n).count(), g.in_degree(n));
        }
    }

    /// Entry iteration agrees with the `EdgeRef` view edge-by-edge.
    #[test]
    fn edge_entries_agree_with_edge_refs(seed in 0u64..48) {
        let g = generate_graph(&GraphSpec::sized(seed, 60, 300));
        let refs: Vec<(EdgeId, NodeId, String, NodeId)> =
            g.edges().map(|e| (e.id, e.src, e.label.to_string(), e.dst)).collect();
        let entries: Vec<(EdgeId, NodeId, String, NodeId)> = g
            .edge_entries()
            .map(|(e, s, l, d)| (e, s, g.resolve(l).to_string(), d))
            .collect();
        prop_assert_eq!(refs, entries);
    }

    /// Deleting and re-adding edges keeps the incident lists consistent
    /// with lookups and degrees.
    #[test]
    fn churn_keeps_indexes_consistent(seed in 0u64..32, kills in 1usize..20) {
        let mut g = generate_graph(&GraphSpec::sized(seed, 40, 200));
        // delete `kills` arbitrary edges, then re-add them
        let victims: Vec<(NodeId, String, NodeId)> = g
            .edges()
            .take(kills)
            .map(|e| (e.src, e.label.to_string(), e.dst))
            .collect();
        for (s, l, d) in &victims {
            let id = g.find_edge(*s, l, *d).expect("listed edge");
            g.delete_edge(id).unwrap();
            prop_assert!(g.find_edge(*s, l, *d).is_none());
        }
        for (s, l, d) in &victims {
            g.add_edge(*s, l, *d).unwrap();
        }
        for n in g.node_ids() {
            prop_assert_eq!(g.out_edge_entries(n).count(), g.out_degree(n));
            // every listed out-edge is found by its own triple
            for (e, lid, dst) in g.out_edge_entries(n) {
                prop_assert_eq!(g.find_edge_by_ids(n, lid, dst), Some(e));
            }
        }
    }
}

proptest! {
    // each case probes a few thousand triples, each against a scan of
    // every live edge
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]
    /// Invariant 2 of the data layer as a property of `find_edge`: it
    /// finds exactly the live triples, as does every lookup built on
    /// it, on generated graphs with one hub of a few hundred out-edges.
    #[test]
    fn edge_lookup_matches_a_brute_force_search(
        seed in 0u64..64,
        hub_edges in 150usize..400,
        random in prop::collection::vec((0usize..1000, 0usize..16, 0usize..1000), 200..201),
    ) {
        let mut g = graph_with_hub(seed, hub_edges);
        check_all_lookups(&mut g, &[], &random)?;
    }

    /// The same after churn: edges deleted (hub edges among them) and
    /// re-added, and nodes deleted (hub leaves among them) with their
    /// incident edges, so lookups also meet re-added triples, dead
    /// endpoints and tombstoned edge slots.
    #[test]
    fn edge_lookup_matches_a_brute_force_search_after_churn(
        seed in 0u64..64,
        hub_edges in 150usize..400,
        stride in 2usize..7,
        node_kills in prop::collection::vec(0usize..1000, 0..12),
        random in prop::collection::vec((0usize..1000, 0usize..16, 0usize..1000), 200..201),
    ) {
        let mut g = graph_with_hub(seed, hub_edges);
        let victims: Vec<(NodeId, String, NodeId)> = g
            .edges()
            .step_by(stride)
            .map(|e| (e.src, e.label.to_string(), e.dst))
            .collect();
        for (s, l, d) in &victims {
            let id = g.find_edge(*s, l, *d).expect("listed edge");
            g.delete_edge(id).unwrap();
        }
        check_all_lookups(&mut g, &[], &random)?;
        let ids: Vec<NodeId> = g.node_ids().collect();
        let mut dead: Vec<NodeId> = Vec::new();
        for k in &node_kills {
            let n = ids[k % ids.len()];
            if g.is_live_node(n) && g.node_label(n) != Some("Hub") {
                g.delete_node(n).unwrap();
                dead.push(n);
            }
        }
        // re-add every victim whose endpoints survived, in reverse order
        for (s, l, d) in victims.iter().rev() {
            if g.is_live_node(*s) && g.is_live_node(*d) {
                g.add_edge(*s, l, *d).unwrap();
            }
        }
        check_all_lookups(&mut g, &dead, &random)?;
    }
}

proptest! {
    // each case filters every live edge per (node, label) pair
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]
    /// Label-filtered adjacency is a filter of the live edges: for every
    /// node (deleted ones included) and every label (edge labels, a node
    /// label no edge carries, and for the string wrappers one label never
    /// interned), the id- and string-typed neighbour iterators return
    /// exactly the brute-force filter of `edge_entries()`, in order; the
    /// per-label counts partition each incident list. `reachable_from_all`
    /// (forwards and backwards) and `has_path`, under a one-label filter,
    /// a two-label filter and `All`, equal a search over that filter.
    #[test]
    fn label_filtered_adjacency_matches_a_brute_force_filter(
        seed in 0u64..64,
        stride in 2usize..7,
        node_kills in prop::collection::vec(0usize..1000, 0..10),
        starts in prop::collection::vec(0usize..1000, 1..4),
        pick in 0usize..16,
    ) {
        let (g, dead) = churned_graph(seed, stride, &node_kills);
        let mut names: Vec<String> = g.edge_labels().into_iter().map(str::to_string).collect();
        let node_label = g.node_labels_sorted()[0].to_string();
        let ids: Vec<LabelId> = names
            .iter()
            .chain([&node_label])
            .map(|l| g.label_id(l).expect("interned"))
            .collect();
        let all: Vec<NodeId> = g.node_ids().chain(dead.iter().copied()).collect();
        for &n in &all {
            let (mut out_total, mut in_total) = (0, 0);
            for &l in &ids {
                let (out, inc) = (brute_neighbors(&g, n, l, true), brute_neighbors(&g, n, l, false));
                prop_assert_eq!(&g.out_neighbors_by_id(n, l).collect::<Vec<_>>(), &out);
                prop_assert_eq!(&g.in_neighbors_by_id(n, l).collect::<Vec<_>>(), &inc);
                prop_assert_eq!(&g.out_neighbors(n, g.resolve(l)).collect::<Vec<_>>(), &out);
                prop_assert_eq!(&g.in_neighbors(n, g.resolve(l)).collect::<Vec<_>>(), &inc);
                out_total += out.len();
                in_total += inc.len();
            }
            prop_assert_eq!(out_total, g.out_degree(n));
            prop_assert_eq!(in_total, g.in_degree(n));
            prop_assert_eq!(g.out_neighbors(n, "NeverInterned").count(), 0);
            prop_assert_eq!(g.in_neighbors(n, "NeverInterned").count(), 0);
        }

        names.push("NeverInterned".to_string());
        let one = vec![names[pick % names.len()].clone()];
        let two = vec![names[pick % names.len()].clone(), names[(pick + 1) % names.len()].clone()];
        let starts: Vec<NodeId> = starts.iter().map(|&i| all[i % all.len()]).collect();
        for labels in [Some(one), Some(two), None] {
            let filter = match &labels {
                Some(ls) => EdgeFilter::Labels(ls.clone()),
                None => EdgeFilter::All,
            };
            let admits = |l: LabelId| labels.as_ref().map_or(true, |ls| ls.iter().any(|x| x == g.resolve(l)));
            for (dir, forward) in [(Direction::Forward, true), (Direction::Backward, false)] {
                let got: BTreeSet<NodeId> =
                    reachable_from_all(&g, &starts, dir, &filter).into_iter().collect();
                prop_assert_eq!(got, brute_reach(&g, &starts, forward, &admits));
            }
            for &a in &starts {
                let reach = brute_reach(&g, &[a], true, &admits);
                for &b in &all {
                    prop_assert_eq!(
                        has_path(&g, a, b, &filter),
                        reach.contains(&b),
                        "has_path({:?}, {:?}) under {:?}", a, b, filter
                    );
                }
            }
        }
    }
}

/// The label alphabet of the churn scripts: small, so labels collide and
/// come back after deletion, with one non-ASCII and one spaced label.
const CHURN_LABELS: [&str; 6] = ["A", "B", "C", "a", "Ünï", "A B"];

/// Checks `node_by_label` and `contains_label` on every churn label and
/// one never used against a scan of `nodes()`: at most one live node
/// carries a label, and the index returns exactly that node.
fn check_label_index(g: &OntGraph) -> TestCaseResult {
    for label in CHURN_LABELS.iter().copied().chain(["NeverUsed"]) {
        let hits: Vec<NodeId> = g.nodes().filter(|n| n.label == label).map(|n| n.id).collect();
        prop_assert!(hits.len() <= 1, "{} live nodes carry {:?}", hits.len(), label);
        prop_assert_eq!(g.node_by_label(label), hits.first().copied(), "{:?}", label);
        prop_assert_eq!(g.contains_label(label), !hits.is_empty(), "{:?}", label);
    }
    Ok(())
}

proptest! {
    /// The label index against a scan, under node churn. Random scripts
    /// of `add_node`, `ensure_node`, `delete_node_by_label` and
    /// `ensure_edge_by_labels` run over [`CHURN_LABELS`] on a journaled
    /// graph, and after every step `node_by_label(l)` is the one live
    /// node a scan of `nodes()` finds with label `l` (or `None`), and
    /// `contains_label(l)` agrees. `add_node` on a live label returns
    /// `DuplicateLabel` and leaves `node_count`, `edge_count` and the
    /// journal unchanged; a label deleted and then added again resolves
    /// to its new node, never to a deleted one.
    #[test]
    fn label_index_matches_a_scan_under_node_churn(
        script in prop::collection::vec((0usize..4, 0usize..6, 0usize..6), 1..80),
    ) {
        let mut g = OntGraph::new("churn");
        g.enable_journal();
        let mut deleted: Vec<NodeId> = Vec::new();
        for (op, a, b) in script {
            let (label, other) = (CHURN_LABELS[a], CHURN_LABELS[b]);
            let live = g.nodes().find(|n| n.label == label).map(|n| n.id);
            match op {
                0 => {
                    let counts = (g.node_count(), g.edge_count());
                    let journal = g.journal().to_vec();
                    match (g.add_node(label), live) {
                        (Ok(n), None) => {
                            prop_assert!(!deleted.contains(&n), "a deleted id came back");
                            prop_assert_eq!(g.node_by_label(label), Some(n));
                        }
                        (Err(GraphError::DuplicateLabel(l)), Some(_)) => {
                            prop_assert_eq!(l, label);
                            prop_assert_eq!((g.node_count(), g.edge_count()), counts);
                            prop_assert_eq!(g.journal(), &journal[..]);
                        }
                        (got, live) => {
                            return Err(TestCaseError::fail(format!(
                                "add_node({label:?}) with live node {live:?}: {got:?}"
                            )));
                        }
                    }
                }
                1 => {
                    let n = g.ensure_node(label).unwrap();
                    match live {
                        Some(m) => prop_assert_eq!(n, m),
                        None => prop_assert!(!deleted.contains(&n), "a deleted id came back"),
                    }
                    prop_assert_eq!(g.node_by_label(label), Some(n));
                }
                2 => {
                    prop_assert_eq!(g.delete_node_by_label(label).is_ok(), live.is_some());
                    deleted.extend(live);
                    prop_assert_eq!(g.node_by_label(label), None);
                }
                _ => {
                    g.ensure_edge_by_labels(label, "S", other).unwrap();
                    let (s, d) = (g.node_by_label(label).unwrap(), g.node_by_label(other).unwrap());
                    prop_assert!(!deleted.contains(&s) && !deleted.contains(&d));
                    prop_assert!(g.find_edge(s, "S", d).is_some());
                }
            }
            check_label_index(&g)?;
        }
    }
}
