//! Property-based tests on the graph substrate: transformation
//! primitives, reachability, pattern matching. Fuzzy matching (case folding,
//! a generated synonym lexicon, the schema queries' equivalence) is
//! checked against a brute-force enumeration of node mappings.

use std::collections::HashSet;

use proptest::prelude::*;

use onion_core::graph::ops::{apply_all, GraphOp};
use onion_core::graph::pattern::{EdgeConstraint, NodeConstraint};
use onion_core::graph::traverse::{has_path, EdgeFilter};
use onion_core::graph::CaseInsensitiveEquiv;
use onion_core::lexicon::SynonymEquiv;
use onion_core::prelude::*;
use onion_core::query::pattern_query::SchemaEquiv;

/// A small label alphabet keeps collision (and thus interesting merges)
/// likely.
fn label() -> impl Strategy<Value = String> {
    (0u8..12).prop_map(|i| format!("n{i}"))
}

fn edge_list() -> impl Strategy<Value = Vec<(String, String)>> {
    prop::collection::vec((label(), label()), 0..40)
}

fn graph_from(edges: &[(String, String)]) -> OntGraph {
    let mut g = OntGraph::new("prop");
    for (a, b) in edges {
        if a != b {
            let _ = g.ensure_edge_by_labels(a, "S", b);
        }
    }
    g
}

/// The oracle: every pair joined by a path of one or more edges,
/// closed by Warshall's triple loop over the edge relation.
fn brute_closure(g: &OntGraph) -> HashSet<(NodeId, NodeId)> {
    let nodes: Vec<NodeId> = g.node_ids().collect();
    let mut pairs: HashSet<(NodeId, NodeId)> =
        g.edge_entries().map(|(_, s, _, d)| (s, d)).collect();
    for &k in &nodes {
        for &i in &nodes {
            for &j in &nodes {
                if pairs.contains(&(i, k)) && pairs.contains(&(k, j)) {
                    pairs.insert((i, j));
                }
            }
        }
    }
    pairs
}

/// Local names with case, plural and synonym variants, so every fuzzy
/// equivalence relates labels that differ.
const FUZZY_NAMES: [&str; 10] =
    ["Car", "cars", "CAR", "Automobile", "auto", "Truck", "trucks", "Lorry", "Vehicle", "vehicles"];

/// Edge labels with case variants.
const FUZZY_EDGES: [&str; 4] = ["S", "s", "Rel", "REL"];

/// Label `i`: a local name under no prefix or one of two ontology
/// prefixes (`SchemaEquiv` compares qualified labels part by part).
fn fuzzy_label(i: usize) -> String {
    let prefix = ["", "carrier.", "factory."][i / FUZZY_NAMES.len() % 3];
    format!("{prefix}{}", FUZZY_NAMES[i % FUZZY_NAMES.len()])
}

/// Every node mapping of `p` into `g` that a brute-force enumeration
/// accepts, sorted: each labelled pattern node's image carries an
/// `equiv`-equivalent label, and every pattern edge has a graph edge
/// between the images whose label its constraint admits (any label
/// under `relax`).
fn brute_matches<E: LabelEquiv>(
    g: &OntGraph,
    p: &Pattern,
    equiv: &E,
    relax: bool,
) -> Vec<Vec<NodeId>> {
    let nodes: Vec<NodeId> = g.node_ids().collect();
    let edges: Vec<(NodeId, &str, NodeId)> = g.edges().map(|e| (e.src, e.label, e.dst)).collect();
    let mut out = Vec::new();
    if nodes.is_empty() {
        return out;
    }
    // an odometer over nodes^k
    let mut at = vec![0usize; p.node_count()];
    loop {
        let f: Vec<NodeId> = at.iter().map(|&i| nodes[i]).collect();
        let nodes_ok = p.nodes.iter().zip(&f).all(|(pn, &n)| match &pn.constraint {
            NodeConstraint::Any => true,
            NodeConstraint::Label(l) => equiv.node_equiv(l, g.node_label(n).expect("live")),
        });
        let edges_ok = p.edges.iter().all(|pe| {
            edges.iter().any(|&(s, l, d)| {
                (s, d) == (f[pe.src], f[pe.dst])
                    && (relax
                        || match &pe.constraint {
                            EdgeConstraint::Any => true,
                            EdgeConstraint::Label(pl) => equiv.edge_equiv(pl, l),
                        })
            })
        });
        if nodes_ok && edges_ok {
            out.push(f);
        }
        let mut digit = 0;
        loop {
            if digit == at.len() {
                out.sort();
                return out;
            }
            at[digit] += 1;
            if at[digit] < nodes.len() {
                break;
            }
            at[digit] = 0;
            digit += 1;
        }
    }
}

/// `find_all` returns exactly the brute-force matches, once each, and
/// `matches` (the one-match search) agrees on whether there is any.
fn check_fuzzy<E: LabelEquiv + Clone>(
    g: &OntGraph,
    p: &Pattern,
    equiv: E,
    relax: bool,
) -> TestCaseResult {
    let want = brute_matches(g, p, &equiv, relax);
    let m = Matcher::with_equiv(g, equiv).with_config(MatchConfig { relax_edge_labels: relax });
    let mut got: Vec<Vec<NodeId>> = m.find_all(p).unwrap().into_iter().map(|x| x.nodes).collect();
    got.sort();
    prop_assert_eq!(&got, &want);
    prop_assert_eq!(m.matches(p).unwrap(), !want.is_empty());
    Ok(())
}

proptest! {
    /// Journal replay reproduces the graph exactly.
    #[test]
    fn journal_replay_is_faithful(edges in edge_list(), delete in prop::collection::vec(label(), 0..6)) {
        let mut g = OntGraph::new("orig");
        g.enable_journal();
        for (a, b) in &edges {
            if a != b {
                let _ = g.ensure_edge_by_labels(a, "S", b);
            }
        }
        for d in &delete {
            let _ = g.delete_node_by_label(d);
        }
        let journal = g.take_journal();
        let mut replay = OntGraph::new("replay");
        apply_all(&mut replay, &journal).unwrap();
        prop_assert!(replay.same_shape(&g));
    }

    /// has_path agrees with membership in the transitive closure.
    #[test]
    fn has_path_agrees_with_closure(edges in edge_list()) {
        let g = graph_from(&edges);
        let pairs = brute_closure(&g);
        let nodes: Vec<NodeId> = g.node_ids().collect();
        for &a in nodes.iter().take(8) {
            for &b in nodes.iter().take(8) {
                if a == b { continue; }
                let reported = has_path(&g, a, b, &EdgeFilter::All);
                prop_assert_eq!(reported, pairs.contains(&(a, b)));
            }
        }
    }

    /// Node deletion removes exactly the incident edges.
    #[test]
    fn deletion_is_local(edges in edge_list(), victim in label()) {
        let mut g = graph_from(&edges);
        let Some(v) = g.node_by_label(&victim) else { return Ok(()); };
        let incident = g.out_degree(v) + g.in_degree(v);
        let edges_before = g.edge_count();
        let nodes_before = g.node_count();
        g.delete_node(v).unwrap();
        prop_assert_eq!(g.edge_count(), edges_before - incident);
        prop_assert_eq!(g.node_count(), nodes_before - 1);
    }

    /// A single-edge pattern matches exactly the edges with that label.
    #[test]
    fn single_edge_pattern_counts_edges(edges in edge_list()) {
        let g = graph_from(&edges);
        let mut p = Pattern::new();
        let x = p.any_node();
        let y = p.any_node();
        p.edge(x, "S", y);
        let matches = Matcher::new(&g).find_all(&p).unwrap();
        prop_assert_eq!(matches.len(), g.edge_count());
    }

    /// Matching a pattern extracted from the graph itself always succeeds.
    #[test]
    fn self_extracted_patterns_match(edges in edge_list()) {
        let g = graph_from(&edges);
        for e in g.edges().take(5) {
            let s = g.node_label(e.src).unwrap();
            let d = g.node_label(e.dst).unwrap();
            let mut p = Pattern::new();
            let a = p.node(s);
            let b = p.node(d);
            p.edge(a, e.label, b);
            prop_assert!(Matcher::new(&g).matches(&p).unwrap());
        }
    }

    /// merge_from is idempotent: merging the same graph twice changes
    /// nothing the second time.
    #[test]
    fn merge_from_idempotent(edges in edge_list()) {
        let src = graph_from(&edges);
        let mut dst = OntGraph::new("dst");
        dst.merge_from(&src).unwrap();
        let nodes = dst.node_count();
        let edge_count = dst.edge_count();
        dst.merge_from(&src).unwrap();
        prop_assert_eq!(dst.node_count(), nodes);
        prop_assert_eq!(dst.edge_count(), edge_count);
    }

    /// Inverses of edge ops really undo them.
    #[test]
    fn edge_op_inverse_roundtrip(edges in edge_list()) {
        let mut g = graph_from(&edges);
        let snapshot = g.edge_triples_sorted();
        let op = GraphOp::edge_add("fresh_a", "S", "fresh_b");
        op.apply(&mut g).unwrap();
        op.inverse().unwrap().apply(&mut g).unwrap();
        // fresh nodes remain but edges are restored
        prop_assert_eq!(g.edge_triples_sorted(), snapshot);
    }
}

proptest! {
    // each case enumerates up to 30^3 node mappings per equivalence
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]
    /// Under `CaseInsensitiveEquiv`, a `SynonymEquiv` over a generated
    /// lexicon and `SchemaEquiv`, with exact and relaxed edge labels,
    /// patterns whose first node is labelled (so the search seeds from
    /// the exact label index plus a scan of every node) return exactly
    /// the brute-force matches.
    #[test]
    fn fuzzy_matches_equal_a_brute_force_enumeration(
        edges in prop::collection::vec((0usize..30, 0usize..4, 0usize..30), 0..24),
        synsets in prop::collection::vec(prop::collection::vec(0usize..10, 1..4), 0..4),
        pattern_nodes in prop::collection::vec((0usize..30, 0u8..3), 1..4),
        pattern_edges in prop::collection::vec((0usize..3, 0usize..3, 0usize..5), 0..3),
    ) {
        let mut g = OntGraph::new("fuzzy");
        for &(a, l, b) in &edges {
            g.ensure_edge_by_labels(&fuzzy_label(a), FUZZY_EDGES[l], &fuzzy_label(b)).unwrap();
        }
        let mut lexicon = Lexicon::new();
        for words in &synsets {
            lexicon.add_synset(words.iter().map(|&w| FUZZY_NAMES[w]), None);
        }
        let mut p = Pattern::new();
        for (i, &(label, kind)) in pattern_nodes.iter().enumerate() {
            if i == 0 || kind > 0 {
                p.node(&fuzzy_label(label));
            } else {
                p.any_node();
            }
        }
        let k = p.node_count();
        for &(s, d, l) in &pattern_edges {
            match FUZZY_EDGES.get(l) {
                Some(label) => p.edge(s % k, label, d % k),
                None => p.any_edge(s % k, d % k),
            };
        }
        for relax in [false, true] {
            check_fuzzy(&g, &p, CaseInsensitiveEquiv, relax)?;
            check_fuzzy(&g, &p, SynonymEquiv::new(&lexicon), relax)?;
            check_fuzzy(&g, &p, SchemaEquiv, relax)?;
        }
    }
}
