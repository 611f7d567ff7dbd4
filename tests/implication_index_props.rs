//! The implication index's readers against the code they replaced.
//!
//! `onion_articulate::ImplicationIndex` is the one place that decides
//! which edges imply: `SIBridge` bridges, articulation `SubclassOf` and
//! the sources' `SubclassOf`/`InstanceOf` edges. Query reformulation
//! reads it (pinned by `reformulation_props` and `query_index_props`),
//! and so do the two readers this suite pins:
//!
//! * `algebra::difference` — the surviving graph (nodes and edges in
//!   order) and the whole `DifferenceReport` — equals a copy, kept below,
//!   of the operator before the index, which ran its own BFS per bridged
//!   term over every bridge (conversion bridges included) and the
//!   articulation's `SubclassOf` edges. Inputs are generated pairs shaped
//!   like the `articulate` benchmark's (oracle expert, inference
//!   expansion), both directions. On such pairs the two edge sets
//!   determine the same terms; they differ on conversion bridges and on
//!   source subclass edges, which the unit tests in `difference.rs` pin.
//! * With random extra implication and conversion bridges planted, the
//!   determined set equals a forward search from each bridged term over
//!   the index's edge set, keyed by `(ontology, term)` strings.
//! * `Articulation::explain_connection` and
//!   `ImplicationIndex::simple_paths` return the same path set as a copy
//!   of the old string-labelled implication graph plus the deleted
//!   `onion_graph::path::all_simple_paths`, whenever `max_paths` does not
//!   bind; when it binds, exactly `max_paths` of those paths. Term pairs
//!   include a term paired with itself, terms on no implication edge,
//!   bridge-only terms and unknown ones, on generated pairs with and
//!   without planted bridges and on Fig. 2.
//! * The generator's inference expansion seeds its `si` facts from the
//!   same edge set. After `generate` with expansion, the source labels
//!   bridged (`SIBridge`) to each live articulation node are exactly
//!   that node's `ImplicationIndex::implying_labels` in each source,
//!   asked of an index over the articulation generated without
//!   expansion: reformulation and expansion read one edge set.

use std::collections::{BTreeSet, HashSet, VecDeque};

use proptest::prelude::*;

use onion_core::algebra::DifferenceReport;
use onion_core::articulate::ImplicationIndex;
use onion_core::ontology::examples::{carrier, factory, fig2_rules};
use onion_core::prelude::*;
use onion_core::testkit::{overlap_pair, OverlapPair, OverlapSpec};
use onion_core::OnionSystem;

/// The difference operator and the connection explainer as they stood
/// before the implication index.
mod before {
    use std::collections::{HashMap, HashSet, VecDeque};

    use onion_core::algebra::DifferenceReport;
    use onion_core::graph::hash::{FxHashMap, FxHashSet};
    use onion_core::graph::traverse::{reachable_from_all, Direction, EdgeFilter};
    use onion_core::prelude::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct TermKey {
        onto: u16,
        label: u32,
    }

    struct TermSpace<'a> {
        names: Vec<String>,
        graphs: Vec<Option<&'a OntGraph>>,
        overflow: Vec<HashMap<String, u32>>,
    }

    impl<'a> TermSpace<'a> {
        fn new() -> Self {
            TermSpace { names: Vec::new(), graphs: Vec::new(), overflow: Vec::new() }
        }

        fn namespace(&mut self, name: &str, graph: Option<&'a OntGraph>) -> u16 {
            if let Some(i) = self.names.iter().position(|n| n == name) {
                return i as u16;
            }
            self.names.push(name.to_string());
            self.graphs.push(graph);
            self.overflow.push(HashMap::new());
            (self.names.len() - 1) as u16
        }

        fn intern(&mut self, onto: &str, term: &str) -> TermKey {
            let idx = self.namespace(onto, None);
            self.intern_in(idx, term)
        }

        fn intern_in(&mut self, idx: u16, term: &str) -> TermKey {
            if let Some(g) = self.graphs[idx as usize] {
                if let Some(lid) = g.label_id(term) {
                    return TermKey { onto: idx, label: lid.index() as u32 };
                }
            }
            let base = self.graphs[idx as usize].map(|g| g.interner().len() as u32).unwrap_or(0);
            let ov = &mut self.overflow[idx as usize];
            let next = base + ov.len() as u32;
            let label = *ov.entry(term.to_string()).or_insert(next);
            TermKey { onto: idx, label }
        }
    }

    fn determined_terms(art: &Articulation, of: &Ontology, other: &Ontology) -> HashSet<String> {
        let art_g = art.ontology.graph();
        let mut space = TermSpace::new();
        let art_idx = space.namespace(art.name(), Some(art_g));
        let of_idx = space.namespace(of.name(), Some(of.graph()));
        let other_idx = space.namespace(other.name(), Some(other.graph()));
        let mut adj: FxHashMap<TermKey, Vec<TermKey>> = FxHashMap::default();
        for b in &art.bridges {
            let s = space.intern(b.src.ontology.as_deref().unwrap_or(""), &b.src.name);
            let d = space.intern(b.dst.ontology.as_deref().unwrap_or(""), &b.dst.name);
            adj.entry(s).or_default().push(d);
        }
        if let Some(sub) = art_g.label_id(rel::SUBCLASS_OF) {
            for (_, src, lid, dst) in art_g.edge_entries() {
                if lid == sub {
                    let s = TermKey {
                        onto: art_idx,
                        label: art_g.node_label_id(src).expect("live").index() as u32,
                    };
                    let d = TermKey {
                        onto: art_idx,
                        label: art_g.node_label_id(dst).expect("live").index() as u32,
                    };
                    adj.entry(s).or_default().push(d);
                }
            }
        }
        let mut determined = HashSet::new();
        let mut seen: FxHashSet<TermKey> = FxHashSet::default();
        let mut q: VecDeque<TermKey> = VecDeque::new();
        for start in art.bridged_terms(of.name()) {
            let start_key = space.intern_in(of_idx, start);
            seen.clear();
            q.clear();
            if adj.contains_key(&start_key) {
                seen.insert(start_key);
                q.push_back(start_key);
            }
            'bfs: while let Some(cur) = q.pop_front() {
                if let Some(nexts) = adj.get(&cur) {
                    for &n in nexts {
                        if n.onto == other_idx {
                            determined.insert(start.to_string());
                            break 'bfs;
                        }
                        if adj.contains_key(&n) && seen.insert(n) {
                            q.push_back(n);
                        }
                    }
                }
            }
        }
        determined
    }

    pub fn difference(
        o1: &Ontology,
        o2: &Ontology,
        articulation: &Articulation,
    ) -> (OntGraph, DifferenceReport) {
        let g = o1.graph();
        let determined = determined_terms(articulation, o1, o2);
        let det_nodes: Vec<NodeId> = determined.iter().filter_map(|l| g.node_by_label(l)).collect();
        let semantic = EdgeFilter::Labels(vec![
            rel::SUBCLASS_OF.into(),
            rel::INSTANCE_OF.into(),
            rel::SEMANTIC_IMPLICATION.into(),
        ]);
        let upstream = reachable_from_all(g, &det_nodes, Direction::Backward, &semantic);
        let mut removed: HashSet<NodeId> = det_nodes.iter().copied().collect();
        let mut reaches: Vec<String> = Vec::new();
        for n in upstream {
            if removed.insert(n) {
                reaches.push(g.node_label(n).expect("live").to_string());
            }
        }
        let mut orphaned: Vec<String> = Vec::new();
        let downstream = reachable_from_all(
            g,
            &removed.iter().copied().collect::<Vec<_>>(),
            Direction::Forward,
            &EdgeFilter::All,
        );
        loop {
            let mut grew = false;
            for &n in &downstream {
                if removed.contains(&n) {
                    continue;
                }
                let mut has_in = false;
                let mut all_in_removed = true;
                for (_, _, src) in g.in_edge_entries(n) {
                    has_in = true;
                    if !removed.contains(&src) {
                        all_in_removed = false;
                        break;
                    }
                }
                if has_in && all_in_removed {
                    removed.insert(n);
                    orphaned.push(g.node_label(n).expect("live").to_string());
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        let mut out = OntGraph::new(format!("{} - {}", o1.name(), o2.name()));
        for n in g.nodes() {
            if !removed.contains(&n.id) {
                out.ensure_node(n.label).unwrap();
            }
        }
        for e in g.edges() {
            if !removed.contains(&e.src) && !removed.contains(&e.dst) {
                out.ensure_edge_by_labels(
                    g.node_label(e.src).expect("live"),
                    e.label,
                    g.node_label(e.dst).expect("live"),
                )
                .unwrap();
            }
        }
        let mut determined: Vec<String> = determined.into_iter().collect();
        determined.sort();
        reaches.sort();
        orphaned.sort();
        (out, DifferenceReport { determined, reaches_determined: reaches, orphaned })
    }

    /// The old `explain_connection`'s implication graph over qualified
    /// labels.
    pub fn si_graph(art: &Articulation, sources: &[&Ontology]) -> OntGraph {
        let mut g = OntGraph::new("si-paths");
        for b in &art.bridges {
            if &*b.label == rel::SI_BRIDGE {
                g.ensure_edge_by_labels(&b.src.to_string(), "si", &b.dst.to_string()).unwrap();
            }
        }
        let art_g = art.ontology.graph();
        for e in art_g.edges() {
            if e.label == rel::SUBCLASS_OF {
                let s = format!("{}.{}", art.name(), art_g.node_label(e.src).expect("live"));
                let d = format!("{}.{}", art.name(), art_g.node_label(e.dst).expect("live"));
                g.ensure_edge_by_labels(&s, "si", &d).unwrap();
            }
        }
        for o in sources {
            let sg = o.graph();
            for e in sg.edges() {
                if e.label == rel::SUBCLASS_OF || e.label == rel::INSTANCE_OF {
                    let s = format!("{}.{}", o.name(), sg.node_label(e.src).expect("live"));
                    let d = format!("{}.{}", o.name(), sg.node_label(e.dst).expect("live"));
                    g.ensure_edge_by_labels(&s, "si", &d).unwrap();
                }
            }
        }
        g
    }

    /// The old `explain_connection` over a prebuilt [`si_graph`].
    pub fn explain(
        g: &OntGraph,
        from: &Term,
        to: &Term,
        max_len: usize,
        max_paths: usize,
    ) -> Vec<Vec<String>> {
        let (Some(a), Some(b)) =
            (g.node_by_label(&from.to_string()), g.node_by_label(&to.to_string()))
        else {
            return Vec::new();
        };
        all_simple_paths(g, a, b, max_len, max_paths)
            .into_iter()
            .map(|p| p.into_iter().map(|n| g.node_label(n).expect("live").to_string()).collect())
            .collect()
    }

    /// `onion_graph::path::all_simple_paths` with `EdgeFilter::All`.
    fn all_simple_paths(
        g: &OntGraph,
        a: NodeId,
        b: NodeId,
        max_len: usize,
        max_paths: usize,
    ) -> Vec<Vec<NodeId>> {
        let mut out = Vec::new();
        if !g.is_live_node(a) || !g.is_live_node(b) || max_paths == 0 {
            return out;
        }
        let mut path = vec![a];
        let mut on_path = HashSet::from([a]);
        dfs_paths(g, a, b, max_len, max_paths, &mut path, &mut on_path, &mut out);
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs_paths(
        g: &OntGraph,
        cur: NodeId,
        b: NodeId,
        max_len: usize,
        max_paths: usize,
        path: &mut Vec<NodeId>,
        on_path: &mut HashSet<NodeId>,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        if out.len() >= max_paths {
            return;
        }
        if cur == b && path.len() > 1 {
            out.push(path.clone());
            return;
        }
        if path.len() > max_len {
            return;
        }
        if cur == b && path.len() == 1 {
            out.push(path.clone());
            return;
        }
        let nexts: Vec<NodeId> = g.out_edges(cur).map(|e| e.dst).collect();
        for n in nexts {
            if on_path.contains(&n) {
                continue;
            }
            path.push(n);
            on_path.insert(n);
            dfs_paths(g, n, b, max_len, max_paths, path, on_path, out);
            path.pop();
            on_path.remove(&n);
        }
    }
}

/// A generated pair articulated the way the `articulate` benchmark's
/// sessions do: the facade, an oracle expert, inference expansion.
fn articulated(seed: u64, concepts: usize, overlap: f64) -> (OverlapPair, Articulation) {
    let p =
        overlap_pair(&OverlapSpec { seed, concepts, overlap, rename_prob: 0.5, max_children: 5 });
    let mut sys = OnionSystem::new(p.lexicon.clone());
    sys.add_source(p.left.clone());
    sys.add_source(p.right.clone());
    let mut cfg = EngineConfig::default();
    cfg.generator.expand_with_inference = true;
    sys.set_engine_config(cfg);
    sys.articulate("left", "right", &mut OracleExpert::new(p.truth.iter().cloned())).unwrap();
    let art = sys.articulation().expect("articulated").clone();
    (p, art)
}

/// Every qualified node term of the articulation and the sources, plus
/// one bridge-only term per namespace and a term of no namespace.
fn terms(art: &Articulation, sources: &[&Ontology]) -> Vec<Term> {
    let mut out: Vec<Term> = Vec::new();
    for o in sources.iter().copied().chain([&*art.ontology]) {
        let mut labels: Vec<&str> = o.graph().nodes().map(|n| n.label).collect();
        labels.sort_unstable();
        out.extend(labels.into_iter().map(|l| Term::qualified(o.name(), l)));
        out.push(Term::qualified(o.name(), "Ghost"));
    }
    out.push(Term::qualified("nowhere", "Thing"));
    out
}

/// Plants `extra` bridges between `pool` terms: `(src, dst, kind)`
/// with kind 0 a conversion bridge and anything else an implication.
fn with_planted(art: &Articulation, pool: &[Term], extra: &[(usize, usize, u32)]) -> Articulation {
    let mut art = art.clone();
    for &(s, d, kind) in extra {
        let (src, dst) = (pool[s % pool.len()].clone(), pool[d % pool.len()].clone());
        if src.ontology.as_deref() == Some("nowhere") || dst.ontology.as_deref() == Some("nowhere")
        {
            continue;
        }
        art.add_bridge(match kind {
            0 => Bridge::functional(src, "PlantedFn", dst),
            _ => Bridge::si(src, dst, BridgeKind::Rule),
        });
    }
    art
}

/// The surviving graph as node labels and edge triples, in order.
fn shape(g: &OntGraph) -> (Vec<String>, Vec<(String, String, String)>) {
    let label = |n| g.node_label(n).expect("live").to_string();
    let nodes = g.nodes().map(|n| n.label.to_string()).collect();
    let edges = g.edges().map(|e| (label(e.src), e.label.to_string(), label(e.dst))).collect();
    (nodes, edges)
}

/// Checks `difference` against the old operator, both directions.
fn check_difference(p: &OverlapPair, art: &Articulation) -> Result<usize, String> {
    let mut determined = 0;
    for (o1, o2) in [(&p.left, &p.right), (&p.right, &p.left)] {
        let (got, got_report) = difference(o1, o2, art).map_err(|e| e.to_string())?;
        let (want, want_report) = before::difference(o1, o2, art);
        if got_report != want_report {
            return Err(format!(
                "{} − {} report:\n got  {got_report:?}\n want {want_report:?}",
                o1.name(),
                o2.name()
            ));
        }
        if shape(&got) != shape(&want) {
            return Err(format!("{} − {}: surviving graphs differ", o1.name(), o2.name()));
        }
        determined += got_report.determined.len();
    }
    Ok(determined)
}

/// `(ontology, term)` of a term, `""` for an unqualified one.
fn key(t: &Term) -> (String, String) {
    (t.ontology.as_deref().unwrap_or("").to_string(), t.name.to_string())
}

/// The determined set by definition: bridged terms of `o1` with a path
/// of one or more edges into `o2` over the index's edge set, one
/// forward search per term over `(ontology, term)` strings.
fn determined_oracle(art: &Articulation, o1: &Ontology, o2: &Ontology) -> Vec<String> {
    let mut edges: Vec<((String, String), (String, String))> = Vec::new();
    for b in art.bridges.iter().filter(|b| &*b.label == rel::SI_BRIDGE) {
        edges.push((key(&b.src), key(&b.dst)));
    }
    let mut graph_edges = |name: &str, g: &OntGraph, labels: &[&str]| {
        for e in g.edges().filter(|e| labels.contains(&e.label)) {
            let end = |n| (name.to_string(), g.node_label(n).expect("live").to_string());
            edges.push((end(e.src), end(e.dst)));
        }
    };
    graph_edges(art.name(), art.ontology.graph(), &[rel::SUBCLASS_OF]);
    for o in [o1, o2] {
        graph_edges(o.name(), o.graph(), &[rel::SUBCLASS_OF, rel::INSTANCE_OF]);
    }
    let mut out = Vec::new();
    for t in art.bridged_terms(o1.name()) {
        let start = (o1.name().to_string(), t.to_string());
        let mut seen = HashSet::from([start.clone()]);
        let mut q = VecDeque::from([start]);
        let mut hit = false;
        while let Some(cur) = q.pop_front() {
            for (_, d) in edges.iter().filter(|(s, _)| *s == cur) {
                hit |= d.0 == o2.name();
                if seen.insert(d.clone()) {
                    q.push_back(d.clone());
                }
            }
        }
        if hit {
            out.push(t.to_string());
        }
    }
    out
}

/// `picks` as term pairs over [`terms`], plus the endpoints of the
/// first implication bridges, which are connected whenever `max_len`
/// allows one edge.
fn pairs(art: &Articulation, sources: &[&Ontology], picks: &[(usize, usize)]) -> Vec<(Term, Term)> {
    let pool = terms(art, sources);
    let bridged = art.bridges.iter().filter(|b| &*b.label == rel::SI_BRIDGE).take(8);
    bridged
        .map(|b| (b.src.clone(), b.dst.clone()))
        .chain(
            picks
                .iter()
                .map(|&(a, b)| (pool[a % pool.len()].clone(), pool[b % pool.len()].clone())),
        )
        .collect()
}

/// Checks `simple_paths` (and, for the first pairs, `explain_connection`)
/// against the old explainer for every pair and each pair's first term
/// with itself. Returns (pairs with a path, pairs where `max_paths`
/// bound).
fn check_paths(
    art: &Articulation,
    sources: &[&Ontology],
    pairs: &[(Term, Term)],
    max_len: usize,
) -> Result<(usize, usize), String> {
    let old = before::si_graph(art, sources);
    let index = ImplicationIndex::new(art, sources);
    let (mut connected, mut bound) = (0, 0);
    for (i, (from, to)) in pairs.iter().enumerate() {
        for (from, to) in [(from, to), (from, from)] {
            let unbounded = 1_000_000;
            let want = before::explain(&old, from, to, max_len, unbounded);
            if want.len() >= unbounded {
                return Err(format!("{from} → {to}: max_paths binds"));
            }
            let got = if i < 4 {
                art.explain_connection(sources, from, to, max_len, unbounded)
            } else {
                index.simple_paths(art, sources, from, to, max_len, unbounded)
            };
            let want_set: BTreeSet<&Vec<String>> = want.iter().collect();
            let got_set: BTreeSet<&Vec<String>> = got.iter().collect();
            if got.len() != got_set.len() || got_set != want_set {
                return Err(format!(
                    "{from} → {to}, max_len {max_len}:\n got  {got:?}\n want {want:?}"
                ));
            }
            connected += usize::from(!got.is_empty());
            if want.len() >= 2 {
                // a binding budget keeps exactly that many of the paths
                let cap = want.len() / 2;
                let capped = index.simple_paths(art, sources, from, to, max_len, cap);
                if capped.len() != cap || !capped.iter().all(|p| want_set.contains(p)) {
                    return Err(format!(
                        "{from} → {to}, max_len {max_len}, max_paths {cap}: {capped:?}"
                    ));
                }
                bound += 1;
            }
        }
    }
    Ok((connected, bound))
}

/// Generates `rules` over `sources` with and without inference
/// expansion and checks, for every live articulation node `b` and each
/// source `s`, that the labels `t` with an `SIBridge` bridge
/// `s.t → art.b` in the expanded articulation equal `b`'s implying
/// labels in `s` by an index over the unexpanded one. Returns the
/// number of `(source, node)` pairs with a non-empty answer.
fn check_expansion_agrees(rules: &RuleSet, sources: &[&Ontology]) -> Result<usize, String> {
    let generate = |expand_with_inference| {
        ArticulationGenerator::with_config(GeneratorConfig {
            expand_with_inference,
            ..Default::default()
        })
        .generate(rules, sources)
        .unwrap()
    };
    let (plain, expanded) = (generate(false), generate(true));
    let index = ImplicationIndex::new(&plain, sources);
    let mut answered = 0;
    for b in plain.ontology.graph().nodes() {
        let target = Term::qualified(plain.name(), b.label);
        for &s in sources {
            let mut bridged: Vec<String> = expanded
                .bridges
                .iter()
                .filter(|x| &*x.label == rel::SI_BRIDGE)
                .filter(|x| x.src.in_ontology(s.name()) && x.dst == target)
                .map(|x| x.src.name.to_string())
                .collect();
            bridged.sort_unstable();
            bridged.dedup();
            let implying = index.implying_labels(&plain, sources, s, b.label);
            if bridged != implying {
                return Err(format!(
                    "{}.{}, source {}:\n bridged  {bridged:?}\n implying {implying:?}",
                    plain.name(),
                    b.label,
                    s.name()
                ));
            }
            answered += usize::from(!implying.is_empty());
        }
    }
    Ok(answered)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn difference_equals_the_old_operator_on_benchmark_shaped_pairs(
        seed in 0u64..10_000,
        concepts in 30usize..110,
        overlap in 10u32..60,
    ) {
        let (p, art) = articulated(seed, concepts, f64::from(overlap) / 100.0);
        let determined = check_difference(&p, &art);
        prop_assert!(determined.is_ok(), "seed {seed}: {}", determined.unwrap_err());
        prop_assert!(determined.unwrap() > 0, "seed {seed}: nothing determined");
    }

    #[test]
    fn determined_terms_follow_exactly_the_implication_edges(
        seed in 0u64..10_000,
        concepts in 20usize..60,
        overlap in 10u32..60,
        extra in prop::collection::vec((0usize..100_000, 0usize..100_000, 0u32..3), 4..16),
    ) {
        let (p, art) = articulated(seed, concepts, f64::from(overlap) / 100.0);
        let sources = [&p.left, &p.right];
        let planted = with_planted(&art, &terms(&art, &sources), &extra);
        for (o1, o2) in [(&p.left, &p.right), (&p.right, &p.left)] {
            let (_, report) = difference(o1, o2, &planted).unwrap();
            let want = determined_oracle(&planted, o1, o2);
            prop_assert_eq!(&report.determined, &want, "seed {}: {} − {}", seed, o1.name(), o2.name());
        }
    }

    #[test]
    fn explained_paths_equal_the_old_string_graph(
        seed in 0u64..10_000,
        concepts in 20usize..60,
        overlap in 10u32..60,
        max_len in 0usize..6,
        picks in prop::collection::vec((0usize..100_000, 0usize..100_000), 24..40),
        extra in prop::collection::vec((0usize..100_000, 0usize..100_000, 0u32..3), 0..12),
    ) {
        let (p, art) = articulated(seed, concepts, f64::from(overlap) / 100.0);
        let sources = [&p.left, &p.right];
        let planted = with_planted(&art, &terms(&art, &sources), &extra);
        for art in [&art, &planted] {
            let res = check_paths(art, &sources, &pairs(art, &sources, &picks), max_len);
            prop_assert!(res.is_ok(), "seed {seed}: {}", res.unwrap_err());
            let (connected, _) = res.unwrap();
            prop_assert!(max_len == 0 || connected > 0, "seed {seed}: no pair connected");
        }
    }

    #[test]
    fn expansion_bridges_equal_the_implying_labels(
        seed in 0u64..10_000,
        concepts in 20usize..60,
        overlap in 10u32..60,
    ) {
        let (p, art) = articulated(seed, concepts, f64::from(overlap) / 100.0);
        let res = check_expansion_agrees(&art.rules, &[&p.left, &p.right]);
        prop_assert!(res.is_ok(), "seed {seed}: {}", res.unwrap_err());
        prop_assert!(res.unwrap() > 0, "seed {seed}: no node is implied");
    }
}

#[test]
fn fig2_expansion_bridges_equal_the_implying_labels() {
    let (c, f) = (carrier(), factory());
    let answered = check_expansion_agrees(&fig2_rules(), &[&c, &f]).unwrap();
    assert!(answered > 4, "only {answered} (source, node) pairs implied");
}

#[test]
fn fig2_paths_equal_the_old_string_graph_for_every_pair() {
    let (c, f) = (carrier(), factory());
    let art = ArticulationGenerator::new().generate(&fig2_rules(), &[&c, &f]).unwrap();
    let sources = [&c, &f];
    let pool = terms(&art, &sources);
    let n = pool.len();
    let every: Vec<(Term, Term)> =
        pool.iter().flat_map(|a| pool.iter().map(move |b| (a.clone(), b.clone()))).collect();
    let (mut connected, mut bound) = (0, 0);
    for max_len in [1, 3, 6] {
        let (c, b) = check_paths(&art, &sources, &every, max_len).unwrap();
        connected += c;
        bound += b;
    }
    assert!(connected > n, "only {connected} connected pairs");
    assert!(bound > 0, "no pair has two paths");
    // the derivation chain of a carrier SUV into factory vehicles
    let chains = art.explain_connection(
        &sources,
        &Term::qualified("carrier", "SUV"),
        &Term::qualified("factory", "Vehicle"),
        4,
        10,
    );
    assert!(
        chains.contains(&vec![
            "carrier.SUV".to_string(),
            "carrier.Cars".into(),
            "transport.Vehicle".into(),
            "factory.Vehicle".into(),
        ]),
        "{chains:?}"
    );
}

#[test]
fn planted_conversion_bridges_never_determine() {
    // conversion bridges from every bridged right term into left's root
    // leave both differences as they were
    let (p, art) = articulated(7, 40, 0.3);
    let mut converted = art.clone();
    for t in art.bridged_terms("right") {
        converted.add_bridge(Bridge::functional(
            Term::qualified("right", t),
            "PlantedFn",
            Term::qualified("left", "Root"),
        ));
    }
    assert!(converted.bridges.len() > art.bridges.len());
    for (o1, o2) in [(&p.right, &p.left), (&p.left, &p.right)] {
        let plain: DifferenceReport = difference(o1, o2, &art).unwrap().1;
        assert_eq!(
            difference(o1, o2, &converted).unwrap().1,
            plain,
            "{} − {}",
            o1.name(),
            o2.name()
        );
    }
}
