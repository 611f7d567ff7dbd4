//! The one reachability walk against the closure code it replaced.
//!
//! `onion_graph::traverse` answers every reachability question through
//! one breadth-first loop. "What does `n` reach by a path of one or
//! more edges" is a walk from `n`'s direct neighbours, so `n` is
//! reached only through a cycle. Three program paths used to ask the
//! deleted `closure` module instead, and each is pinned here:
//!
//! * `Ontology::superclasses`/`subclasses` against a brute-force
//!   `SubclassOf` closure (Warshall's triple loop), on generated
//!   hierarchies with redundant edges, subclass cycles, self-loops,
//!   verb edges the walk must not follow, and deleted nodes;
//! * `ArticulationGenerator::generate` (structure inheritance walks once
//!   per anchored source node) against `apply_rule` per rule followed
//!   by a copy of the closure-based `inherit_structure`, articulation
//!   `{:?}` with graph ids masked, on generated pairs plus a third
//!   source, with anchors at both bridge ends, source subclass cycles,
//!   deleted anchored terms and terms that never had a node;
//! * `conflict::analyze` (its disjointness sweep walks once per term)
//!   against a copy of the all-pairs sweep, on generated rule sets with
//!   implication cycles and disjointness declared within and across
//!   them.

use std::collections::{BTreeSet, HashSet, VecDeque};
use std::sync::Arc;

use proptest::prelude::*;

use onion_core::graph::LabelId;
use onion_core::prelude::*;
use onion_core::rules::conflict::{analyze, implication_graph, Disjointness, Finding};
use onion_core::testkit::{
    generate_dag, generate_ontology, overlap_pair, OntologySpec, OverlapSpec,
};

const ART: &str = "transport";

/// splitmix64: the test's own deterministic choices from a case seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<'a>(&mut self, xs: &'a [String]) -> &'a str {
        &xs[self.below(xs.len())]
    }
}

/// Masks the process-global `graph_id` counter (fresh per generated
/// graph, run-independent noise) out of a Debug rendering.
fn mask_graph_id(s: &str) -> String {
    let mut out = String::new();
    let mut rest = s;
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

fn labels(o: &Ontology) -> Vec<String> {
    let mut v: Vec<String> = o.graph().nodes().map(|n| n.label.to_string()).collect();
    v.sort_unstable();
    v
}

/// Every `(a, b)` joined by a path of one or more `label` edges, by
/// label, closed by Warshall's triple loop.
fn brute_closure(g: &OntGraph, label: &str) -> BTreeSet<(String, String)> {
    let name = |n: NodeId| g.node_label(n).expect("live").to_string();
    let nodes: Vec<String> = g.node_ids().map(name).collect();
    let mut pairs: BTreeSet<(String, String)> =
        g.edges().filter(|e| e.label == label).map(|e| (name(e.src), name(e.dst))).collect();
    for k in &nodes {
        for i in &nodes {
            for j in &nodes {
                if pairs.contains(&(i.clone(), k.clone()))
                    && pairs.contains(&(k.clone(), j.clone()))
                {
                    pairs.insert((i.clone(), j.clone()));
                }
            }
        }
    }
    pairs
}

/// Every `(a, b)` joined by a path of one or more admitted edges: a
/// breadth-first search from each node with out-edges, `b == a` only
/// through a cycle (the deleted `closure::transitive_pairs`).
fn all_pairs(g: &OntGraph, admits: impl Fn(&str) -> bool) -> Vec<(NodeId, NodeId)> {
    let next = |n: NodeId| -> Vec<NodeId> {
        g.out_edges(n).filter(|e| admits(&e.label)).map(|e| e.dst).collect()
    };
    let mut pairs = Vec::new();
    for start in g.node_ids() {
        let mut seen = HashSet::new();
        let mut q = VecDeque::from([start]);
        while let Some(n) = q.pop_front() {
            for m in next(n) {
                if seen.insert(m) {
                    pairs.push((start, m));
                    q.push_back(m);
                }
            }
        }
    }
    pairs
}

/// A copy of the structure inheritance `generate` ran before the one
/// walk: anchors keyed `(source index, label id)`, each anchored
/// source's whole `SubclassOf` closure as label-id pairs, and a probe
/// for every anchor pair.
fn closure_inherit_structure(art: &mut Articulation, sources: &[&Ontology]) {
    let mut anchors: Vec<(Arc<str>, u16, LabelId)> = Vec::new();
    let art_name = art.name().to_string();
    for b in &art.bridges {
        if &*b.label != rel::SI_BRIDGE {
            continue;
        }
        let (art_end, src_end) = if b.src.in_ontology(&art_name) {
            (&b.src, &b.dst)
        } else if b.dst.in_ontology(&art_name) {
            (&b.dst, &b.src)
        } else {
            continue;
        };
        let Some(o) = src_end.ontology.as_deref().filter(|o| *o != art_name) else {
            continue;
        };
        let Some(idx) = sources.iter().position(|s| s.name() == o) else { continue };
        if let Some(lid) = sources[idx].graph().label_id(&src_end.name) {
            anchors.push((art_end.name.clone(), idx as u16, lid));
        }
    }
    let mut closures: Vec<Option<HashSet<(LabelId, LabelId)>>> = vec![None; sources.len()];
    for &(_, idx, _) in &anchors {
        let slot = &mut closures[idx as usize];
        if slot.is_some() {
            continue;
        }
        let g = sources[idx as usize].graph();
        let id = |n: NodeId| g.node_label_id(n).expect("live");
        let pairs = all_pairs(g, |l| l == rel::SUBCLASS_OF);
        *slot = Some(pairs.into_iter().map(|(a, b)| (id(a), id(b))).collect());
    }
    let mut new_edges: Vec<(Arc<str>, Arc<str>)> = Vec::new();
    for (xl, xo, xt) in &anchors {
        let Some(closure) = closures[*xo as usize].as_ref() else { continue };
        for (yl, yo, yt) in &anchors {
            if xl == yl || xo != yo || xt == yt {
                continue;
            }
            if closure.contains(&(*xt, *yt)) {
                new_edges.push((xl.clone(), yl.clone()));
            }
        }
    }
    new_edges.sort();
    new_edges.dedup();
    for (x, y) in new_edges {
        if !art.ontology.is_subclass(&y, &x) && x != y {
            Arc::make_mut(&mut art.ontology)
                .graph_mut()
                .ensure_edge_by_labels(&x, rel::SUBCLASS_OF, &y)
                .unwrap();
        }
    }
}

fn term(o: &Ontology, label: &str) -> RuleExpr {
    RuleExpr::Term(Term::qualified(o.name(), label))
}

fn art_term(label: &str) -> RuleExpr {
    RuleExpr::Term(Term::qualified(ART, label))
}

/// Rules over `sources` that anchor articulation nodes at both bridge
/// ends: source → source (the articulation node is the target of one
/// bridge and the source of its equivalence), source → articulation,
/// articulation → source, and `Or`/`And` shapes whose synthesised
/// node anchors too. Articulation names repeat, so one node gathers
/// anchors from several sources and one source node anchors several
/// articulation nodes; each term names a class or one of its
/// superclasses often enough for inheritance to fire. Some rules name
/// `Ghost`, a term no source ever had.
fn anchoring_rules(sources: &[&Ontology], n: usize, mix: &mut Mix) -> RuleSet {
    let names: Vec<Vec<String>> = sources.iter().map(|o| labels(o)).collect();
    let pick = |mix: &mut Mix| -> (usize, String) {
        let s = mix.below(sources.len());
        let label = mix.pick(&names[s]).to_string();
        // climb to a superclass now and then, so anchors share paths
        let up = sources[s].superclasses(&label);
        match mix.below(3) {
            0 if !up.is_empty() => (s, mix.pick(&up).to_string()),
            _ if mix.below(20) == 0 => (s, "Ghost".to_string()),
            _ => (s, label),
        }
    };
    let mut rs = RuleSet::new();
    for _ in 0..n {
        let ((a, x), (b, y)) = (pick(mix), pick(mix));
        let art = format!("A{}", mix.below(n / 2 + 1));
        let rule = match mix.below(6) {
            0 | 1 => ArticulationRule::implies(term(sources[a], &x), term(sources[b], &y)),
            2 => ArticulationRule::implies(term(sources[a], &x), art_term(&art)),
            3 => ArticulationRule::implies(art_term(&art), term(sources[b], &y)),
            4 => ArticulationRule::implies(
                term(sources[a], &x),
                RuleExpr::Or(vec![term(sources[b], &y), art_term(&art)]),
            ),
            _ => ArticulationRule::implies(
                RuleExpr::And(vec![term(sources[a], &x), term(sources[b], &y)]),
                art_term(&art),
            ),
        };
        rs.push(rule);
    }
    rs
}

/// Closes `cycles` subclass edges of `o` into 2-cycles.
fn close_cycles(o: &mut Ontology, cycles: usize, mix: &mut Mix) {
    let g = o.graph();
    let edges: Vec<(String, String)> = g
        .edges()
        .filter(|e| e.label == rel::SUBCLASS_OF)
        .map(|e| {
            (g.node_label(e.src).unwrap().to_string(), g.node_label(e.dst).unwrap().to_string())
        })
        .collect();
    for _ in 0..cycles.min(edges.len()) {
        let (child, parent) = &edges[mix.below(edges.len())];
        o.graph_mut().ensure_edge_by_labels(parent, rel::SUBCLASS_OF, child).unwrap();
    }
}

/// A copy of the disjointness sweep `conflict::analyze` ran before the
/// one walk: every pair of the implication graph's all-pairs closure,
/// kept when declared disjoint.
fn all_pairs_sweep(rules: &RuleSet, disjoint: &Disjointness) -> Vec<Finding> {
    if disjoint.is_empty() {
        return Vec::new();
    }
    let g = implication_graph(rules);
    let name = |n: NodeId| g.node_label(n).expect("live").to_string();
    let mut violations: Vec<(String, String)> = all_pairs(&g, |_| true)
        .into_iter()
        .map(|(a, b)| (name(a), name(b)))
        .filter(|(a, b)| disjoint.contains(a, b))
        .collect();
    violations.sort();
    violations.dedup();
    violations.into_iter().map(|(from, to)| Finding::DisjointnessViolation { from, to }).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// `superclasses`/`subclasses` list exactly the brute-force
    /// `SubclassOf` closure's partners; a class on a cycle lists
    /// itself, and a deleted or unknown label lists nothing.
    #[test]
    fn superclasses_and_subclasses_match_a_brute_force_closure(
        seed in 0u64..100_000,
        nodes in 2usize..40,
        extra in 0usize..30,
        cycles in 0usize..4,
        verbs in 0usize..20,
        deletes in 0usize..4,
    ) {
        let mut g = generate_dag(seed, nodes, extra);
        let mut mix = Mix(seed ^ 0xC1C1E);
        let label = |i: usize| format!("D{i}");
        for _ in 0..cycles {
            // lower index under higher: a cycle whenever the higher
            // one already reaches the lower (always for D0), a
            // self-loop when they coincide
            let (a, b) = (mix.below(nodes), mix.below(nodes));
            g.ensure_edge_by_labels(&label(a.min(b)), rel::SUBCLASS_OF, &label(a.max(b))).unwrap();
        }
        for _ in 0..verbs {
            let (a, b) = (mix.below(nodes), mix.below(nodes));
            g.ensure_edge_by_labels(&label(a), rel::ATTRIBUTE_OF, &label(b)).unwrap();
        }
        for _ in 0..deletes {
            let _ = g.delete_node_by_label(&label(mix.below(nodes)));
        }
        let o = Ontology::from_graph(g);
        let closure = brute_closure(o.graph(), rel::SUBCLASS_OF);
        for l in (0..nodes).map(label).chain(["Ghost".to_string()]) {
            let up: Vec<String> =
                closure.iter().filter(|(a, _)| *a == l).map(|(_, b)| b.clone()).collect();
            let mut down: Vec<String> =
                closure.iter().filter(|(_, b)| *b == l).map(|(a, _)| a.clone()).collect();
            down.sort();
            prop_assert_eq!(o.superclasses(&l), up, "superclasses of {}", l);
            prop_assert_eq!(o.subclasses(&l), down, "subclasses of {}", l);
        }
    }

    /// `generate` (structure inheritance walks once per anchored source
    /// node) leaves the articulation `apply_rule` per rule plus the
    /// closure-based inheritance leaves.
    #[test]
    fn generate_matches_the_closure_based_structure_inheritance(
        seed in 0u64..100_000,
        concepts in 10usize..60,
        n_rules in 1usize..30,
        cycles in (0usize..3, 0usize..3, 0usize..3),
        deletes in 0usize..5,
    ) {
        let mut p = overlap_pair(&OverlapSpec {
            seed,
            concepts,
            overlap: 0.4,
            rename_prob: 0.3,
            max_children: 4,
        });
        let mut third = generate_ontology(&OntologySpec::sized("third", seed ^ 0x7, concepts / 2));
        let mut mix = Mix(seed ^ 0x5EED);
        let rules = anchoring_rules(&[&p.left, &p.right, &third], n_rules, &mut mix);
        close_cycles(&mut p.left, cycles.0, &mut mix);
        close_cycles(&mut p.right, cycles.1, &mut mix);
        close_cycles(&mut third, cycles.2, &mut mix);
        // delete anchored terms: their bridges stay, they anchor nothing
        let named: Vec<Term> = rules.iter().flat_map(|r| r.terms()).cloned().collect();
        for _ in 0..deletes.min(named.len()) {
            let t = &named[mix.below(named.len())];
            for o in [&mut p.left, &mut p.right, &mut third] {
                if t.in_ontology(o.name()) {
                    let _ = o.graph_mut().delete_node_by_label(&t.name);
                }
            }
        }
        let sources = [&p.left, &p.right, &third];
        let cfg = GeneratorConfig { art_name: ART.into(), strict_terms: false, ..Default::default() };
        let generator = ArticulationGenerator::with_config(cfg);
        let got = generator.generate(&rules, &sources).unwrap();

        let mut want = Articulation::new(ART);
        for rule in rules.iter() {
            generator.apply_rule(rule, &sources, &mut want).unwrap();
            want.rules.push(rule.clone());
        }
        closure_inherit_structure(&mut want, &sources);
        prop_assert_eq!(mask_graph_id(&format!("{got:?}")), mask_graph_id(&format!("{want:?}")));
    }

    /// `conflict::analyze` reports the disjointness violations of the
    /// all-pairs sweep, between the equivalence cycles and the other
    /// findings.
    #[test]
    fn conflict_analysis_matches_the_all_pairs_sweep(
        seed in 0u64..100_000,
        n_rules in 1usize..25,
        n_cycles in 0usize..4,
        n_disjoint in 0usize..12,
    ) {
        let mut mix = Mix(seed);
        let vocab: Vec<String> = (0..12).map(|i| format!("o{}.T{i}", i % 3)).collect();
        let mut text = String::new();
        for _ in 0..n_rules {
            let (a, b, c) = (mix.pick(&vocab), mix.pick(&vocab), mix.pick(&vocab));
            text += &match mix.below(4) {
                0 => format!("{a} => {b}\n"),
                1 => format!("{a} => {b} => {c}\n"),
                2 => format!("({a} & {b}) => {c}\n"),
                _ => format!("{a} => ({b} | {c})\n"),
            };
        }
        let mut cycles: Vec<Vec<&str>> = Vec::new();
        for _ in 0..n_cycles {
            let members: Vec<&str> = (0..2 + mix.below(3)).map(|_| mix.pick(&vocab)).collect();
            for (i, a) in members.iter().enumerate() {
                let b = members[(i + 1) % members.len()];
                if *a != b {
                    text += &format!("{a} => {b}\n");
                }
            }
            cycles.push(members);
        }
        let rules = parse_rules(&text).unwrap();
        let mut dj = Disjointness::new();
        for _ in 0..n_disjoint {
            match (mix.below(3), cycles.is_empty()) {
                // within one cycle (a term with itself included)
                (0, false) => {
                    let c = &cycles[mix.below(cycles.len())];
                    dj.declare(c[mix.below(c.len())], c[mix.below(c.len())]);
                }
                // across: a cycle member and any term
                (1, false) => {
                    let c = &cycles[mix.below(cycles.len())];
                    dj.declare(c[mix.below(c.len())], mix.pick(&vocab));
                }
                _ => dj.declare(mix.pick(&vocab), mix.pick(&vocab)),
            }
        }
        let conversions = ConversionRegistry::standard();
        let base = analyze(&rules, &conversions, &Disjointness::new());
        let at = base.iter().take_while(|f| matches!(f, Finding::EquivalenceCycle { .. })).count();
        let mut want = base[..at].to_vec();
        want.extend(all_pairs_sweep(&rules, &dj));
        want.extend_from_slice(&base[at..]);
        prop_assert_eq!(analyze(&rules, &conversions, &dj), want);
    }
}
