//! Backtracking subgraph pattern matcher (§3 of the paper).
//!
//! A pattern matches into a graph via a total mapping `f` from pattern
//! nodes to graph nodes such that (1) corresponding node labels agree and
//! (2) every pattern edge `(n1, α, n2)` maps to a graph edge
//! `(f(n1), α, f(n2))`. The paper additionally allows the domain expert to
//! *relax* matching: node labels may match through a synonym set, and
//! edge-label equality may be dropped. Both relaxations are expressed here
//! through the [`LabelEquiv`] trait, which `onion-lexicon` implements for
//! its WordNet-style lexicon.
//!
//! The matcher performs candidate-ordered backtracking: pattern nodes are
//! visited most-constrained-first along pattern connectivity, candidates
//! for connected nodes are generated from already-matched neighbours, and
//! all edges into the matched prefix are verified on assignment. A
//! labelled seed node reads the graph's exact label index; under a fuzzy
//! equivalence it also scans every node through
//! [`LabelEquiv::node_equiv`].

use std::collections::HashMap;

use crate::graph::{NodeId, OntGraph};
use crate::pattern::{EdgeConstraint, NodeConstraint, Pattern};
use crate::Result;

/// Pluggable label-equivalence used for fuzzy matching.
///
/// `ExactEquiv` gives the paper's strict match. A lexicon-backed
/// implementation can relax node labels to synonyms (§3: "enable nodes to
/// match not only if they have the exact same label but also if they are
/// synonyms as defined by the expert").
pub trait LabelEquiv {
    /// Are a pattern node label and a graph node label equivalent?
    fn node_equiv(&self, pattern_label: &str, graph_label: &str) -> bool;

    /// Are a pattern edge label and a graph edge label equivalent?
    /// Defaults to strict equality.
    fn edge_equiv(&self, pattern_label: &str, graph_label: &str) -> bool {
        pattern_label == graph_label
    }

    /// True iff both equivalences are plain string equality. Identity
    /// equivalences let the matcher compare interned label ids (edge
    /// checks and candidate generation never resolve a string, and a
    /// labelled seed reads only the exact label index). Implementations
    /// that relax matching in any way must leave this `false`.
    fn is_identity(&self) -> bool {
        false
    }
}

/// Strict equality on both node and edge labels (the paper's default).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactEquiv;

impl LabelEquiv for ExactEquiv {
    fn node_equiv(&self, p: &str, g: &str) -> bool {
        p == g
    }

    fn is_identity(&self) -> bool {
        true
    }
}

/// ASCII-case-insensitive equivalence on node and edge labels; the
/// schema pattern queries compare edge labels through it.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseInsensitiveEquiv;

impl LabelEquiv for CaseInsensitiveEquiv {
    fn node_equiv(&self, p: &str, g: &str) -> bool {
        p.eq_ignore_ascii_case(g)
    }

    fn edge_equiv(&self, p: &str, g: &str) -> bool {
        p.eq_ignore_ascii_case(g)
    }
}

/// Matcher configuration. The default is the paper's strict semantics:
/// exact edge labels. The node mapping `f` is a total mapping, not
/// necessarily injective, and every match is returned.
#[derive(Debug, Clone, Default)]
pub struct MatchConfig {
    /// Treat every pattern edge constraint as [`EdgeConstraint::Any`]
    /// (the paper's second relaxation: "the second condition that requires
    /// edges to have the same label may not be strictly enforced").
    pub relax_edge_labels: bool,
}

/// One match of a pattern into a graph: the mapping `f` plus variable
/// bindings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match {
    /// `nodes[i]` is the graph node matched by pattern node `i`.
    pub nodes: Vec<NodeId>,
    /// Variable name → bound graph node.
    pub bindings: HashMap<String, NodeId>,
}

impl Match {
    /// The graph node bound to `var`, if the pattern binds it.
    pub fn get(&self, var: &str) -> Option<NodeId> {
        self.bindings.get(var).copied()
    }
}

/// A pattern matcher over one graph.
pub struct Matcher<'g, E: LabelEquiv = ExactEquiv> {
    graph: &'g OntGraph,
    equiv: E,
    config: MatchConfig,
}

impl<'g> Matcher<'g, ExactEquiv> {
    /// Strict matcher with default config.
    pub fn new(graph: &'g OntGraph) -> Self {
        Matcher::with_equiv(graph, ExactEquiv)
    }
}

impl<'g, E: LabelEquiv> Matcher<'g, E> {
    /// Matcher with a custom equivalence (e.g. lexicon synonyms).
    pub fn with_equiv(graph: &'g OntGraph, equiv: E) -> Self {
        Matcher { graph, equiv, config: MatchConfig::default() }
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: MatchConfig) -> Self {
        self.config = config;
        self
    }

    /// Finds all matches.
    pub fn find_all(&self, pattern: &Pattern) -> Result<Vec<Match>> {
        self.search(pattern, usize::MAX)
    }

    /// Finds the first match, if any.
    pub fn find_first(&self, pattern: &Pattern) -> Result<Option<Match>> {
        Ok(self.search(pattern, 1)?.into_iter().next())
    }

    /// True if the pattern matches anywhere in the graph.
    pub fn matches(&self, pattern: &Pattern) -> Result<bool> {
        Ok(self.find_first(pattern)?.is_some())
    }

    /// Number of matches.
    pub fn count(&self, pattern: &Pattern) -> Result<usize> {
        Ok(self.find_all(pattern)?.len())
    }

    fn node_ok(&self, pc: &NodeConstraint, g: NodeId) -> bool {
        match pc {
            NodeConstraint::Any => true,
            NodeConstraint::Label(l) => {
                let gl = self.graph.node_label(g).expect("candidate nodes are live");
                self.equiv.node_equiv(l, gl)
            }
        }
    }

    fn edge_label_ok(&self, pc: &EdgeConstraint, graph_label: &str) -> bool {
        if self.config.relax_edge_labels {
            return true;
        }
        match pc {
            EdgeConstraint::Any => true,
            EdgeConstraint::Label(l) => self.equiv.edge_equiv(l, graph_label),
        }
    }

    /// Does the graph contain an edge (src, ~label, dst) compatible with
    /// the constraint?
    fn has_compatible_edge(&self, src: NodeId, pc: &EdgeConstraint, dst: NodeId) -> bool {
        match pc {
            // a labeled constraint under the identity equivalence is a
            // single edge-index probe
            EdgeConstraint::Label(l)
                if !self.config.relax_edge_labels && self.equiv.is_identity() =>
            {
                self.graph
                    .label_id(l)
                    .is_some_and(|lid| self.graph.find_edge_by_ids(src, lid, dst).is_some())
            }
            // `Any` (or relaxed labels) admits every label: id scan, no
            // label resolution
            _ if self.config.relax_edge_labels => {
                self.graph.out_edge_entries(src).any(|(_, _, d)| d == dst)
            }
            EdgeConstraint::Any => self.graph.out_edge_entries(src).any(|(_, _, d)| d == dst),
            // fuzzy equivalence: fall back to per-edge string checks
            EdgeConstraint::Label(_) => {
                self.graph.out_edges(src).any(|e| e.dst == dst && self.edge_label_ok(pc, e.label))
            }
        }
    }

    /// Validates the pattern and returns its first `limit` matches.
    fn search(&self, pattern: &Pattern, limit: usize) -> Result<Vec<Match>> {
        pattern.validate()?;
        let n = pattern.node_count();
        // Order: most-constrained-first seed, then breadth-first along
        // pattern connectivity so later nodes can be generated from
        // matched neighbours.
        let order = plan_order(pattern, self.graph);
        // adjacency: for pattern node i, edges (edge index, other, outgoing?)
        let mut adj: Vec<Vec<(usize, usize, bool)>> = vec![Vec::new(); n];
        for (ei, e) in pattern.edges.iter().enumerate() {
            adj[e.src].push((ei, e.dst, true));
            adj[e.dst].push((ei, e.src, false));
        }
        let mut assignment: Vec<Option<NodeId>> = vec![None; n];
        let mut out = Vec::new();
        self.extend_match(pattern, &order, &adj, 0, &mut assignment, limit, &mut out);
        Ok(out)
    }

    fn emit(&self, pattern: &Pattern, assignment: &[Option<NodeId>], out: &mut Vec<Match>) {
        let nodes: Vec<NodeId> = assignment.iter().map(|a| a.expect("complete")).collect();
        let mut bindings = HashMap::new();
        for (i, pn) in pattern.nodes.iter().enumerate() {
            if let Some(v) = &pn.var {
                bindings.insert(v.clone(), nodes[i]);
            }
        }
        out.push(Match { nodes, bindings });
    }

    #[allow(clippy::too_many_arguments)]
    fn extend_match(
        &self,
        pattern: &Pattern,
        order: &[usize],
        adj: &[Vec<(usize, usize, bool)>],
        depth: usize,
        assignment: &mut Vec<Option<NodeId>>,
        limit: usize,
        out: &mut Vec<Match>,
    ) -> bool {
        if depth == order.len() {
            self.emit(pattern, assignment, out);
            return out.len() >= limit; // signal: stop
        }
        let pi = order[depth];
        let candidates = self.candidates_for(pattern, adj, pi, assignment);
        for g in candidates {
            if !self.node_ok(&pattern.nodes[pi].constraint, g) {
                continue;
            }
            // verify all pattern edges between pi and assigned nodes,
            // and pi's self-loops, whose other end is g itself
            let mut ok = true;
            for &(ei, other, outgoing) in &adj[pi] {
                let other_g = if other == pi { Some(g) } else { assignment[other] };
                if let Some(og) = other_g {
                    let pc = &pattern.edges[ei].constraint;
                    let present = if outgoing {
                        self.has_compatible_edge(g, pc, og)
                    } else {
                        self.has_compatible_edge(og, pc, g)
                    };
                    if !present {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            assignment[pi] = Some(g);
            let stop = self.extend_match(pattern, order, adj, depth + 1, assignment, limit, out);
            assignment[pi] = None;
            if stop {
                return true;
            }
        }
        false
    }

    /// Candidate graph nodes for pattern node `pi` given the current
    /// partial assignment: neighbours of an already-assigned pattern
    /// neighbour when possible, otherwise a label-index or full scan.
    fn candidates_for(
        &self,
        pattern: &Pattern,
        adj: &[Vec<(usize, usize, bool)>],
        pi: usize,
        assignment: &[Option<NodeId>],
    ) -> Vec<NodeId> {
        // Prefer generation from an assigned neighbour. `outgoing` means
        // the pattern edge runs pi -> other, so candidates come from
        // og's in-edges (and vice versa).
        for &(ei, other, outgoing) in &adj[pi] {
            if let Some(og) = assignment[other] {
                let pc = &pattern.edges[ei].constraint;
                let mut v = self.edge_candidates(og, pc, outgoing);
                v.sort_unstable();
                v.dedup();
                return v;
            }
        }
        // Seed node: the exact label index, plus, for a fuzzy
        // equivalence, a scan testing every other label through
        // node_equiv.
        match &pattern.nodes[pi].constraint {
            NodeConstraint::Label(l) => {
                let mut v: Vec<NodeId> = self.graph.node_by_label(l).into_iter().collect();
                if !self.equiv.is_identity() {
                    for node in self.graph.nodes() {
                        if node.label != l && self.equiv.node_equiv(l, node.label) {
                            v.push(node.id);
                        }
                    }
                }
                v.sort_unstable();
                v
            }
            NodeConstraint::Any => self.graph.node_ids().collect(),
        }
    }

    /// Candidates adjacent to the matched node `og` under an edge
    /// constraint: `from_in_edges` selects og's in-edge sources,
    /// otherwise its out-edge targets. Identity equivalences filter the
    /// incident list on label ids; fuzzy ones compare label strings.
    fn edge_candidates(&self, og: NodeId, pc: &EdgeConstraint, from_in_edges: bool) -> Vec<NodeId> {
        let g = self.graph;
        let unlabeled = |from_in: bool| -> Vec<NodeId> {
            if from_in {
                g.in_edge_entries(og).map(|(_, _, s)| s).collect()
            } else {
                g.out_edge_entries(og).map(|(_, _, d)| d).collect()
            }
        };
        if self.config.relax_edge_labels {
            return unlabeled(from_in_edges);
        }
        match pc {
            EdgeConstraint::Any => unlabeled(from_in_edges),
            EdgeConstraint::Label(l) if self.equiv.is_identity() => match g.label_id(l) {
                None => Vec::new(),
                Some(lid) => {
                    if from_in_edges {
                        g.in_neighbors_by_id(og, lid).collect()
                    } else {
                        g.out_neighbors_by_id(og, lid).collect()
                    }
                }
            },
            EdgeConstraint::Label(_) => {
                if from_in_edges {
                    g.in_edges(og)
                        .filter(|e| self.edge_label_ok(pc, e.label))
                        .map(|e| e.src)
                        .collect()
                } else {
                    g.out_edges(og)
                        .filter(|e| self.edge_label_ok(pc, e.label))
                        .map(|e| e.dst)
                        .collect()
                }
            }
        }
    }
}

/// Chooses the matching order: the most selective labeled node first,
/// then BFS along pattern connectivity; disconnected components are
/// seeded by their own most selective node.
fn plan_order(pattern: &Pattern, graph: &OntGraph) -> Vec<usize> {
    let n = pattern.node_count();
    let mut selectivity: Vec<usize> = pattern
        .nodes
        .iter()
        .map(|pn| match &pn.constraint {
            NodeConstraint::Label(_) => 1,
            NodeConstraint::Any => graph.node_count().max(1),
        })
        .collect();
    // Weight by degree in the pattern: high-degree pattern nodes prune more.
    let mut pat_degree = vec![0usize; n];
    for e in &pattern.edges {
        pat_degree[e.src] += 1;
        pat_degree[e.dst] += 1;
    }
    for i in 0..n {
        selectivity[i] = selectivity[i].saturating_sub(pat_degree[i].min(selectivity[i] - 1));
    }

    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in &pattern.edges {
        adj[e.src].push(e.dst);
        adj[e.dst].push(e.src);
    }

    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    while order.len() < n {
        // best unplaced seed
        let seed = (0..n)
            .filter(|&i| !placed[i])
            .min_by_key(|&i| selectivity[i])
            .expect("unplaced node exists");
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(seed);
        placed[seed] = true;
        while let Some(u) = queue.pop_front() {
            order.push(u);
            // visit neighbours most-selective-first
            let mut nbrs: Vec<usize> = adj[u].iter().copied().filter(|&v| !placed[v]).collect();
            nbrs.sort_by_key(|&v| selectivity[v]);
            for v in nbrs {
                if !placed[v] {
                    placed[v] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel;

    /// carrier-like fragment:
    ///   Car -S-> Vehicle, Truck -S-> Vehicle,
    ///   Price -A-> Car, Owner -A-> Car, Owner -A-> Truck
    fn sample() -> OntGraph {
        let mut g = OntGraph::new("t");
        for (s, l, d) in [
            ("Car", rel::SUBCLASS_OF, "Vehicle"),
            ("Truck", rel::SUBCLASS_OF, "Vehicle"),
            ("Price", rel::ATTRIBUTE_OF, "Car"),
            ("Owner", rel::ATTRIBUTE_OF, "Car"),
            ("Owner", rel::ATTRIBUTE_OF, "Truck"),
        ] {
            g.ensure_edge_by_labels(s, l, d).unwrap();
        }
        g
    }

    #[test]
    fn single_node_pattern() {
        let g = sample();
        let mut p = Pattern::new();
        p.node("Car");
        let m = Matcher::new(&g).find_all(&p).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(g.node_label(m[0].nodes[0]), Some("Car"));
    }

    #[test]
    fn edge_pattern_exact() {
        let g = sample();
        let p = Pattern::parse("Car -SubclassOf-> Vehicle").unwrap();
        assert!(Matcher::new(&g).matches(&p).unwrap());
        let p = Pattern::parse("Vehicle -SubclassOf-> Car").unwrap();
        assert!(!Matcher::new(&g).matches(&p).unwrap());
    }

    #[test]
    fn wildcard_node_enumerates_subclasses() {
        let g = sample();
        let p = Pattern::parse("X: * -SubclassOf-> Vehicle").unwrap();
        // "X: *" is not step syntax; build manually instead
        let _ = p;
        let mut p = Pattern::new();
        let x = p.any_var_node("X");
        let v = p.node("Vehicle");
        p.edge(x, rel::SUBCLASS_OF, v);
        let ms = Matcher::new(&g).find_all(&p).unwrap();
        let mut found: Vec<&str> =
            ms.iter().map(|m| g.node_label(m.get("X").unwrap()).unwrap()).collect();
        found.sort_unstable();
        assert_eq!(found, vec!["Car", "Truck"]);
    }

    #[test]
    fn attribute_pattern_with_variable_binding() {
        let g = sample();
        // the paper's truck(O: owner, ...) shape — binds the Owner node
        let p = Pattern::parse("Truck(O: Owner)").unwrap();
        let ms = Matcher::new(&g).find_all(&p).unwrap();
        assert_eq!(ms.len(), 1);
        assert_eq!(g.node_label(ms[0].get("O").unwrap()), Some("Owner"));
    }

    #[test]
    fn path_pattern_any_edges() {
        let g = sample();
        // Price : Car — any edge from Price to Car
        let p = Pattern::parse("Price:Car").unwrap();
        assert!(Matcher::new(&g).matches(&p).unwrap());
        // no edge Price -> Vehicle
        let p = Pattern::parse("Price:Vehicle").unwrap();
        assert!(!Matcher::new(&g).matches(&p).unwrap());
    }

    #[test]
    fn triangle_pattern_requires_all_edges() {
        let mut g = sample();
        let p = Pattern::parse("Owner -AttributeOf-> Car -SubclassOf-> Vehicle").unwrap();
        assert!(Matcher::new(&g).matches(&p).unwrap());
        g.delete_edge_by_labels("Owner", "AttributeOf", "Car").unwrap();
        assert!(!Matcher::new(&g).matches(&p).unwrap());
    }

    #[test]
    fn self_loop_pattern_edges_are_checked() {
        let mut g = OntGraph::new("t");
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        g.add_edge(a, "loop", b).unwrap();
        let mut p = Pattern::new();
        let x = p.node("A");
        p.edge(x, "loop", x);
        assert!(!Matcher::new(&g).matches(&p).unwrap(), "A has no loop onto itself");
        g.add_edge(a, "loop", a).unwrap();
        assert_eq!(Matcher::new(&g).count(&p).unwrap(), 1);
    }

    #[test]
    fn relaxed_edge_labels() {
        let g = sample();
        let p = Pattern::parse("Price -SubclassOf-> Car").unwrap(); // wrong label
        assert!(!Matcher::new(&g).matches(&p).unwrap());
        let cfg = MatchConfig { relax_edge_labels: true };
        assert!(Matcher::new(&g).with_config(cfg).matches(&p).unwrap());
    }

    #[test]
    fn case_insensitive_equiv() {
        let g = sample();
        let p = Pattern::parse("car -subclassof-> vehicle").unwrap();
        assert!(!Matcher::new(&g).matches(&p).unwrap());
        let m = Matcher::with_equiv(&g, CaseInsensitiveEquiv);
        assert!(m.matches(&p).unwrap());
    }

    /// Synonym-style custom equivalence: the §3 relaxation.
    struct Syn;
    impl LabelEquiv for Syn {
        fn node_equiv(&self, p: &str, g: &str) -> bool {
            p == g || (p == "Automobile" && g == "Car") || (p == "Car" && g == "Automobile")
        }
    }

    #[test]
    fn synonym_equiv_finds_nonidentical_seed() {
        let g = sample();
        let mut p = Pattern::new();
        let a = p.node("Automobile");
        let v = p.node("Vehicle");
        p.edge(a, rel::SUBCLASS_OF, v);
        let ms = Matcher::with_equiv(&g, Syn).find_all(&p).unwrap();
        assert_eq!(ms.len(), 1);
        assert_eq!(g.node_label(ms[0].nodes[0]), Some("Car"));
    }

    #[test]
    fn count_and_find_first_agree() {
        let g = sample();
        let mut p = Pattern::new();
        let x = p.any_node();
        let v = p.node("Vehicle");
        p.edge(x, rel::SUBCLASS_OF, v);
        let m = Matcher::new(&g);
        assert_eq!(m.count(&p).unwrap(), 2);
        assert!(m.find_first(&p).unwrap().is_some());
    }

    #[test]
    fn disconnected_pattern_is_cross_product() {
        let g = sample();
        let mut p = Pattern::new();
        p.node("Car");
        p.node("Truck");
        let ms = Matcher::new(&g).find_all(&p).unwrap();
        assert_eq!(ms.len(), 1); // 1 Car × 1 Truck
        assert!(!p.is_connected());
    }

    #[test]
    fn no_match_in_empty_graph() {
        let g = OntGraph::new("empty");
        let mut p = Pattern::new();
        p.node("Anything");
        assert!(!Matcher::new(&g).matches(&p).unwrap());
    }
}
