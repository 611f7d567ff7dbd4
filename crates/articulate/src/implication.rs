//! The articulation's implication edges, defined once and indexed for
//! every reader.
//!
//! The paper gives a bridge one meaning: a directed semantic implication
//! (§4.1, "a directed subset relationship"). The generator's inference
//! expansion (§2.4), query reformulation (§2.3), the Difference operator
//! (§5.3) and [`Articulation::explain_connection`] all follow those
//! edges. The edge set is defined here once (`implying_bridges` and
//! `implying_relations`):
//!
//! * every `SIBridge` bridge. Conversion bridges (`DGToEuroFn`) map one
//!   value space onto another and imply nothing;
//! * the articulation ontology's own `SubclassOf` edges;
//! * each source's `SubclassOf` and `InstanceOf` edges (an SUV is a
//!   Cars, MyCar is a Cars).
//!
//! The generator seeds one `si` fact per edge of this set; the other
//! three readers ask an [`ImplicationIndex`] built from it.
//!
//! Terms are keyed by `(namespace, label id)`: ontology names are
//! numbered (the articulation first, then the sources in order), and a
//! term rides on its namespace's canonical graph's interner id. Terms
//! that appear only in bridge text (never as a node of that graph) get
//! overflow ids above the interner's range. The edges are stored
//! reversed (term → the terms that directly imply it), and the searches'
//! tables hash keys with FxHash, never external strings.

use onion_graph::hash::{FxHashMap, FxHashSet};
use onion_graph::{rel, Interner, LabelId, OntGraph};
use onion_ontology::Ontology;
use onion_rules::Term;

use crate::{Articulation, Bridge};

/// The relations whose edges imply inside the articulation ontology.
const ARTICULATION_RELATIONS: &[&str] = &[rel::SUBCLASS_OF];

/// The relations whose edges imply inside a source ontology.
const SOURCE_RELATIONS: &[&str] = &[rel::SUBCLASS_OF, rel::INSTANCE_OF];

/// The bridges of the implication edge set: the `SIBridge` ones, in
/// bridge order.
pub(crate) fn implying_bridges(articulation: &Articulation) -> impl Iterator<Item = &Bridge> {
    articulation.bridges.iter().filter(|b| &*b.label == rel::SI_BRIDGE)
}

/// The graph edges of the implication edge set: the graph of each
/// ontology of `[articulation, sources…]`, in that order, with the
/// relations whose edges imply in it.
pub(crate) fn implying_relations<'a>(
    articulation: &'a Articulation,
    sources: &'a [&'a Ontology],
) -> impl Iterator<Item = (&'a OntGraph, &'static [&'static str])> {
    std::iter::once((articulation.ontology.graph(), ARTICULATION_RELATIONS))
        .chain(sources.iter().map(|o| (o.graph(), SOURCE_RELATIONS)))
}

/// An interned qualified term: `(namespace index, label id)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct TermKey {
    onto: u16,
    label: u32,
}

/// Index of the articulation's namespace (always registered first).
const ART: u16 = 0;

#[inline]
fn key_of_label(onto: u16, lid: LabelId) -> TermKey {
    TermKey { onto, label: lid.index() as u32 }
}

/// The articulation's implication edges over its sources, reversed and
/// keyed by interned terms.
///
/// The index owns everything it keys on and borrows nothing, so it can
/// outlive one question: the facade builds one per state epoch and
/// shares it across a batch's workers. It records each namespace's
/// canonical graph by its position in `[articulation, sources…]`, and
/// its keys are that graph's label ids, so it is only valid together
/// with the articulation and sources it was built from, unchanged and
/// in the same order; every question takes them again, and debug builds
/// check their names. Any edit to a source or the articulation calls
/// for a new index.
#[derive(Debug, Clone)]
pub struct ImplicationIndex {
    /// Namespace names in registration order (articulation first); a
    /// key's `onto` is a position here.
    names: Vec<String>,
    /// Per namespace: the position of its canonical graph in
    /// `[articulation, sources…]` (`None` for namespaces that only
    /// occur in bridge text).
    canonical: Vec<Option<usize>>,
    /// Per namespace: the bridge-only terms, interned apart. A term's
    /// key label is its id here plus the canonical interner's length
    /// ([`overflow_base`]), so it never collides with a real label id.
    overflow: Vec<Interner>,
    /// term → the terms that directly imply it (implication edges
    /// reversed).
    implied_by: FxHashMap<TermKey, Vec<TermKey>>,
}

/// Where a namespace's overflow ids start: the length of its canonical
/// graph's interner (0 without one).
fn overflow_base(canonical: Option<&OntGraph>) -> u32 {
    canonical.map_or(0, |g| g.interner().len() as u32)
}

/// The ontologies an index was built from: position 0 is the
/// articulation ontology, position `i` is `sources[i - 1]`.
#[derive(Clone, Copy)]
struct Graphs<'g> {
    articulation: &'g Articulation,
    sources: &'g [&'g Ontology],
}

impl<'g> Graphs<'g> {
    fn at(self, pos: usize) -> &'g OntGraph {
        match pos {
            0 => self.articulation.ontology.graph(),
            p => self.sources[p - 1].graph(),
        }
    }
}

impl ImplicationIndex {
    /// Indexes the implication edges of `articulation` over `sources`
    /// (`implying_bridges` and `implying_relations`).
    pub fn new(articulation: &Articulation, sources: &[&Ontology]) -> Self {
        let graphs = Graphs { articulation, sources };
        let mut ix = ImplicationIndex {
            names: Vec::new(),
            canonical: Vec::new(),
            overflow: Vec::new(),
            implied_by: FxHashMap::default(),
        };
        ix.add_namespace(articulation.name(), Some(0));
        for (i, o) in sources.iter().enumerate() {
            ix.add_namespace(o.name(), Some(i + 1));
        }
        for b in implying_bridges(articulation) {
            let s = ix.intern_term(graphs, &b.src);
            let d = ix.intern_term(graphs, &b.dst);
            ix.implied_by.entry(d).or_default().push(s);
        }
        // `pos` is the graph's position in `[articulation, sources…]`
        for (pos, (g, relations)) in implying_relations(articulation, sources).enumerate() {
            let wanted: Vec<LabelId> = relations.iter().filter_map(|r| g.label_id(r)).collect();
            if wanted.is_empty() {
                continue;
            }
            let idx = ix.namespace(g.name()).expect("registered above");
            // keys ride on the graph's own ids when it is its namespace's
            // canonical graph (the articulation always is)
            let canonical = ix.canonical[idx as usize] == Some(pos);
            for (_, src, lid, dst) in g.edge_entries() {
                if wanted.contains(&lid) {
                    let (s, d) = if canonical {
                        (
                            key_of_label(idx, g.node_label_id(src).expect("live")),
                            key_of_label(idx, g.node_label_id(dst).expect("live")),
                        )
                    } else {
                        // a sibling graph shares this namespace's name:
                        // translate through strings into the canonical space
                        (
                            ix.intern_in(graphs, idx, g.node_label(src).expect("live")),
                            ix.intern_in(graphs, idx, g.node_label(dst).expect("live")),
                        )
                    };
                    ix.implied_by.entry(d).or_default().push(s);
                }
            }
        }
        ix
    }

    /// Registers a namespace; the first registration of a name wins and
    /// provides the canonical graph. Unqualified terms use `""`.
    fn add_namespace(&mut self, name: &str, pos: Option<usize>) -> u16 {
        if let Some(i) = self.namespace(name) {
            return i;
        }
        self.names.push(name.to_string());
        self.canonical.push(pos);
        self.overflow.push(Interner::new());
        (self.names.len() - 1) as u16
    }

    /// The index of the namespace called `name`, if registered. An
    /// articulation names a handful of ontologies, so a scan beats a
    /// hash of the name.
    fn namespace(&self, name: &str) -> Option<u16> {
        self.names.iter().position(|n| n == name).map(|i| i as u16)
    }

    /// Build-time interning of a bridge endpoint.
    fn intern_term(&mut self, graphs: Graphs, term: &Term) -> TermKey {
        let idx = self.add_namespace(term.ontology.as_deref().unwrap_or(""), None);
        self.intern_in(graphs, idx, &term.name)
    }

    /// Build-time interning of a possibly graph-less term of `idx`.
    fn intern_in(&mut self, graphs: Graphs, idx: u16, term: &str) -> TermKey {
        let canon = self.canonical[idx as usize].map(|p| graphs.at(p));
        if let Some(lid) = canon.and_then(|g| g.label_id(term)) {
            return key_of_label(idx, lid);
        }
        let label = overflow_base(canon) + self.overflow[idx as usize].intern(term).index() as u32;
        TermKey { onto: idx, label }
    }

    /// Query-time (read-only) key lookup.
    fn lookup(&self, graphs: Graphs, idx: u16, term: &str) -> Option<TermKey> {
        let canon = self.canonical[idx as usize].map(|p| graphs.at(p));
        if let Some(lid) = canon.and_then(|g| g.label_id(term)) {
            return Some(key_of_label(idx, lid));
        }
        let lid = self.overflow[idx as usize].get(term)?;
        Some(TermKey { onto: idx, label: overflow_base(canon) + lid.index() as u32 })
    }

    /// The term `key` stands for: a label of its namespace's canonical
    /// graph, or a bridge-only term above that graph's ids.
    fn term_of<'a>(&'a self, graphs: Graphs<'a>, key: TermKey) -> Option<&'a str> {
        let canon = self.canonical[key.onto as usize].map(|p| graphs.at(p));
        let (interner, index) = match key.label.checked_sub(overflow_base(canon)) {
            None => (canon?.interner(), key.label),
            Some(i) => (&self.overflow[key.onto as usize], i),
        };
        interner.id_at(index as usize).map(|lid| interner.resolve(lid))
    }

    /// The graphs this index was built from, checked by name in debug
    /// builds.
    fn graphs<'g>(
        &self,
        articulation: &'g Articulation,
        sources: &'g [&'g Ontology],
    ) -> Graphs<'g> {
        debug_assert!(
            self.names.iter().zip(&self.canonical).all(|(name, pos)| match pos {
                Some(0) => articulation.name() == name,
                Some(p) => sources.get(p - 1).is_some_and(|o| o.name() == name),
                None => true,
            }),
            "implication index built from another articulation or source list"
        );
        Graphs { articulation, sources }
    }

    /// `seeds` and every term with a directed implication path to one
    /// of them: one search over the reversed edges.
    fn implying(&self, seeds: impl IntoIterator<Item = TermKey>) -> FxHashSet<TermKey> {
        let mut seen = FxHashSet::default();
        let mut stack: Vec<TermKey> = seeds.into_iter().filter(|&k| seen.insert(k)).collect();
        while let Some(cur) = stack.pop() {
            for &prev in self.implied_by.get(&cur).into_iter().flatten() {
                if seen.insert(prev) {
                    stack.push(prev);
                }
            }
        }
        seen
    }

    /// Reformulation's question: the labels of `source` whose term
    /// implies the articulation term `term` (itself included), sorted.
    ///
    /// One backward search from `term`, then one label probe per reached
    /// term of `source`'s namespace: the term is read back from its key
    /// and kept if a live node of `source` carries it. `source`'s other
    /// nodes are never visited, and a same-named sibling of the
    /// namespace's canonical graph takes the same path.
    pub fn implying_labels(
        &self,
        articulation: &Articulation,
        sources: &[&Ontology],
        source: &Ontology,
        term: &str,
    ) -> Vec<String> {
        let graphs = self.graphs(articulation, sources);
        let (Some(idx), Some(target)) =
            (self.namespace(source.name()), self.lookup(graphs, ART, term))
        else {
            return Vec::new();
        };
        let g = source.graph();
        let mut out: Vec<String> = self
            .implying([target])
            .into_iter()
            .filter(|key| key.onto == idx)
            .filter_map(|key| self.term_of(graphs, key))
            .filter(|t| g.contains_label(t))
            .map(str::to_string)
            .collect();
        out.sort();
        out
    }

    /// The Difference operator's question: the terms among `terms` (of
    /// namespace `of`) that are determined to exist in namespace `into`
    /// (§5.3), i.e. have an implication path of one or more edges into
    /// it. One backward search from the terms that directly imply one of
    /// `into`'s marks them all; `terms` keep their order.
    pub fn determined_in<'t>(
        &self,
        articulation: &Articulation,
        sources: &[&Ontology],
        of: &str,
        into: &str,
        terms: impl IntoIterator<Item = &'t str>,
    ) -> Vec<&'t str> {
        let graphs = self.graphs(articulation, sources);
        let (Some(of), Some(into)) = (self.namespace(of), self.namespace(into)) else {
            return Vec::new();
        };
        let reaches = self.implying(
            self.implied_by
                .iter()
                .filter(|(key, _)| key.onto == into)
                .flat_map(|(_, preds)| preds.iter().copied()),
        );
        terms
            .into_iter()
            .filter(|t| self.lookup(graphs, of, t).is_some_and(|k| reaches.contains(&k)))
            .collect()
    }

    /// `explain_connection`'s question: the simple (repetition-free)
    /// implication paths from `from` to `to`, each at most `max_len`
    /// edges long and at most `max_paths` of them, as qualified labels
    /// (`carrier.SUV`, `transport.Vehicle`), shortest first, then in
    /// label order.
    ///
    /// Two edges between the same terms (a bridge and a `SubclassOf`
    /// edge, say) make one step, so no path is listed twice. A term on
    /// no implication edge is connected to nothing, itself included; a
    /// term on one is connected to itself by the one-term path.
    pub fn simple_paths(
        &self,
        articulation: &Articulation,
        sources: &[&Ontology],
        from: &Term,
        to: &Term,
        max_len: usize,
        max_paths: usize,
    ) -> Vec<Vec<String>> {
        let graphs = self.graphs(articulation, sources);
        let key = |t: &Term| {
            let idx = self.namespace(t.ontology.as_deref().unwrap_or(""))?;
            self.lookup(graphs, idx, &t.name)
        };
        let (Some(a), Some(b)) = (key(from), key(to)) else { return Vec::new() };
        let on_an_edge = |k: TermKey| {
            self.implied_by.contains_key(&k) || self.implied_by.values().any(|p| p.contains(&k))
        };
        let mut found = Vec::new();
        if max_len > 0 && max_paths > 0 && (a != b || on_an_edge(a)) {
            self.paths_back(a, &mut vec![b], max_len, max_paths, &mut found);
        }
        let qualified = |k: TermKey| {
            let term = self.term_of(graphs, k).expect("a key of this index");
            match self.names[k.onto as usize].as_str() {
                "" => term.to_string(),
                ns => format!("{ns}.{term}"),
            }
        };
        let mut paths: Vec<Vec<String>> =
            found.into_iter().map(|p| p.into_iter().rev().map(qualified).collect()).collect();
        paths.sort_by(|p, q| p.len().cmp(&q.len()).then_with(|| p.cmp(q)));
        paths
    }

    /// Depth-first search backwards from the end of `path` (which runs
    /// from the target back) to `from`, over distinct predecessors.
    fn paths_back(
        &self,
        from: TermKey,
        path: &mut Vec<TermKey>,
        max_len: usize,
        max_paths: usize,
        out: &mut Vec<Vec<TermKey>>,
    ) {
        let cur = *path.last().expect("non-empty");
        if cur == from {
            out.push(path.clone());
            return;
        }
        if path.len() > max_len {
            return;
        }
        let mut preds = self.implied_by.get(&cur).cloned().unwrap_or_default();
        preds.sort_unstable();
        preds.dedup();
        for prev in preds {
            if out.len() >= max_paths {
                return;
            }
            if !path.contains(&prev) {
                path.push(prev);
                self.paths_back(from, path, max_len, max_paths, out);
                path.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bridge, BridgeKind};
    use onion_ontology::OntologyBuilder;

    fn t(name: &str) -> Term {
        Term::qualified("x", name)
    }

    /// Source `x` holding `a`–`e` with no edges of its own, and an
    /// articulation whose bridges are `edges` between `x`'s terms.
    fn bridged(edges: &[(&str, &str)]) -> (Articulation, Ontology) {
        let x = ["a", "b", "c", "d", "e"]
            .iter()
            .fold(OntologyBuilder::new("x"), |b, l| b.class(l))
            .build()
            .unwrap();
        let mut art = Articulation::new("art");
        for (s, d) in edges {
            art.add_bridge(Bridge::si(t(s), t(d), BridgeKind::Rule));
        }
        (art, x)
    }

    fn paths(
        art: &Articulation,
        x: &Ontology,
        from: &str,
        to: &str,
        len: usize,
        n: usize,
    ) -> Vec<Vec<String>> {
        art.explain_connection(&[x], &t(from), &t(to), len, n)
    }

    fn diamond() -> (Articulation, Ontology) {
        bridged(&[("a", "b"), ("b", "d"), ("a", "c"), ("c", "d"), ("a", "d")])
    }

    #[test]
    fn finds_all_three_paths() {
        let (art, x) = diamond();
        assert_eq!(
            paths(&art, &x, "a", "d", 10, 100),
            vec![vec!["x.a", "x.d"], vec!["x.a", "x.b", "x.d"], vec!["x.a", "x.c", "x.d"]]
        );
    }

    #[test]
    fn respects_max_len_and_max_paths() {
        let (art, x) = diamond();
        assert_eq!(paths(&art, &x, "a", "d", 1, 100), vec![vec!["x.a", "x.d"]]);
        assert_eq!(paths(&art, &x, "a", "d", 10, 2).len(), 2);
        assert!(paths(&art, &x, "a", "d", 0, 100).is_empty());
        assert!(paths(&art, &x, "a", "d", 10, 0).is_empty());
    }

    #[test]
    fn no_path_means_empty() {
        let (art, x) = diamond();
        assert!(paths(&art, &x, "d", "a", 10, 10).is_empty());
        assert!(paths(&art, &x, "a", "e", 10, 10).is_empty());
        let nowhere = Term::qualified("y", "a");
        assert!(art.explain_connection(&[&x], &nowhere, &t("d"), 10, 10).is_empty());
    }

    #[test]
    fn cycle_does_not_loop_forever() {
        let (art, x) = bridged(&[("a", "b"), ("b", "a")]);
        assert_eq!(
            paths(&art, &x, "a", "b", 10, 100),
            vec![vec!["x.a", "x.b"]],
            "simple paths only"
        );
    }

    #[test]
    fn self_path_is_trivial() {
        let (art, x) = diamond();
        assert_eq!(paths(&art, &x, "a", "a", 10, 10), vec![vec!["x.a"]]);
        // e is on no implication edge: connected to nothing, not even itself
        assert!(paths(&art, &x, "e", "e", 10, 10).is_empty());
    }

    #[test]
    fn parallel_edges_make_one_path() {
        // b SubclassOf a in x next to a bridge x.b => x.a
        let x = OntologyBuilder::new("x").class_under("b", "a").build().unwrap();
        let mut art = Articulation::new("art");
        art.add_bridge(Bridge::si(t("b"), t("a"), BridgeKind::Rule));
        assert_eq!(paths(&art, &x, "b", "a", 5, 5), vec![vec!["x.b", "x.a"]]);
    }

    #[test]
    fn conversion_bridges_are_not_implications() {
        let (mut art, x) = bridged(&[("a", "b")]);
        art.add_bridge(Bridge::functional(t("b"), "BToCFn", t("c")));
        assert!(paths(&art, &x, "a", "c", 5, 5).is_empty());
        let ix = ImplicationIndex::new(&art, &[&x]);
        assert_eq!(ix.determined_in(&art, &[&x], "x", "x", ["a", "b", "c"]), vec!["a"]);
    }
}
