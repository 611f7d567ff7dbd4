//! The **GlobalMerge** baseline: one unified global schema.
//!
//! §1 of the paper: "Previous work on information integration and on
//! schema integration has been based on the construction of a unified
//! database schema. However, unification of schemas does not scale well
//! since broad schema integration leads to huge and difficult-to-
//! maintain schemas." This module implements that strawman faithfully so
//! the benchmarks can measure the contrast:
//!
//! * build: merge every source graph into one global graph, unifying
//!   nodes whose labels are equal or known-synonymous (the same signals
//!   ONION's matchers use — the comparison is about *architecture*, not
//!   matcher quality);
//! * maintain: any source change invalidates the merge; the baseline
//!   re-merges from scratch (it has no difference operator to scope the
//!   work);
//! * query: answered directly against the global graph's merged classes.

use std::collections::HashMap;

use onion_graph::traverse::{reachable_from_all, Direction, EdgeFilter};
use onion_graph::{rel, NodeId, OntGraph};
use onion_lexicon::normalize::normalize;
use onion_lexicon::Lexicon;
use onion_ontology::Ontology;

/// The global unified schema.
#[derive(Debug)]
pub struct GlobalMerge {
    graph: OntGraph,
    /// qualified source term -> merged global label
    mapping: HashMap<String, String>,
    merges: usize,
}

impl GlobalMerge {
    /// Builds the global schema from `sources`, unifying labels that are
    /// equal after normalisation or synonymous per `lexicon`.
    pub fn build(sources: &[&Ontology], lexicon: &Lexicon) -> GlobalMerge {
        let mut graph = OntGraph::new("global");
        let mut mapping: HashMap<String, String> = HashMap::new();
        // canonical label per concept: first-seen label wins
        let mut canon_by_norm: HashMap<String, String> = HashMap::new();
        let mut merges = 0usize;

        for o in sources {
            let g = o.graph();
            for n in g.nodes() {
                let qualified = format!("{}.{}", o.name(), n.label);
                let norm = normalize(n.label);
                // 1. direct normalised-label hit
                let canon = if let Some(c) = canon_by_norm.get(&norm) {
                    merges += 1;
                    c.clone()
                } else {
                    // 2. synonym hit against existing canonical concepts
                    let syn = lexicon
                        .synonyms_of(n.label)
                        .into_iter()
                        .find_map(|s| canon_by_norm.get(s).cloned());
                    match syn {
                        Some(c) => {
                            merges += 1;
                            c
                        }
                        None => n.label.to_string(),
                    }
                };
                canon_by_norm.insert(norm, canon.clone());
                // register synonym forms so later sources can hit them
                graph.ensure_node(&canon).expect("labels are non-empty");
                mapping.insert(qualified, canon);
            }
        }
        for o in sources {
            let g = o.graph();
            for e in g.edges() {
                let s = &mapping[&format!("{}.{}", o.name(), g.node_label(e.src).expect("live"))];
                let d = &mapping[&format!("{}.{}", o.name(), g.node_label(e.dst).expect("live"))];
                if s != d {
                    let _ = graph.ensure_edge_by_labels(s, e.label, d);
                } // merged self-edges are dropped
            }
        }
        GlobalMerge { graph, mapping, merges }
    }

    /// The merged global graph.
    pub fn graph(&self) -> &OntGraph {
        &self.graph
    }

    /// How a qualified source term maps into the global schema.
    pub fn global_label(&self, source: &str, term: &str) -> Option<&str> {
        self.mapping.get(&format!("{source}.{term}")).map(String::as_str)
    }

    /// Number of cross-source node unifications performed.
    pub fn merges(&self) -> usize {
        self.merges
    }

    /// The maintenance story: rebuild everything (the baseline has no
    /// incremental path — that is the point of the comparison).
    pub fn rebuild(sources: &[&Ontology], lexicon: &Lexicon) -> GlobalMerge {
        Self::build(sources, lexicon)
    }

    /// All global classes a term's instances belong to: the merged class
    /// and its transitive superclasses (used by the B4 query baseline).
    pub fn classes_of(&self, source: &str, term: &str) -> Vec<String> {
        let Some(global) = self.global_label(source, term) else {
            return Vec::new();
        };
        let Some(n) = self.graph.node_by_label(global) else {
            return Vec::new();
        };
        let up: Vec<NodeId> = self.graph.out_neighbors(n, rel::SUBCLASS_OF).collect();
        let subclass = EdgeFilter::label(rel::SUBCLASS_OF);
        let mut v: Vec<String> =
            reachable_from_all(&self.graph, &up, Direction::Forward, &subclass)
                .into_iter()
                .map(|m| self.graph.node_label(m).expect("live").to_string())
                .collect();
        v.push(global.to_string());
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onion_lexicon::builtin::transport_lexicon;
    use onion_ontology::examples::{carrier, factory};

    #[test]
    fn merges_identical_and_synonymous_labels() {
        let c = carrier();
        let f = factory();
        let lex = transport_lexicon();
        let gm = GlobalMerge::build(&[&c, &f], &lex);
        // Transportation appears in both, merged once
        assert_eq!(gm.global_label("carrier", "Transportation"), Some("Transportation"));
        assert_eq!(gm.global_label("factory", "Transportation"), Some("Transportation"));
        assert!(gm.merges() > 0);
        // node count strictly below the sum
        assert!(gm.graph().node_count() < c.term_count() + f.term_count());
    }

    #[test]
    fn synonym_merge_via_lexicon() {
        let c = carrier();
        let f = factory();
        let lex = transport_lexicon();
        let gm = GlobalMerge::build(&[&c, &f], &lex);
        // carrier.Trucks and factory.Truck normalise to the same lemma
        let ct = gm.global_label("carrier", "Trucks").unwrap();
        let ft = gm.global_label("factory", "Truck").unwrap();
        assert_eq!(ct, ft);
    }

    #[test]
    fn edges_carried_over() {
        let c = carrier();
        let f = factory();
        let gm = GlobalMerge::build(&[&c, &f], &transport_lexicon());
        let suv = gm.global_label("carrier", "SUV").unwrap().to_string();
        let cars = gm.global_label("carrier", "Cars").unwrap().to_string();
        assert!(gm.graph().has_edge(&suv, "SubclassOf", &cars));
    }

    #[test]
    fn rebuild_equals_build() {
        let c = carrier();
        let f = factory();
        let lex = transport_lexicon();
        let a = GlobalMerge::build(&[&c, &f], &lex);
        let b = GlobalMerge::rebuild(&[&c, &f], &lex);
        assert!(a.graph().same_shape(b.graph()));
    }

    #[test]
    fn classes_of_include_superclasses() {
        let c = carrier();
        let f = factory();
        let gm = GlobalMerge::build(&[&c, &f], &transport_lexicon());
        let classes = gm.classes_of("carrier", "SUV");
        assert!(classes.iter().any(|x| x.contains("Cars") || x.contains("Car")), "{classes:?}");
        assert!(gm.classes_of("carrier", "Ghost").is_empty());
    }
}
