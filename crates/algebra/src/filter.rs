//! The `filter` unary operator — the algebra's *select* (§5).
//!
//! "Given an ontology and a graph pattern an unary operation matches the
//! pattern and returns selected portions of the ontology graph." Filter
//! keeps exactly the nodes and edges that participate in some match of
//! the pattern.

use onion_graph::{MatchConfig, Matcher, OntGraph, Pattern};
use onion_ontology::Ontology;

use crate::Result;

/// Returns the subgraph of `ontology` induced by all matches of
/// `pattern` (matched nodes plus the matched pattern edges between
/// them). The result graph is named `filter(<name>)`.
pub fn filter(ontology: &Ontology, pattern: &Pattern, config: &MatchConfig) -> Result<OntGraph> {
    let g = ontology.graph();
    let matcher = Matcher::new(g).with_config(config.clone());
    let matches = matcher.find_all(pattern)?;
    // resolve each pattern edge's label constraint to an interned id
    // once; an unresolved (never-interned) label admits nothing unless
    // labels are relaxed
    let constraint_ids: Vec<Option<onion_graph::LabelId>> = pattern
        .edges
        .iter()
        .map(|pe| match &pe.constraint {
            onion_graph::EdgeConstraint::Label(l) => g.label_id(l),
            onion_graph::EdgeConstraint::Any => None,
        })
        .collect();
    let mut out = OntGraph::new(format!("filter({})", g.name()));
    for m in &matches {
        for &n in &m.nodes {
            out.ensure_node(g.node_label(n).expect("matched nodes are live"))?;
        }
        for (pe, cid) in pattern.edges.iter().zip(&constraint_ids) {
            let src = m.nodes[pe.src];
            let dst = m.nodes[pe.dst];
            // find the concrete graph edge(s) realising this pattern
            // edge — id comparisons only; labels resolve on insert
            for (_, lid, d) in g.out_edge_entries(src) {
                if d != dst {
                    continue;
                }
                let admissible = match &pe.constraint {
                    onion_graph::EdgeConstraint::Any => true,
                    onion_graph::EdgeConstraint::Label(_) => {
                        config.relax_edge_labels || *cid == Some(lid)
                    }
                };
                if admissible {
                    out.ensure_edge_by_labels(
                        g.node_label(src).expect("live"),
                        g.resolve(lid),
                        g.node_label(dst).expect("live"),
                    )?;
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use onion_ontology::examples::carrier;

    #[test]
    fn filter_selects_matching_subgraph() {
        let c = carrier();
        // all subclass links directly under Transportation
        let mut p = Pattern::new();
        let x = p.any_node();
        let t = p.node("Transportation");
        p.edge(x, "SubclassOf", t);
        let out = filter(&c, &p, &MatchConfig::default()).unwrap();
        assert!(out.contains_label("Cars"));
        assert!(out.contains_label("Trucks"));
        assert!(out.contains_label("Transportation"));
        assert!(!out.contains_label("SUV"), "SUV is two hops away");
        assert!(!out.contains_label("Price"), "attributes not matched");
        assert!(out.has_edge("Cars", "SubclassOf", "Transportation"));
        assert_eq!(out.name(), "filter(carrier)");
    }

    #[test]
    fn filter_empty_when_no_match() {
        let c = carrier();
        let p = Pattern::parse("Ghost -SubclassOf-> Transportation").unwrap();
        let out = filter(&c, &p, &MatchConfig::default()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn filter_with_relaxed_edges_keeps_actual_labels() {
        let c = carrier();
        let p = Pattern::parse("Price -SubclassOf-> Cars").unwrap(); // wrong label
        let cfg = MatchConfig { relax_edge_labels: true };
        let out = filter(&c, &p, &cfg).unwrap();
        assert!(out.has_edge("Price", "AttributeOf", "Cars"), "real label preserved");
    }

    #[test]
    fn filter_attribute_pattern_from_paper() {
        // truck(O: owner, model) — §3's textual example
        let c = carrier();
        let p = Pattern::parse("Trucks(O: Owner, Model)").unwrap();
        let out = filter(&c, &p, &MatchConfig::default()).unwrap();
        assert_eq!(out.node_count(), 3);
        assert!(out.has_edge("Owner", "AttributeOf", "Trucks"));
        assert!(out.has_edge("Model", "AttributeOf", "Trucks"));
    }
}
