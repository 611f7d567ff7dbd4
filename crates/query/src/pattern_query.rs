//! Pattern queries over the unified ontology (paper §3 "The Graph
//! Patterns").
//!
//! The paper's examples — `carrier:car:driver` and
//! `truck(O: owner, model)` — are *schema-level* queries: they select
//! portions of the (unified) ontology graph rather than instance data.
//! This module compiles the textual notation against the unified graph's
//! qualified labels (`carrier.Cars`), resolving each step
//! case-insensitively and singular/plural-insensitively, matching the
//! paper's loose use of `car` for the `Cars` node.

use onion_graph::pattern::NodeConstraint;
use onion_graph::{
    CaseInsensitiveEquiv, LabelEquiv, Match, MatchConfig, Matcher, OntGraph, Pattern,
};
use onion_lexicon::normalize::normalize;

use crate::{QueryError, Result};

/// Label equivalence for schema queries: case-insensitive and
/// plural-insensitive on the local part of a qualified label; the
/// ontology prefix must match exactly when present in the pattern.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchemaEquiv;

impl LabelEquiv for SchemaEquiv {
    fn node_equiv(&self, pattern_label: &str, graph_label: &str) -> bool {
        if pattern_label == graph_label {
            return true;
        }
        // split qualified forms; pattern may be unqualified
        let (p_onto, p_name) = split(pattern_label);
        let (g_onto, g_name) = split(graph_label);
        if let Some(po) = p_onto {
            if g_onto != Some(po) {
                return false;
            }
        }
        normalize(p_name) == normalize(g_name)
    }

    fn edge_equiv(&self, pattern_label: &str, graph_label: &str) -> bool {
        CaseInsensitiveEquiv.edge_equiv(pattern_label, graph_label)
    }
}

fn split(label: &str) -> (Option<&str>, &str) {
    match label.split_once('.') {
        Some((o, n)) if !o.is_empty() && !n.is_empty() => (Some(o), n),
        _ => (None, label),
    }
}

/// Compiles the paper's textual pattern into a pattern scoped to one
/// source ontology: `carrier:car:driver` becomes a path pattern over
/// `carrier.car` → `carrier.driver` (resolved fuzzily by
/// [`SchemaEquiv`]). Patterns already containing dots are left as-is.
pub fn compile_scoped(text: &str) -> Result<Pattern> {
    let p = Pattern::parse(text).map_err(|e| QueryError::Parse(e.to_string()))?;
    // the paper's convention: the first path step may name the ontology;
    // if so, strip it and qualify the remaining labels with it
    let first_label = match &p.nodes.first() {
        Some(n) => match &n.constraint {
            NodeConstraint::Label(l) if !l.contains('.') => Some(l.clone()),
            _ => None,
        },
        None => None,
    };
    let Some(onto) = first_label else { return Ok(p) };
    // heuristic: treat the first step as an ontology prefix only when it
    // has a single outgoing Any edge chain (path form) and at least two
    // steps follow… simpler and predictable: when the caller wrote a
    // path of ≥ 2 steps and no label is qualified yet.
    let already_qualified = p.nodes.iter().any(|n| match &n.constraint {
        NodeConstraint::Label(l) => l.contains('.'),
        NodeConstraint::Any => false,
    });
    if already_qualified || p.nodes.len() < 2 {
        return Ok(p);
    }
    // drop node 0 and re-point edges; qualify every remaining label
    let mut q = Pattern::new();
    for n in p.nodes.iter().skip(1) {
        match &n.constraint {
            NodeConstraint::Label(l) => {
                let lbl = format!("{onto}.{l}");
                match &n.var {
                    Some(v) => q.var_node(v, &lbl),
                    None => q.node(&lbl),
                }
            }
            NodeConstraint::Any => match &n.var {
                Some(v) => q.any_var_node(v),
                None => q.any_node(),
            },
        };
    }
    for e in &p.edges {
        if e.src == 0 || e.dst == 0 {
            continue; // edges touching the ontology pseudo-step vanish
        }
        q.edges.push(onion_graph::PatternEdge {
            src: e.src - 1,
            dst: e.dst - 1,
            constraint: e.constraint.clone(),
        });
    }
    q.validate().map_err(|e| QueryError::Parse(e.to_string()))?;
    Ok(q)
}

/// Runs a schema pattern over the unified graph.
pub fn run(unified: &OntGraph, pattern: &Pattern) -> Result<Vec<Match>> {
    Matcher::with_equiv(unified, SchemaEquiv)
        .with_config(MatchConfig { relax_edge_labels: true })
        .find_all(pattern)
        .map_err(|e| QueryError::Parse(e.to_string()))
}

/// Convenience: compile the paper notation and run it.
pub fn query_unified(unified: &OntGraph, text: &str) -> Result<Vec<Match>> {
    let p = compile_scoped(text)?;
    run(unified, &p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use onion_articulate::ArticulationGenerator;
    use onion_ontology::examples::{carrier, factory, fig2_rules};

    fn unified() -> OntGraph {
        let c = carrier();
        let f = factory();
        let art = ArticulationGenerator::new().generate(&fig2_rules(), &[&c, &f]).unwrap();
        art.unified(&[&c, &f]).unwrap()
    }

    #[test]
    fn papers_path_example() {
        // §3: carrier:car:driver — "a node car which has an outgoing edge
        // to the node driver"
        let u = unified();
        let ms = query_unified(&u, "carrier:car:driver").unwrap();
        assert_eq!(ms.len(), 1, "Cars -hasDriver-> Driver matches");
        let labels: Vec<&str> = ms[0].nodes.iter().map(|&n| u.node_label(n).unwrap()).collect();
        assert_eq!(labels, vec!["carrier.Cars", "carrier.Driver"]);
    }

    #[test]
    fn papers_attribute_example() {
        // §3: truck(O: owner, model) — scoped to carrier
        let u = unified();
        let ms = query_unified(&u, "carrier:truck(O: owner, model)").unwrap();
        // hmm: attribute args attach to the head step "truck"; the scope
        // step is consumed. One match against carrier.Trucks expected.
        assert_eq!(ms.len(), 1);
        let owner = ms[0].get("O").unwrap();
        assert_eq!(u.node_label(owner), Some("carrier.Owner"));
    }

    #[test]
    fn unscoped_patterns_match_across_namespaces() {
        let u = unified();
        // price attributes exist in both sources
        let p = compile_scoped("price").unwrap();
        let ms = run(&u, &p).unwrap();
        assert!(ms.len() >= 2, "carrier.Price and factory.Price (got {})", ms.len());
    }

    #[test]
    fn qualified_patterns_pass_through() {
        let u = unified();
        let p = compile_scoped("carrier.SUV -SubclassOf-> carrier.Cars").unwrap();
        let ms = run(&u, &p).unwrap();
        assert_eq!(ms.len(), 1);
    }

    #[test]
    fn schema_equiv_rules() {
        let e = SchemaEquiv;
        assert!(e.node_equiv("carrier.car", "carrier.Cars"));
        assert!(e.node_equiv("car", "carrier.Cars"), "unqualified matches any namespace");
        assert!(!e.node_equiv("factory.car", "carrier.Cars"), "wrong namespace");
        assert!(e.node_equiv("truck", "factory.Truck"));
        assert!(!e.node_equiv("truck", "factory.Vehicle"));
    }

    #[test]
    fn bad_pattern_is_parse_error() {
        assert!(matches!(compile_scoped("a -"), Err(QueryError::Parse(_))));
    }

    #[test]
    fn non_ascii_labels_compile_and_stray_symbols_are_parse_errors() {
        let p = compile_scoped("carrier:Fahrzeug(Größe)").unwrap();
        let labels: Vec<&NodeConstraint> = p.nodes.iter().map(|n| &n.constraint).collect();
        assert_eq!(
            labels,
            [
                &NodeConstraint::Label("carrier.Fahrzeug".into()),
                &NodeConstraint::Label("carrier.Größe".into())
            ]
        );
        let u = unified();
        assert!(query_unified(&u, "carrier:Über").unwrap().is_empty());
        assert!(matches!(query_unified(&u, "carrier:car → driver"), Err(QueryError::Parse(_))));
    }
}
