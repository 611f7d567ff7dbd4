//! Clustered DOT rendering of a unified ontology — the Fig. 2 layout:
//! each source ontology in its own box, the articulation ontology in the
//! centre, bridges crossing between clusters.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use onion_graph::dot::{abbreviate, escape};
use onion_graph::OntGraph;

/// Renders a unified graph (qualified `onto.Term` labels) as a DOT
/// digraph with one cluster per ontology namespace. Edges within a
/// namespace use solid arrows; cross-namespace edges (the bridges) are
/// dashed, as in the paper's figure.
pub fn unified_to_dot(unified: &OntGraph) -> String {
    // namespace -> (node id, local label)
    let mut clusters: BTreeMap<String, Vec<(usize, String)>> = BTreeMap::new();
    for n in unified.nodes() {
        let (ns, local) = match n.label.split_once('.') {
            Some((o, l)) if !o.is_empty() && !l.is_empty() => (o.to_string(), l.to_string()),
            _ => ("_unqualified".to_string(), n.label.to_string()),
        };
        clusters.entry(ns).or_default().push((n.id.index(), local));
    }

    let mut out = String::from("digraph unified {\n");
    out.push_str("  rankdir=BT;\n  node [shape=box, fontname=\"Helvetica\"];\n");
    for (i, (ns, nodes)) in clusters.iter().enumerate() {
        let _ = writeln!(out, "  subgraph cluster_{i} {{");
        let _ = writeln!(out, "    label=\"{}\";", escape(ns));
        out.push_str("    style=rounded;\n");
        for (id, local) in nodes {
            let _ = writeln!(out, "    n{id} [label=\"{}\"];", escape(local));
        }
        out.push_str("  }\n");
    }
    for e in unified.edges() {
        let s = unified.node_label(e.src).expect("live");
        let d = unified.node_label(e.dst).expect("live");
        let ns = |l: &str| l.split_once('.').map(|(o, _)| o.to_string()).unwrap_or_default();
        let style = if ns(s) == ns(d) { "solid" } else { "dashed" };
        let _ = writeln!(
            out,
            "  n{} -> n{} [label=\"{}\", style={}];",
            e.src.index(),
            e.dst.index(),
            escape(abbreviate(e.label)),
            style
        );
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use onion_articulate::ArticulationGenerator;
    use onion_ontology::examples::{carrier, factory, fig2_rules};

    #[test]
    fn fig2_unified_renders_three_clusters() {
        let c = carrier();
        let f = factory();
        let art = ArticulationGenerator::new().generate(&fig2_rules(), &[&c, &f]).unwrap();
        let u = art.unified(&[&c, &f]).unwrap();
        let dot = unified_to_dot(&u);
        assert!(dot.contains("subgraph cluster_0"));
        assert!(dot.contains("label=\"carrier\""));
        assert!(dot.contains("label=\"factory\""));
        assert!(dot.contains("label=\"transport\""));
        // bridges dashed, internal edges solid, SIBridge abbreviated
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("style=solid"));
        assert!(dot.contains("label=\"SI\""));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn unqualified_nodes_get_their_own_cluster() {
        let mut g = OntGraph::new("u");
        g.ensure_edge_by_labels("a.X", "S", "loose").unwrap();
        let dot = unified_to_dot(&g);
        assert!(dot.contains("label=\"_unqualified\""));
        assert!(dot.contains("style=dashed"), "cross-cluster edge");
    }
}
