//! Graphviz DOT export — the reproduction's stand-in for the ONION
//! viewer's rendered ontology graphs (paper §2.2, Fig. 2).

use std::fmt::Write as _;

use crate::graph::OntGraph;
use crate::rel;

/// Rendering options for DOT output.
#[derive(Debug, Clone)]
pub struct DotOptions {
    /// Graph name in the `digraph` header (sanitised).
    pub name: Option<String>,
    /// Map well-known relationship labels to short forms (`SubclassOf`→`S`
    /// etc.) as in Fig. 2 of the paper.
    pub abbreviate_relations: bool,
    /// Emit `rankdir=BT` so subclass hierarchies point upward.
    pub bottom_to_top: bool,
}

impl Default for DotOptions {
    fn default() -> Self {
        DotOptions { name: None, abbreviate_relations: true, bottom_to_top: true }
    }
}

/// Escapes `s` for a double-quoted DOT string.
pub fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The short form Fig. 2 draws for a well-known relationship label
/// (`S`, `A`, `I`, and `SI` for bridges); any other label as is.
pub fn abbreviate(label: &str) -> &str {
    match label {
        rel::SUBCLASS_OF => "S",
        rel::ATTRIBUTE_OF => "A",
        rel::INSTANCE_OF => "I",
        rel::SI_BRIDGE => "SI",
        other => other,
    }
}

/// Renders `g` as a Graphviz `digraph`.
pub fn to_dot(g: &OntGraph, opts: &DotOptions) -> String {
    let mut out = String::new();
    let name = opts.name.clone().unwrap_or_else(|| g.name().to_string());
    let name: String = name.chars().map(|c| if c.is_alphanumeric() { c } else { '_' }).collect();
    let _ = writeln!(out, "digraph {name} {{");
    if opts.bottom_to_top {
        let _ = writeln!(out, "  rankdir=BT;");
    }
    let _ = writeln!(out, "  node [shape=box, fontname=\"Helvetica\"];");
    for n in g.nodes() {
        let _ = writeln!(out, "  n{} [label=\"{}\"];", n.id.index(), escape(n.label));
    }
    for e in g.edges() {
        let label = if opts.abbreviate_relations { abbreviate(e.label) } else { e.label };
        let _ = writeln!(
            out,
            "  n{} -> n{} [label=\"{}\"];",
            e.src.index(),
            e.dst.index(),
            escape(label)
        );
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_contains_nodes_and_edges() {
        let mut g = OntGraph::new("carrier");
        g.ensure_edge_by_labels("Car", rel::SUBCLASS_OF, "Vehicle").unwrap();
        let dot = to_dot(&g, &DotOptions::default());
        assert!(dot.starts_with("digraph carrier {"));
        assert!(dot.contains("label=\"Car\""));
        assert!(dot.contains("label=\"Vehicle\""));
        assert!(dot.contains("label=\"S\""), "SubclassOf abbreviated to S as in Fig. 2");
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn bridges_render_as_si() {
        let mut g = OntGraph::new("unified");
        g.ensure_edge_by_labels("carrier.Car", rel::SI_BRIDGE, "transport.Car").unwrap();
        let dot = to_dot(&g, &DotOptions::default());
        assert!(dot.contains("label=\"SI\""), "SIBridge abbreviated to SI as in Fig. 2");
        assert!(!dot.contains("SIBridge"));
    }

    #[test]
    fn dot_without_abbreviation() {
        let mut g = OntGraph::new("g");
        g.ensure_edge_by_labels("Car", rel::SUBCLASS_OF, "Vehicle").unwrap();
        let opts = DotOptions { abbreviate_relations: false, ..Default::default() };
        let dot = to_dot(&g, &opts);
        assert!(dot.contains("label=\"SubclassOf\""));
    }

    #[test]
    fn dot_escapes_quotes_and_sanitises_name() {
        let mut g = OntGraph::new("my graph!");
        g.add_node("He said \"hi\"").unwrap();
        let dot = to_dot(&g, &DotOptions::default());
        assert!(dot.contains("digraph my_graph_ {"));
        assert!(dot.contains("\\\"hi\\\""));
    }

    #[test]
    fn dot_skips_tombstones() {
        let mut g = OntGraph::new("g");
        g.ensure_edge_by_labels("A", "S", "B").unwrap();
        g.delete_node_by_label("A").unwrap();
        let dot = to_dot(&g, &DotOptions::default());
        assert!(!dot.contains("label=\"A\""));
        assert!(!dot.contains("->"));
    }
}
