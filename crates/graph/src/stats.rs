//! Summary statistics for ontology graphs — used by the viewer and the
//! bench harness's experiment tables.

use std::collections::HashMap;

use crate::graph::OntGraph;

/// Structural summary of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Live node count.
    pub nodes: usize,
    /// Live edge count.
    pub edges: usize,
    /// Edge-label histogram, sorted by label.
    pub edge_label_counts: Vec<(String, usize)>,
    /// Maximum out-degree over live nodes.
    pub max_out_degree: usize,
    /// Maximum in-degree over live nodes.
    pub max_in_degree: usize,
    /// Mean degree (in+out) per node; 0.0 for the empty graph.
    pub mean_degree: f64,
    /// Count of isolated nodes (no live incident edges).
    pub isolated_nodes: usize,
}

impl GraphStats {
    /// Computes statistics for `g`.
    pub fn of(g: &OntGraph) -> GraphStats {
        let mut label_counts: HashMap<&str, usize> = HashMap::new();
        for e in g.edges() {
            *label_counts.entry(e.label).or_insert(0) += 1;
        }
        let mut edge_label_counts: Vec<(String, usize)> =
            label_counts.into_iter().map(|(l, c)| (l.to_string(), c)).collect();
        edge_label_counts.sort();

        let mut max_out = 0;
        let mut max_in = 0;
        let mut isolated = 0;
        for n in g.node_ids() {
            let o = g.out_degree(n);
            let i = g.in_degree(n);
            max_out = max_out.max(o);
            max_in = max_in.max(i);
            if o + i == 0 {
                isolated += 1;
            }
        }
        let nodes = g.node_count();
        let edges = g.edge_count();
        GraphStats {
            nodes,
            edges,
            edge_label_counts,
            max_out_degree: max_out,
            max_in_degree: max_in,
            mean_degree: if nodes == 0 { 0.0 } else { 2.0 * edges as f64 / nodes as f64 },
            isolated_nodes: isolated,
        }
    }

    /// One-line human-readable rendering.
    pub fn summary(&self) -> String {
        format!(
            "{} nodes, {} edges, {} edge labels, mean degree {:.2}, {} isolated",
            self.nodes,
            self.edges,
            self.edge_label_counts.len(),
            self.mean_degree,
            self.isolated_nodes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_empty_graph() {
        let g = OntGraph::new("t");
        let s = GraphStats::of(&g);
        assert_eq!(s.nodes, 0);
        assert_eq!(s.edges, 0);
        assert_eq!(s.mean_degree, 0.0);
        assert_eq!(s.isolated_nodes, 0);
    }

    #[test]
    fn stats_counts_and_histogram() {
        let mut g = OntGraph::new("t");
        g.ensure_edge_by_labels("A", "S", "B").unwrap();
        g.ensure_edge_by_labels("C", "S", "B").unwrap();
        g.ensure_edge_by_labels("P", "A", "A").unwrap();
        g.add_node("Lonely").unwrap();
        let s = GraphStats::of(&g);
        assert_eq!(s.nodes, 5);
        assert_eq!(s.edges, 3);
        assert_eq!(s.edge_label_counts, vec![("A".into(), 1), ("S".into(), 2)]);
        assert_eq!(s.max_in_degree, 2); // B
        assert_eq!(s.isolated_nodes, 1);
        assert!((s.mean_degree - 6.0 / 5.0).abs() < 1e-9);
        assert!(s.summary().contains("5 nodes"));
    }

    #[test]
    fn stats_ignore_tombstones() {
        let mut g = OntGraph::new("t");
        g.ensure_edge_by_labels("A", "S", "B").unwrap();
        g.delete_node_by_label("A").unwrap();
        let s = GraphStats::of(&g);
        assert_eq!(s.nodes, 1);
        assert_eq!(s.edges, 0);
        assert_eq!(s.isolated_nodes, 1);
    }
}
