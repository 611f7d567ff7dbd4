//! The four graph transformation primitives as replayable values.
//!
//! §3 of the paper defines node addition (`NA`), node deletion (`ND`),
//! edge addition (`EA`) and edge deletion (`ED`). [`GraphOp`] reifies them
//! in *label-addressed* form — the paper's own convention for consistent
//! ontologies, where a term's label identifies its node — so that an op
//! stream recorded against one graph can be replayed against another
//! (incremental articulation maintenance, §5.3) or logged for audit.

use crate::graph::OntGraph;
use crate::{GraphError, Result};

/// A single label-addressed transformation primitive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphOp {
    /// `NA`: add a node, optionally with adjacent edges
    /// `{(N, αᵢ, mⱼ)}` as in the paper's definition.
    NodeAdd {
        /// Label of the new node.
        label: String,
        /// Outgoing adjacent edges `(edge-label, target-node-label)`.
        out_edges: Vec<(String, String)>,
        /// Incoming adjacent edges `(source-node-label, edge-label)`.
        in_edges: Vec<(String, String)>,
    },
    /// `ND`: delete the node carrying `label` (and incident edges).
    ///
    /// The op carries the node's neighbourhood *captured at delete time*
    /// so it is lossless: [`GraphOp::inverse`] can rebuild the node and
    /// every incident edge from the op alone. Blind construction via
    /// [`GraphOp::node_delete`] leaves the capture empty (the inverse
    /// then restores a bare node); the journal always records the
    /// captured form.
    NodeDelete {
        /// Label of the node to delete.
        label: String,
        /// Outgoing edges `(edge-label, target-node-label)` the node had
        /// when it was deleted.
        out_edges: Vec<(String, String)>,
        /// Incoming edges `(source-node-label, edge-label)` the node had
        /// when it was deleted.
        in_edges: Vec<(String, String)>,
    },
    /// `EA`: add the edge set `{(mᵢ, αⱼ, mₖ)}`.
    EdgeAdd {
        /// `(src-label, edge-label, dst-label)` triples to add.
        edges: Vec<(String, String, String)>,
    },
    /// `ED`: delete the edge set `{(mᵢ, αⱼ, mₖ)}`.
    EdgeDelete {
        /// `(src-label, edge-label, dst-label)` triples to remove.
        edges: Vec<(String, String, String)>,
    },
}

impl GraphOp {
    /// Shorthand for a bare node addition.
    pub fn node_add(label: impl Into<String>) -> Self {
        GraphOp::NodeAdd { label: label.into(), out_edges: Vec::new(), in_edges: Vec::new() }
    }

    /// Shorthand for a node addition with adjacent out-edges.
    pub fn node_add_with(
        label: impl Into<String>,
        out_edges: Vec<(String, String)>,
        in_edges: Vec<(String, String)>,
    ) -> Self {
        GraphOp::NodeAdd { label: label.into(), out_edges, in_edges }
    }

    /// Shorthand for a blind node deletion (no captured neighbourhood).
    pub fn node_delete(label: impl Into<String>) -> Self {
        GraphOp::NodeDelete { label: label.into(), out_edges: Vec::new(), in_edges: Vec::new() }
    }

    /// Shorthand for a single edge addition.
    pub fn edge_add(
        src: impl Into<String>,
        label: impl Into<String>,
        dst: impl Into<String>,
    ) -> Self {
        GraphOp::EdgeAdd { edges: vec![(src.into(), label.into(), dst.into())] }
    }

    /// Shorthand for a single edge deletion.
    pub fn edge_delete(
        src: impl Into<String>,
        label: impl Into<String>,
        dst: impl Into<String>,
    ) -> Self {
        GraphOp::EdgeDelete { edges: vec![(src.into(), label.into(), dst.into())] }
    }

    /// Applies the primitive to `g`.
    ///
    /// Application is **idempotent-friendly**: adding an already-present
    /// node or edge is a no-op rather than an error, because replayed
    /// journals routinely overlap with state the articulation generator
    /// has already produced. Deleting a missing element *is* an error —
    /// a delta that removes something unknown signals divergence.
    pub fn apply(&self, g: &mut OntGraph) -> Result<()> {
        match self {
            GraphOp::NodeAdd { label, out_edges, in_edges } => {
                let n = g.ensure_node(label)?;
                for (el, dst) in out_edges {
                    let d = g.ensure_node(dst)?;
                    g.ensure_edge(n, el, d)?;
                }
                for (src, el) in in_edges {
                    let s = g.ensure_node(src)?;
                    g.ensure_edge(s, el, n)?;
                }
                Ok(())
            }
            // The captured neighbourhood is for `inverse`; application
            // only needs the label (deletion cascades incident edges).
            GraphOp::NodeDelete { label, .. } => g.delete_node_by_label(label),
            GraphOp::EdgeAdd { edges } => {
                for (s, l, d) in edges {
                    g.ensure_edge_by_labels(s, l, d)?;
                }
                Ok(())
            }
            GraphOp::EdgeDelete { edges } => {
                for (s, l, d) in edges {
                    g.delete_edge_by_labels(s, l, d)?;
                }
                Ok(())
            }
        }
    }

    /// The inverse primitive. Every op is invertible: a `NodeDelete`
    /// inverts into the `NodeAdd` that restores the node plus its
    /// captured neighbourhood (empty for blind-constructed deletes,
    /// which then restore a bare node).
    pub fn inverse(&self) -> Option<GraphOp> {
        match self {
            // Deleting the node also removes the adjacent edges, so the
            // bare delete undoes the add in both cases.
            GraphOp::NodeAdd { label, .. } => Some(GraphOp::node_delete(label.clone())),
            GraphOp::NodeDelete { label, out_edges, in_edges } => Some(GraphOp::NodeAdd {
                label: label.clone(),
                out_edges: out_edges.clone(),
                in_edges: in_edges.clone(),
            }),
            GraphOp::EdgeAdd { edges } => Some(GraphOp::EdgeDelete { edges: edges.clone() }),
            GraphOp::EdgeDelete { edges } => Some(GraphOp::EdgeAdd { edges: edges.clone() }),
        }
    }

    /// Builds the **captured** `NodeDelete` op for the live node `n`: the
    /// full op `delete_node` journals, carrying the node's current
    /// neighbourhood so replay is lossless and `inverse` restores it.
    pub(crate) fn capture_node_delete(g: &OntGraph, n: crate::NodeId) -> GraphOp {
        let label = g.node_label(n).expect("live").to_string();
        let out_edges = g
            .out_edges(n)
            .map(|e| (e.label.to_string(), g.node_label(e.dst).expect("live").to_string()))
            .collect();
        let in_edges = g
            .in_edges(n)
            .map(|e| (g.node_label(e.src).expect("live").to_string(), e.label.to_string()))
            .collect();
        GraphOp::NodeDelete { label, out_edges, in_edges }
    }

    /// Labels this op touches (used by the maintenance engine to decide
    /// whether a source delta intersects the articulation, §5.3).
    pub fn touched_labels(&self) -> Vec<&str> {
        match self {
            GraphOp::NodeAdd { label, out_edges, in_edges } => {
                let mut v = vec![label.as_str()];
                v.extend(out_edges.iter().map(|(_, d)| d.as_str()));
                v.extend(in_edges.iter().map(|(s, _)| s.as_str()));
                v
            }
            GraphOp::NodeDelete { label, out_edges, in_edges } => {
                let mut v = vec![label.as_str()];
                v.extend(out_edges.iter().map(|(_, d)| d.as_str()));
                v.extend(in_edges.iter().map(|(s, _)| s.as_str()));
                v
            }
            GraphOp::EdgeAdd { edges } | GraphOp::EdgeDelete { edges } => {
                edges.iter().flat_map(|(s, _, d)| [s.as_str(), d.as_str()]).collect()
            }
        }
    }
}

/// Applies a sequence of ops, stopping at the first error.
pub fn apply_all(g: &mut OntGraph, ops: &[GraphOp]) -> Result<usize> {
    for (i, op) in ops.iter().enumerate() {
        op.apply(g).map_err(|e| match e {
            GraphError::Parse { .. } => e,
            other => GraphError::Parse { line: i, msg: format!("op {i}: {other}") },
        })?;
    }
    Ok(ops.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_add_with_adjacent_edges() {
        let mut g = OntGraph::new("t");
        g.add_node("Vehicle").unwrap();
        let op = GraphOp::node_add_with(
            "Car",
            vec![("SubclassOf".into(), "Vehicle".into())],
            vec![("Price".into(), "AttributeOf".into())],
        );
        op.apply(&mut g).unwrap();
        assert!(g.has_edge("Car", "SubclassOf", "Vehicle"));
        assert!(g.has_edge("Price", "AttributeOf", "Car"));
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn apply_is_idempotent_for_additions() {
        let mut g = OntGraph::new("t");
        let op = GraphOp::edge_add("A", "S", "B");
        op.apply(&mut g).unwrap();
        op.apply(&mut g).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn deletes_of_missing_elements_error() {
        let mut g = OntGraph::new("t");
        assert!(GraphOp::node_delete("ghost").apply(&mut g).is_err());
        assert!(GraphOp::edge_delete("a", "s", "b").apply(&mut g).is_err());
    }

    #[test]
    fn edge_ops_roundtrip_through_inverse() {
        let mut g = OntGraph::new("t");
        let add = GraphOp::edge_add("A", "S", "B");
        add.apply(&mut g).unwrap();
        let del = add.inverse().unwrap();
        del.apply(&mut g).unwrap();
        assert_eq!(g.edge_count(), 0);
        let re_add = del.inverse().unwrap();
        re_add.apply(&mut g).unwrap();
        assert!(g.has_edge("A", "S", "B"));
    }

    #[test]
    fn blind_node_delete_inverts_to_bare_node_add() {
        let inv = GraphOp::node_delete("X").inverse().unwrap();
        assert_eq!(inv, GraphOp::node_add("X"));
    }

    #[test]
    fn capture_node_delete_restores_neighbourhood() {
        let mut g = OntGraph::new("t");
        g.ensure_edge_by_labels("Car", "SubclassOf", "Vehicle").unwrap();
        g.ensure_edge_by_labels("Price", "AttributeOf", "Car").unwrap();
        let car = g.node_by_label("Car").unwrap();
        let del = GraphOp::capture_node_delete(&g, car);
        del.apply(&mut g).unwrap();
        assert_eq!(g.edge_count(), 0);
        del.inverse().unwrap().apply(&mut g).unwrap();
        assert!(g.has_edge("Car", "SubclassOf", "Vehicle"));
        assert!(g.has_edge("Price", "AttributeOf", "Car"));
    }

    #[test]
    fn journaled_node_delete_carries_capture() {
        let mut g = OntGraph::new("t");
        g.ensure_edge_by_labels("Car", "SubclassOf", "Vehicle").unwrap();
        g.enable_journal();
        g.delete_node_by_label("Car").unwrap();
        let journal = g.take_journal();
        let nd = journal.last().unwrap();
        match nd {
            GraphOp::NodeDelete { label, out_edges, .. } => {
                assert_eq!(label, "Car");
                assert_eq!(out_edges, &[("SubclassOf".to_string(), "Vehicle".to_string())]);
            }
            other => panic!("expected captured NodeDelete, got {other:?}"),
        }
        // The journaled op alone undoes the delete, edges included.
        nd.inverse().unwrap().apply(&mut g).unwrap();
        assert!(g.has_edge("Car", "SubclassOf", "Vehicle"));
    }

    #[test]
    fn touched_labels_cover_endpoints() {
        let op = GraphOp::edge_add("A", "S", "B");
        let mut t = op.touched_labels();
        t.sort_unstable();
        assert_eq!(t, vec!["A", "B"]);
        let op = GraphOp::node_add_with("N", vec![("e".into(), "X".into())], vec![]);
        assert!(op.touched_labels().contains(&"X"));
    }

    #[test]
    fn journal_replay_reproduces_graph() {
        let mut g = OntGraph::new("src");
        g.enable_journal();
        g.ensure_edge_by_labels("Car", "SubclassOf", "Vehicle").unwrap();
        g.ensure_edge_by_labels("Truck", "SubclassOf", "Vehicle").unwrap();
        g.delete_node_by_label("Truck").unwrap();
        let journal = g.take_journal();

        let mut replay = OntGraph::new("replay");
        apply_all(&mut replay, &journal).unwrap();
        assert!(replay.same_shape(&g));
    }

    #[test]
    fn apply_all_reports_failing_index() {
        let mut g = OntGraph::new("t");
        let ops = vec![GraphOp::edge_add("A", "S", "B"), GraphOp::node_delete("ghost")];
        let err = apply_all(&mut g, &ops).unwrap_err();
        assert!(err.to_string().contains("op 1"));
    }
}
