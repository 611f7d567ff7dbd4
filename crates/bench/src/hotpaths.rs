//! Graph hot-path microbenchmarks on the testkit 10k-node / 50k-edge
//! tier — the traversal counterpart of B4/B6, so every change to the
//! graph's adjacency layer (each node's incident lists, filtered on
//! label ids) or to its one reachability walk has a machine-readable
//! perf trajectory to compare against.
//!
//! The set runs in `experiments --json` and lands in the `results`
//! block of `BENCH_onion.json`.

use onion_core::graph::rel;
use onion_core::graph::traverse::{bfs, reachable, reachable_from_all, Direction, EdgeFilter};
use onion_core::graph::{NodeId, OntGraph};
use onion_core::testkit::{generate_graph, GraphSpec};

use crate::{run_series, BenchResult};

/// The standard tier every result in `BENCH_onion.json` is measured on.
pub fn tier() -> GraphSpec {
    GraphSpec::tier_10k()
}

/// Prebuilt workload: the tier graph plus the probe inputs each routine
/// needs, so benches time the hot path and not the setup.
pub struct Fixture {
    /// The tier graph.
    pub g: OntGraph,
    root: NodeId,
    all_nodes: Vec<NodeId>,
    triples: Vec<(NodeId, String, NodeId)>,
    verb_filter: EdgeFilter,
}

impl Fixture {
    /// Generates the workload for `spec`.
    pub fn new(spec: &GraphSpec) -> Self {
        let g = generate_graph(spec);
        let root = g.node_by_label("C0").expect("root exists");
        let all_nodes = g.node_ids().collect();
        let triples = g.edges().map(|e| (e.src, e.label.to_string(), e.dst)).collect();
        let verb_filter =
            EdgeFilter::Labels((0..spec.verb_labels).map(|i| format!("verb{i}")).collect());
        Fixture { g, root, all_nodes, triples, verb_filter }
    }

    /// Per-label neighbour iteration over every node: one label-filtered
    /// pass over each out-list (how a superclass walk collects a class's
    /// direct superclasses).
    pub fn out_neighbors_subclass_sweep(&self) -> u64 {
        self.all_nodes
            .iter()
            .map(|&n| self.g.out_neighbors(n, rel::SUBCLASS_OF).count() as u64)
            .sum()
    }

    /// Whole-hierarchy descendants from the root, as
    /// `Ontology::subclasses` walks them: from the root's direct
    /// subclasses, a label-filtered pass over each reached node's
    /// in-list.
    pub fn descendants_root(&self) -> u64 {
        let down: Vec<NodeId> = self.g.in_neighbors(self.root, rel::SUBCLASS_OF).collect();
        let subclass = EdgeFilter::label(rel::SUBCLASS_OF);
        reachable_from_all(&self.g, &down, Direction::Backward, &subclass).len() as u64
    }

    /// Label-filtered BFS against the edge direction (viewer/difference
    /// shape): one-label filter over the in-lists.
    pub fn bfs_backward_subclass(&self) -> u64 {
        bfs(&self.g, self.root, Direction::Backward, &EdgeFilter::label(rel::SUBCLASS_OF)).len()
            as u64
    }

    /// Multi-label filtered reachability over the dense verb edges: the
    /// same filtered pass with several admitted labels.
    pub fn reachable_verbs(&self) -> u64 {
        reachable(&self.g, self.root, Direction::Forward, &self.verb_filter).len() as u64
    }

    /// B4-style point lookups: one find_edge probe per live triple, each
    /// a scan of the source's out-list.
    pub fn find_edge_all_triples(&self) -> u64 {
        self.triples.iter().filter(|(s, l, d)| self.g.find_edge(*s, l, *d).is_some()).count() as u64
    }
}

/// Runs the full hot-path set on a prebuilt fixture (`Fixture::new(&tier())`
/// for the recorded series) and returns the series.
pub fn run_all(fx: &Fixture) -> Vec<BenchResult> {
    vec![
        run_series("out_neighbors_subclass_sweep", 7, || fx.out_neighbors_subclass_sweep()),
        run_series("descendants_root", 7, || fx.descendants_root()),
        run_series("bfs_backward_subclass", 7, || fx.bfs_backward_subclass()),
        run_series("reachable_verbs", 5, || fx.reachable_verbs()),
        run_series("find_edge_all_triples", 7, || fx.find_edge_all_triples()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotpaths_run_on_a_small_tier() {
        // run the same routines on a toy graph so the suite stays fast
        let fx = Fixture::new(&GraphSpec::sized(3, 120, 600));
        assert_eq!(fx.descendants_root(), 119);
        assert_eq!(fx.bfs_backward_subclass(), 120, "root reaches all via in-edges");
        assert_eq!(fx.find_edge_all_triples(), fx.g.edge_count() as u64);
        // every routine is wired into the run, its result the checksum
        let rows = run_all(&fx);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[1].checksum, 119);
    }
}
