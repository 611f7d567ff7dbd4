//! Seeded synthetic ontology generation.

use onion_graph::{rel, OntGraph};
use onion_lexicon::generator::pseudo_word;
use onion_ontology::{Ontology, OntologyBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for one synthetic ontology.
#[derive(Debug, Clone)]
pub struct OntologySpec {
    /// Ontology name.
    pub name: String,
    /// RNG seed.
    pub seed: u64,
    /// Number of classes (excluding the single root).
    pub classes: usize,
    /// Maximum children per class; the tree is built by attaching each
    /// new class under a uniformly random earlier class with spare
    /// capacity, giving naturally varied depth.
    pub max_children: usize,
    /// Expected attributes per class.
    pub attr_density: f64,
    /// Expected instances per *leaf* class.
    pub instance_density: f64,
}

impl OntologySpec {
    /// A spec with sensible defaults for `classes` classes.
    pub fn sized(name: &str, seed: u64, classes: usize) -> Self {
        OntologySpec {
            name: name.to_string(),
            seed,
            classes,
            max_children: 6,
            attr_density: 0.5,
            instance_density: 0.3,
        }
    }
}

/// Generates class labels: a pseudo-word plus a disambiguating ordinal
/// (labels must be unique within a consistent ontology).
pub fn class_label(rng: &mut StdRng, ordinal: usize) -> String {
    let w = pseudo_word(rng);
    let mut chars = w.chars();
    let first = chars.next().map(|c| c.to_uppercase().to_string()).unwrap_or_default();
    format!("{first}{}{ordinal}", chars.as_str())
}

/// Generates an ontology per `spec`. Equal specs generate identical
/// ontologies.
pub fn generate_ontology(spec: &OntologySpec) -> Ontology {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let root = "Root".to_string();
    let mut builder = OntologyBuilder::new(&spec.name).class(&root);
    let mut nodes: Vec<String> = vec![root];
    let mut child_count: Vec<usize> = vec![0];

    for i in 0..spec.classes {
        let label = class_label(&mut rng, i);
        // pick a parent with spare capacity
        let mut parent_idx = rng.gen_range(0..nodes.len());
        let mut guard = 0;
        while child_count[parent_idx] >= spec.max_children && guard < 32 {
            parent_idx = rng.gen_range(0..nodes.len());
            guard += 1;
        }
        builder = builder.class_under(&label, &nodes[parent_idx].clone());
        child_count[parent_idx] += 1;
        nodes.push(label);
        child_count.push(0);

        // attributes
        if rng.gen_bool(spec.attr_density.clamp(0.0, 1.0)) {
            let attr = format!("attr_{}", pseudo_word(&mut rng));
            builder = builder.attr(&attr, &nodes[nodes.len() - 1].clone());
        }
    }
    // instances on leaves
    let leaves: Vec<String> = nodes
        .iter()
        .enumerate()
        .filter(|&(i, _)| child_count[i] == 0)
        .map(|(_, l)| l.clone())
        .collect();
    for (i, leaf) in leaves.iter().enumerate() {
        if rng.gen_bool(spec.instance_density.clamp(0.0, 1.0)) {
            builder = builder.instance(&format!("inst_{i}"), leaf);
        }
    }
    builder.build().expect("generated ontology is well-formed")
}

/// Parameters for a raw labeled graph (graph-layer benches and the
/// id/string API equivalence tests). Unlike [`OntologySpec`] this
/// produces a bare [`OntGraph`]: a `SubclassOf` attachment tree plus
/// random cross edges drawn from a small verb alphabet, so per-node
/// incident lists mix many edge labels — the worst case for label-
/// filtered traversal.
#[derive(Debug, Clone)]
pub struct GraphSpec {
    /// RNG seed.
    pub seed: u64,
    /// Number of nodes.
    pub nodes: usize,
    /// Total number of edges to aim for (tree edges included; duplicate
    /// draws are skipped, so the realised count can fall slightly short).
    pub edges: usize,
    /// Number of distinct non-`SubclassOf` edge labels.
    pub verb_labels: usize,
}

impl GraphSpec {
    /// A spec with the default verb alphabet.
    pub fn sized(seed: u64, nodes: usize, edges: usize) -> Self {
        GraphSpec { seed, nodes, edges, verb_labels: 8 }
    }

    /// The 10k-node / 50k-edge tier used by the perf baseline
    /// (`BENCH_onion.json`).
    pub fn tier_10k() -> Self {
        Self::sized(97, 10_000, 50_000)
    }
}

/// Generates a labeled graph per `spec`. Equal specs generate identical
/// graphs. Node `C0` is the root of the `SubclassOf` tree; every other
/// node has exactly one `SubclassOf` edge to an earlier node, and the
/// remaining edge budget is spent on random verb-labeled cross edges.
pub fn generate_graph(spec: &GraphSpec) -> OntGraph {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut g = OntGraph::new(format!("synth{}k", spec.nodes / 1000));
    let ids: Vec<_> =
        (0..spec.nodes).map(|i| g.add_node(&format!("C{i}")).expect("unique labels")).collect();
    for i in 1..spec.nodes {
        let parent = rng.gen_range(0..i);
        g.add_edge(ids[i], rel::SUBCLASS_OF, ids[parent]).expect("fresh tree edge");
    }
    let verbs: Vec<String> = (0..spec.verb_labels.max(1)).map(|i| format!("verb{i}")).collect();
    let budget = spec.edges.saturating_sub(spec.nodes.saturating_sub(1));
    for _ in 0..budget {
        let s = ids[rng.gen_range(0..spec.nodes)];
        let d = ids[rng.gen_range(0..spec.nodes)];
        let label = &verbs[rng.gen_range(0..verbs.len())];
        // set semantics: a duplicate triple draw is simply skipped
        let _ = g.ensure_edge(s, label, d);
    }
    g
}

/// A random `SubclassOf` DAG: the attachment tree of
/// [`generate_graph`] plus `extra` redundant subclass edges, each from a
/// node to a strictly earlier one — acyclic by construction, with
/// transitively redundant edges.
pub fn generate_dag(seed: u64, nodes: usize, extra: usize) -> OntGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = OntGraph::new("dag");
    let ids: Vec<_> =
        (0..nodes).map(|i| g.add_node(&format!("D{i}")).expect("unique labels")).collect();
    for i in 1..nodes {
        let parent = rng.gen_range(0..i);
        g.add_edge(ids[i], rel::SUBCLASS_OF, ids[parent]).expect("fresh tree edge");
    }
    for _ in 0..extra {
        let i = rng.gen_range(1..nodes.max(2));
        let j = rng.gen_range(0..i);
        let _ = g.ensure_edge(ids[i], rel::SUBCLASS_OF, ids[j]);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let spec = OntologySpec::sized("t", 7, 50);
        let a = generate_ontology(&spec);
        let b = generate_ontology(&spec);
        assert!(a.graph().same_shape(b.graph()));
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_ontology(&OntologySpec::sized("t", 1, 50));
        let b = generate_ontology(&OntologySpec::sized("t", 2, 50));
        assert!(!a.graph().same_shape(b.graph()));
    }

    #[test]
    fn class_count_respected() {
        let o = generate_ontology(&OntologySpec::sized("t", 3, 120));
        // classes + root (+ attributes + instances on top)
        let subclass_edges = o.graph().edges().filter(|e| e.label == "SubclassOf").count();
        assert_eq!(subclass_edges, 120, "every class has exactly one parent");
    }

    #[test]
    fn generated_ontology_is_consistent() {
        let o = generate_ontology(&OntologySpec::sized("t", 11, 200));
        assert!(onion_ontology::consistency::check(&o).is_empty());
    }

    #[test]
    fn branching_capped() {
        let spec = OntologySpec { max_children: 2, ..OntologySpec::sized("t", 5, 60) };
        let o = generate_ontology(&spec);
        let g = o.graph();
        for n in g.node_ids() {
            let kids = g.in_neighbors(n, "SubclassOf").count();
            // the capacity guard is probabilistic with a retry bound, so
            // allow a small overflow margin
            assert!(kids <= 4, "node has {kids} children");
        }
    }

    #[test]
    fn dag_is_acyclic() {
        let g = generate_dag(13, 200, 300);
        let filter = onion_graph::traverse::EdgeFilter::label(onion_graph::rel::SUBCLASS_OF);
        assert!(onion_graph::traverse::topo_sort(&g, &filter).is_ok());
        assert!(g.edge_count() > 199, "tree plus at least some extras");
    }

    #[test]
    fn graph_tier_is_deterministic_and_sized() {
        let spec = GraphSpec::sized(5, 500, 2500);
        let a = generate_graph(&spec);
        let b = generate_graph(&spec);
        assert!(a.same_shape(&b));
        assert_eq!(a.node_count(), 500);
        // duplicate draws may shave a little off the budget
        assert!(a.edge_count() > 2300, "edges: {}", a.edge_count());
        assert!(a.edge_count() <= 2500);
    }

    #[test]
    fn graph_tier_tree_is_connected_under_subclass() {
        let g = generate_graph(&GraphSpec::sized(9, 300, 300));
        let root = g.node_by_label("C0").unwrap();
        let filter = onion_graph::traverse::EdgeFilter::label(onion_graph::rel::SUBCLASS_OF);
        let tree = onion_graph::traverse::reachable(
            &g,
            root,
            onion_graph::traverse::Direction::Backward,
            &filter,
        );
        assert_eq!(tree.len(), 300, "every non-root node reaches the root");
    }

    #[test]
    fn densities_zero_give_bare_taxonomy() {
        let spec = OntologySpec {
            attr_density: 0.0,
            instance_density: 0.0,
            ..OntologySpec::sized("t", 9, 40)
        };
        let o = generate_ontology(&spec);
        assert!(o.graph().edges().all(|e| e.label == "SubclassOf"));
    }
}
