//! The [`Ontology`] type: a named consistent graph plus relation
//! properties.

use std::fmt;
use std::sync::{Arc, OnceLock};

use onion_graph::traverse::{reachable_from_all, Direction, EdgeFilter};
use onion_graph::{rel, NodeId, OntGraph};
use onion_rules::{RelationRegistry, RuleSet, Term};

use crate::label_index::LabelIndex;
use crate::Result;

/// A source ontology: name, concept graph, relationship properties and
/// local structuring rules.
///
/// The graph is consistent — a label names at most one node — so the
/// paper addresses nodes by their term labels throughout (§3 end) and
/// so do we.
///
/// An ontology also caches its [`label_index`](Self::label_index), built
/// on first use. Clones share it. Every method that can change the graph
/// ([`graph_mut`](Self::graph_mut), [`subclass`](Self::subclass),
/// [`attribute`](Self::attribute), [`instance`](Self::instance),
/// [`relate`](Self::relate)) drops it, so the next use rebuilds it from
/// the edited graph. It is a cache, not state: `{:?}` leaves it out.
#[derive(Clone)]
pub struct Ontology {
    graph: OntGraph,
    relations: RelationRegistry,
    local_rules: RuleSet,
    label_index: OnceLock<Arc<LabelIndex>>,
}

impl fmt::Debug for Ontology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ontology")
            .field("graph", &self.graph)
            .field("relations", &self.relations)
            .field("local_rules", &self.local_rules)
            .finish()
    }
}

impl Ontology {
    /// Creates an empty ontology with the ONION default relation
    /// properties (`SubclassOf` transitive, etc.).
    pub fn new(name: &str) -> Self {
        Ontology {
            graph: OntGraph::new(name),
            relations: RelationRegistry::onion_default(),
            local_rules: RuleSet::new(),
            label_index: OnceLock::new(),
        }
    }

    /// Wraps an existing graph.
    pub fn from_graph(graph: OntGraph) -> Self {
        Ontology {
            graph,
            relations: RelationRegistry::onion_default(),
            local_rules: RuleSet::new(),
            label_index: OnceLock::new(),
        }
    }

    /// The ontology's name (used as the qualification prefix).
    pub fn name(&self) -> &str {
        self.graph.name()
    }

    /// Read access to the concept graph.
    pub fn graph(&self) -> &OntGraph {
        &self.graph
    }

    /// Mutable access to the concept graph. Drops the
    /// [`label_index`](Self::label_index).
    pub fn graph_mut(&mut self) -> &mut OntGraph {
        self.label_index.take();
        &mut self.graph
    }

    /// Consumes self, returning the graph.
    pub fn into_graph(self) -> OntGraph {
        self.graph
    }

    /// The relation-property registry.
    pub fn relations(&self) -> &RelationRegistry {
        &self.relations
    }

    /// Mutable relation-property registry.
    pub fn relations_mut(&mut self) -> &mut RelationRegistry {
        &mut self.relations
    }

    /// Local structuring rules (intra-ontology implications).
    pub fn local_rules(&self) -> &RuleSet {
        &self.local_rules
    }

    /// Mutable local rules.
    pub fn local_rules_mut(&mut self) -> &mut RuleSet {
        &mut self.local_rules
    }

    // ------------------------------------------------------------------
    // Term handling
    // ------------------------------------------------------------------

    /// Qualifies a local label into a [`Term`].
    pub fn term(&self, label: &str) -> Term {
        Term::qualified(self.name(), label)
    }

    /// The qualified string form `name.label` used in fact bases and
    /// unified graphs.
    pub fn qualified(&self, label: &str) -> String {
        format!("{}.{}", self.name(), label)
    }

    /// Resolves a [`Term`] to this ontology's node, if the term is
    /// qualified with this ontology's name (or unqualified) and present.
    pub fn resolve(&self, term: &Term) -> Option<NodeId> {
        match &term.ontology {
            Some(o) if **o != *self.name() => None,
            _ => self.graph.node_by_label(&term.name),
        }
    }

    /// True if the ontology defines `label`.
    pub fn defines(&self, label: &str) -> bool {
        self.graph.contains_label(label)
    }

    /// The labels of the live nodes grouped by normalised form — the
    /// index the exact-label and synonym matchers probe for a peer
    /// ontology. Built on the first call after construction or after an
    /// edit (one normalisation per label), then shared by this value and
    /// its clones until the graph changes.
    pub fn label_index(&self) -> &Arc<LabelIndex> {
        self.label_index.get_or_init(|| Arc::new(LabelIndex::build(&self.graph)))
    }

    // ------------------------------------------------------------------
    // Convenience constructors for the canonical relationships
    // ------------------------------------------------------------------

    /// Adds `sub SubclassOf sup` (creating nodes as needed).
    pub fn subclass(&mut self, sub: &str, sup: &str) -> Result<()> {
        self.graph_mut().ensure_edge_by_labels(sub, rel::SUBCLASS_OF, sup).map(|_| ())
    }

    /// Adds `attr AttributeOf class`.
    pub fn attribute(&mut self, attr: &str, class: &str) -> Result<()> {
        self.graph_mut().ensure_edge_by_labels(attr, rel::ATTRIBUTE_OF, class).map(|_| ())
    }

    /// Adds `instance InstanceOf class`.
    pub fn instance(&mut self, instance: &str, class: &str) -> Result<()> {
        self.graph_mut().ensure_edge_by_labels(instance, rel::INSTANCE_OF, class).map(|_| ())
    }

    /// Adds an arbitrary verb edge.
    pub fn relate(&mut self, src: &str, verb: &str, dst: &str) -> Result<()> {
        self.graph_mut().ensure_edge_by_labels(src, verb, dst).map(|_| ())
    }

    // ------------------------------------------------------------------
    // Queries used by articulation and algebra
    // ------------------------------------------------------------------

    /// All (transitive) superclasses of `label`.
    pub fn superclasses(&self, label: &str) -> Vec<String> {
        self.subclass_walk(label, Direction::Forward)
    }

    /// All (transitive) subclasses of `label`.
    pub fn subclasses(&self, label: &str) -> Vec<String> {
        self.subclass_walk(label, Direction::Backward)
    }

    /// The sorted labels `SubclassOf` paths of one or more edges reach
    /// from `label` in `dir`: a walk from its direct neighbours, so
    /// `label` lists itself only through a cycle.
    fn subclass_walk(&self, label: &str, dir: Direction) -> Vec<String> {
        let g = &self.graph;
        let Some(n) = g.node_by_label(label) else {
            return Vec::new();
        };
        let next: Vec<NodeId> = match dir {
            Direction::Forward => g.out_neighbors(n, rel::SUBCLASS_OF).collect(),
            _ => g.in_neighbors(n, rel::SUBCLASS_OF).collect(),
        };
        let mut v: Vec<String> =
            reachable_from_all(g, &next, dir, &EdgeFilter::label(rel::SUBCLASS_OF))
                .into_iter()
                .map(|m| g.node_label(m).expect("live").to_string())
                .collect();
        v.sort();
        v
    }

    /// Is `sub` a (transitive) subclass of `sup`?
    pub fn is_subclass(&self, sub: &str, sup: &str) -> bool {
        let (Some(a), Some(b)) = (self.graph.node_by_label(sub), self.graph.node_by_label(sup))
        else {
            return false;
        };
        if a == b {
            return false;
        }
        onion_graph::traverse::has_path(&self.graph, a, b, &EdgeFilter::label(rel::SUBCLASS_OF))
    }

    /// The attributes attached to `class` (directly).
    pub fn attributes_of(&self, class: &str) -> Vec<String> {
        let Some(n) = self.graph.node_by_label(class) else {
            return Vec::new();
        };
        let mut v: Vec<String> = self
            .graph
            .in_neighbors(n, rel::ATTRIBUTE_OF)
            .map(|m| self.graph.node_label(m).expect("live").to_string())
            .collect();
        v.sort();
        v
    }

    /// Attributes of `class` including those inherited from transitive
    /// superclasses — attribute inheritance along the subclass hierarchy.
    pub fn attributes_inherited(&self, class: &str) -> Vec<String> {
        let mut all = self.attributes_of(class);
        for sup in self.superclasses(class) {
            all.extend(self.attributes_of(&sup));
        }
        all.sort();
        all.dedup();
        all
    }

    /// Direct instances of `class`.
    pub fn instances_of(&self, class: &str) -> Vec<String> {
        let Some(n) = self.graph.node_by_label(class) else {
            return Vec::new();
        };
        let mut v: Vec<String> = self
            .graph
            .in_neighbors(n, rel::INSTANCE_OF)
            .map(|m| self.graph.node_label(m).expect("live").to_string())
            .collect();
        v.sort();
        v
    }

    /// Number of concept nodes.
    pub fn term_count(&self) -> usize {
        self.graph.node_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ontology {
        let mut o = Ontology::new("carrier");
        o.subclass("Cars", "Transportation").unwrap();
        o.subclass("Trucks", "Transportation").unwrap();
        o.subclass("SUV", "Cars").unwrap();
        o.attribute("Price", "Cars").unwrap();
        o.attribute("Owner", "Transportation").unwrap();
        o.instance("MyCar", "Cars").unwrap();
        o
    }

    #[test]
    fn names_and_terms() {
        let o = sample();
        assert_eq!(o.name(), "carrier");
        assert_eq!(o.qualified("Cars"), "carrier.Cars");
        assert_eq!(o.term("Cars").to_string(), "carrier.Cars");
        assert!(o.defines("SUV"));
        assert!(!o.defines("Ghost"));
    }

    #[test]
    fn resolve_respects_qualification() {
        let o = sample();
        assert!(o.resolve(&Term::qualified("carrier", "Cars")).is_some());
        assert!(o.resolve(&Term::unqualified("Cars")).is_some());
        assert!(o.resolve(&Term::qualified("factory", "Cars")).is_none());
        assert!(o.resolve(&Term::qualified("carrier", "Ghost")).is_none());
    }

    #[test]
    fn subclass_queries_transitive() {
        let o = sample();
        assert_eq!(o.superclasses("SUV"), vec!["Cars", "Transportation"]);
        assert_eq!(o.subclasses("Transportation"), vec!["Cars", "SUV", "Trucks"]);
        assert!(o.is_subclass("SUV", "Transportation"));
        assert!(!o.is_subclass("Transportation", "SUV"));
        assert!(!o.is_subclass("SUV", "SUV"), "strict subclass");
        assert!(!o.is_subclass("Ghost", "Cars"));
    }

    #[test]
    fn attributes_direct_and_inherited() {
        let o = sample();
        assert_eq!(o.attributes_of("Cars"), vec!["Price"]);
        assert_eq!(o.attributes_inherited("Cars"), vec!["Owner", "Price"]);
        assert_eq!(o.attributes_inherited("SUV"), vec!["Owner", "Price"]);
        assert!(o.attributes_of("Ghost").is_empty());
    }

    #[test]
    fn instances() {
        let o = sample();
        assert_eq!(o.instances_of("Cars"), vec!["MyCar"]);
        assert!(o.instances_of("Trucks").is_empty());
    }

    #[test]
    fn default_relations_present() {
        let o = Ontology::new("x");
        assert!(o.relations().is_transitive("SubclassOf"));
    }

    #[test]
    fn term_count() {
        assert_eq!(sample().term_count(), 7);
    }
}
