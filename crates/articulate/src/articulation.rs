//! The articulation: articulation ontology + semantic bridges.
//!
//! "An articulation is also represented as an ontology graph along with
//! structures Aᵢⱼ, i.e., the semantic bridges that link the articulation
//! ontology to its underlying ontologies Oᵢ and Oⱼ." (§2.1)
//!
//! Bridges are stored as qualified-term triples rather than node ids so
//! the articulation remains valid while sources evolve independently —
//! the whole point of the design (§5.3): only the articulation is
//! physically stored; the unified ontology is computed on demand.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use onion_graph::{rel, OntGraph};
use onion_ontology::Ontology;
use onion_rules::{RuleSet, Term};

use crate::{ArticulateError, ImplicationIndex, Result};

/// How a bridge came to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BridgeKind {
    /// Directly generated from a confirmed articulation rule.
    Rule,
    /// The reverse leg of an equivalence (§4.1: the RHS source term and
    /// the articulation term imply each other).
    Equivalence,
    /// Derived by the inference engine (transitive closure etc.).
    Derived,
    /// A functional-conversion edge labeled by the function name.
    Functional,
}

/// One semantic bridge between qualified terms.
///
/// `src` and `dst` are qualified with their owning ontology (a source
/// ontology or the articulation ontology itself). `label` is
/// [`rel::SI_BRIDGE`] for implication bridges or the conversion-function
/// name for functional bridges.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Bridge {
    /// Source endpoint (implying side).
    pub src: Term,
    /// Edge label, a shared string like the endpoints' parts, so a
    /// clone of the bridge copies no bytes.
    pub label: Arc<str>,
    /// Target endpoint (implied side).
    pub dst: Term,
    /// Provenance.
    pub kind: BridgeKind,
}

impl Bridge {
    /// Creates an implication bridge.
    pub fn si(src: Term, dst: Term, kind: BridgeKind) -> Self {
        Bridge { src, label: rel::SI_BRIDGE.into(), dst, kind }
    }

    /// Creates a functional bridge labeled by the conversion function.
    pub fn functional(src: Term, function: &str, dst: Term) -> Self {
        Bridge { src, label: function.into(), dst, kind: BridgeKind::Functional }
    }

    /// True if either endpoint is the qualified term `onto.name`.
    pub fn touches(&self, ontology: &str, name: &str) -> bool {
        (self.src.in_ontology(ontology) && *self.src.name == *name)
            || (self.dst.in_ontology(ontology) && *self.dst.name == *name)
    }
}

impl fmt::Display for Bridge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -[{}]-> {}", self.src, self.label, self.dst)
    }
}

/// A bridge's identity: its `(src, label, dst)` triple, sharing the
/// bridge's own strings.
type BridgeKey = (Term, Arc<str>, Term);

fn bridge_key(b: &Bridge) -> BridgeKey {
    (b.src.clone(), Arc::clone(&b.label), b.dst.clone())
}

/// The articulation of two (or more) source ontologies.
#[derive(Debug, Clone)]
pub struct Articulation {
    /// The articulation ontology (e.g. `transport` in Fig. 2), shared
    /// copy-on-write: a clone of the articulation shares it, and a
    /// writer makes it unique with [`Arc::make_mut`] first, so a clone
    /// that maintenance only reads never copies the graph.
    pub ontology: Arc<Ontology>,
    /// The semantic bridges to the source ontologies.
    pub bridges: Vec<Bridge>,
    /// The confirmed rules the articulation was generated from.
    pub rules: RuleSet,
    /// Which rules support each bridge, as one ordered set of
    /// `((src, label, dst), rule key)` pairs — the provenance that lets
    /// incremental maintenance retract exactly the bridges a dropped rule
    /// generated (§5.3). A bridge is keyed by its own shared terms and
    /// label, a rule by its display form, which
    /// [`ArticulationGenerator::apply_rule`](crate::ArticulationGenerator::apply_rule)
    /// makes once per rule and shares among the rule's bridges. Bridges
    /// added without support (manual, derived) are never
    /// auto-retracted. Ordered so the derived `Debug` rendering is
    /// deterministic — the recovery suite asserts byte-identical `{:?}`
    /// output across runs. [`crate::persist`] writes and reads it pair
    /// by pair.
    pub(crate) support: BTreeSet<(BridgeKey, Arc<str>)>,
}

impl Articulation {
    /// An empty articulation named `name`.
    pub fn new(name: &str) -> Self {
        Articulation {
            ontology: Arc::new(Ontology::new(name)),
            bridges: Vec::new(),
            rules: RuleSet::new(),
            support: BTreeSet::new(),
        }
    }

    /// The articulation ontology's name.
    pub fn name(&self) -> &str {
        self.ontology.name()
    }

    /// Adds a bridge if not already present; returns whether added.
    pub fn add_bridge(&mut self, bridge: Bridge) -> bool {
        // Kind is provenance, not identity: the same (src, label, dst)
        // triple is one bridge regardless of how it was found.
        if self
            .bridges
            .iter()
            .any(|b| b.src == bridge.src && b.label == bridge.label && b.dst == bridge.dst)
        {
            return false;
        }
        self.bridges.push(bridge);
        true
    }

    /// Adds a bridge recording that `rule_key` (a rule's display form)
    /// generated it. Support accumulates even when the bridge already
    /// exists, so a bridge generated by two rules survives dropping one.
    pub fn add_bridge_supported(&mut self, bridge: Bridge, rule_key: impl Into<Arc<str>>) -> bool {
        let key = bridge_key(&bridge);
        let added = self.add_bridge(bridge);
        self.support.insert((key, rule_key.into()));
        added
    }

    /// Retracts a rule's support; bridges left with no support are
    /// removed. Returns the number of bridges removed.
    pub fn drop_rule_support(&mut self, rule_key: &str) -> usize {
        // a bridge's supporters are adjacent in the set; it dies when
        // `rule_key` was its only one
        let mut dead: Vec<&BridgeKey> = Vec::new();
        let mut entries = self.support.iter().peekable();
        while let Some((key, rule)) = entries.next() {
            let mut alone = true;
            while entries.next_if(|(k, _)| k == key).is_some() {
                alone = false;
            }
            if alone && **rule == *rule_key {
                dead.push(key);
            }
        }
        let before = self.bridges.len();
        if !dead.is_empty() {
            // `dead` is sorted: it was collected in set order
            self.bridges.retain(|b| {
                let probe = (&b.src, &*b.label, &b.dst);
                dead.binary_search_by(|(s, l, d)| (s, &**l, d).cmp(&probe)).is_err()
            });
        }
        self.support.retain(|(_, rule)| **rule != *rule_key);
        before - self.bridges.len()
    }

    /// Removes all bridges touching `onto.name`; returns how many.
    pub fn remove_bridges_touching(&mut self, ontology: &str, name: &str) -> usize {
        let before = self.bridges.len();
        let mut dead: Vec<BridgeKey> = Vec::new();
        self.bridges.retain(|b| {
            let touches = b.touches(ontology, name);
            if touches {
                dead.push(bridge_key(b));
            }
            !touches
        });
        if !dead.is_empty() {
            dead.sort_unstable();
            self.support.retain(|(key, _)| dead.binary_search(key).is_err());
        }
        before - self.bridges.len()
    }

    /// The source-ontology terms referenced by bridges, per ontology —
    /// exactly the "intersection … relevant to the application" the
    /// articulation materialises (§1). Sorted, deduplicated.
    pub fn bridged_terms(&self, ontology: &str) -> Vec<&str> {
        let mut v: Vec<&str> = self
            .bridges
            .iter()
            .flat_map(|b| [&b.src, &b.dst])
            .filter(|t| t.in_ontology(ontology))
            .map(|t| &*t.name)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Is `onto.name` articulation-relevant (touched by any bridge)?
    /// Source updates outside this set never require articulation
    /// maintenance (§5.3, the Difference argument).
    pub fn is_relevant(&self, ontology: &str, name: &str) -> bool {
        self.bridges.iter().any(|b| b.touches(ontology, name))
    }

    /// Materialises the **unified ontology** (§2, Fig. 1 `Ont5`): one
    /// graph containing every source graph (nodes qualified as
    /// `source.Term`), the articulation ontology (qualified likewise),
    /// and all bridges as edges. Computed on demand, never stored — per
    /// the paper, "the unified ontology is not a physical entity".
    pub fn unified(&self, sources: &[&Ontology]) -> Result<OntGraph> {
        let mut g = OntGraph::new(format!("unified({})", self.name()));
        for src in sources.iter().map(|o| (*o).graph()).chain([self.ontology.graph()]) {
            let prefix = src.name().to_string();
            for n in src.nodes() {
                g.ensure_node(&format!("{prefix}.{}", n.label))?;
            }
            for e in src.edges() {
                let s = format!("{prefix}.{}", src.node_label(e.src).expect("live"));
                let d = format!("{prefix}.{}", src.node_label(e.dst).expect("live"));
                g.ensure_edge_by_labels(&s, e.label, &d)?;
            }
        }
        for b in &self.bridges {
            let s = b.src.to_string();
            let d = b.dst.to_string();
            // Bridge endpoints must already exist: a dangling bridge
            // indicates articulation/source divergence.
            if !g.contains_label(&s) {
                return Err(ArticulateError::UnknownTerm(s));
            }
            if !g.contains_label(&d) {
                return Err(ArticulateError::UnknownTerm(d));
            }
            g.ensure_edge_by_labels(&s, &b.label, &d)?;
        }
        Ok(g)
    }

    /// Distinct ontologies referenced by bridges (excluding the
    /// articulation itself), sorted.
    ///
    /// The query path calls this once per planned query, and an
    /// articulation's bridges name only a handful of ontologies, so each
    /// endpoint is compared with the names found so far rather than
    /// hashed.
    pub fn source_names(&self) -> Vec<&str> {
        let me = self.name();
        let mut names: Vec<&str> = Vec::new();
        for b in &self.bridges {
            for t in [&b.src, &b.dst] {
                if let Some(o) = t.ontology.as_deref() {
                    if o != me && !names.contains(&o) {
                        names.push(o);
                    }
                }
            }
        }
        names.sort_unstable();
        names
    }

    /// Summary counts: (articulation terms, bridges, rules).
    pub fn stats(&self) -> (usize, usize, usize) {
        (self.ontology.term_count(), self.bridges.len(), self.rules.len())
    }

    /// Explains *why* two qualified terms are semantically connected:
    /// the directed implication paths from `from` to `to` through the
    /// bridges, articulation-internal `SubclassOf` edges, and the
    /// sources' own `SubclassOf`/`InstanceOf` edges. Paths are qualified
    /// label sequences, shortest first; at most `max_paths` of length
    /// ≤ `max_len` (see [`ImplicationIndex::simple_paths`]).
    ///
    /// The diagnostic behind "the expert can provide
    /// immediate feedback on potentially ambiguous constructs" (§1): an
    /// unexpected connection is shown with its derivation chain.
    pub fn explain_connection(
        &self,
        sources: &[&Ontology],
        from: &Term,
        to: &Term,
        max_len: usize,
        max_paths: usize,
    ) -> Vec<Vec<String>> {
        ImplicationIndex::new(self, sources)
            .simple_paths(self, sources, from, to, max_len, max_paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onion_ontology::OntologyBuilder;

    fn term(o: &str, n: &str) -> Term {
        Term::qualified(o, n)
    }

    fn sample() -> Articulation {
        let mut a = Articulation::new("transport");
        Arc::make_mut(&mut a.ontology).graph_mut().ensure_node("Vehicle").unwrap();
        a.add_bridge(Bridge::si(
            term("carrier", "Cars"),
            term("transport", "Vehicle"),
            BridgeKind::Rule,
        ));
        a.add_bridge(Bridge::si(
            term("factory", "Vehicle"),
            term("transport", "Vehicle"),
            BridgeKind::Rule,
        ));
        a.add_bridge(Bridge::si(
            term("transport", "Vehicle"),
            term("factory", "Vehicle"),
            BridgeKind::Equivalence,
        ));
        a
    }

    #[test]
    fn add_bridge_dedups_ignoring_kind() {
        let mut a = sample();
        let n = a.bridges.len();
        assert!(!a.add_bridge(Bridge::si(
            term("carrier", "Cars"),
            term("transport", "Vehicle"),
            BridgeKind::Derived
        )));
        assert_eq!(a.bridges.len(), n);
    }

    #[test]
    fn bridged_terms_per_ontology() {
        let a = sample();
        assert_eq!(a.bridged_terms("carrier"), vec!["Cars"]);
        assert_eq!(a.bridged_terms("factory"), vec!["Vehicle"]);
        assert_eq!(a.bridged_terms("transport"), vec!["Vehicle"]);
        assert!(a.bridged_terms("nowhere").is_empty());
    }

    #[test]
    fn relevance_and_removal() {
        let mut a = sample();
        assert!(a.is_relevant("carrier", "Cars"));
        assert!(!a.is_relevant("carrier", "Trucks"));
        assert_eq!(a.remove_bridges_touching("factory", "Vehicle"), 2);
        assert!(!a.is_relevant("factory", "Vehicle"));
        assert_eq!(a.bridges.len(), 1);
    }

    #[test]
    fn source_names_exclude_articulation() {
        let a = sample();
        assert_eq!(a.source_names(), vec!["carrier", "factory"]);
    }

    #[test]
    fn unified_materialises_everything() {
        let a = sample();
        let carrier =
            OntologyBuilder::new("carrier").class_under("Cars", "Transportation").build().unwrap();
        let factory = OntologyBuilder::new("factory")
            .class_under("Vehicle", "Transportation")
            .build()
            .unwrap();
        let u = a.unified(&[&carrier, &factory]).unwrap();
        // qualified nodes from all three graphs
        assert!(u.contains_label("carrier.Cars"));
        assert!(u.contains_label("factory.Vehicle"));
        assert!(u.contains_label("transport.Vehicle"));
        // source edges preserved with qualification
        assert!(u.has_edge("carrier.Cars", rel::SUBCLASS_OF, "carrier.Transportation"));
        // bridges as edges
        assert!(u.has_edge("carrier.Cars", rel::SI_BRIDGE, "transport.Vehicle"));
        assert!(u.has_edge("transport.Vehicle", rel::SI_BRIDGE, "factory.Vehicle"));
    }

    #[test]
    fn unified_rejects_dangling_bridge() {
        let mut a = sample();
        a.add_bridge(Bridge::si(
            term("carrier", "Ghost"),
            term("transport", "Vehicle"),
            BridgeKind::Rule,
        ));
        let carrier = OntologyBuilder::new("carrier").class("Cars").build().unwrap();
        let factory = OntologyBuilder::new("factory").class("Vehicle").build().unwrap();
        let err = a.unified(&[&carrier, &factory]).unwrap_err();
        assert!(matches!(err, ArticulateError::UnknownTerm(t) if t == "carrier.Ghost"));
    }

    #[test]
    fn bridge_display() {
        let b = Bridge::functional(
            term("carrier", "DutchGuilders"),
            "DGToEuroFn",
            term("transport", "Euro"),
        );
        assert_eq!(b.to_string(), "carrier.DutchGuilders -[DGToEuroFn]-> transport.Euro");
    }

    #[test]
    fn stats_counts() {
        let a = sample();
        let (terms, bridges, rules) = a.stats();
        assert_eq!((terms, bridges, rules), (1, 3, 0));
    }

    #[test]
    fn explain_connection_shows_derivation_chains() {
        let carrier = OntologyBuilder::new("carrier").class_under("SUV", "Cars").build().unwrap();
        let factory = OntologyBuilder::new("factory").class("Vehicle").build().unwrap();
        let mut a = Articulation::new("transport");
        Arc::make_mut(&mut a.ontology).graph_mut().ensure_node("Vehicle").unwrap();
        a.add_bridge(Bridge::si(
            term("carrier", "Cars"),
            term("transport", "Vehicle"),
            BridgeKind::Rule,
        ));
        a.add_bridge(Bridge::si(
            term("transport", "Vehicle"),
            term("factory", "Vehicle"),
            BridgeKind::Equivalence,
        ));
        // SUV -> Cars (source subclass) -> transport.Vehicle -> factory.Vehicle
        let paths = a.explain_connection(
            &[&carrier, &factory],
            &term("carrier", "SUV"),
            &term("factory", "Vehicle"),
            10,
            10,
        );
        assert_eq!(paths.len(), 1);
        assert_eq!(
            paths[0],
            vec!["carrier.SUV", "carrier.Cars", "transport.Vehicle", "factory.Vehicle"]
        );
        // no reverse derivation
        let none = a.explain_connection(
            &[&carrier, &factory],
            &term("factory", "Vehicle"),
            &term("carrier", "SUV"),
            10,
            10,
        );
        assert!(none.is_empty());
        // unknown endpoints yield empty, not error
        let none =
            a.explain_connection(&[&carrier, &factory], &term("x", "Y"), &term("z", "W"), 5, 5);
        assert!(none.is_empty());
    }
}
