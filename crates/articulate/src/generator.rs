//! The articulation generator: confirmed rules → articulation ontology
//! graph + semantic bridges, per the translation walked through in §4.1
//! of the paper.
//!
//! The translation, rule shape by rule shape (each is tested against the
//! paper's own example below):
//!
//! * **simple** `o1.A ⇒ o2.B`: ensure articulation node `B`; add the edge
//!   set of the paper's example —
//!   `EA[{(o1.A, SIBridge, art.B), (o2.B, SIBridge, art.B),
//!   (art.B, SIBridge, o2.B)}]` — the last two making `o2.B` and `art.B`
//!   equivalent;
//! * **cascaded** `o1.A ⇒ art.X ⇒ o2.B`: add node `X` to the articulation
//!   and the bridges `(o1.A, SIBridge, art.X)`, `(art.X, SIBridge, o2.B)`;
//! * **intra-articulation** `art.X ⇒ art.Y`: a `SubclassOf` edge inside
//!   the articulation graph ("indicating that the class Owner is a
//!   subclass of the class Person");
//! * **conjunction** `(p ∧ q) ⇒ r`: a synthesised node labeled by the
//!   predicate text (`CargoCarrierVehicle`), bridged as a specialisation
//!   of each conjunct and of `r`; additionally every source class that is
//!   a (transitive) subclass of *all* conjuncts is bridged under the new
//!   node ("all subclasses of Vehicle that are also subclasses of
//!   CargoCarrier, e.g, Truck, are made subclasses of
//!   CargoCarrierVehicle");
//! * **disjunction** `p ⇒ (q ∨ r)`: a synthesised union node
//!   (`CarsTrucks`) that each disjunct and `p` specialise;
//! * **functional** `F(): a ⇒ b`: a bridge labeled `F` from `a` to the
//!   articulation term `b`, with the reverse bridge labeled by `F`'s
//!   registered inverse when known.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use onion_graph::hash::{FxHashMap, FxHashSet};
use onion_graph::traverse::{bfs, Direction, EdgeFilter};
use onion_graph::{rel, NodeId};
use onion_ontology::Ontology;
use onion_rules::horn::HornProgram;
use onion_rules::infer::{seed_relation_facts, FactBase, InferenceEngine, InferenceStats};
use onion_rules::{
    ArticulationRule, AtomId, AtomTable, ConversionRegistry, RuleExpr, RuleSet, Term,
};

use crate::articulation::{Articulation, Bridge, BridgeKind};
use crate::implication::{implying_bridges, implying_relations};
use crate::{ArticulateError, Result};

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Name of the articulation ontology (Fig. 2 uses `transport`).
    pub art_name: String,
    /// Conversion functions for functional rules (used to wire inverse
    /// bridges).
    pub conversions: ConversionRegistry,
    /// Run the inference engine to derive additional source→articulation
    /// bridges (transitive semantic implication; §2.4 "The inference
    /// engine … derive\[s\] more rules if possible").
    pub expand_with_inference: bool,
    /// Error on rules referencing terms absent from their source
    /// ontology (on: the SKAT pipeline only proposes existing terms).
    pub strict_terms: bool,
    /// Shared atom table for inference expansion. When set (the
    /// `OnionSystem` path), interned symbols and per-graph label memos
    /// persist across articulation/maintenance cycles, so re-seeding a
    /// `FactBase` from an already-seen graph is pure array lookups;
    /// when `None` the generator interns into a run-local table.
    pub atoms: Option<Arc<Mutex<AtomTable>>>,
    /// Executor for parallel inference expansion. When set, saturation
    /// runs the semi-naive work units on the executor
    /// (`onion_exec::inference`); seeding is the same graph walk either
    /// way. The articulation and [`GeneratorStats`] equal the
    /// sequential run's at every shard and thread count. When `None`
    /// (default) expansion is fully sequential.
    pub executor: Option<Arc<onion_exec::Executor>>,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            art_name: "transport".into(),
            conversions: ConversionRegistry::standard(),
            expand_with_inference: false,
            strict_terms: true,
            atoms: None,
            executor: None,
        }
    }
}

/// Observability counters for one generation run (populated by the
/// inference-expansion pass; zero when `expand_with_inference` is off).
///
/// Seeding loads one `si` fact per edge of the implication edge set
/// (the `implication` module: the `SIBridge` bridges, then the
/// articulation's and the sources' implying graph edges), then the
/// goal facts. `inference` counts the goal-directed program
/// ([`HornProgram::implication_goal`]): its rounds grow with the
/// longest implication path that reaches an articulation term, and it
/// derives only the `implies` pairs on such paths.
/// Saturation stats are the same with or without an executor (see
/// `onion_exec::inference` for the merge-order contract), so equal
/// inputs reproduce equal stats — `expansion_reports_stats_and_reuses_shared_table`
/// and the `seminaive_props` and `expansion_goal_props` suites assert
/// this by direct comparison.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GeneratorStats {
    /// Ground facts seeded into the `FactBase` (one `si` fact per
    /// distinct implication edge, and one `art(b)` goal per live
    /// articulation node).
    pub seeded_facts: usize,
    /// Counters of the goal-directed saturation run.
    pub inference: InferenceStats,
    /// Derived source→articulation bridges added to the articulation.
    pub derived_bridges: usize,
}

/// The articulation generator (§2.4 "ArtiGen" in Fig. 1).
#[derive(Debug, Clone, Default)]
pub struct ArticulationGenerator {
    config: GeneratorConfig,
}

/// Internal: where an expression anchors.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Anchor {
    /// A term in a source ontology.
    Source(Term),
    /// A node (by label) in the articulation ontology.
    Art(Arc<str>),
}

impl ArticulationGenerator {
    /// Generator with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Generator with custom configuration.
    pub fn with_config(config: GeneratorConfig) -> Self {
        ArticulationGenerator { config }
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Generates the articulation of `sources` under `rules`.
    pub fn generate(&self, rules: &RuleSet, sources: &[&Ontology]) -> Result<Articulation> {
        self.generate_with_stats(rules, sources).map(|(art, _)| art)
    }

    /// [`ArticulationGenerator::generate`] plus the run's
    /// [`GeneratorStats`].
    pub fn generate_with_stats(
        &self,
        rules: &RuleSet,
        sources: &[&Ontology],
    ) -> Result<(Articulation, GeneratorStats)> {
        let mut art = Articulation::new(&self.config.art_name);
        for rule in rules.iter() {
            self.apply_rule(rule, sources, &mut art)?;
            art.rules.push(rule.clone());
        }
        self.inherit_structure(&mut art, sources)?;
        let stats = if self.config.expand_with_inference {
            self.expand(&mut art, sources)?
        } else {
            GeneratorStats::default()
        };
        Ok((art, stats))
    }

    /// Applies one additional confirmed rule to an existing articulation
    /// (used by the iterative engine and incremental maintenance). Every
    /// bridge the rule generates is recorded as supported by it, so
    /// maintenance can retract exactly these bridges if the rule is
    /// later dropped.
    pub fn apply_rule(
        &self,
        rule: &ArticulationRule,
        sources: &[&Ontology],
        art: &mut Articulation,
    ) -> Result<()> {
        // one shared display key for every bridge this rule supports
        let rule_key: Arc<str> = rule.to_string().into();
        match rule {
            ArticulationRule::Implication { chain } => {
                let mut anchors = Vec::with_capacity(chain.len());
                for expr in chain {
                    anchors.push(self.resolve_expr(expr, sources, art, &rule_key)?);
                }
                for pair in anchors.windows(2) {
                    self.link_pair(&pair[0], &pair[1], art, &rule_key)?;
                }
                Ok(())
            }
            ArticulationRule::Functional { function, from, to } => {
                self.apply_functional(function, from, to, sources, art, &rule_key)
            }
        }
    }

    fn art_term(&self, art: &Articulation, label: &str) -> Term {
        Term::qualified(art.name(), label)
    }

    fn find_source<'a>(&self, sources: &[&'a Ontology], name: &str) -> Option<&'a Ontology> {
        sources.iter().copied().find(|o| o.name() == name)
    }

    /// Resolves a term to an anchor, creating articulation nodes on
    /// demand. Unqualified terms live in the articulation namespace.
    fn resolve_term(
        &self,
        term: &Term,
        sources: &[&Ontology],
        art: &mut Articulation,
    ) -> Result<Anchor> {
        match term.ontology.as_deref() {
            None => {
                Arc::make_mut(&mut art.ontology).graph_mut().ensure_node(&term.name)?;
                Ok(Anchor::Art(term.name.clone()))
            }
            Some(o) if o == art.name() => {
                Arc::make_mut(&mut art.ontology).graph_mut().ensure_node(&term.name)?;
                Ok(Anchor::Art(term.name.clone()))
            }
            Some(o) => match self.find_source(sources, o) {
                None => Err(ArticulateError::UnknownOntology(o.to_string())),
                Some(src) => {
                    if self.config.strict_terms && !src.defines(&term.name) {
                        return Err(ArticulateError::UnknownTerm(term.to_string()));
                    }
                    Ok(Anchor::Source(term.clone()))
                }
            },
        }
    }

    /// Resolves an expression, synthesising intersection/union classes
    /// for And/Or per §4.1.
    fn resolve_expr(
        &self,
        expr: &RuleExpr,
        sources: &[&Ontology],
        art: &mut Articulation,
        rule_key: &Arc<str>,
    ) -> Result<Anchor> {
        match expr {
            RuleExpr::Term(t) => self.resolve_term(t, sources, art),
            RuleExpr::And(members) => {
                let label = expr.default_label();
                Arc::make_mut(&mut art.ontology).graph_mut().ensure_node(&label)?;
                let mut member_anchors = Vec::with_capacity(members.len());
                for m in members {
                    member_anchors.push(self.resolve_expr(m, sources, art, rule_key)?);
                }
                // the intersection class specialises each conjunct
                for a in &member_anchors {
                    match a {
                        Anchor::Source(t) => {
                            art.add_bridge_supported(
                                Bridge::si(self.art_term(art, &label), t.clone(), BridgeKind::Rule),
                                Arc::clone(rule_key),
                            );
                        }
                        Anchor::Art(m) => {
                            let m = m.clone();
                            Arc::make_mut(&mut art.ontology).graph_mut().ensure_edge_by_labels(
                                &label,
                                rel::SUBCLASS_OF,
                                &m,
                            )?;
                        }
                    }
                }
                // common subclasses of all conjuncts slot under the new
                // class (the paper's Truck example)
                self.bridge_common_subclasses(&label, &member_anchors, sources, art, rule_key)?;
                Ok(Anchor::Art(label.into()))
            }
            RuleExpr::Or(members) => {
                let label = expr.default_label();
                Arc::make_mut(&mut art.ontology).graph_mut().ensure_node(&label)?;
                for m in members {
                    let a = self.resolve_expr(m, sources, art, rule_key)?;
                    match a {
                        Anchor::Source(t) => {
                            art.add_bridge_supported(
                                Bridge::si(t, self.art_term(art, &label), BridgeKind::Rule),
                                Arc::clone(rule_key),
                            );
                        }
                        Anchor::Art(m) => {
                            Arc::make_mut(&mut art.ontology).graph_mut().ensure_edge_by_labels(
                                &m,
                                rel::SUBCLASS_OF,
                                &label,
                            )?;
                        }
                    }
                }
                Ok(Anchor::Art(label.into()))
            }
        }
    }

    /// For conjuncts anchored in one source ontology, bridge every class
    /// that is a transitive subclass of all of them under `label`.
    fn bridge_common_subclasses(
        &self,
        label: &str,
        members: &[Anchor],
        sources: &[&Ontology],
        art: &mut Articulation,
        rule_key: &Arc<str>,
    ) -> Result<()> {
        let mut terms: Vec<&Term> = Vec::new();
        for m in members {
            match m {
                Anchor::Source(t) => terms.push(t),
                Anchor::Art(_) => return Ok(()), // mixed anchors: skip closure step
            }
        }
        let Some(first_onto) = terms.first().and_then(|t| t.ontology.as_deref()) else {
            return Ok(());
        };
        if !terms.iter().all(|t| t.in_ontology(first_onto)) {
            return Ok(()); // conjuncts span ontologies: no common subclass set
        }
        let Some(src) = self.find_source(sources, first_onto) else {
            return Ok(());
        };
        let mut common: Option<HashSet<String>> = None;
        for t in &terms {
            let subs: HashSet<String> = src.subclasses(&t.name).into_iter().collect();
            common = Some(match common {
                None => subs,
                Some(prev) => prev.intersection(&subs).cloned().collect(),
            });
        }
        let mut common: Vec<String> = common.unwrap_or_default().into_iter().collect();
        common.sort();
        for sub in common {
            art.add_bridge_supported(
                Bridge::si(
                    Term::qualified(first_onto, &sub),
                    self.art_term(art, label),
                    BridgeKind::Rule,
                ),
                Arc::clone(rule_key),
            );
        }
        Ok(())
    }

    /// Links one implication pair per the §4.1 case analysis.
    fn link_pair(
        &self,
        l: &Anchor,
        r: &Anchor,
        art: &mut Articulation,
        rule_key: &Arc<str>,
    ) -> Result<()> {
        match (l, r) {
            (Anchor::Source(a), Anchor::Source(b)) => {
                // the paper's simple-bridge translation: art node named
                // after the RHS, equivalent to the RHS source term
                let label = b.name.clone();
                Arc::make_mut(&mut art.ontology).graph_mut().ensure_node(&label)?;
                let art_t = self.art_term(art, &label);
                art.add_bridge_supported(
                    Bridge::si(a.clone(), art_t.clone(), BridgeKind::Rule),
                    Arc::clone(rule_key),
                );
                art.add_bridge_supported(
                    Bridge::si(b.clone(), art_t.clone(), BridgeKind::Rule),
                    Arc::clone(rule_key),
                );
                art.add_bridge_supported(
                    Bridge::si(art_t, b.clone(), BridgeKind::Equivalence),
                    Arc::clone(rule_key),
                );
            }
            (Anchor::Source(a), Anchor::Art(x)) => {
                art.add_bridge_supported(
                    Bridge::si(a.clone(), self.art_term(art, x), BridgeKind::Rule),
                    Arc::clone(rule_key),
                );
            }
            (Anchor::Art(x), Anchor::Source(b)) => {
                art.add_bridge_supported(
                    Bridge::si(self.art_term(art, x), b.clone(), BridgeKind::Rule),
                    Arc::clone(rule_key),
                );
            }
            (Anchor::Art(x), Anchor::Art(y)) => {
                // intra-articulation structure: Owner => Person becomes a
                // SubclassOf edge in the articulation graph
                let (x, y) = (x.clone(), y.clone());
                Arc::make_mut(&mut art.ontology).graph_mut().ensure_edge_by_labels(
                    &x,
                    rel::SUBCLASS_OF,
                    &y,
                )?;
            }
        }
        Ok(())
    }

    fn apply_functional(
        &self,
        function: &str,
        from: &Term,
        to: &Term,
        sources: &[&Ontology],
        art: &mut Articulation,
        rule_key: &Arc<str>,
    ) -> Result<()> {
        let from_anchor = self.resolve_term(from, sources, art)?;
        let to_anchor = self.resolve_term(to, sources, art)?;
        // normalise: functional bridges always target an articulation term
        let (to_art_label, to_source) = match to_anchor {
            Anchor::Art(l) => (l, None),
            Anchor::Source(t) => {
                Arc::make_mut(&mut art.ontology).graph_mut().ensure_node(&t.name)?;
                (t.name.clone(), Some(t))
            }
        };
        let art_t = self.art_term(art, &to_art_label);
        let from_term = match from_anchor {
            Anchor::Source(t) => t,
            Anchor::Art(l) => self.art_term(art, &l),
        };
        art.add_bridge_supported(
            Bridge::functional(from_term.clone(), function, art_t.clone()),
            Arc::clone(rule_key),
        );
        if let Some(inv) = self.config.conversions.get(function).and_then(|c| c.inverse_name()) {
            art.add_bridge_supported(
                Bridge::functional(art_t.clone(), inv, from_term),
                Arc::clone(rule_key),
            );
        }
        if let Some(src_t) = to_source {
            // keep the source metric term equivalent to the articulation one
            art.add_bridge_supported(
                Bridge::si(src_t.clone(), art_t.clone(), BridgeKind::Rule),
                Arc::clone(rule_key),
            );
            art.add_bridge_supported(
                Bridge::si(art_t, src_t, BridgeKind::Equivalence),
                Arc::clone(rule_key),
            );
        }
        Ok(())
    }

    /// §4.2 structure inheritance: articulation nodes anchored (by an
    /// `SIBridge` bridge) to source terms inherit the `SubclassOf`
    /// relationships of those terms.
    ///
    /// Each distinct anchored source node is walked once, up its
    /// `SubclassOf` edges; every other anchored node the walk reaches
    /// gives each articulation node anchored at the start a subclass
    /// edge to each one anchored there. The start itself never counts,
    /// so the walk may enter it first. A term with no live node in its
    /// source graph anchors nothing.
    fn inherit_structure(&self, art: &mut Articulation, sources: &[&Ontology]) -> Result<()> {
        // (source index, anchored node) -> the art labels anchored there
        let mut anchors: FxHashMap<(usize, NodeId), Vec<Arc<str>>> = FxHashMap::default();
        let art_name = art.name().to_string();
        for b in &art.bridges {
            if &*b.label != rel::SI_BRIDGE {
                continue;
            }
            let (art_end, src_end) = if b.src.in_ontology(&art_name) {
                (&b.src, &b.dst)
            } else if b.dst.in_ontology(&art_name) {
                (&b.dst, &b.src)
            } else {
                continue;
            };
            let Some(o) = src_end.ontology.as_deref().filter(|o| *o != art_name) else {
                continue;
            };
            let Some(idx) = sources.iter().position(|s| s.name() == o) else { continue };
            if let Some(n) = sources[idx].graph().node_by_label(&src_end.name) {
                anchors.entry((idx, n)).or_default().push(art_end.name.clone());
            }
        }
        let subclass = EdgeFilter::label(rel::SUBCLASS_OF);
        let mut new_edges: Vec<(Arc<str>, Arc<str>)> = Vec::new();
        for (&(idx, n), xs) in &anchors {
            for m in bfs(sources[idx].graph(), n, Direction::Forward, &subclass) {
                let Some(ys) = anchors.get(&(idx, m)).filter(|_| m != n) else { continue };
                for x in xs {
                    new_edges.extend(ys.iter().filter(|y| *y != x).map(|y| (x.clone(), y.clone())));
                }
            }
        }
        new_edges.sort();
        new_edges.dedup();
        for (x, y) in new_edges {
            // never create a subclass cycle in the articulation graph
            if !art.ontology.is_subclass(&y, &x) && x != y {
                Arc::make_mut(&mut art.ontology).graph_mut().ensure_edge_by_labels(
                    &x,
                    rel::SUBCLASS_OF,
                    &y,
                )?;
            }
        }
        Ok(())
    }

    /// Inference expansion: derive the source→articulation implications
    /// and add them as [`BridgeKind::Derived`] bridges.
    ///
    /// Expansion asks the engine one question with a bound target —
    /// which source terms imply which articulation terms — so it runs
    /// the goal-directed [`HornProgram::implication_goal`] rather than
    /// closing `si` whole. The fact base is seeded with one `si` fact
    /// per edge of the implication edge set that
    /// [`ImplicationIndex`](crate::ImplicationIndex) indexes: each
    /// `SIBridge` bridge (its ends interned from their parts), and the
    /// articulation's and the sources' implying graph edges through
    /// [`seed_relation_facts`], which resolves endpoints through the
    /// shared table's per-graph label memo (after a label's first
    /// encounter a dense array lookup, no `"onto.Term"` string built or
    /// hashed). One `art(b)` goal fact per live articulation node
    /// follows. Saturation then derives `implies(a, b)` only along paths
    /// that end at a goal.
    ///
    /// Every `implies(a, b)` whose `a` names a source term becomes a
    /// bridge from that term to the node `b` was seeded from. A source's
    /// atoms key under its own name, dotted or not (`carrier.v2` +
    /// `Car`), so `a`'s namespace names the source and its name the
    /// term; the articulation end is the seeded node's label. Bridges
    /// come out sorted on the atoms' text, each new `(src, dst)` pair
    /// once.
    fn expand(&self, art: &mut Articulation, sources: &[&Ontology]) -> Result<GeneratorStats> {
        let shared = self.config.atoms.clone();
        let mut guard;
        let mut local;
        let atoms: &mut AtomTable = match &shared {
            Some(m) => {
                guard = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                &mut guard
            }
            None => {
                local = AtomTable::new();
                &mut local
            }
        };
        let mut stats = GeneratorStats::default();
        let mut fb = FactBase::new();
        // seed: one si fact per implication edge
        let si = atoms.intern("si");
        for b in implying_bridges(art) {
            let s = atoms.intern_term(&b.src);
            let d = atoms.intern_term(&b.dst);
            stats.seeded_facts += fb.add_fact(si, &[s, d]) as usize;
        }
        for (g, relations) in implying_relations(art, sources) {
            stats.seeded_facts += seed_relation_facts(g, relations, "si", atoms, &mut fb);
        }
        // seed: the goals, one art(b) per live articulation node, each
        // remembering the node it names
        let goal = atoms.intern("art");
        let art_graph = art.ontology.graph();
        let mut goals: FxHashMap<AtomId, NodeId> = FxHashMap::default();
        {
            let mut cursor = atoms.graph_atoms(art_graph);
            for n in art_graph.node_ids() {
                let Some(b) = cursor.node_atom(n) else { continue };
                goals.insert(b, n);
                stats.seeded_facts += fb.add_fact(goal, &[b]) as usize;
            }
        }
        let program = HornProgram::implication_goal();
        stats.inference = match &self.config.executor {
            Some(exec) => onion_exec::ParallelEngine::new(program).run(exec, atoms, &mut fb)?,
            None => InferenceEngine::new(program).run(atoms, &mut fb)?,
        };

        // keep implications from a source term: a source's atoms key
        // under its own name, so a kept atom's namespace names its source
        // (index into `sources`) and its name is the term's label
        let source_ns: Vec<Option<u32>> =
            sources.iter().map(|o| atoms.namespace_lookup(o.name())).collect();
        let implies = atoms.intern("implies");
        let atoms: &AtomTable = atoms;
        let source_of = |id: AtomId| -> Option<usize> {
            let ns = atoms.namespace_of(id)?;
            source_ns.iter().position(|&s| s == Some(ns))
        };
        let mut derived: Vec<(AtomId, AtomId)> = fb
            .query2_ids(implies, None, None)
            .into_iter()
            .filter(|&(a, _)| source_of(a).is_some())
            .collect();
        // sort on resolved text so bridge order matches the string-keyed
        // engine's historical output exactly
        derived.sort_by(|x, y| {
            (atoms.resolve(x.0), atoms.resolve(x.1)).cmp(&(atoms.resolve(y.0), atoms.resolve(y.1)))
        });
        // one shared string per ontology name, per term name and for the
        // label: a term is built once per atom and cloned per bridge
        let label: Arc<str> = rel::SI_BRIDGE.into();
        let art_name: Arc<str> = art.name().into();
        let source_names: Vec<Arc<str>> = sources.iter().map(|o| o.name().into()).collect();
        let mut terms: FxHashMap<AtomId, Term> = FxHashMap::default();
        let mut term = |id: AtomId| -> Term {
            terms
                .entry(id)
                .or_insert_with(|| match goals.get(&id) {
                    Some(&n) => Term {
                        ontology: Some(Arc::clone(&art_name)),
                        name: art_graph.node_label(n).expect("live goal node").into(),
                    },
                    None => {
                        let i = source_of(id).expect("kept atoms name a source term");
                        Term {
                            ontology: Some(Arc::clone(&source_names[i])),
                            name: atoms.name_of(id).into(),
                        }
                    }
                })
                .clone()
        };
        // `add_bridge`'s dedup: the derived pairs are distinct facts, so
        // only the bridges already present can repeat one
        let existing: FxHashSet<(&Term, &Term)> = art
            .bridges
            .iter()
            .filter(|b| &*b.label == rel::SI_BRIDGE)
            .map(|b| (&b.src, &b.dst))
            .collect();
        let fresh: Vec<Bridge> = derived
            .into_iter()
            .map(|(a, b)| (term(a), term(b)))
            .filter(|(src, dst)| !existing.contains(&(src, dst)))
            .map(|(src, dst)| Bridge {
                src,
                label: Arc::clone(&label),
                dst,
                kind: BridgeKind::Derived,
            })
            .collect();
        stats.derived_bridges = fresh.len();
        art.bridges.extend(fresh);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onion_ontology::examples::{carrier, factory};
    use onion_ontology::OntologyBuilder;
    use onion_rules::parse_rules;

    fn gen() -> ArticulationGenerator {
        ArticulationGenerator::new()
    }

    fn simple_sources() -> (Ontology, Ontology) {
        let carrier =
            OntologyBuilder::new("carrier").class_under("Car", "Transportation").build().unwrap();
        let factory = OntologyBuilder::new("factory")
            .class_under("Vehicle", "Transportation")
            .build()
            .unwrap();
        (carrier, factory)
    }

    #[test]
    fn simple_rule_matches_paper_edge_set() {
        // §4.1: (carrier.Car => factory.Vehicle) is translated to
        // EA[{(carrier.Car, SIBridge, transport.Vehicle),
        //     (factory.Vehicle, SIBridge, transport.Vehicle),
        //     (transport.Vehicle, SIBridge, factory.Vehicle)}]
        let (c, f) = simple_sources();
        let rules = parse_rules("carrier.Car => factory.Vehicle\n").unwrap();
        let art = gen().generate(&rules, &[&c, &f]).unwrap();
        assert!(art.ontology.defines("Vehicle"));
        let have: HashSet<String> = art.bridges.iter().map(|b| b.to_string()).collect();
        for expected in [
            "carrier.Car -[SIBridge]-> transport.Vehicle",
            "factory.Vehicle -[SIBridge]-> transport.Vehicle",
            "transport.Vehicle -[SIBridge]-> factory.Vehicle",
        ] {
            assert!(have.contains(expected), "missing {expected}; have {have:?}");
        }
        assert_eq!(art.bridges.len(), 3);
    }

    #[test]
    fn cascaded_rule_matches_paper() {
        // §4.1: carrier.Car => transport.PassengerCar => factory.Vehicle
        let (c, f) = simple_sources();
        let rules =
            parse_rules("carrier.Car => transport.PassengerCar => factory.Vehicle\n").unwrap();
        let art = gen().generate(&rules, &[&c, &f]).unwrap();
        assert!(art.ontology.defines("PassengerCar"));
        let have: HashSet<String> = art.bridges.iter().map(|b| b.to_string()).collect();
        assert!(have.contains("carrier.Car -[SIBridge]-> transport.PassengerCar"));
        assert!(have.contains("transport.PassengerCar -[SIBridge]-> factory.Vehicle"));
        assert_eq!(art.bridges.len(), 2);
    }

    #[test]
    fn intra_articulation_rule_becomes_subclass_edge() {
        // §4.1: (transport.Owner => transport.Person) adds an edge to the
        // articulation graph making Owner a subclass of Person
        let (c, f) = simple_sources();
        let rules = parse_rules("transport.Owner => transport.Person\n").unwrap();
        let art = gen().generate(&rules, &[&c, &f]).unwrap();
        assert!(art.ontology.is_subclass("Owner", "Person"));
        assert!(art.bridges.is_empty());
    }

    #[test]
    fn conjunction_rule_matches_paper() {
        // §4.1: ((factory.CargoCarrier ∧ factory.Vehicle) => carrier.Trucks)
        // introduces CargoCarrierVehicle, subclass of Vehicle, CargoCarrier
        // and Trucks; Truck (subclass of both conjuncts) slots under it.
        let c = carrier();
        let f = factory();
        let rules =
            parse_rules("(factory.CargoCarrier & factory.Vehicle) => carrier.Trucks\n").unwrap();
        let art = gen().generate(&rules, &[&c, &f]).unwrap();
        assert!(art.ontology.defines("CargoCarrierVehicle"));
        let have: HashSet<String> = art.bridges.iter().map(|b| b.to_string()).collect();
        for expected in [
            "transport.CargoCarrierVehicle -[SIBridge]-> factory.CargoCarrier",
            "transport.CargoCarrierVehicle -[SIBridge]-> factory.Vehicle",
            "transport.CargoCarrierVehicle -[SIBridge]-> carrier.Trucks",
            // common subclasses of the conjuncts: GoodsVehicle and Truck
            "factory.Truck -[SIBridge]-> transport.CargoCarrierVehicle",
            "factory.GoodsVehicle -[SIBridge]-> transport.CargoCarrierVehicle",
        ] {
            assert!(have.contains(expected), "missing {expected}; have {have:?}");
        }
    }

    #[test]
    fn disjunction_rule_matches_paper() {
        // §4.1: (factory.Vehicle => (carrier.Cars ∨ carrier.Trucks))
        // introduces CarsTrucks with Cars, Trucks and Vehicle under it.
        let c = carrier();
        let f = factory();
        let rules = parse_rules("factory.Vehicle => (carrier.Cars | carrier.Trucks)\n").unwrap();
        let art = gen().generate(&rules, &[&c, &f]).unwrap();
        assert!(art.ontology.defines("CarsTrucks"));
        let have: HashSet<String> = art.bridges.iter().map(|b| b.to_string()).collect();
        for expected in [
            "carrier.Cars -[SIBridge]-> transport.CarsTrucks",
            "carrier.Trucks -[SIBridge]-> transport.CarsTrucks",
            "factory.Vehicle -[SIBridge]-> transport.CarsTrucks",
        ] {
            assert!(have.contains(expected), "missing {expected}; have {have:?}");
        }
    }

    #[test]
    fn functional_rule_creates_conversion_bridges() {
        let c = carrier();
        let f = factory();
        let rules = parse_rules("DGToEuroFn(): carrier.DutchGuilders => transport.Euro\n").unwrap();
        let art = gen().generate(&rules, &[&c, &f]).unwrap();
        assert!(art.ontology.defines("Euro"));
        let have: HashSet<String> = art.bridges.iter().map(|b| b.to_string()).collect();
        assert!(have.contains("carrier.DutchGuilders -[DGToEuroFn]-> transport.Euro"));
        // inverse wired from the registry
        assert!(have.contains("transport.Euro -[EuroToDGFn]-> carrier.DutchGuilders"));
    }

    #[test]
    fn functional_rule_without_registered_inverse() {
        let c = carrier();
        let f = factory();
        // nothing registered in the conversion registry
        let cfg = GeneratorConfig { conversions: ConversionRegistry::new(), ..Default::default() };
        let rules = parse_rules("MysteryFn(): carrier.DutchGuilders => transport.Euro\n").unwrap();
        let art = ArticulationGenerator::with_config(cfg).generate(&rules, &[&c, &f]).unwrap();
        assert_eq!(art.bridges.len(), 1, "forward bridge only");
    }

    #[test]
    fn strict_terms_reject_unknown() {
        let (c, f) = simple_sources();
        let rules = parse_rules("carrier.Ghost => factory.Vehicle\n").unwrap();
        let err = gen().generate(&rules, &[&c, &f]).unwrap_err();
        assert!(matches!(err, ArticulateError::UnknownTerm(t) if t == "carrier.Ghost"));
        // non-strict mode lets it pass (term treated as declared)
        let cfg = GeneratorConfig { strict_terms: false, ..Default::default() };
        let art = ArticulationGenerator::with_config(cfg).generate(&rules, &[&c, &f]).unwrap();
        assert_eq!(art.bridges.len(), 3);
    }

    #[test]
    fn unknown_ontology_rejected() {
        let (c, f) = simple_sources();
        let rules = parse_rules("nowhere.X => factory.Vehicle\n").unwrap();
        let err = gen().generate(&rules, &[&c, &f]).unwrap_err();
        assert!(matches!(err, ArticulateError::UnknownOntology(o) if o == "nowhere"));
    }

    #[test]
    fn inherit_structure_lifts_source_subclasses() {
        // carrier.SUV -> transport.SUV and carrier.Cars -> transport.Cars
        // equivalences; SUV subclassOf Cars in carrier should appear in
        // the articulation.
        let c = carrier();
        let f = factory();
        let rules =
            parse_rules("carrier.SUV => transport.SUV\ncarrier.Cars => transport.Cars\n").unwrap();
        let art = gen().generate(&rules, &[&c, &f]).unwrap();
        assert!(art.ontology.is_subclass("SUV", "Cars"), "structure inherited per §4.2");
    }

    #[test]
    fn expansion_derives_transitive_bridges() {
        let c = carrier();
        let f = factory();
        let cfg = GeneratorConfig { expand_with_inference: true, ..Default::default() };
        let rules = parse_rules("carrier.Cars => transport.Vehicle\n").unwrap();
        let art = ArticulationGenerator::with_config(cfg).generate(&rules, &[&c, &f]).unwrap();
        // carrier.SUV subclassOf carrier.Cars, so SUV => transport.Vehicle
        // should be derivable
        assert!(
            art.bridges.iter().any(|b| b.kind == BridgeKind::Derived
                && b.src == Term::qualified("carrier", "SUV")
                && b.dst == Term::qualified("transport", "Vehicle")),
            "bridges: {:?}",
            art.bridges.iter().map(|b| b.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn expansion_derives_bridges_for_instances() {
        // carrier.MyCar InstanceOf carrier.Cars, and a source instance
        // edge is an implication edge, so MyCar => transport.Vehicle
        // must be derived too
        let c = carrier();
        let f = factory();
        let cfg = GeneratorConfig { expand_with_inference: true, ..Default::default() };
        let rules = parse_rules("carrier.Cars => transport.Vehicle\n").unwrap();
        let art = ArticulationGenerator::with_config(cfg).generate(&rules, &[&c, &f]).unwrap();
        assert!(
            art.bridges.iter().any(|b| b.kind == BridgeKind::Derived
                && b.src == Term::qualified("carrier", "MyCar")
                && b.dst == Term::qualified("transport", "Vehicle")),
            "bridges: {:?}",
            art.bridges.iter().map(|b| b.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn expansion_reports_stats_and_reuses_shared_table() {
        let c = carrier();
        let f = factory();
        let table = Arc::new(Mutex::new(AtomTable::new()));
        let cfg = GeneratorConfig {
            expand_with_inference: true,
            atoms: Some(table.clone()),
            ..Default::default()
        };
        let generator = ArticulationGenerator::with_config(cfg);
        let rules = parse_rules("carrier.Cars => transport.Vehicle\n").unwrap();
        let (a1, s1) = generator.generate_with_stats(&rules, &[&c, &f]).unwrap();
        assert!(s1.seeded_facts > 0, "bridges and subclass edges seed facts");
        assert!(s1.inference.derived > 0, "transitive implications derived");
        assert!(s1.derived_bridges > 0, "SUV and friends bridge to transport.Vehicle");
        let interned = table.lock().unwrap().len();
        assert!(interned > 0, "shared table observed the run");
        // a second identical run reuses every symbol and memo
        let (a2, s2) = generator.generate_with_stats(&rules, &[&c, &f]).unwrap();
        assert_eq!(a1.bridges, a2.bridges);
        assert_eq!(s1, s2, "stats reproduce exactly");
        assert_eq!(table.lock().unwrap().len(), interned, "second run interns nothing new");
    }

    #[test]
    fn expansion_derives_bridges_for_dotted_source_names() {
        // a source named "acme.v2" keys under the canonical namespace
        // split ("acme" + "v2." prefix); the derived bridge still names
        // the source and its term as the source does
        let mut g = onion_graph::OntGraph::new("acme.v2");
        g.ensure_edge_by_labels("Car", rel::SUBCLASS_OF, "Cars").unwrap();
        let src = Ontology::from_graph(g);
        let f = factory();
        let cfg = GeneratorConfig { expand_with_inference: true, ..Default::default() };
        let mut rules = RuleSet::new();
        rules.push(ArticulationRule::term_implies(
            Term::qualified("acme.v2", "Cars"),
            Term::qualified("transport", "Vehicle"),
        ));
        let (art, stats) = ArticulationGenerator::with_config(cfg)
            .generate_with_stats(&rules, &[&src, &f])
            .unwrap();
        assert!(stats.inference.derived > 0, "Car => Vehicle is derivable");
        assert!(
            art.bridges.iter().any(|b| b.kind == BridgeKind::Derived
                && b.src == Term::qualified("acme.v2", "Car")
                && b.dst == Term::qualified("transport", "Vehicle")),
            "derived bridge for the dotted source names its term; bridges: {:?}",
            art.bridges.iter().map(|b| b.to_string()).collect::<Vec<_>>()
        );
        assert_eq!(stats.derived_bridges, 1, "the rule's own bridge gets no derived twin");
    }

    #[test]
    fn expansion_keeps_derived_bridges_under_a_dotted_articulation_name() {
        // `transport.v2` keys its atoms as `transport` + `v2.Vehicle`;
        // the derived bridge must name the articulation's own label
        let c = carrier();
        let f = factory();
        let rules = parse_rules("carrier.Cars => Vehicle\n").unwrap();
        let bridges = |art_name: &str| -> Vec<String> {
            let cfg = GeneratorConfig {
                art_name: art_name.into(),
                expand_with_inference: true,
                ..Default::default()
            };
            let art = ArticulationGenerator::with_config(cfg).generate(&rules, &[&c, &f]).unwrap();
            art.bridges.iter().map(|b| format!("{b} {:?}", b.kind)).collect()
        };
        let plain = bridges("transport");
        assert!(plain.contains(&"carrier.SUV -[SIBridge]-> transport.Vehicle Derived".into()));
        let renamed: Vec<String> =
            plain.iter().map(|b| b.replace("transport.", "transport.v2.")).collect();
        assert_eq!(bridges("transport.v2"), renamed);
    }

    #[test]
    fn expansion_derives_nothing_toward_a_deleted_articulation_node() {
        let c = carrier();
        let f = factory();
        let g = ArticulationGenerator::with_config(GeneratorConfig {
            expand_with_inference: true,
            ..Default::default()
        });
        let rules =
            parse_rules("carrier.Cars => transport.Vehicle\ncarrier.Cars => transport.Auto\n")
                .unwrap();
        let mut art = ArticulationGenerator::new().generate(&rules, &[&c, &f]).unwrap();
        Arc::make_mut(&mut art.ontology).graph_mut().delete_node_by_label("Vehicle").unwrap();
        let before = art.bridges.len();
        let stats = g.expand(&mut art, &[&c, &f]).unwrap();
        let derived: Vec<String> = art.bridges[before..].iter().map(|b| b.to_string()).collect();
        assert_eq!(
            derived,
            [
                "carrier.MyCar -[SIBridge]-> transport.Auto",
                "carrier.SUV -[SIBridge]-> transport.Auto"
            ]
        );
        assert_eq!(stats.derived_bridges, 2);
    }

    #[test]
    fn expansion_without_shared_table_matches_shared_run() {
        let c = carrier();
        let f = factory();
        let rules = parse_rules("carrier.Cars => transport.Vehicle\n").unwrap();
        let local = ArticulationGenerator::with_config(GeneratorConfig {
            expand_with_inference: true,
            ..Default::default()
        });
        let shared = ArticulationGenerator::with_config(GeneratorConfig {
            expand_with_inference: true,
            atoms: Some(Arc::new(Mutex::new(AtomTable::new()))),
            ..Default::default()
        });
        let (a1, s1) = local.generate_with_stats(&rules, &[&c, &f]).unwrap();
        let (a2, s2) = shared.generate_with_stats(&rules, &[&c, &f]).unwrap();
        assert_eq!(a1.bridges, a2.bridges, "table sharing never changes results");
        assert_eq!(s1, s2);
    }

    #[test]
    fn generate_is_deterministic() {
        let c = carrier();
        let f = factory();
        let rules = onion_ontology::examples::fig2_rules();
        let a1 = gen().generate(&rules, &[&c, &f]).unwrap();
        let a2 = gen().generate(&rules, &[&c, &f]).unwrap();
        assert_eq!(a1.bridges, a2.bridges);
        assert!(a1.ontology.graph().same_shape(a2.ontology.graph()));
    }

    #[test]
    fn fig2_rules_generate_cleanly() {
        let c = carrier();
        let f = factory();
        let art = gen().generate(&onion_ontology::examples::fig2_rules(), &[&c, &f]).unwrap();
        let (terms, bridges, rules) = art.stats();
        assert!(terms >= 8, "articulation terms: {terms}");
        assert!(bridges >= 12, "bridges: {bridges}");
        assert_eq!(rules, onion_ontology::examples::fig2_rules().len());
        // articulation ontology is itself consistent
        assert!(onion_ontology::consistency::check(&art.ontology).is_empty());
    }
}
