//! Rule-set conflict and consistency analysis.
//!
//! The paper charges the model with providing "a basis for the logical
//! inference necessary for knowledge composition and for the detection
//! of errors in the articulation rules" (§1), with the expert
//! "responsible to correct inconsistencies in the suggested articulation"
//! (§2.4). This module surfaces the mechanically detectable problems so
//! the (simulated) expert can rule on them:
//!
//! * **equivalence cycles** — implication cycles `A ⇒ … ⇒ A` collapse
//!   distinct terms into one semantic class; often intended (the paper's
//!   `factory.Vehicle ⇔ transport.Vehicle`), but worth reporting;
//! * **disjointness violations** — a derived implication `A ⇒ B` where
//!   the expert declared `A` and `B` disjoint;
//! * **dangling functional rules** — conversion functions that are not
//!   registered;
//! * **redundant rules** — implications already derivable from the rest
//!   of the set (transitivity).

use onion_graph::hash::FxHashSet;
use onion_graph::traverse::{reachable_from_all, tarjan_scc, Direction, EdgeFilter};
use onion_graph::{NodeId, OntGraph};

use crate::ast::{ArticulationRule, RuleSet};
use crate::atoms::{AtomId, AtomTable};
use crate::convert::ConversionRegistry;

/// One reported finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Finding {
    /// Terms mutually implied — they form one equivalence class.
    EquivalenceCycle {
        /// The terms in the cycle (sorted).
        terms: Vec<String>,
    },
    /// `a ⇒ b` is derivable although declared disjoint.
    DisjointnessViolation {
        /// Implying term.
        from: String,
        /// Implied term.
        to: String,
    },
    /// A functional rule references an unregistered function.
    MissingConversion {
        /// The function name.
        function: String,
    },
    /// A simple implication is derivable from the others.
    RedundantRule {
        /// Display form of the redundant rule.
        rule: String,
    },
}

/// Declared disjointness constraints (unordered term pairs).
///
/// Pairs are keyed by interned [`AtomId`]s over a private [`AtomTable`]:
/// `declare` interns, `contains` only looks up — a membership probe
/// allocates nothing and hashes two `u32`s instead of building owned
/// `String` keys per call (the violation sweep in [`analyze`] probes
/// once per derived implication pair).
#[derive(Debug, Default)]
pub struct Disjointness {
    atoms: AtomTable,
    pairs: FxHashSet<(AtomId, AtomId)>,
}

impl Disjointness {
    /// No constraints.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares `a` and `b` disjoint (order-insensitive).
    pub fn declare(&mut self, a: &str, b: &str) {
        let x = self.atoms.intern(a);
        let y = self.atoms.intern(b);
        self.pairs.insert((x.min(y), x.max(y)));
    }

    /// Are `a`,`b` declared disjoint?
    pub fn contains(&self, a: &str, b: &str) -> bool {
        let (Some(x), Some(y)) = (self.atoms.lookup(a), self.atoms.lookup(b)) else {
            return false; // an undeclared term is disjoint from nothing
        };
        self.pairs.contains(&(x.min(y), x.max(y)))
    }

    /// Number of declared pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// Builds the implication graph over qualified term names: one node per
/// term, one `si` edge per adjacent pair in every implication chain
/// (boolean structure flattened to its member terms, matching how the
/// articulation generator wires synthesised classes).
pub fn implication_graph(rules: &RuleSet) -> OntGraph {
    // terms are interned once; their qualified text materialises once
    // per distinct term instead of one String join per occurrence
    let mut atoms = AtomTable::new();
    let mut g = OntGraph::new("implications");
    for rule in rules.iter() {
        if let ArticulationRule::Implication { chain } = rule {
            for pair in chain.windows(2) {
                for l in pair[0].terms() {
                    for r in pair[1].terms() {
                        let (li, ri) = (atoms.intern_term(l), atoms.intern_term(r));
                        let _ = g.ensure_edge_by_labels(atoms.resolve(li), "si", atoms.resolve(ri));
                    }
                }
            }
        }
    }
    g
}

/// Analyses a rule set; findings are ordered deterministically.
pub fn analyze(
    rules: &RuleSet,
    conversions: &ConversionRegistry,
    disjoint: &Disjointness,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let g = implication_graph(rules);

    // 1. equivalence cycles (SCCs of size > 1)
    let mut cycles: Vec<Vec<String>> = tarjan_scc(&g, &EdgeFilter::All)
        .into_iter()
        .filter(|c| c.len() > 1)
        .map(|c| {
            let mut terms: Vec<String> =
                c.into_iter().map(|n| g.node_label(n).expect("live").to_string()).collect();
            terms.sort();
            terms
        })
        .collect();
    cycles.sort();
    for terms in cycles {
        findings.push(Finding::EquivalenceCycle { terms });
    }

    // 2. disjointness violations against the transitive implication
    // closure: one walk per term from its direct successors, so a term
    // implies itself only through a cycle
    if !disjoint.is_empty() {
        let mut violations: Vec<(String, String)> = Vec::new();
        for a in g.node_ids() {
            let next: Vec<NodeId> = g.out_edge_entries(a).map(|(_, _, b)| b).collect();
            let from = g.node_label(a).expect("live");
            for b in reachable_from_all(&g, &next, Direction::Forward, &EdgeFilter::All) {
                let to = g.node_label(b).expect("live");
                if disjoint.contains(from, to) {
                    violations.push((from.to_string(), to.to_string()));
                }
            }
        }
        violations.sort();
        violations.dedup();
        for (from, to) in violations {
            findings.push(Finding::DisjointnessViolation { from, to });
        }
    }

    // 3. missing conversion functions
    let mut missing: Vec<String> = rules
        .iter()
        .filter_map(|r| match r {
            ArticulationRule::Functional { function, .. }
                if conversions.get(function).is_none() =>
            {
                Some(function.clone())
            }
            _ => None,
        })
        .collect();
    missing.sort();
    missing.dedup();
    for function in missing {
        findings.push(Finding::MissingConversion { function });
    }

    // 4. redundant simple implications: edge derivable without itself
    let mut redundant = Vec::new();
    for rule in rules.iter() {
        if !rule.is_simple_implication() {
            continue;
        }
        if let ArticulationRule::Implication { chain } = rule {
            let from = chain[0].terms()[0].to_string();
            let to = chain[1].terms()[0].to_string();
            // remove the direct edge, test reachability
            let mut g2 = g.clone();
            if g2.delete_edge_by_labels(&from, "si", &to).is_ok() {
                let (a, b) = (
                    g2.node_by_label(&from).expect("node exists"),
                    g2.node_by_label(&to).expect("node exists"),
                );
                if onion_graph::traverse::has_path(&g2, a, b, &EdgeFilter::All) {
                    redundant.push(rule.to_string());
                }
            }
        }
    }
    redundant.sort();
    for rule in redundant {
        findings.push(Finding::RedundantRule { rule });
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rules;

    fn rules(src: &str) -> RuleSet {
        parse_rules(src).unwrap()
    }

    #[test]
    fn clean_ruleset_has_no_findings() {
        let rs = rules("carrier.Car => factory.Vehicle\nfactory.Truck => factory.Vehicle\n");
        let f = analyze(&rs, &ConversionRegistry::standard(), &Disjointness::new());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn detects_equivalence_cycle() {
        let rs = rules("a.X => b.Y\nb.Y => a.X\n");
        let f = analyze(&rs, &ConversionRegistry::standard(), &Disjointness::new());
        assert_eq!(f, vec![Finding::EquivalenceCycle { terms: vec!["a.X".into(), "b.Y".into()] }]);
    }

    #[test]
    fn detects_longer_cycle() {
        let rs = rules("a.X => b.Y\nb.Y => c.Z\nc.Z => a.X\n");
        let f = analyze(&rs, &ConversionRegistry::standard(), &Disjointness::new());
        assert!(matches!(&f[0], Finding::EquivalenceCycle { terms } if terms.len() == 3));
    }

    #[test]
    fn detects_disjointness_violation_transitively() {
        let rs = rules("a.Car => b.Mid\nb.Mid => c.Scrap\n");
        let mut dj = Disjointness::new();
        dj.declare("a.Car", "c.Scrap");
        let f = analyze(&rs, &ConversionRegistry::standard(), &dj);
        assert!(f.iter().any(|x| matches!(
            x,
            Finding::DisjointnessViolation { from, to }
                if from == "a.Car" && to == "c.Scrap"
        )));
    }

    #[test]
    fn disjointness_is_symmetric() {
        let mut dj = Disjointness::new();
        dj.declare("b", "a");
        assert!(dj.contains("a", "b"));
        assert!(dj.contains("b", "a"));
        assert_eq!(dj.len(), 1);
    }

    #[test]
    fn detects_missing_conversion() {
        let rs = rules("NoSuchFn(): a.Price => b.Euro\n");
        let f = analyze(&rs, &ConversionRegistry::standard(), &Disjointness::new());
        assert_eq!(f, vec![Finding::MissingConversion { function: "NoSuchFn".into() }]);
        // registered one is fine
        let rs = rules("DGToEuroFn(): a.Price => b.Euro\n");
        let f = analyze(&rs, &ConversionRegistry::standard(), &Disjointness::new());
        assert!(f.is_empty());
    }

    #[test]
    fn detects_redundant_rule() {
        let rs = rules("a.X => b.Y\nb.Y => c.Z\na.X => c.Z\n");
        let f = analyze(&rs, &ConversionRegistry::standard(), &Disjointness::new());
        assert_eq!(f, vec![Finding::RedundantRule { rule: "a.X => c.Z".into() }]);
    }

    #[test]
    fn conjunction_terms_enter_graph() {
        let rs = rules("(f.A & f.B) => c.T\n");
        let g = implication_graph(&rs);
        assert!(g.has_edge("f.A", "si", "c.T"));
        assert!(g.has_edge("f.B", "si", "c.T"));
    }

    #[test]
    fn cascade_builds_chain_edges() {
        let rs = rules("a.X => m.Mid => b.Y\n");
        let g = implication_graph(&rs);
        assert!(g.has_edge("a.X", "si", "m.Mid"));
        assert!(g.has_edge("m.Mid", "si", "b.Y"));
        assert!(!g.has_edge("a.X", "si", "b.Y"), "no shortcut edge");
    }
}
