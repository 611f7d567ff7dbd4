//! The domain expert in the loop.
//!
//! In the paper, "the expert has the final word on the articulation
//! generation and is responsible to correct inconsistencies in the
//! suggested articulation" (§2.4). A human drives the ONION viewer; the
//! reproduction substitutes deterministic policies behind the [`Expert`]
//! trait (ARCHITECTURE.md, "Articulation engine") so that the identical engine
//! control flow — propose → confirm → generate → iterate — runs
//! unattended and is measurable.

use onion_graph::hash::FxHashSet;
use onion_rules::{ArticulationRule, AtomId, AtomTable, Term};

use crate::candidate::CandidateRule;

/// An expert's ruling on a candidate rule.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Accept the rule as proposed.
    Accept,
    /// Reject the rule.
    Reject,
    /// Replace the proposal with a corrected rule (the viewer lets the
    /// expert "update the suggested bridges", §2.2).
    Modify(ArticulationRule),
}

/// A reviewing expert.
pub trait Expert {
    /// Review one candidate.
    fn review(&mut self, candidate: &CandidateRule) -> Verdict;

    /// Called when a round completes; gives scripted experts a chance to
    /// inject additional rules of their own ("supply new rules for the
    /// generation of the articulation", §2.2). Default: none.
    fn supply_rules(&mut self) -> Vec<ArticulationRule> {
        Vec::new()
    }
}

/// Accepts everything — the fully-automatic end of the paper's
/// "balance between an automated (and perhaps unreliable) system, and a
/// manual system" (§1).
#[derive(Debug, Clone, Copy, Default)]
pub struct AcceptAll;

impl Expert for AcceptAll {
    fn review(&mut self, _candidate: &CandidateRule) -> Verdict {
        Verdict::Accept
    }
}

/// Accepts candidates at or above a confidence threshold.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdExpert {
    /// Minimum confidence to accept.
    pub threshold: f64,
}

impl ThresholdExpert {
    /// Expert accepting confidence ≥ `threshold`.
    pub fn new(threshold: f64) -> Self {
        ThresholdExpert { threshold }
    }
}

impl Expert for ThresholdExpert {
    fn review(&mut self, candidate: &CandidateRule) -> Verdict {
        if candidate.confidence >= self.threshold {
            Verdict::Accept
        } else {
            Verdict::Reject
        }
    }
}

/// Replays a fixed decision script, then falls back to rejecting.
/// Models a specific recorded expert session.
#[derive(Debug, Clone, Default)]
pub struct ScriptedExpert {
    script: Vec<Verdict>,
    next: usize,
    extra_rules: Vec<ArticulationRule>,
}

impl ScriptedExpert {
    /// Expert that will answer with `script` in order.
    pub fn new(script: Vec<Verdict>) -> Self {
        ScriptedExpert { script, next: 0, extra_rules: Vec::new() }
    }

    /// Queues rules the expert will volunteer after the next round.
    pub fn with_supplied_rules(mut self, rules: Vec<ArticulationRule>) -> Self {
        self.extra_rules = rules;
        self
    }

    /// How many verdicts have been consumed.
    pub fn consumed(&self) -> usize {
        self.next
    }
}

impl Expert for ScriptedExpert {
    fn review(&mut self, _candidate: &CandidateRule) -> Verdict {
        let v = self.script.get(self.next).cloned().unwrap_or(Verdict::Reject);
        self.next += 1;
        v
    }

    fn supply_rules(&mut self) -> Vec<ArticulationRule> {
        std::mem::take(&mut self.extra_rules)
    }
}

/// Knows the planted ground-truth correspondence (from the workload
/// generator) and accepts exactly the simple implications it contains.
/// Enables precision/recall measurement in experiment B2.
///
/// Truth pairs are interned into a private [`AtomTable`] at
/// construction; each review then probes by looked-up [`AtomId`]s —
/// no `"onto.Term"` string is built per candidate (the B2 oracle loop
/// reviews every proposed pair every round). A truth string is text,
/// split at its first `.` like [`AtomTable::intern`], and a candidate's
/// terms key under their ontology's own name, so the oracle knows the
/// terms of dot-free ontology names (the only ones text spells without
/// ambiguity, and the only ones the workload generator plants).
#[derive(Debug, Clone)]
pub struct OracleExpert {
    atoms: AtomTable,
    /// Accepted (from, to) pairs over `atoms`.
    truth: FxHashSet<(AtomId, AtomId)>,
}

impl OracleExpert {
    /// Oracle accepting exactly `pairs` (qualified term strings).
    pub fn new(pairs: impl IntoIterator<Item = (String, String)>) -> Self {
        let mut atoms = AtomTable::new();
        let truth =
            pairs.into_iter().map(|(from, to)| (atoms.intern(&from), atoms.intern(&to))).collect();
        OracleExpert { atoms, truth }
    }

    /// Whether the pair is in the planted truth.
    pub fn knows(&self, from: &Term, to: &Term) -> bool {
        let (Some(f), Some(t)) = (self.atoms.lookup_term(from), self.atoms.lookup_term(to)) else {
            return false; // a term outside the truth vocabulary
        };
        self.truth.contains(&(f, t))
    }
}

impl Expert for OracleExpert {
    fn review(&mut self, candidate: &CandidateRule) -> Verdict {
        match &candidate.rule {
            ArticulationRule::Implication { chain } if candidate.rule.is_simple_implication() => {
                let from = chain[0].terms()[0];
                let to = chain[1].terms()[0];
                // equivalence counts in both directions
                if self.knows(from, to) || self.knows(to, from) {
                    Verdict::Accept
                } else {
                    Verdict::Reject
                }
            }
            // compound and functional rules pass through on confidence
            _ => {
                if candidate.confidence >= 0.5 {
                    Verdict::Accept
                } else {
                    Verdict::Reject
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(a: &str, b: &str, conf: f64) -> CandidateRule {
        CandidateRule::new(
            ArticulationRule::term_implies(Term::qualified("o1", a), Term::qualified("o2", b)),
            conf,
            "test",
            "",
        )
    }

    #[test]
    fn accept_all_accepts() {
        assert_eq!(AcceptAll.review(&cand("A", "B", 0.0)), Verdict::Accept);
    }

    #[test]
    fn threshold_splits() {
        let mut e = ThresholdExpert::new(0.8);
        assert_eq!(e.review(&cand("A", "B", 0.9)), Verdict::Accept);
        assert_eq!(e.review(&cand("A", "B", 0.8)), Verdict::Accept);
        assert_eq!(e.review(&cand("A", "B", 0.79)), Verdict::Reject);
    }

    #[test]
    fn scripted_replays_then_rejects() {
        let mut e = ScriptedExpert::new(vec![Verdict::Accept, Verdict::Reject]);
        assert_eq!(e.review(&cand("A", "B", 1.0)), Verdict::Accept);
        assert_eq!(e.review(&cand("C", "D", 1.0)), Verdict::Reject);
        assert_eq!(e.review(&cand("E", "F", 1.0)), Verdict::Reject, "script exhausted");
        assert_eq!(e.consumed(), 3);
    }

    #[test]
    fn scripted_supplies_rules_once() {
        let r =
            ArticulationRule::term_implies(Term::qualified("a", "X"), Term::qualified("b", "Y"));
        let mut e = ScriptedExpert::new(vec![]).with_supplied_rules(vec![r.clone()]);
        assert_eq!(e.supply_rules(), vec![r]);
        assert!(e.supply_rules().is_empty(), "supplied only once");
    }

    #[test]
    fn oracle_accepts_truth_both_directions() {
        let mut e = OracleExpert::new([("o1.A".to_string(), "o2.B".to_string())]);
        assert_eq!(e.review(&cand("A", "B", 0.1)), Verdict::Accept);
        // reversed proposal also accepted (equivalence semantics)
        let rev = CandidateRule::new(
            ArticulationRule::term_implies(Term::qualified("o2", "B"), Term::qualified("o1", "A")),
            0.1,
            "test",
            "",
        );
        assert_eq!(e.review(&rev), Verdict::Accept);
        assert_eq!(e.review(&cand("A", "C", 0.99)), Verdict::Reject);
    }

    #[test]
    fn oracle_compound_rules_by_confidence() {
        let mut e = OracleExpert::new([]);
        let compound = CandidateRule::new(
            onion_rules::parser::parse_rule("(a.X & a.Y) => b.Z").unwrap(),
            0.9,
            "test",
            "",
        );
        assert_eq!(e.review(&compound), Verdict::Accept);
    }
}
