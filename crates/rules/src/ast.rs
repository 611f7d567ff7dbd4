//! Abstract syntax of articulation rules (paper §4.1).

use std::fmt;
use std::sync::Arc;

/// A qualified ontology term, e.g. `carrier.Car`.
///
/// The ontology part is optional while a rule is being written against
/// an implicit context (the paper's ONION viewer resolves names by click
/// and drag; the textual syntax prefixes terms "as a consequence of a
/// linear syntax").
///
/// Both parts are shared strings: cloning a term, and with it a rule,
/// a bridge or a whole articulation, bumps reference counts instead of
/// copying bytes. An `Arc<str>` prints, compares, orders and hashes as
/// its `str`, so `Display`, `Debug`, `Ord` and `Hash` read as they
/// would on owned strings.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Term {
    /// The ontology the term belongs to, if qualified.
    pub ontology: Option<Arc<str>>,
    /// The term (node label) inside that ontology.
    pub name: Arc<str>,
}

impl Term {
    /// A qualified term `ontology.name`.
    pub fn qualified(ontology: &str, name: &str) -> Self {
        Term { ontology: Some(ontology.into()), name: name.into() }
    }

    /// An unqualified term.
    pub fn unqualified(name: &str) -> Self {
        Term { ontology: None, name: name.into() }
    }

    /// True if the term is qualified with `ontology`.
    pub fn in_ontology(&self, ontology: &str) -> bool {
        self.ontology.as_deref() == Some(ontology)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.ontology {
            Some(o) => write!(f, "{}.{}", o, self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// A boolean combination of terms appearing on either side of `⇒`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RuleExpr {
    /// A single term.
    Term(Term),
    /// Conjunction `(a ∧ b ∧ …)`.
    And(Vec<RuleExpr>),
    /// Disjunction `(a ∨ b ∨ …)`.
    Or(Vec<RuleExpr>),
}

impl RuleExpr {
    /// Convenience constructor for a term expression.
    pub fn term(t: Term) -> Self {
        RuleExpr::Term(t)
    }

    /// All terms mentioned, left to right.
    pub fn terms(&self) -> Vec<&Term> {
        let mut out = Vec::new();
        self.collect_terms(&mut out);
        out
    }

    fn collect_terms<'a>(&'a self, out: &mut Vec<&'a Term>) {
        match self {
            RuleExpr::Term(t) => out.push(t),
            RuleExpr::And(xs) | RuleExpr::Or(xs) => {
                for x in xs {
                    x.collect_terms(out);
                }
            }
        }
    }

    /// True if the expression is a single bare term.
    pub fn is_simple(&self) -> bool {
        matches!(self, RuleExpr::Term(_))
    }

    /// The paper's default label for a synthesised class node: the
    /// predicate text (§4.1 "The default label for N is the predicate
    /// text"), rendered compactly (`CargoCarrierVehicle` style for
    /// conjunctions of simple terms, `CarsTrucks` for disjunctions).
    pub fn default_label(&self) -> String {
        match self {
            RuleExpr::Term(t) => t.name.to_string(),
            RuleExpr::And(xs) | RuleExpr::Or(xs) => {
                xs.iter().map(|x| x.default_label()).collect::<Vec<_>>().join("")
            }
        }
    }
}

impl fmt::Display for RuleExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleExpr::Term(t) => write!(f, "{t}"),
            RuleExpr::And(xs) => {
                write!(f, "(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            RuleExpr::Or(xs) => {
                write!(f, "(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// One articulation rule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ArticulationRule {
    /// `e₁ ⇒ e₂ ⇒ … ⇒ eₙ` — semantic implication, possibly cascaded
    /// (n > 2 introduces intermediate articulation terms, §4.1).
    Implication {
        /// The implication chain, length ≥ 2.
        chain: Vec<RuleExpr>,
    },
    /// `F(): a ⇒ b` — a functional rule whose conversion function `F`
    /// normalises values of `a` into the metric space of `b` (§4.1
    /// "Functional Rules").
    Functional {
        /// Registered conversion-function name.
        function: String,
        /// Source term.
        from: Term,
        /// Target term.
        to: Term,
    },
}

impl ArticulationRule {
    /// A simple two-term implication.
    pub fn implies(lhs: RuleExpr, rhs: RuleExpr) -> Self {
        ArticulationRule::Implication { chain: vec![lhs, rhs] }
    }

    /// A simple term-to-term implication.
    pub fn term_implies(lhs: Term, rhs: Term) -> Self {
        Self::implies(RuleExpr::Term(lhs), RuleExpr::Term(rhs))
    }

    /// All terms the rule mentions.
    pub fn terms(&self) -> Vec<&Term> {
        match self {
            ArticulationRule::Implication { chain } => {
                chain.iter().flat_map(|e| e.terms()).collect()
            }
            ArticulationRule::Functional { from, to, .. } => vec![from, to],
        }
    }

    /// True for a plain `term ⇒ term` rule.
    pub fn is_simple_implication(&self) -> bool {
        match self {
            ArticulationRule::Implication { chain } => {
                chain.len() == 2 && chain.iter().all(RuleExpr::is_simple)
            }
            _ => false,
        }
    }
}

impl fmt::Display for ArticulationRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArticulationRule::Implication { chain } => {
                for (i, e) in chain.iter().enumerate() {
                    if i > 0 {
                        write!(f, " => ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            ArticulationRule::Functional { function, from, to } => {
                write!(f, "{function}(): {from} => {to}")
            }
        }
    }
}

/// An ordered collection of articulation rules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleSet {
    /// The rules, in declaration order.
    pub rules: Vec<ArticulationRule>,
}

impl RuleSet {
    /// Empty rule set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a rule, skipping exact duplicates. Returns whether added.
    pub fn push(&mut self, rule: ArticulationRule) -> bool {
        if self.rules.contains(&rule) {
            return false;
        }
        self.rules.push(rule);
        true
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if there are no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Iterates the rules.
    pub fn iter(&self) -> impl Iterator<Item = &ArticulationRule> {
        self.rules.iter()
    }

    /// Merges another rule set, deduplicating; returns how many were new.
    pub fn extend_dedup(&mut self, other: &RuleSet) -> usize {
        let mut added = 0;
        for r in &other.rules {
            if self.push(r.clone()) {
                added += 1;
            }
        }
        added
    }

    /// All ontology names referenced by qualified terms, sorted unique.
    pub fn ontologies(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self
            .rules
            .iter()
            .flat_map(|r| r.terms())
            .filter_map(|t| t.ontology.as_deref())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

impl fmt::Display for RuleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_display() {
        assert_eq!(Term::qualified("carrier", "Car").to_string(), "carrier.Car");
        assert_eq!(Term::unqualified("Car").to_string(), "Car");
        assert!(Term::qualified("carrier", "Car").in_ontology("carrier"));
        assert!(!Term::unqualified("Car").in_ontology("carrier"));
    }

    #[test]
    fn expr_terms_in_order() {
        let e = RuleExpr::And(vec![
            RuleExpr::term(Term::qualified("factory", "CargoCarrier")),
            RuleExpr::term(Term::qualified("factory", "Vehicle")),
        ]);
        let names: Vec<&str> = e.terms().iter().map(|t| &*t.name).collect();
        assert_eq!(names, vec!["CargoCarrier", "Vehicle"]);
        assert!(!e.is_simple());
    }

    #[test]
    fn default_labels_match_paper_examples() {
        // §4.1: CargoCarrier ∧ Vehicle gets node CargoCarrierVehicle
        let and = RuleExpr::And(vec![
            RuleExpr::term(Term::qualified("factory", "CargoCarrier")),
            RuleExpr::term(Term::qualified("factory", "Vehicle")),
        ]);
        assert_eq!(and.default_label(), "CargoCarrierVehicle");
        // §4.1: Cars ∨ Trucks gets node CarsTrucks
        let or = RuleExpr::Or(vec![
            RuleExpr::term(Term::qualified("carrier", "Cars")),
            RuleExpr::term(Term::qualified("carrier", "Trucks")),
        ]);
        assert_eq!(or.default_label(), "CarsTrucks");
    }

    #[test]
    fn rule_display_roundtrips_shapes() {
        let r = ArticulationRule::term_implies(
            Term::qualified("carrier", "Car"),
            Term::qualified("factory", "Vehicle"),
        );
        assert_eq!(r.to_string(), "carrier.Car => factory.Vehicle");
        assert!(r.is_simple_implication());

        let f = ArticulationRule::Functional {
            function: "DGToEuroFn".into(),
            from: Term::qualified("carrier", "DutchGuilders"),
            to: Term::qualified("transport", "Euro"),
        };
        assert_eq!(f.to_string(), "DGToEuroFn(): carrier.DutchGuilders => transport.Euro");
        assert!(!f.is_simple_implication());
    }

    #[test]
    fn cascaded_rule_not_simple() {
        let r = ArticulationRule::Implication {
            chain: vec![
                RuleExpr::term(Term::qualified("carrier", "Car")),
                RuleExpr::term(Term::qualified("transport", "PassengerCar")),
                RuleExpr::term(Term::qualified("factory", "Vehicle")),
            ],
        };
        assert!(!r.is_simple_implication());
        assert_eq!(r.terms().len(), 3);
        assert_eq!(r.to_string(), "carrier.Car => transport.PassengerCar => factory.Vehicle");
    }

    #[test]
    fn ruleset_dedups() {
        let mut rs = RuleSet::new();
        let r =
            ArticulationRule::term_implies(Term::qualified("a", "X"), Term::qualified("b", "Y"));
        assert!(rs.push(r.clone()));
        assert!(!rs.push(r));
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn ruleset_extend_dedup_counts_new() {
        let mut a = RuleSet::new();
        a.push(ArticulationRule::term_implies(
            Term::qualified("a", "X"),
            Term::qualified("b", "Y"),
        ));
        let mut b = RuleSet::new();
        b.push(ArticulationRule::term_implies(
            Term::qualified("a", "X"),
            Term::qualified("b", "Y"),
        ));
        b.push(ArticulationRule::term_implies(
            Term::qualified("a", "Z"),
            Term::qualified("b", "W"),
        ));
        assert_eq!(a.extend_dedup(&b), 1);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn ruleset_ontologies_sorted_unique() {
        let mut rs = RuleSet::new();
        rs.push(ArticulationRule::term_implies(
            Term::qualified("carrier", "Car"),
            Term::qualified("factory", "Vehicle"),
        ));
        rs.push(ArticulationRule::term_implies(
            Term::qualified("factory", "Truck"),
            Term::unqualified("Thing"),
        ));
        assert_eq!(rs.ontologies(), vec!["carrier", "factory"]);
    }
}
