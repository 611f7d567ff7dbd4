//! Horn-clause representation of articulation knowledge.
//!
//! §4.1: "Since inference engines for full first-order systems tend not
//! to scale up to large knowledge bases, for performance reasons, we
//! envisage that for a lot of applications, we will use simple Horn
//! Clauses to represent articulation rules. The modular design of the
//! onion system implies that we can then plug in a much lighter (and
//! faster) inference engine."
//!
//! A [`HornClause`] is `head :- body₁, …, bodyₙ` over predicates applied
//! to variables and constants. A [`HornProgram`] bundles clauses and is
//! executed by [`crate::infer`]. The textual syntax is Datalog-like:
//!
//! ```text
//! subclass(X, Z) :- subclass(X, Y), subclass(Y, Z).
//! si(X, Y) :- subclass(X, Y).
//! ```
//!
//! Variables start with an uppercase letter; everything else (including
//! quoted strings) is a constant.

use std::fmt;

use crate::properties::RelationRegistry;
use crate::{Result, RuleError};

/// An argument of an atom: a variable or a constant symbol.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TermArg {
    /// A variable (uppercase initial in the textual syntax).
    Var(String),
    /// A constant symbol.
    Const(String),
}

/// Writes a variable bare and a constant in the textual syntax, quoted
/// when it would otherwise misread (uppercase initial, whitespace,
/// `(`, `)`, `,`, `.`, `:`, `%`, `#`). [`HornProgram::parse`] reads the
/// output back — except for a constant holding `"`: the reader has no
/// escape syntax, so such a constant has no text form.
impl fmt::Display for TermArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TermArg::Var(v) => write!(f, "{v}"),
            TermArg::Const(c) => {
                // Quote anything that would confuse the Datalog reader:
                // uppercase initials (read as variables), '.' (clause
                // terminator), and structural characters.
                let needs_quoting = c.chars().next().map(|ch| ch.is_uppercase()).unwrap_or(true)
                    || c.contains(|ch: char| {
                        ch.is_whitespace()
                            || matches!(ch, '(' | ')' | ',' | '.' | ':' | '"' | '%' | '#')
                    });
                if needs_quoting {
                    write!(f, "\"{c}\"")
                } else {
                    write!(f, "{c}")
                }
            }
        }
    }
}

/// A predicate applied to arguments, e.g. `subclass(X, vehicle)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Predicate name.
    pub pred: String,
    /// Arguments.
    pub args: Vec<TermArg>,
}

impl Atom {
    /// Builds an atom.
    pub fn new(pred: &str, args: Vec<TermArg>) -> Self {
        Atom { pred: pred.to_string(), args }
    }

    /// Binary atom over two variables — the common ontology case.
    pub fn vars2(pred: &str, a: &str, b: &str) -> Self {
        Atom::new(pred, vec![TermArg::Var(a.into()), TermArg::Var(b.into())])
    }

    /// True if no argument is a variable.
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(|a| matches!(a, TermArg::Const(_)))
    }

    /// Variables appearing in this atom.
    pub fn variables(&self) -> impl Iterator<Item = &str> {
        self.args.iter().filter_map(|a| match a {
            TermArg::Var(v) => Some(v.as_str()),
            TermArg::Const(_) => None,
        })
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// A definite Horn clause `head :- body`. An empty body makes the head a
/// ground fact (it must then be ground to be safe).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HornClause {
    /// Derived atom.
    pub head: Atom,
    /// Conditions, conjunctive.
    pub body: Vec<Atom>,
}

impl HornClause {
    /// Builds a clause.
    pub fn new(head: Atom, body: Vec<Atom>) -> Self {
        HornClause { head, body }
    }

    /// A clause is *safe* when every head variable occurs in the body —
    /// the standard Datalog range-restriction that keeps forward
    /// chaining finite.
    pub fn is_safe(&self) -> bool {
        self.head.variables().all(|v| self.body.iter().any(|a| a.variables().any(|bv| bv == v)))
    }
}

impl fmt::Display for HornClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if !self.body.is_empty() {
            write!(f, " :- ")?;
            for (i, a) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
        }
        write!(f, ".")
    }
}

/// An ordered set of Horn clauses.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HornProgram {
    /// The clauses.
    pub clauses: Vec<HornClause>,
}

impl HornProgram {
    /// Empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a clause after checking safety.
    pub fn push(&mut self, clause: HornClause) -> Result<()> {
        if !clause.is_safe() {
            return Err(RuleError::UnsafeClause(clause.to_string()));
        }
        if !self.clauses.contains(&clause) {
            self.clauses.push(clause);
        }
        Ok(())
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// True if no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Parses a Datalog-like program (clauses end with `.`, `%` or `#`
    /// outside a quoted constant start comments).
    pub fn parse(input: &str) -> Result<Self> {
        let mut prog = HornProgram::new();
        // strip comments line-wise, keep text joined so clauses can span
        // lines; quote state carries across lines, as in `split_clauses`
        let mut text = String::new();
        let mut in_quote = false;
        for line in input.lines() {
            let comment = line.char_indices().find_map(|(i, c)| {
                in_quote ^= c == '"';
                (!in_quote && matches!(c, '%' | '#')).then_some(i)
            });
            text.push_str(&line[..comment.unwrap_or(line.len())]);
            text.push('\n');
        }
        for (i, clause_src) in split_clauses(&text).into_iter().enumerate() {
            let src = clause_src.trim();
            if src.is_empty() {
                continue;
            }
            let clause = parse_clause(src, i + 1)?;
            prog.push(clause)?;
        }
        Ok(prog)
    }

    /// The standard ONION program for a relation registry: transitivity,
    /// symmetry and inverse clauses for every declared relation, plus the
    /// semantic-implication interactions (a subclass edge semantically
    /// implies; SI composes transitively with subclass).
    pub fn standard(registry: &RelationRegistry) -> HornProgram {
        let mut prog = HornProgram::new();
        for (name, props) in registry.iter() {
            let p = pred_name(name);
            if props.transitive {
                prog.push(HornClause::new(
                    Atom::vars2(&p, "X", "Z"),
                    vec![Atom::vars2(&p, "X", "Y"), Atom::vars2(&p, "Y", "Z")],
                ))
                .expect("safe");
            }
            if props.symmetric {
                prog.push(HornClause::new(
                    Atom::vars2(&p, "Y", "X"),
                    vec![Atom::vars2(&p, "X", "Y")],
                ))
                .expect("safe");
            }
            if let Some(inv) = &props.inverse_of {
                let q = pred_name(inv);
                prog.push(HornClause::new(
                    Atom::vars2(&q, "Y", "X"),
                    vec![Atom::vars2(&p, "X", "Y")],
                ))
                .expect("safe");
                prog.push(HornClause::new(
                    Atom::vars2(&p, "Y", "X"),
                    vec![Atom::vars2(&q, "X", "Y")],
                ))
                .expect("safe");
            }
            if props.implies_semantic {
                prog.push(HornClause::new(
                    Atom::vars2("si", "X", "Y"),
                    vec![Atom::vars2(&p, "X", "Y")],
                ))
                .expect("safe");
            }
        }
        prog
    }

    /// The goal-directed program the articulation generator runs: one
    /// question with a bound target, "which terms imply which
    /// articulation terms", evaluated the magic-set way (Bancilhon,
    /// Maier, Sagiv and Ullman, PODS 1986). The caller seeds one
    /// `si(a, b)` fact per implication edge and one `art(b)` goal fact
    /// per articulation term it asks about, and
    ///
    /// ```text
    /// implies(X, B) :- si(X, B), art(B).
    /// implies(X, B) :- si(X, Y), implies(Y, B).
    /// ```
    ///
    /// chains `si` steps backwards from the goals. `si` is not closed, so
    /// only paths that end at a goal are derived, and a run takes as
    /// many rounds as the longest such path has steps. `implies(a, b)`
    /// holds exactly when `art(b)` does and `si(a, b)` is in the
    /// [`HornProgram::standard`] closure of the same `si` facts.
    pub fn implication_goal() -> HornProgram {
        let mut prog = HornProgram::new();
        prog.push(HornClause::new(
            Atom::vars2("implies", "X", "B"),
            vec![Atom::vars2("si", "X", "B"), Atom::new("art", vec![TermArg::Var("B".into())])],
        ))
        .expect("safe");
        prog.push(HornClause::new(
            Atom::vars2("implies", "X", "B"),
            vec![Atom::vars2("si", "X", "Y"), Atom::vars2("implies", "Y", "B")],
        ))
        .expect("safe");
        prog
    }
}

/// Canonical predicate name for a relation label (`SubclassOf` →
/// `subclassof`).
pub fn pred_name(relation: &str) -> String {
    relation.to_lowercase()
}

fn parse_clause(src: &str, clauseno: usize) -> Result<HornClause> {
    // the first `:-` outside a quoted constant splits head from body
    let mut in_quote = false;
    let neck = src.char_indices().find_map(|(i, c)| {
        in_quote ^= c == '"';
        (!in_quote && src[i..].starts_with(":-")).then_some(i)
    });
    let (head_src, body_src) = match neck {
        Some(i) => (&src[..i], Some(&src[i + 2..])),
        None => (src, None),
    };
    let head = parse_atom(head_src.trim(), clauseno)?;
    let mut body = Vec::new();
    if let Some(bs) = body_src {
        for atom_src in split_atoms(bs) {
            let atom_src = atom_src.trim();
            if atom_src.is_empty() {
                return Err(RuleError::Parse {
                    line: clauseno,
                    msg: "empty atom in clause body".into(),
                });
            }
            body.push(parse_atom(atom_src, clauseno)?);
        }
    }
    Ok(HornClause::new(head, body))
}

/// Splits a program on `.` terminators outside quoted strings (constants
/// such as `"carrier.Car"` contain dots).
fn split_clauses(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut in_quote = false;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_quote = !in_quote,
            '.' if !in_quote => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

/// Splits on commas at paren depth zero (commas also appear inside atoms).
fn split_atoms(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    let mut in_quote = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_quote = !in_quote,
            '(' if !in_quote => depth += 1,
            ')' if !in_quote => depth -= 1,
            ',' if depth == 0 && !in_quote => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

fn parse_atom(src: &str, clauseno: usize) -> Result<Atom> {
    let err = |msg: String| RuleError::Parse { line: clauseno, msg };
    let open = src.find('(').ok_or_else(|| err(format!("atom {src:?} missing '('")))?;
    if !src.ends_with(')') {
        return Err(err(format!("atom {src:?} missing ')'")));
    }
    let pred = src[..open].trim();
    if pred.is_empty() || !pred.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return Err(err(format!("bad predicate name {pred:?}")));
    }
    let args_src = &src[open + 1..src.len() - 1];
    let mut args = Vec::new();
    for raw in split_atoms(args_src) {
        let a = raw.trim();
        if a.is_empty() {
            return Err(err(format!("empty argument in {src:?}")));
        }
        if let Some(stripped) = a.strip_prefix('"') {
            let inner = stripped
                .strip_suffix('"')
                .ok_or_else(|| err(format!("unterminated quote in {a:?}")))?;
            args.push(TermArg::Const(inner.to_string()));
        } else if a.chars().next().expect("non-empty").is_uppercase() {
            args.push(TermArg::Var(a.to_string()));
        } else {
            args.push(TermArg::Const(a.to_string()));
        }
    }
    if args.is_empty() {
        return Err(err(format!("atom {src:?} has no arguments")));
    }
    Ok(Atom::new(pred, args))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Binary atom over two constants (a ground fact).
    fn fact(pred: &str, a: &str, b: &str) -> Atom {
        Atom::new(pred, vec![TermArg::Const(a.into()), TermArg::Const(b.into())])
    }

    #[test]
    fn atom_display_and_ground() {
        let a = fact("si", "carrier.Car", "factory.Vehicle");
        assert!(a.is_ground());
        assert_eq!(a.to_string(), "si(\"carrier.Car\", \"factory.Vehicle\")");
        let v = Atom::vars2("subclass", "X", "Y");
        assert!(!v.is_ground());
        assert_eq!(v.to_string(), "subclass(X, Y)");
    }

    #[test]
    fn safety_check() {
        let safe = HornClause::new(
            Atom::vars2("p", "X", "Z"),
            vec![Atom::vars2("p", "X", "Y"), Atom::vars2("p", "Y", "Z")],
        );
        assert!(safe.is_safe());
        let unsafe_clause =
            HornClause::new(Atom::vars2("p", "X", "W"), vec![Atom::vars2("p", "X", "Y")]);
        assert!(!unsafe_clause.is_safe());
        let mut prog = HornProgram::new();
        assert!(prog.push(unsafe_clause).is_err());
        assert!(prog.push(safe).is_ok());
    }

    #[test]
    fn ground_fact_clause_is_safe() {
        let fact = HornClause::new(fact("si", "a", "b"), vec![]);
        assert!(fact.is_safe());
    }

    #[test]
    fn parse_program() {
        let src = r#"
% transitivity
subclass(X, Z) :- subclass(X, Y), subclass(Y, Z).
si(X, Y) :- subclass(X, Y).   # subclass implies SI
subclass("carrier.Car", "carrier.Vehicle").
"#;
        let prog = HornProgram::parse(src).unwrap();
        assert_eq!(prog.len(), 3);
        assert!(prog.clauses[2].body.is_empty());
        assert!(prog.clauses[2].head.is_ground());
    }

    #[test]
    fn parse_distinguishes_vars_and_consts() {
        let prog = HornProgram::parse("p(X, car) :- q(X, \"My Car\").").unwrap();
        let c = &prog.clauses[0];
        assert_eq!(c.head.args[0], TermArg::Var("X".into()));
        assert_eq!(c.head.args[1], TermArg::Const("car".into()));
        assert_eq!(c.body[0].args[1], TermArg::Const("My Car".into()));
    }

    #[test]
    fn parse_errors() {
        for bad in ["p(X :- q(X)", "p() :- q(a)", ":- q(a)", "p(X) :- ", "(X)"] {
            assert!(HornProgram::parse(&format!("{bad}.")).is_err(), "{bad:?} should fail");
        }
        // unsafe clause rejected at parse
        assert!(HornProgram::parse("p(X, W) :- q(X, Y).").is_err());
    }

    #[test]
    fn display_parse_roundtrip() {
        let src = "subclass(X, Z) :- subclass(X, Y), subclass(Y, Z).";
        let prog = HornProgram::parse(src).unwrap();
        let printed = prog.clauses[0].to_string();
        let again = HornProgram::parse(&printed).unwrap();
        assert_eq!(prog, again);
        // comment and neck characters inside a quoted constant, in a
        // head and in a body
        for c in ["a#b", "a%b", "a:-b"] {
            let fact = HornClause::new(fact("p", c, "z"), vec![]);
            let rule = HornClause::new(
                Atom::new("q", vec![TermArg::Var("X".into())]),
                vec![Atom::new("p", vec![TermArg::Var("X".into()), TermArg::Const(c.into())])],
            );
            for clause in [fact, rule] {
                let printed = clause.to_string();
                let again = HornProgram::parse(&format!("{printed} % trailing comment"));
                assert_eq!(again.unwrap().clauses, vec![clause], "{printed}");
            }
        }
    }

    #[test]
    fn standard_program_covers_properties() {
        let reg = RelationRegistry::onion_default();
        let prog = HornProgram::standard(&reg);
        // transitivity of subclassof present
        assert!(prog.clauses.iter().any(|c| { c.head.pred == "subclassof" && c.body.len() == 2 }));
        // subclass implies si
        assert!(prog
            .clauses
            .iter()
            .any(|c| c.head.pred == "si" && c.body.len() == 1 && c.body[0].pred == "subclassof"));
    }

    #[test]
    fn implication_goal_keeps_the_closure_pairs_that_reach_a_goal() {
        use crate::atoms::AtomTable;
        use crate::infer::{FactBase, InferenceEngine};
        let goal = HornProgram::implication_goal();
        let text: Vec<String> = goal.clauses.iter().map(|c| c.to_string()).collect();
        assert_eq!(
            text,
            ["implies(X, B) :- si(X, B), art(B).", "implies(X, B) :- si(X, Y), implies(Y, B)."]
        );
        // a chain into one goal, a cycle through the other and a pair
        // that reaches no goal
        let seed = |atoms: &mut AtomTable, fb: &mut FactBase| {
            for (a, b) in [
                ("s.a", "s.b"),
                ("s.b", "s.c"),
                ("s.c", "t.x"),
                ("t.x", "s.c"),
                ("r.d", "s.a"),
                ("r.i", "r.d"),
                ("s.e", "s.f"),
                ("s.f", "r.g"),
                ("r.g", "t.y"),
                ("t.y", "t.y"),
            ] {
                fb.add(atoms, "si", &[a, b]);
            }
        };
        let goals = ["t.x", "t.y"];
        let mut atoms = AtomTable::new();
        let mut full = FactBase::new();
        seed(&mut atoms, &mut full);
        let standard = HornProgram::standard(&RelationRegistry::onion_default());
        InferenceEngine::new(standard).run(&mut atoms, &mut full).unwrap();
        let mut want: Vec<(String, String)> = full
            .query2(&atoms, "si", None, None)
            .into_iter()
            .filter(|(_, b)| goals.contains(b))
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        want.sort_unstable();
        let mut fb = FactBase::new();
        seed(&mut atoms, &mut fb);
        for g in goals {
            fb.add(&mut atoms, "art", &[g]);
        }
        InferenceEngine::new(goal).run(&mut atoms, &mut fb).unwrap();
        let mut got: Vec<(String, String)> = fb
            .query2(&atoms, "implies", None, None)
            .into_iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        got.sort_unstable();
        assert_eq!(got, want);
        for pair in [("s.a", "t.x"), ("r.i", "t.x"), ("s.e", "t.y"), ("t.y", "t.y")] {
            assert!(got.contains(&(pair.0.to_string(), pair.1.to_string())), "{pair:?}");
        }
        assert!(!fb.contains(&atoms, "si", &["s.a", "s.c"]), "si is not closed");
    }
}
