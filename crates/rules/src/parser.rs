//! Parser for the textual articulation-rule syntax.
//!
//! Grammar (one rule per line; `#` comments):
//!
//! ```text
//! rule      := functional | implication
//! functional:= IDENT "(" ")" ":" term "=>" term
//! implication := expr ("=>" expr)+
//! expr      := orexpr
//! orexpr    := andexpr ("|" andexpr)*            # also the word "or"
//! andexpr   := atom ("&" atom)*                  # also "^" and the word "and"
//! atom      := term | "(" expr ")"
//! term      := [IDENT "."] IDENT                 # carrier.Car, quoted labels allowed
//! ```
//!
//! `and` and `or` are **reserved words** (operator spellings); to use
//! them as term or ontology names, quote them: `"or".Thing`.
//!
//! Matching the paper's examples:
//!
//! ```text
//! carrier.Car => factory.Vehicle
//! carrier.Car => transport.PassengerCar => factory.Vehicle
//! (factory.CargoCarrier & factory.Vehicle) => carrier.Trucks
//! factory.Vehicle => (carrier.Cars | carrier.Trucks)
//! DGToEuroFn(): carrier.DutchGuilders => transport.Euro
//! ```

use crate::ast::{ArticulationRule, RuleExpr, RuleSet, Term};
use crate::{Result, RuleError};

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Dot,
    Implies, // =>
    And,     // & ^ and
    Or,      // | or
    LParen,
    RParen,
    Colon,
    Unit, // ()
}

fn tokenize(line: &str, lineno: usize) -> Result<Vec<Tok>> {
    let mut toks = Vec::new();
    let b: Vec<char> = line.chars().collect();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match c {
            _ if c.is_whitespace() => i += 1,
            '#' => break,
            '.' => {
                toks.push(Tok::Dot);
                i += 1;
            }
            '&' | '^' => {
                toks.push(Tok::And);
                i += 1;
            }
            '|' => {
                toks.push(Tok::Or);
                i += 1;
            }
            ':' => {
                toks.push(Tok::Colon);
                i += 1;
            }
            '(' => {
                if b.get(i + 1) == Some(&')') {
                    toks.push(Tok::Unit);
                    i += 2;
                } else {
                    toks.push(Tok::LParen);
                    i += 1;
                }
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            '=' => {
                if b.get(i + 1) == Some(&'>') {
                    toks.push(Tok::Implies);
                    i += 2;
                } else {
                    return Err(RuleError::Parse {
                        line: lineno,
                        msg: "expected '=>' after '='".into(),
                    });
                }
            }
            '"' => {
                let mut j = i + 1;
                let mut s = String::new();
                while j < b.len() && b[j] != '"' {
                    s.push(b[j]);
                    j += 1;
                }
                if j >= b.len() {
                    return Err(RuleError::Parse {
                        line: lineno,
                        msg: "unterminated quoted term".into(),
                    });
                }
                toks.push(Tok::Ident(s));
                i = j + 1;
            }
            _ if c.is_alphanumeric() || c == '_' => {
                let mut j = i;
                let mut s = String::new();
                while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                    s.push(b[j]);
                    j += 1;
                }
                match s.as_str() {
                    "and" => toks.push(Tok::And),
                    "or" => toks.push(Tok::Or),
                    _ => toks.push(Tok::Ident(s)),
                }
                i = j;
            }
            other => {
                return Err(RuleError::Parse {
                    line: lineno,
                    msg: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(toks)
}

struct P {
    toks: Vec<Tok>,
    pos: usize,
    line: usize,
}

impl P {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(RuleError::Parse { line: self.line, msg: msg.into() })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok) -> Result<()> {
        if self.eat(&t) {
            Ok(())
        } else {
            self.err(format!("expected {t:?}, found {:?}", self.peek()))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek().cloned() {
            Some(Tok::Ident(s)) => {
                self.pos += 1;
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    /// term := IDENT [ '.' IDENT ]
    fn term(&mut self) -> Result<Term> {
        let first = self.ident()?;
        if self.eat(&Tok::Dot) {
            let name = self.ident()?;
            Ok(Term::qualified(&first, &name))
        } else {
            Ok(Term::unqualified(&first))
        }
    }

    fn atom(&mut self) -> Result<RuleExpr> {
        if self.eat(&Tok::LParen) {
            let e = self.or_expr()?;
            self.expect(Tok::RParen)?;
            Ok(e)
        } else {
            Ok(RuleExpr::Term(self.term()?))
        }
    }

    fn and_expr(&mut self) -> Result<RuleExpr> {
        let first = self.atom()?;
        if self.peek() != Some(&Tok::And) {
            return Ok(first);
        }
        let mut xs = vec![first];
        while self.eat(&Tok::And) {
            xs.push(self.atom()?);
        }
        Ok(RuleExpr::And(xs))
    }

    fn or_expr(&mut self) -> Result<RuleExpr> {
        let first = self.and_expr()?;
        if self.peek() != Some(&Tok::Or) {
            return Ok(first);
        }
        let mut xs = vec![first];
        while self.eat(&Tok::Or) {
            xs.push(self.and_expr()?);
        }
        Ok(RuleExpr::Or(xs))
    }

    fn rule(&mut self) -> Result<ArticulationRule> {
        // functional form: IDENT () : term => term
        if matches!(self.peek(), Some(Tok::Ident(_)))
            && self.toks.get(self.pos + 1) == Some(&Tok::Unit)
        {
            let function = self.ident()?;
            self.expect(Tok::Unit)?;
            self.expect(Tok::Colon)?;
            let from = self.term()?;
            self.expect(Tok::Implies)?;
            let to = self.term()?;
            if self.peek().is_some() {
                return self.err("trailing tokens after functional rule");
            }
            return Ok(ArticulationRule::Functional { function, from, to });
        }
        let mut chain = vec![self.or_expr()?];
        while self.eat(&Tok::Implies) {
            chain.push(self.or_expr()?);
        }
        if chain.len() < 2 {
            return self.err("expected '=>' in rule");
        }
        if self.peek().is_some() {
            return self.err(format!("trailing tokens {:?}", self.peek()));
        }
        Ok(ArticulationRule::Implication { chain })
    }
}

/// Parses one rule from a single line.
pub fn parse_rule(line: &str) -> Result<ArticulationRule> {
    parse_rule_at(line, 1)
}

fn parse_rule_at(line: &str, lineno: usize) -> Result<ArticulationRule> {
    let toks = tokenize(line, lineno)?;
    if toks.is_empty() {
        return Err(RuleError::Parse { line: lineno, msg: "empty rule".into() });
    }
    let mut p = P { toks, pos: 0, line: lineno };
    p.rule()
}

/// Parses a rule file: one rule per line, `#` comments, blank lines
/// ignored. Duplicate rules are dropped (RuleSet semantics).
///
/// ```
/// let rules = onion_rules::parse_rules(
///     "carrier.Car => factory.Vehicle\n\
///      (factory.CargoCarrier & factory.Vehicle) => carrier.Trucks\n\
///      DGToEuroFn(): carrier.DutchGuilders => transport.Euro\n",
/// )
/// .unwrap();
/// assert_eq!(rules.len(), 3);
/// assert_eq!(rules.ontologies(), vec!["carrier", "factory", "transport"]);
/// ```
pub fn parse_rules(input: &str) -> Result<RuleSet> {
    let mut rs = RuleSet::new();
    for (i, raw) in input.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        rs.push(parse_rule_at(line, i + 1)?);
    }
    Ok(rs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_implication() {
        let r = parse_rule("carrier.Car => factory.Vehicle").unwrap();
        assert_eq!(r.to_string(), "carrier.Car => factory.Vehicle");
        assert!(r.is_simple_implication());
    }

    #[test]
    fn cascaded_implication() {
        let r = parse_rule("carrier.Car => transport.PassengerCar => factory.Vehicle").unwrap();
        match &r {
            ArticulationRule::Implication { chain } => assert_eq!(chain.len(), 3),
            _ => panic!("expected implication"),
        }
    }

    #[test]
    fn conjunction_rule_from_paper() {
        let r = parse_rule("(factory.CargoCarrier & factory.Vehicle) => carrier.Trucks").unwrap();
        match &r {
            ArticulationRule::Implication { chain } => {
                assert!(matches!(&chain[0], RuleExpr::And(xs) if xs.len() == 2));
                assert!(chain[1].is_simple());
            }
            _ => panic!("expected implication"),
        }
        assert_eq!(r.to_string(), "(factory.CargoCarrier & factory.Vehicle) => carrier.Trucks");
    }

    #[test]
    fn disjunction_rule_from_paper() {
        let r = parse_rule("factory.Vehicle => (carrier.Cars | carrier.Trucks)").unwrap();
        match &r {
            ArticulationRule::Implication { chain } => {
                assert!(matches!(&chain[1], RuleExpr::Or(xs) if xs.len() == 2));
            }
            _ => panic!("expected implication"),
        }
    }

    #[test]
    fn word_operators_and_caret() {
        let a = parse_rule("(a.X and a.Y) => b.Z").unwrap();
        let b = parse_rule("(a.X & a.Y) => b.Z").unwrap();
        let c = parse_rule("(a.X ^ a.Y) => b.Z").unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
        let d = parse_rule("a.X => (b.Y or b.Z)").unwrap();
        let e = parse_rule("a.X => (b.Y | b.Z)").unwrap();
        assert_eq!(d, e);
    }

    #[test]
    fn functional_rule_from_paper() {
        let r = parse_rule("DGToEuroFn(): carrier.DutchGuilders => transport.Euro").unwrap();
        match &r {
            ArticulationRule::Functional { function, from, to } => {
                assert_eq!(function, "DGToEuroFn");
                assert_eq!(from.to_string(), "carrier.DutchGuilders");
                assert_eq!(to.to_string(), "transport.Euro");
            }
            _ => panic!("expected functional"),
        }
    }

    #[test]
    fn unqualified_terms() {
        let r = parse_rule("Owner => Person").unwrap();
        match &r {
            ArticulationRule::Implication { chain } => {
                let ts = chain[0].terms();
                assert!(ts[0].ontology.is_none());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn quoted_terms() {
        let r = parse_rule("carrier.\"Cargo Carrier\" => factory.Goods").unwrap();
        assert_eq!(&*r.terms()[0].name, "Cargo Carrier");
    }

    #[test]
    fn nested_parens_and_mixed_ops() {
        let r = parse_rule("((a.X & a.Y) | a.Z) => b.W").unwrap();
        match &r {
            ArticulationRule::Implication { chain } => match &chain[0] {
                RuleExpr::Or(xs) => {
                    assert!(matches!(&xs[0], RuleExpr::And(_)));
                    assert!(matches!(&xs[1], RuleExpr::Term(_)));
                }
                other => panic!("expected Or, got {other:?}"),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        let r = parse_rule("a.X & a.Y | a.Z => b.W").unwrap();
        match &r {
            ArticulationRule::Implication { chain } => {
                assert!(matches!(&chain[0], RuleExpr::Or(_)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "a.X",              // no implication
            "a.X =>",           // dangling
            "=> b.Y",           // missing lhs
            "a.X = b.Y",        // bad arrow
            "a.X => (b.Y",      // unclosed paren
            "F(: a.X => b.Y",   // bad functional
            "F(): a.X => ",     // functional missing rhs
            "a.X => b.Y extra", // trailing
            "a..X => b.Y",      // double dot
            "\"unterminated => b.Y",
            "a.X $ b.Y", // bad char
        ] {
            assert!(parse_rule(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parse_rules_file() {
        let text = r#"
# articulation for the transport example
carrier.Car => factory.Vehicle
carrier.Car => factory.Vehicle      # duplicate dropped

(factory.CargoCarrier & factory.Vehicle) => carrier.Trucks
PSToEuroFn(): carrier.PS => transport.Euro
"#;
        let rs = parse_rules(text).unwrap();
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn parse_rules_error_reports_line() {
        let text = "carrier.Car => factory.Vehicle\nbogus line here\n";
        match parse_rules(text).unwrap_err() {
            RuleError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn display_parse_roundtrip() {
        for src in [
            "carrier.Car => factory.Vehicle",
            "carrier.Car => transport.PassengerCar => factory.Vehicle",
            "(factory.CargoCarrier & factory.Vehicle) => carrier.Trucks",
            "factory.Vehicle => (carrier.Cars | carrier.Trucks)",
            "DGToEuroFn(): carrier.DutchGuilders => transport.Euro",
        ] {
            let r = parse_rule(src).unwrap();
            let r2 = parse_rule(&r.to_string()).unwrap();
            assert_eq!(r, r2, "roundtrip failed for {src}");
        }
    }
}
