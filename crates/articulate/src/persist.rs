//! Articulation persistence.
//!
//! "The source ontologies are independently maintained and the
//! articulation is the only thing that is physically stored." (§2) This
//! module provides that physical form: a line-oriented text format
//! holding the articulation ontology, the semantic bridges (with kind),
//! and the confirmed rule set. The unified ontology is *never* stored —
//! it is recomputed from sources + articulation on demand.
//!
//! ```text
//! articulation transport
//! # --- articulation ontology (graph text format, indented) ---
//! node Vehicle
//! edge Vehicle SubclassOf Transportation
//! # --- bridges ---
//! bridge rule carrier.Cars SIBridge transport.Vehicle
//! bridge functional carrier.DutchGuilders DGToEuroFn transport.Euro
//! # --- rules ---
//! rule carrier.Cars => factory.Vehicle
//! # --- rule support ---
//! support "carrier.Cars => factory.Vehicle" carrier.Cars SIBridge transport.Vehicle
//! ```
//!
//! A `support` line records that a rule (by its display form) generated
//! a bridge, so incremental maintenance retracts the same bridges after
//! a reload as before it (§5.3).
//!
//! Names, labels, bridge endpoints and rule keys are written and read
//! back with the graph text format's [`quote`] and [`split_tokens`], so
//! any label without a line break round-trips; a `rule` line's body is
//! rule syntax and is parsed whole.

use std::sync::Arc;

use onion_graph::text::{quote, split_tokens};
use onion_graph::GraphError;
use onion_rules::{parser, Term};

use crate::articulation::{Articulation, Bridge, BridgeKind};
use crate::{ArticulateError, Result};

fn kind_str(k: BridgeKind) -> &'static str {
    match k {
        BridgeKind::Rule => "rule",
        BridgeKind::Equivalence => "equivalence",
        BridgeKind::Derived => "derived",
        BridgeKind::Functional => "functional",
    }
}

fn parse_kind(s: &str) -> Option<BridgeKind> {
    match s {
        "rule" => Some(BridgeKind::Rule),
        "equivalence" => Some(BridgeKind::Equivalence),
        "derived" => Some(BridgeKind::Derived),
        "functional" => Some(BridgeKind::Functional),
        _ => None,
    }
}

/// Serialises an articulation to the text format.
pub fn to_text(art: &Articulation) -> String {
    let mut out = format!("articulation {}\n", quote(art.name()));
    out.push_str("# --- articulation ontology ---\n");
    let g = art.ontology.graph();
    for n in g.nodes() {
        out.push_str(&format!("node {}\n", quote(n.label)));
    }
    for e in g.edges() {
        out.push_str(&format!(
            "edge {} {} {}\n",
            quote(g.node_label(e.src).expect("live")),
            quote(e.label),
            quote(g.node_label(e.dst).expect("live")),
        ));
    }
    out.push_str("# --- bridges ---\n");
    for b in &art.bridges {
        out.push_str(&format!(
            "bridge {} {} {} {}\n",
            kind_str(b.kind),
            quote(&b.src.to_string()),
            quote(&b.label),
            quote(&b.dst.to_string()),
        ));
    }
    out.push_str("# --- rules ---\n");
    for r in art.rules.iter() {
        out.push_str(&format!("rule {r}\n"));
    }
    out.push_str("# --- rule support ---\n");
    for ((src, label, dst), rule) in &art.support {
        out.push_str(&format!(
            "support {} {} {} {}\n",
            quote(rule),
            quote(&src.to_string()),
            quote(label),
            quote(&dst.to_string()),
        ));
    }
    out
}

fn parse_err(line: usize, msg: impl Into<String>) -> ArticulateError {
    ArticulateError::Graph(GraphError::Parse { line, msg: msg.into() })
}

fn parse_qualified(s: &str, line: usize) -> Result<Term> {
    match s.split_once('.') {
        Some((o, n)) if !o.is_empty() && !n.is_empty() => Ok(Term::qualified(o, n)),
        _ => Err(parse_err(line, format!("bridge endpoint {s:?} must be qualified onto.Term"))),
    }
}

/// Parses the text format back into an articulation.
///
/// Restored bridges carry their persisted kinds, and each `support` line
/// restores one rule-support pair as written. A file without `support`
/// lines loads with empty support, so dropping a rule then retracts no
/// bridge.
pub fn from_text(input: &str) -> Result<Articulation> {
    let mut art: Option<Articulation> = None;
    for (lineno, raw) in input.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = lineno + 1;
        // a rule's body is rule syntax, not tokens: it is parsed whole
        let (keyword, body) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        if keyword == "rule" {
            let art = art.as_mut().ok_or_else(|| parse_err(lineno, "missing header"))?;
            let body = body.trim_start();
            if body.is_empty() {
                return Err(parse_err(lineno, "rule expects a bare keyword and a rule"));
            }
            let rule = parser::parse_rule(body).map_err(|e| parse_err(lineno, e.to_string()))?;
            art.rules.push(rule);
            continue;
        }
        let toks = split_tokens(line, lineno)?;
        match toks.first().map(String::as_str) {
            Some("articulation") => {
                if art.is_some() {
                    return Err(parse_err(lineno, "duplicate articulation header"));
                }
                if toks.len() != 2 {
                    return Err(parse_err(lineno, "articulation expects a name"));
                }
                art = Some(Articulation::new(&toks[1]));
            }
            Some("node") => {
                let art = art.as_mut().ok_or_else(|| parse_err(lineno, "missing header"))?;
                if toks.len() != 2 {
                    return Err(parse_err(lineno, "node expects one label"));
                }
                Arc::make_mut(&mut art.ontology).graph_mut().ensure_node(&toks[1])?;
            }
            Some("edge") => {
                let art = art.as_mut().ok_or_else(|| parse_err(lineno, "missing header"))?;
                if toks.len() != 4 {
                    return Err(parse_err(lineno, "edge expects SRC LABEL DST"));
                }
                Arc::make_mut(&mut art.ontology)
                    .graph_mut()
                    .ensure_edge_by_labels(&toks[1], &toks[2], &toks[3])?;
            }
            Some("bridge") => {
                let art = art.as_mut().ok_or_else(|| parse_err(lineno, "missing header"))?;
                if toks.len() != 5 {
                    return Err(parse_err(lineno, "bridge expects KIND SRC LABEL DST"));
                }
                let kind = parse_kind(&toks[1]).ok_or_else(|| {
                    parse_err(lineno, format!("unknown bridge kind {:?}", toks[1]))
                })?;
                let src = parse_qualified(&toks[2], lineno)?;
                let dst = parse_qualified(&toks[4], lineno)?;
                art.add_bridge(Bridge { src, label: toks[3].as_str().into(), dst, kind });
            }
            Some("support") => {
                let art = art.as_mut().ok_or_else(|| parse_err(lineno, "missing header"))?;
                if toks.len() != 5 {
                    return Err(parse_err(lineno, "support expects RULE SRC LABEL DST"));
                }
                let src = parse_qualified(&toks[2], lineno)?;
                let dst = parse_qualified(&toks[4], lineno)?;
                art.support.insert(((src, toks[3].as_str().into(), dst), toks[1].as_str().into()));
            }
            Some(other) => return Err(parse_err(lineno, format!("unknown directive {other:?}"))),
            None => unreachable!("blank lines filtered"),
        }
    }
    art.ok_or_else(|| parse_err(0, "empty articulation file"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::ArticulationGenerator;
    use onion_ontology::examples::{carrier, factory, fig2_rules};

    fn fig2_art() -> Articulation {
        let c = carrier();
        let f = factory();
        ArticulationGenerator::new().generate(&fig2_rules(), &[&c, &f]).unwrap()
    }

    #[test]
    fn roundtrip_fig2() {
        let art = fig2_art();
        let text = to_text(&art);
        let back = from_text(&text).unwrap();
        assert_eq!(back.name(), art.name());
        assert!(back.ontology.graph().same_shape(art.ontology.graph()));
        assert_eq!(back.bridges, art.bridges);
        assert_eq!(back.rules, art.rules);
    }

    /// The rule keys of `art`'s rules plus one no rule has.
    fn rule_keys(art: &Articulation) -> Vec<String> {
        art.rules.iter().map(|r| r.to_string()).chain(["x.A => y.B".to_string()]).collect()
    }

    #[test]
    fn reload_keeps_rule_support() {
        let art = fig2_art();
        let back = from_text(&to_text(&art)).unwrap();
        let mut retracted = 0;
        for key in rule_keys(&art) {
            let (mut a, mut b) = (art.clone(), back.clone());
            let n = a.drop_rule_support(&key);
            assert_eq!(b.drop_rule_support(&key), n, "{key}");
            assert_eq!(b.bridges, a.bridges, "{key}");
            retracted += n;
        }
        assert!(retracted > 0, "some rule supports a bridge of its own");
    }

    #[test]
    fn a_file_without_support_lines_loads_with_empty_support() {
        let art = fig2_art();
        let old: String = to_text(&art)
            .lines()
            .filter(|l| !l.starts_with("support ") && !l.ends_with("rule support ---"))
            .map(|l| format!("{l}\n"))
            .collect();
        let mut back = from_text(&old).unwrap();
        assert_eq!(back.bridges, art.bridges);
        for key in rule_keys(&art) {
            assert_eq!(back.drop_rule_support(&key), 0, "{key}");
        }
        assert_eq!(back.bridges, art.bridges);
    }

    #[test]
    fn restored_articulation_still_unifies() {
        let c = carrier();
        let f = factory();
        let art = fig2_art();
        let back = from_text(&to_text(&art)).unwrap();
        let u1 = art.unified(&[&c, &f]).unwrap();
        let u2 = back.unified(&[&c, &f]).unwrap();
        assert!(u1.same_shape(&u2));
    }

    #[test]
    fn bridge_kinds_preserved() {
        let art = fig2_art();
        let back = from_text(&to_text(&art)).unwrap();
        for kind in [BridgeKind::Rule, BridgeKind::Equivalence, BridgeKind::Functional] {
            let orig = art.bridges.iter().filter(|b| b.kind == kind).count();
            let got = back.bridges.iter().filter(|b| b.kind == kind).count();
            assert_eq!(orig, got, "{kind:?} count");
        }
    }

    #[test]
    fn quoted_labels_roundtrip() {
        let mut art = Articulation::new("my art");
        Arc::make_mut(&mut art.ontology).graph_mut().ensure_node("Cargo Carrier").unwrap();
        art.add_bridge(Bridge::si(
            Term::qualified("left side", "A Term"),
            Term::qualified("my art", "Cargo Carrier"),
            BridgeKind::Rule,
        ));
        let back = from_text(&to_text(&art)).unwrap();
        assert_eq!(back.name(), "my art");
        assert_eq!(back.bridges, art.bridges);
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "node X\n",                                     // before header
            "articulation a\narticulation b\n",             // duplicate
            "articulation a\nbridge rule x SIBridge b.Y\n", // wrong arity
            "articulation a\nbridge magic a.X S b.Y\n",     // bad kind
            "articulation a\nbridge rule unqualified S b.Y\n",
            "articulation a\nrule not a rule\n",
            "articulation a\nwhatever\n",
            "support r x.A SIBridge b.Y\n", // before header
            "articulation a\nsupport r x.A SIBridge\n", // wrong arity
            "articulation a\nsupport r x.A S b.Y extra\n", // wrong arity
            "articulation a\nsupport r unqualified S b.Y\n", // bad endpoint
            "articulation a\nsupport \"r x.A S b.Y\n", // open quote
        ] {
            assert!(from_text(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rule_keyword_takes_any_whitespace() {
        let spaced = from_text("articulation a\nrule x.A => y.B\n").unwrap();
        let tabbed = from_text("articulation a\nrule\tx.A => y.B\n").unwrap();
        assert_eq!(tabbed.rules, spaced.rules);
        assert_eq!(tabbed.rules.len(), 1);
    }

    #[test]
    fn quoted_or_empty_rule_is_a_parse_error() {
        for (bad, line) in [
            ("articulation a\n\"rule\" x.A => y.B\n", 2),
            ("articulation a\nrule\n", 2),
            ("articulation a\n# c\n  rule \t \n", 3),
        ] {
            match from_text(bad) {
                Err(ArticulateError::Graph(GraphError::Parse { line: got, .. })) => {
                    assert_eq!(got, line, "{bad:?}")
                }
                other => panic!("{bad:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn empty_articulation_roundtrips() {
        let art = Articulation::new("t");
        let back = from_text(&to_text(&art)).unwrap();
        assert_eq!(back.name(), "t");
        assert!(back.bridges.is_empty());
        assert!(back.rules.is_empty());
    }
}
