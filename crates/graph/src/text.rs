//! Line-oriented text interchange format.
//!
//! The paper's data layer accepts "simple adjacency list representations"
//! (§2.1); this is ours. The format is line-based and diff-friendly:
//!
//! ```text
//! # comment
//! ontology carrier
//! node Car
//! node "Cargo Carrier"
//! edge Car SubclassOf Vehicle
//! ```
//!
//! * `ontology NAME` (optional, first non-comment line) names the graph;
//! * `node LABEL` declares a node;
//! * `edge SRC LABEL DST` declares an edge, creating endpoints on demand;
//! * labels containing whitespace are double-quoted; `\"` and `\\` are the
//!   only escapes;
//! * `#` starts a comment; blank lines are ignored.

use std::fmt::Write as _;

use crate::error::GraphError;
use crate::graph::OntGraph;
use crate::Result;

/// Serialises `g` in the text format (nodes first, then edges, both in
/// insertion order).
pub fn to_text(g: &OntGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "ontology {}", quote(g.name()));
    for n in g.nodes() {
        let _ = writeln!(out, "node {}", quote(n.label));
    }
    for e in g.edges() {
        let _ = writeln!(
            out,
            "edge {} {} {}",
            quote(g.node_label(e.src).expect("live")),
            quote(e.label),
            quote(g.node_label(e.dst).expect("live")),
        );
    }
    out
}

/// Parses the text format into a graph.
pub fn from_text(input: &str) -> Result<OntGraph> {
    let mut g = OntGraph::new("unnamed");
    let mut named = false;
    for (lineno, raw) in input.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let toks = split_tokens(line, lineno + 1)?;
        match toks.first().map(String::as_str) {
            Some("ontology") => {
                if toks.len() != 2 {
                    return parse_err(lineno + 1, "ontology expects exactly one name");
                }
                if named {
                    return parse_err(lineno + 1, "duplicate ontology declaration");
                }
                g.set_name(&toks[1]);
                named = true;
            }
            Some("node") => {
                if toks.len() != 2 {
                    return parse_err(lineno + 1, "node expects exactly one label");
                }
                g.ensure_node(&toks[1]).map_err(|e| at(lineno + 1, e))?;
            }
            Some("edge") => {
                if toks.len() != 4 {
                    return parse_err(lineno + 1, "edge expects SRC LABEL DST");
                }
                g.ensure_edge_by_labels(&toks[1], &toks[2], &toks[3])
                    .map_err(|e| at(lineno + 1, e))?;
            }
            Some(other) => {
                return parse_err(lineno + 1, format!("unknown directive {other:?}"));
            }
            None => unreachable!("empty lines filtered"),
        }
    }
    Ok(g)
}

fn parse_err<T>(line: usize, msg: impl Into<String>) -> Result<T> {
    Err(GraphError::Parse { line, msg: msg.into() })
}

fn at(line: usize, e: GraphError) -> GraphError {
    GraphError::Parse { line, msg: e.to_string() }
}

/// `s` as one token of the format: bare when it is non-empty and holds
/// no whitespace, `"`, `#` or `\`, otherwise double-quoted with `"` and
/// `\` backslash-escaped. [`split_tokens`] reads it back unchanged.
pub fn quote(s: &str) -> String {
    if !s.is_empty() && s.chars().all(|c| !c.is_whitespace() && c != '"' && c != '#' && c != '\\') {
        s.to_string()
    } else {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            if c == '"' || c == '\\' {
                out.push('\\');
            }
            out.push(c);
        }
        out.push('"');
        out
    }
}

/// Splits one line of the format into tokens: whitespace separates
/// bare tokens, `#` outside quotes starts a comment, and a quoted token
/// is unescaped (`\"` and `\\` are the only escapes). An unterminated
/// quote or any other escape is a [`GraphError::Parse`] at `lineno`.
pub fn split_tokens(line: &str, lineno: usize) -> Result<Vec<String>> {
    let mut toks = Vec::new();
    let mut chars = line.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '#' {
            break; // trailing comment
        } else if c == '"' {
            chars.next();
            let mut tok = String::new();
            let mut closed = false;
            while let Some(ch) = chars.next() {
                match ch {
                    '\\' => match chars.next() {
                        Some(esc @ ('"' | '\\')) => tok.push(esc),
                        _ => {
                            return parse_err(lineno, "bad escape in quoted label");
                        }
                    },
                    '"' => {
                        closed = true;
                        break;
                    }
                    other => tok.push(other),
                }
            }
            if !closed {
                return parse_err(lineno, "unterminated quoted label");
            }
            toks.push(tok);
        } else {
            let mut tok = String::new();
            while let Some(&ch) = chars.peek() {
                if ch.is_whitespace() || ch == '#' {
                    break;
                }
                tok.push(ch);
                chars.next();
            }
            toks.push(tok);
        }
    }
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel;

    #[test]
    fn roundtrip_simple() {
        let mut g = OntGraph::new("carrier");
        g.ensure_edge_by_labels("Car", rel::SUBCLASS_OF, "Vehicle").unwrap();
        g.add_node("Lonely").unwrap();
        let text = to_text(&g);
        let g2 = from_text(&text).unwrap();
        assert_eq!(g2.name(), "carrier");
        assert!(g.same_shape(&g2));
    }

    #[test]
    fn roundtrip_quoted_labels() {
        let mut g = OntGraph::new("my ontology");
        g.ensure_edge_by_labels("Cargo Carrier", "Subclass Of", "Goods \"Vehicle\"").unwrap();
        let text = to_text(&g);
        let g2 = from_text(&text).unwrap();
        assert!(g.same_shape(&g2));
        assert_eq!(g2.name(), "my ontology");
        assert!(g2.contains_label("Goods \"Vehicle\""));
    }

    #[test]
    fn parse_with_comments_and_blanks() {
        let input = r#"
# a carrier fragment
ontology carrier

node Car          # trailing comment
edge Car SubclassOf Vehicle
"#;
        let g = from_text(input).unwrap();
        assert_eq!(g.name(), "carrier");
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn edge_creates_endpoints() {
        let g = from_text("edge A S B").unwrap();
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn duplicate_node_lines_are_idempotent() {
        let g = from_text("node A\nnode A\n").unwrap();
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = from_text("node A\nbogus X\n").unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        for bad in [
            "node",
            "node A B",
            "edge A B",
            "ontology",
            "ontology a\nontology b",
            "node \"unterminated",
            "node \"bad\\escape\"",
        ] {
            assert!(from_text(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = from_text("").unwrap();
        assert!(g.is_empty());
        assert_eq!(g.name(), "unnamed");
    }
}
