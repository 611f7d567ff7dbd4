//! Graph patterns (§3 of the paper).
//!
//! A pattern `P = (N', E')` is itself a small labeled graph; it *matches
//! into* a graph `G` when a total mapping `f` from pattern nodes to graph
//! nodes preserves node labels and maps every pattern edge onto a graph
//! edge with the same label. Pattern nodes may be wildcards and may carry
//! **variables** that capture the matched graph node, as in the paper's
//! `truck(O: owner, model)` example where `O` binds the truck-owner object.
//!
//! Two textual notations from the paper are parsed by [`Pattern::parse`]:
//!
//! * **path** notation `carrier:car:driver` — each step has an outgoing
//!   edge (any label) to the next;
//! * **attribute** notation `truck(O: owner, model)` — the parenthesised
//!   terms are attributes of the head (edges labeled `AttributeOf` *into*
//!   the head, matching the edge direction of Fig. 2); `{}` may be used in
//!   place of `()` for hierarchical objects.
//!
//! An explicit-edge notation `car -SubclassOf-> vehicle` (and the reverse
//! `vehicle <-SubclassOf- car`) is also accepted: the paper leaves the
//! full query syntax to its citation \[18\], and rules need edge-labeled
//! patterns.

use crate::error::GraphError;
use crate::rel;
use crate::Result;

/// Constraint on the label of a pattern node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeConstraint {
    /// Node label must equal (or be equivalent to, under fuzzy matching)
    /// this string.
    Label(String),
    /// Matches any node.
    Any,
}

/// Constraint on the label of a pattern edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeConstraint {
    /// Edge label must equal (or be equivalent to) this string.
    Label(String),
    /// Matches an edge with any label.
    Any,
}

/// A node of a pattern, optionally binding a variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternNode {
    /// Label constraint.
    pub constraint: NodeConstraint,
    /// Variable name capturing the matched graph node, if any.
    pub var: Option<String>,
}

/// A directed edge of a pattern between node indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternEdge {
    /// Index of the source pattern node.
    pub src: usize,
    /// Index of the target pattern node.
    pub dst: usize,
    /// Edge-label constraint.
    pub constraint: EdgeConstraint,
}

/// A graph pattern `P = (N', E')`.
///
/// ```
/// use onion_graph::{Matcher, OntGraph, Pattern};
///
/// let mut g = OntGraph::new("g");
/// g.ensure_edge_by_labels("Owner", "AttributeOf", "Trucks").unwrap();
/// g.ensure_edge_by_labels("Model", "AttributeOf", "Trucks").unwrap();
///
/// // the paper's §3 notation: truck(O: owner, model)
/// let p = Pattern::parse("Trucks(O: Owner, Model)").unwrap();
/// let matches = Matcher::new(&g).find_all(&p).unwrap();
/// assert_eq!(matches.len(), 1);
/// let owner = matches[0].get("O").unwrap();
/// assert_eq!(g.node_label(owner), Some("Owner"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Pattern {
    /// Pattern nodes; indices are referenced by [`PatternEdge`].
    pub nodes: Vec<PatternNode>,
    /// Pattern edges.
    pub edges: Vec<PatternEdge>,
}

impl Pattern {
    /// Creates an empty pattern.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a labeled node; returns its index.
    pub fn node(&mut self, label: &str) -> usize {
        self.push_node(NodeConstraint::Label(label.to_string()), None)
    }

    /// Adds a wildcard node; returns its index.
    pub fn any_node(&mut self) -> usize {
        self.push_node(NodeConstraint::Any, None)
    }

    /// Adds a labeled node that binds `var`; returns its index.
    pub fn var_node(&mut self, var: &str, label: &str) -> usize {
        self.push_node(NodeConstraint::Label(label.to_string()), Some(var.to_string()))
    }

    /// Adds a wildcard node that binds `var`; returns its index.
    pub fn any_var_node(&mut self, var: &str) -> usize {
        self.push_node(NodeConstraint::Any, Some(var.to_string()))
    }

    fn push_node(&mut self, constraint: NodeConstraint, var: Option<String>) -> usize {
        self.nodes.push(PatternNode { constraint, var });
        self.nodes.len() - 1
    }

    /// Adds an edge with a required label.
    pub fn edge(&mut self, src: usize, label: &str, dst: usize) -> &mut Self {
        self.edges.push(PatternEdge {
            src,
            dst,
            constraint: EdgeConstraint::Label(label.to_string()),
        });
        self
    }

    /// Adds an edge matching any label.
    pub fn any_edge(&mut self, src: usize, dst: usize) -> &mut Self {
        self.edges.push(PatternEdge { src, dst, constraint: EdgeConstraint::Any });
        self
    }

    /// Number of pattern nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of pattern edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Names of all variables bound by the pattern, in node order.
    pub fn variables(&self) -> Vec<&str> {
        self.nodes.iter().filter_map(|n| n.var.as_deref()).collect()
    }

    /// Validates endpoint indices and variable uniqueness.
    pub fn validate(&self) -> Result<()> {
        for (i, e) in self.edges.iter().enumerate() {
            if e.src >= self.nodes.len() || e.dst >= self.nodes.len() {
                return Err(GraphError::InvalidPattern(format!(
                    "edge {i} references node index out of range"
                )));
            }
        }
        let mut vars: Vec<&str> = self.variables();
        vars.sort_unstable();
        for w in vars.windows(2) {
            if w[0] == w[1] {
                return Err(GraphError::InvalidPattern(format!(
                    "variable {:?} bound more than once",
                    w[0]
                )));
            }
        }
        if self.nodes.is_empty() {
            return Err(GraphError::InvalidPattern("pattern has no nodes".into()));
        }
        Ok(())
    }

    /// True if every node is reachable from node 0 ignoring direction.
    /// Disconnected patterns are legal but match as cross products, which
    /// is usually a query mistake; the matcher warns via this predicate.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for e in &self.edges {
            adj[e.src].push(e.dst);
            adj[e.dst].push(e.src);
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(n) = stack.pop() {
            for &m in &adj[n] {
                if !seen[m] {
                    seen[m] = true;
                    stack.push(m);
                }
            }
        }
        seen.into_iter().all(|b| b)
    }

    /// Parses the paper's textual pattern notation. See module docs for
    /// the accepted grammar.
    pub fn parse(input: &str) -> Result<Pattern> {
        Parser::new(input).parse()
    }
}

// ----------------------------------------------------------------------
// Textual notation parser
// ----------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Colon,
    Comma,
    Open(char),       // '(' or '{'
    Close(char),      // ')' or '}'
    ArrowOut(String), // -label->
    ArrowIn(String),  // <-label-
}

/// A character of a bare label (a label cannot start with `.`).
fn ident_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '*' | '?' | '.')
}

struct Parser<'a> {
    toks: Vec<Tok>,
    pos: usize,
    input: &'a str,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser { toks: Vec::new(), pos: 0, input }
    }

    fn err(&self, msg: impl Into<String>) -> GraphError {
        GraphError::Parse { line: 1, msg: format!("{} (in pattern {:?})", msg.into(), self.input) }
    }

    fn tokenize(&mut self) -> Result<()> {
        let s = self.input;
        // a byte offset that only ever lands on a char boundary
        let mut i = 0;
        while let Some(c) = s[i..].chars().next() {
            match c {
                ' ' | '\t' => i += 1,
                ':' => {
                    self.toks.push(Tok::Colon);
                    i += 1;
                }
                ',' => {
                    self.toks.push(Tok::Comma);
                    i += 1;
                }
                '(' | '{' => {
                    self.toks.push(Tok::Open(c));
                    i += 1;
                }
                ')' | '}' => {
                    self.toks.push(Tok::Close(c));
                    i += 1;
                }
                '"' => {
                    let start = i + 1;
                    let Some(len) = s[start..].find('"') else {
                        return Err(self.err("unterminated quoted label"));
                    };
                    self.toks.push(Tok::Ident(s[start..start + len].to_string()));
                    i = start + len + 1;
                }
                '-' => {
                    // -label->
                    let rest = &s[i + 1..];
                    if let Some(gt) = rest.find("->") {
                        let label = rest[..gt].trim();
                        if label.is_empty() {
                            return Err(self.err("empty edge label in '-label->'"));
                        }
                        self.toks.push(Tok::ArrowOut(label.to_string()));
                        i += 1 + gt + 2;
                    } else {
                        return Err(self.err("dangling '-'; expected '-label->'"));
                    }
                }
                '<' => {
                    // <-label-
                    let rest = &s[i..];
                    if !rest.starts_with("<-") {
                        return Err(self.err("expected '<-label-'"));
                    }
                    let body = &rest[2..];
                    if let Some(dash) = body.find('-') {
                        let label = body[..dash].trim();
                        if label.is_empty() {
                            return Err(self.err("empty edge label in '<-label-'"));
                        }
                        self.toks.push(Tok::ArrowIn(label.to_string()));
                        i += 2 + dash + 1;
                    } else {
                        return Err(self.err("dangling '<-'; expected '<-label-'"));
                    }
                }
                _ if ident_char(c) && c != '.' => {
                    let end = s[i..]
                        .char_indices()
                        .find(|&(_, ch)| !ident_char(ch))
                        .map_or(s.len(), |(k, _)| i + k);
                    self.toks.push(Tok::Ident(s[i..end].to_string()));
                    i = end;
                }
                other => return Err(self.err(format!("unexpected character {other:?}"))),
            }
        }
        Ok(())
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next_tok(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn parse(mut self) -> Result<Pattern> {
        self.tokenize()?;
        if self.toks.is_empty() {
            return Err(self.err("empty pattern"));
        }
        let mut p = Pattern::new();
        let mut prev = self.parse_step(&mut p)?;
        loop {
            match self.peek().cloned() {
                None => break,
                Some(Tok::Colon) => {
                    self.pos += 1;
                    let next = self.parse_step(&mut p)?;
                    p.any_edge(prev, next);
                    prev = next;
                }
                Some(Tok::ArrowOut(label)) => {
                    self.pos += 1;
                    let next = self.parse_step(&mut p)?;
                    p.edge(prev, &label, next);
                    prev = next;
                }
                Some(Tok::ArrowIn(label)) => {
                    self.pos += 1;
                    let next = self.parse_step(&mut p)?;
                    p.edge(next, &label, prev);
                    prev = next;
                }
                Some(t) => return Err(self.err(format!("unexpected token {t:?}"))),
            }
        }
        p.validate()?;
        Ok(p)
    }

    /// step := [var ':'] label [ '(' args ')' ]  — `*` is the wildcard label.
    fn parse_step(&mut self, p: &mut Pattern) -> Result<usize> {
        let first = match self.next_tok() {
            Some(Tok::Ident(s)) => s,
            other => return Err(self.err(format!("expected label, got {other:?}"))),
        };
        // Variable prefix inside argument lists is handled by parse_args;
        // at step level a bare ident is always a label.
        let idx = if first == "*" { p.any_node() } else { p.node(&first) };
        if let Some(Tok::Open(open)) = self.peek().cloned() {
            self.pos += 1;
            self.parse_args(p, idx, open)?;
        }
        Ok(idx)
    }

    /// args := arg (',' arg)* ; arg := [var ':'] label [nested args].
    /// Each argument is an `AttributeOf` edge into the head node.
    fn parse_args(&mut self, p: &mut Pattern, head: usize, open: char) -> Result<()> {
        let close = if open == '(' { ')' } else { '}' };
        loop {
            let name = match self.next_tok() {
                Some(Tok::Ident(s)) => s,
                other => return Err(self.err(format!("expected argument, got {other:?}"))),
            };
            // Lookahead: `X : label` inside args means variable binding
            // (the paper's `truck(O: owner, model)`).
            let (var, label) = if matches!(self.peek(), Some(Tok::Colon)) {
                self.pos += 1;
                match self.next_tok() {
                    Some(Tok::Ident(l)) => (Some(name), l),
                    other => {
                        return Err(
                            self.err(format!("expected label after variable, got {other:?}"))
                        )
                    }
                }
            } else {
                (None, name)
            };
            let arg_idx = match (var, label.as_str()) {
                (Some(v), "*") => p.any_var_node(&v),
                (Some(v), l) => p.var_node(&v, l),
                (None, "*") => p.any_node(),
                (None, l) => p.node(l),
            };
            p.edge(arg_idx, rel::ATTRIBUTE_OF, head);
            if let Some(Tok::Open(o2)) = self.peek().cloned() {
                self.pos += 1;
                self.parse_args(p, arg_idx, o2)?;
            }
            match self.next_tok() {
                Some(Tok::Comma) => continue,
                Some(Tok::Close(c)) if c == close => return Ok(()),
                other => return Err(self.err(format!("expected ',' or '{close}', got {other:?}"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_validate() {
        let mut p = Pattern::new();
        let a = p.node("Car");
        let b = p.node("Vehicle");
        p.edge(a, "SubclassOf", b);
        assert!(p.validate().is_ok());
        assert_eq!(p.node_count(), 2);
        assert_eq!(p.edge_count(), 1);
        assert!(p.is_connected());
    }

    #[test]
    fn validate_rejects_bad_edge_index() {
        let mut p = Pattern::new();
        p.node("A");
        p.edges.push(PatternEdge { src: 0, dst: 5, constraint: EdgeConstraint::Any });
        assert!(matches!(p.validate(), Err(GraphError::InvalidPattern(_))));
    }

    #[test]
    fn validate_rejects_duplicate_variable() {
        let mut p = Pattern::new();
        let a = p.var_node("X", "A");
        let b = p.var_node("X", "B");
        p.any_edge(a, b);
        assert!(matches!(p.validate(), Err(GraphError::InvalidPattern(_))));
    }

    #[test]
    fn validate_rejects_empty_pattern() {
        assert!(Pattern::new().validate().is_err());
    }

    #[test]
    fn parse_path_notation() {
        // the paper's carrier:car:driver (ontology prefix stripped upstream)
        let p = Pattern::parse("carrier:car:driver").unwrap();
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.edge_count(), 2);
        assert!(p.edges.iter().all(|e| e.constraint == EdgeConstraint::Any));
        assert_eq!(p.nodes[0].constraint, NodeConstraint::Label("carrier".into()));
        assert_eq!(p.edges[0].src, 0);
        assert_eq!(p.edges[0].dst, 1);
    }

    #[test]
    fn parse_attribute_notation_with_variable() {
        // the paper's truck(O: owner, model)
        let p = Pattern::parse("truck(O: owner, model)").unwrap();
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.edge_count(), 2);
        assert_eq!(p.variables(), vec!["O"]);
        // owner node binds O and has AttributeOf edge into truck
        let owner = p.nodes.iter().position(|n| n.var.as_deref() == Some("O")).unwrap();
        assert_eq!(p.nodes[owner].constraint, NodeConstraint::Label("owner".into()));
        assert!(p.edges.iter().any(|e| e.src == owner
            && e.dst == 0
            && e.constraint == EdgeConstraint::Label(rel::ATTRIBUTE_OF.into())));
    }

    #[test]
    fn parse_curly_braces_hierarchical() {
        let p = Pattern::parse("truck{owner, model}").unwrap();
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.edge_count(), 2);
    }

    #[test]
    fn parse_nested_args() {
        let p = Pattern::parse("truck(owner(name), model)").unwrap();
        // truck, owner, name, model
        assert_eq!(p.node_count(), 4);
        // name -A-> owner -A-> truck, model -A-> truck
        assert_eq!(p.edge_count(), 3);
    }

    #[test]
    fn parse_explicit_edges_both_directions() {
        let p = Pattern::parse("car -SubclassOf-> vehicle").unwrap();
        assert_eq!(p.edge_count(), 1);
        assert_eq!(p.edges[0].constraint, EdgeConstraint::Label("SubclassOf".into()));
        assert_eq!((p.edges[0].src, p.edges[0].dst), (0, 1));

        let p = Pattern::parse("vehicle <-SubclassOf- car").unwrap();
        assert_eq!(p.edge_count(), 1);
        // reversed: car (node index 1) -> vehicle (node index 0)
        assert_eq!((p.edges[0].src, p.edges[0].dst), (1, 0));
    }

    #[test]
    fn parse_wildcard_nodes() {
        let p = Pattern::parse("* -SubclassOf-> vehicle").unwrap();
        assert_eq!(p.nodes[0].constraint, NodeConstraint::Any);
    }

    #[test]
    fn parse_quoted_labels() {
        let p = Pattern::parse("\"Cargo Carrier\" -SubclassOf-> transport").unwrap();
        assert_eq!(p.nodes[0].constraint, NodeConstraint::Label("Cargo Carrier".into()));
    }

    #[test]
    fn parse_errors_are_descriptive() {
        for bad in ["", "a(", "a -", "a <- b", "a(x", "a)b", "\"unterminated"] {
            let e = Pattern::parse(bad);
            assert!(e.is_err(), "pattern {bad:?} should fail");
        }
    }

    #[test]
    fn disconnected_pattern_detected() {
        let mut p = Pattern::new();
        p.node("A");
        p.node("B");
        assert!(p.validate().is_ok());
        assert!(!p.is_connected());
    }

    #[test]
    fn variables_listed_in_node_order() {
        let p = Pattern::parse("truck(O: owner, M: model)").unwrap();
        assert_eq!(p.variables(), vec!["O", "M"]);
    }

    #[test]
    fn parse_non_ascii_labels_like_their_ascii_twins() {
        for (text, ascii) in [
            ("Über", "Uber"),
            ("é", "e"),
            ("aé", "ae"),
            ("truck(é)", "truck(e)"),
            ("x -é-> y", "x -e-> y"),
            ("Straße:Fahrer", "Strasse:Fahrer"),
        ] {
            let got = format!("{:?}", Pattern::parse(text).unwrap());
            let want = format!("{:?}", Pattern::parse(ascii).unwrap());
            let got = got.replace('Ü', "U").replace('é', "e").replace('ß', "ss");
            assert_eq!(got, want, "{text:?}");
        }
        for bad in ["a → b", "→", "a(é →)", "«a»"] {
            assert!(Pattern::parse(bad).is_err(), "pattern {bad:?} should fail");
        }
    }
}
