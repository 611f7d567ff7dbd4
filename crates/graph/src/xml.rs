//! Minimal XML interchange for ontology graphs.
//!
//! §2.1 of the paper: "We accept ontologies based on IDL specifications
//! and XML-based documents, as well as simple adjacency list
//! representations." This module implements the XML leg with a small,
//! self-contained parser covering the subset we emit:
//!
//! ```xml
//! <?xml version="1.0"?>
//! <ontology name="carrier">
//!   <node label="Car"/>
//!   <node label="Vehicle">
//!     <node label="SUV" rel="SubclassOf"/>   <!-- nested ⇒ edge child→parent -->
//!   </node>
//!   <edge from="Car" label="SubclassOf" to="Vehicle"/>
//! </ontology>
//! ```
//!
//! Supported XML features: elements, attributes (single or double
//! quoted), self-closing tags, comments, an optional XML declaration, and
//! the five predefined entities. Nested `<node>` elements express an edge
//! from the child to the enclosing parent, labeled by the child's `rel`
//! attribute (default `SubclassOf`) — the natural rendering of a
//! hierarchical XML document as a specialisation tree.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::error::GraphError;
use crate::graph::OntGraph;
use crate::rel;
use crate::Result;

// ----------------------------------------------------------------------
// Writer
// ----------------------------------------------------------------------

fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    out
}

/// Serialises `g` as flat XML (`<node>` then `<edge>` elements).
pub fn to_xml(g: &OntGraph) -> String {
    let mut out = String::from("<?xml version=\"1.0\"?>\n");
    let _ = writeln!(out, "<ontology name=\"{}\">", xml_escape(g.name()));
    for n in g.nodes() {
        let _ = writeln!(out, "  <node label=\"{}\"/>", xml_escape(n.label));
    }
    for e in g.edges() {
        let _ = writeln!(
            out,
            "  <edge from=\"{}\" label=\"{}\" to=\"{}\"/>",
            xml_escape(g.node_label(e.src).expect("live")),
            xml_escape(e.label),
            xml_escape(g.node_label(e.dst).expect("live")),
        );
    }
    out.push_str("</ontology>\n");
    out
}

// ----------------------------------------------------------------------
// Tokenizer / parser
// ----------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum XmlEvent {
    Open { name: String, attrs: HashMap<String, String>, self_closing: bool },
    Close { name: String },
}

struct XmlScanner<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> XmlScanner<'a> {
    fn new(src: &'a str) -> Self {
        XmlScanner { src, pos: 0, line: 1 }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(GraphError::Parse { line: self.line, msg: msg.into() })
    }

    fn bump_lines(&mut self, upto: usize) {
        self.line += self.src[self.pos..upto].matches('\n').count();
        self.pos = upto;
    }

    fn skip_ws_and_text(&mut self) {
        // we ignore character data between elements
        while self.pos < self.src.len() && !self.src[self.pos..].starts_with('<') {
            let next =
                self.src[self.pos..].find('<').map(|i| self.pos + i).unwrap_or(self.src.len());
            self.bump_lines(next);
        }
    }

    fn next_event(&mut self) -> Result<Option<XmlEvent>> {
        loop {
            self.skip_ws_and_text();
            if self.pos >= self.src.len() {
                return Ok(None);
            }
            let rest = &self.src[self.pos..];
            if rest.starts_with("<?") {
                match rest.find("?>") {
                    Some(end) => {
                        self.bump_lines(self.pos + end + 2);
                        continue;
                    }
                    None => return self.err("unterminated XML declaration"),
                }
            }
            if rest.starts_with("<!--") {
                match rest.find("-->") {
                    Some(end) => {
                        self.bump_lines(self.pos + end + 3);
                        continue;
                    }
                    None => return self.err("unterminated comment"),
                }
            }
            if rest.starts_with("</") {
                let end = match rest.find('>') {
                    Some(e) => e,
                    None => return self.err("unterminated close tag"),
                };
                let name = rest[2..end].trim().to_string();
                self.bump_lines(self.pos + end + 1);
                return Ok(Some(XmlEvent::Close { name }));
            }
            // open tag
            let end = match rest.find('>') {
                Some(e) => e,
                None => return self.err("unterminated tag"),
            };
            let inner = &rest[1..end];
            let (inner, self_closing) = match inner.strip_suffix('/') {
                Some(trimmed) => (trimmed, true),
                None => (inner, false),
            };
            let mut parts = inner.splitn(2, char::is_whitespace);
            let name = parts.next().unwrap_or("").trim().to_string();
            if name.is_empty() {
                return self.err("empty tag name");
            }
            let attrs = match parts.next() {
                Some(a) => self.parse_attrs(a)?,
                None => HashMap::new(),
            };
            self.bump_lines(self.pos + end + 1);
            return Ok(Some(XmlEvent::Open { name, attrs, self_closing }));
        }
    }

    fn parse_attrs(&self, s: &str) -> Result<HashMap<String, String>> {
        let mut attrs = HashMap::new();
        let b = s.as_bytes();
        let mut i = 0;
        while i < b.len() {
            while i < b.len() && (b[i] as char).is_whitespace() {
                i += 1;
            }
            if i >= b.len() {
                break;
            }
            let key_start = i;
            while i < b.len() && b[i] as char != '=' && !(b[i] as char).is_whitespace() {
                i += 1;
            }
            let key = s[key_start..i].to_string();
            while i < b.len() && (b[i] as char).is_whitespace() {
                i += 1;
            }
            if i >= b.len() || b[i] as char != '=' {
                return self.err(format!("attribute {key:?} missing '='"));
            }
            i += 1;
            while i < b.len() && (b[i] as char).is_whitespace() {
                i += 1;
            }
            if i >= b.len() || (b[i] as char != '"' && b[i] as char != '\'') {
                return self.err(format!("attribute {key:?} value must be quoted"));
            }
            let quote = b[i] as char;
            i += 1;
            let val_start = i;
            while i < b.len() && b[i] as char != quote {
                i += 1;
            }
            if i >= b.len() {
                return self.err(format!("unterminated value for attribute {key:?}"));
            }
            let value = unescape_entities(&s[val_start..i], self.line)?;
            i += 1;
            if attrs.insert(key.clone(), value).is_some() {
                return self.err(format!("duplicate attribute {key:?}"));
            }
        }
        Ok(attrs)
    }
}

fn unescape_entities(s: &str, line: usize) -> Result<String> {
    if !s.contains('&') {
        return Ok(s.to_string());
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let semi =
            rest.find(';').ok_or(GraphError::Parse { line, msg: "unterminated entity".into() })?;
        match &rest[..=semi] {
            "&amp;" => out.push('&'),
            "&lt;" => out.push('<'),
            "&gt;" => out.push('>'),
            "&quot;" => out.push('"'),
            "&apos;" => out.push('\''),
            other => {
                return Err(GraphError::Parse { line, msg: format!("unknown entity {other}") })
            }
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

/// Parses the XML ontology format into a graph.
pub fn from_xml(input: &str) -> Result<OntGraph> {
    let mut scanner = XmlScanner::new(input);
    let mut g = OntGraph::new("unnamed");
    // Stack of open elements: (element name, node label if it's a <node>).
    let mut stack: Vec<(String, Option<String>)> = Vec::new();
    let mut saw_root = false;

    while let Some(ev) = scanner.next_event()? {
        match ev {
            XmlEvent::Open { name, attrs, self_closing } => match name.as_str() {
                "ontology" => {
                    if saw_root {
                        return Err(GraphError::Parse {
                            line: scanner.line,
                            msg: "multiple <ontology> roots".into(),
                        });
                    }
                    saw_root = true;
                    if let Some(n) = attrs.get("name") {
                        g.set_name(n);
                    }
                    if !self_closing {
                        stack.push(("ontology".into(), None));
                    }
                }
                "node" => {
                    if !saw_root {
                        return Err(GraphError::Parse {
                            line: scanner.line,
                            msg: "<node> outside <ontology>".into(),
                        });
                    }
                    let label = attrs.get("label").cloned().ok_or(GraphError::Parse {
                        line: scanner.line,
                        msg: "<node> missing label attribute".into(),
                    })?;
                    g.ensure_node(&label).map_err(|e| GraphError::Parse {
                        line: scanner.line,
                        msg: e.to_string(),
                    })?;
                    // nested node ⇒ edge child -> parent
                    if let Some((_, Some(parent))) = stack.iter().rev().find(|(n, _)| n == "node") {
                        let relation = attrs
                            .get("rel")
                            .cloned()
                            .unwrap_or_else(|| rel::SUBCLASS_OF.to_string());
                        let parent = parent.clone();
                        g.ensure_edge_by_labels(&label, &relation, &parent).map_err(|e| {
                            GraphError::Parse { line: scanner.line, msg: e.to_string() }
                        })?;
                    }
                    if !self_closing {
                        stack.push(("node".into(), Some(label)));
                    }
                }
                "edge" => {
                    if !saw_root {
                        return Err(GraphError::Parse {
                            line: scanner.line,
                            msg: "<edge> outside <ontology>".into(),
                        });
                    }
                    let get = |k: &str| {
                        attrs.get(k).cloned().ok_or(GraphError::Parse {
                            line: scanner.line,
                            msg: format!("<edge> missing {k} attribute"),
                        })
                    };
                    let from = get("from")?;
                    let label = get("label")?;
                    let to = get("to")?;
                    g.ensure_edge_by_labels(&from, &label, &to).map_err(|e| GraphError::Parse {
                        line: scanner.line,
                        msg: e.to_string(),
                    })?;
                    if !self_closing {
                        stack.push(("edge".into(), None));
                    }
                }
                other => {
                    return Err(GraphError::Parse {
                        line: scanner.line,
                        msg: format!("unexpected element <{other}>"),
                    })
                }
            },
            XmlEvent::Close { name } => match stack.pop() {
                Some((open, _)) if open == name => {}
                Some((open, _)) => {
                    return Err(GraphError::Parse {
                        line: scanner.line,
                        msg: format!("mismatched </{name}>, expected </{open}>"),
                    })
                }
                None => {
                    return Err(GraphError::Parse {
                        line: scanner.line,
                        msg: format!("stray </{name}>"),
                    })
                }
            },
        }
    }
    if !stack.is_empty() {
        return Err(GraphError::Parse {
            line: scanner.line,
            msg: format!("unclosed <{}>", stack.last().expect("non-empty").0),
        });
    }
    if !saw_root {
        return Err(GraphError::Parse { line: scanner.line, msg: "no <ontology> root".into() });
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut g = OntGraph::new("carrier");
        g.ensure_edge_by_labels("Car", rel::SUBCLASS_OF, "Vehicle").unwrap();
        g.add_node("Lonely").unwrap();
        let xml = to_xml(&g);
        let g2 = from_xml(&xml).unwrap();
        assert_eq!(g2.name(), "carrier");
        assert!(g.same_shape(&g2));
    }

    #[test]
    fn roundtrip_special_characters() {
        let mut g = OntGraph::new("a&b");
        g.ensure_edge_by_labels("R&D <dept>", "uses \"things\"", "Bob's lab").unwrap();
        let xml = to_xml(&g);
        let g2 = from_xml(&xml).unwrap();
        assert!(g.same_shape(&g2));
        assert_eq!(g2.name(), "a&b");
    }

    #[test]
    fn nested_nodes_create_edges() {
        let xml = r#"<?xml version="1.0"?>
<!-- a hierarchy -->
<ontology name="factory">
  <node label="Vehicle">
    <node label="Car">
      <node label="SUV"/>
    </node>
    <node label="Truck" rel="SubclassOf"/>
    <node label="Price" rel="AttributeOf"/>
  </node>
</ontology>"#;
        let g = from_xml(xml).unwrap();
        assert_eq!(g.node_count(), 5);
        assert!(g.has_edge("Car", "SubclassOf", "Vehicle"));
        assert!(g.has_edge("SUV", "SubclassOf", "Car"));
        assert!(g.has_edge("Truck", "SubclassOf", "Vehicle"));
        assert!(g.has_edge("Price", "AttributeOf", "Vehicle"));
    }

    #[test]
    fn single_quoted_attributes() {
        let g = from_xml("<ontology name='x'><node label='A'/></ontology>").unwrap();
        assert_eq!(g.name(), "x");
        assert!(g.contains_label("A"));
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "<node label=\"A\"/>",                              // outside root
            "<ontology><weird/></ontology>",                    // unknown element
            "<ontology><node/></ontology>",                     // missing label
            "<ontology><edge from=\"a\" to=\"b\"/></ontology>", // missing label
            "<ontology>",                                       // unclosed
            "<ontology></wrong>",                               // mismatch
            "<ontology name=\"x\" name=\"y\"/>",                // duplicate attribute
            "<ontology name=unquoted/>",                        // unquoted value
            "<ontology name=\"&bogus;\"/>",                     // unknown entity
            "<ontology/><ontology/>",                           // two roots
        ] {
            assert!(from_xml(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn declaration_and_comments_ignored() {
        let xml = "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n<!-- hi -->\n<ontology name=\"g\"/>";
        let g = from_xml(xml).unwrap();
        assert_eq!(g.name(), "g");
        assert!(g.is_empty());
    }

    #[test]
    fn error_line_numbers_advance() {
        let xml = "<ontology name=\"g\">\n  <node label=\"A\"/>\n  <bogus/>\n</ontology>";
        match from_xml(xml).unwrap_err() {
            GraphError::Parse { line, .. } => assert!(line >= 3, "line was {line}"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
