//! Ontology import from the paper's accepted formats.
//!
//! §2.1: "We accept ontologies based on IDL specifications and XML-based
//! documents, as well as simple adjacency list representations." The
//! adjacency-list and XML legs delegate to `onion-graph`; this module
//! adds the IDL leg — a small parser for the CORBA-IDL-flavoured class
//! declarations ONION's era used:
//!
//! ```text
//! // carrier fleet model
//! interface Vehicle {
//!     attribute string owner;
//! };
//! interface Car : Vehicle {
//!     attribute long price;
//! };
//! ```
//!
//! `interface A : B` becomes `A SubclassOf B`; each `attribute T name;`
//! becomes `name AttributeOf A` (the IDL type is recorded as
//! `name hasType T` when `keep_types` is on).

use onion_graph::{text, xml, GraphError};

use crate::ontology::Ontology;
use crate::Result;

/// Imports the adjacency-list text format (see `onion_graph::text`).
pub fn from_text(input: &str) -> Result<Ontology> {
    Ok(Ontology::from_graph(text::from_text(input)?))
}

/// Imports the XML format (see `onion_graph::xml`).
pub fn from_xml(input: &str) -> Result<Ontology> {
    Ok(Ontology::from_graph(xml::from_xml(input)?))
}

/// Options for IDL import.
#[derive(Debug, Clone)]
pub struct IdlOptions {
    /// Ontology name to use (IDL files don't name themselves).
    pub name: String,
    /// Record `attr hasType T` edges for attribute types.
    pub keep_types: bool,
}

impl Default for IdlOptions {
    fn default() -> Self {
        IdlOptions { name: "idl".into(), keep_types: false }
    }
}

/// Imports an IDL-style interface specification.
pub fn from_idl(input: &str, opts: &IdlOptions) -> Result<Ontology> {
    let mut o = Ontology::new(&opts.name);
    let mut current: Option<String> = None;
    let mut depth = 0usize;

    for (lineno, raw) in input.lines().enumerate() {
        let line = raw.trim();
        let line = match line.find("//") {
            Some(i) => line[..i].trim(),
            None => line,
        };
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| GraphError::Parse { line: lineno + 1, msg };

        if let Some(rest) = line.strip_prefix("interface ") {
            if current.is_some() {
                return Err(err("nested interface declarations are not supported".into()));
            }
            // interface NAME [: PARENT [, PARENT]*] [{]
            let rest = rest.trim_end_matches('{').trim();
            let (name, parents) = match rest.split_once(':') {
                Some((n, ps)) => (
                    n.trim().to_string(),
                    ps.split(',').map(|p| p.trim().to_string()).collect::<Vec<_>>(),
                ),
                None => (rest.trim().to_string(), Vec::new()),
            };
            if name.is_empty() || !is_ident(&name) {
                return Err(err(format!("bad interface name {name:?}")));
            }
            o.graph_mut().ensure_node(&name)?;
            for p in &parents {
                if !is_ident(p) {
                    return Err(err(format!("bad parent name {p:?}")));
                }
                o.subclass(&name, p)?;
            }
            current = Some(name);
            if raw.contains('{') {
                depth += 1;
            }
            continue;
        }
        if line == "{" {
            if current.is_none() {
                return Err(err("'{' outside interface".into()));
            }
            depth += 1;
            continue;
        }
        if line == "};" || line == "}" {
            if depth == 0 {
                return Err(err("unmatched '}'".into()));
            }
            depth -= 1;
            if depth == 0 {
                current = None;
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("attribute ") {
            let class = current.clone().ok_or_else(|| err("attribute outside interface".into()))?;
            let rest = rest.trim_end_matches(';').trim();
            // attribute TYPE NAME  (TYPE may be multi-word, NAME is last)
            let mut parts: Vec<&str> = rest.split_whitespace().collect();
            if parts.len() < 2 {
                return Err(err(format!("attribute needs type and name: {line:?}")));
            }
            let name = parts.pop().expect("len checked").to_string();
            let ty = parts.join(" ");
            if !is_ident(&name) {
                return Err(err(format!("bad attribute name {name:?}")));
            }
            o.attribute(&name, &class)?;
            if opts.keep_types {
                o.relate(&name, "hasType", &ty)?;
            }
            continue;
        }
        return Err(err(format!("unrecognised IDL line: {line:?}")));
    }
    if current.is_some() || depth != 0 {
        return Err(GraphError::Parse {
            line: input.lines().count(),
            msg: "unterminated interface".into(),
        });
    }
    Ok(o)
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().map(|c| c.is_alphabetic() || c == '_').unwrap_or(false)
        && s.chars().all(|c| c.is_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
// carrier fleet model
interface Vehicle {
    attribute string owner;
};
interface Car : Vehicle {
    attribute long price;
    attribute string model;
};
interface Truck : Vehicle, CargoCarrier {
};
"#;

    #[test]
    fn idl_import_builds_hierarchy() {
        let o =
            from_idl(SAMPLE, &IdlOptions { name: "carrier".into(), keep_types: false }).unwrap();
        assert_eq!(o.name(), "carrier");
        assert!(o.is_subclass("Car", "Vehicle"));
        assert!(o.is_subclass("Truck", "Vehicle"));
        assert!(o.is_subclass("Truck", "CargoCarrier"), "multiple inheritance");
        assert_eq!(o.attributes_of("Car"), vec!["model", "price"]);
        assert_eq!(o.attributes_of("Vehicle"), vec!["owner"]);
    }

    #[test]
    fn idl_keep_types_records_has_type() {
        let o = from_idl(SAMPLE, &IdlOptions { name: "c".into(), keep_types: true }).unwrap();
        assert!(o.graph().has_edge("price", "hasType", "long"));
        assert!(o.graph().has_edge("owner", "hasType", "string"));
    }

    #[test]
    fn idl_multiword_types() {
        let src = "interface A {\n attribute unsigned long long count;\n};";
        let o = from_idl(src, &IdlOptions { name: "x".into(), keep_types: true }).unwrap();
        assert!(o.graph().has_edge("count", "hasType", "unsigned long long"));
    }

    #[test]
    fn idl_errors() {
        for bad in [
            "attribute long x;",                     // outside interface
            "interface A {\n interface B {\n};\n};", // nested
            "interface A {",                         // unterminated
            "};",                                    // stray close
            "interface 9bad {\n};",                  // bad name
            "interface A {\n attribute long;\n};",   // missing name
            "interface A {\n garbage here;\n};",     // unknown line
        ] {
            assert!(from_idl(bad, &IdlOptions::default()).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn text_and_xml_legs_delegate() {
        let o = from_text("ontology z\nedge Car SubclassOf Vehicle\n").unwrap();
        assert_eq!(o.name(), "z");
        assert!(o.is_subclass("Car", "Vehicle"));

        let o = from_xml("<ontology name=\"w\"><edge from=\"Car\" label=\"SubclassOf\" to=\"Vehicle\"/></ontology>").unwrap();
        assert_eq!(o.name(), "w");
        assert!(o.is_subclass("Car", "Vehicle"));
    }

    #[test]
    fn braces_on_own_line() {
        let src = "interface A\n{\n attribute long x;\n}\n";
        let o = from_idl(src, &IdlOptions::default()).unwrap();
        assert_eq!(o.attributes_of("A"), vec!["x"]);
    }
}
