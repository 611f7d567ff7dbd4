//! Error type for graph operations.

use std::fmt;

/// Errors produced by graph construction, transformation and parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node id referenced an entry that does not exist or was deleted.
    NodeNotFound(String),
    /// An edge id referenced an entry that does not exist or was deleted.
    EdgeNotFound(String),
    /// A live node already carries this label (a label names at most
    /// one node in a consistent ontology, paper §1).
    DuplicateLabel(String),
    /// An identical `(source, label, target)` edge already exists.
    DuplicateEdge(String),
    /// A label was empty; `λ(n)` must map to a non-null string (§3).
    EmptyLabel,
    /// Parse error in one of the interchange formats.
    Parse { line: usize, msg: String },
    /// A pattern was structurally invalid (e.g. dangling endpoint index).
    InvalidPattern(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeNotFound(s) => write!(f, "node not found: {s}"),
            GraphError::EdgeNotFound(s) => write!(f, "edge not found: {s}"),
            GraphError::DuplicateLabel(s) => {
                write!(f, "duplicate node label in consistent ontology: {s:?}")
            }
            GraphError::DuplicateEdge(s) => write!(f, "duplicate edge: {s}"),
            GraphError::EmptyLabel => write!(f, "labels must be non-empty strings"),
            GraphError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            GraphError::InvalidPattern(s) => write!(f, "invalid pattern: {s}"),
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GraphError::DuplicateLabel("Car".into());
        assert!(e.to_string().contains("Car"));
        let e = GraphError::Parse { line: 7, msg: "bad token".into() };
        assert!(e.to_string().contains("line 7"));
        assert!(e.to_string().contains("bad token"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&GraphError::EmptyLabel);
    }
}
