//! # onion-query
//!
//! The ONION query system (paper §2.3): "Interoperation of ontologies
//! forms the basis for querying their semantically meaningful
//! intersection … a traditional query engine, which takes a query
//! phrased in terms of an articulation ontology and derives an execution
//! plan against the sources involved. Given the semantic bridges,
//! however, query reformulation is often required."
//!
//! Pipeline:
//!
//! 1. a [`ast::Query`] names a class in the articulation ontology,
//!    attributes to return, and value conditions;
//! 2. [`reformulate`] maps the articulation class and attributes to each
//!    source's local vocabulary by following the semantic bridges, and
//!    collects the conversion functions needed for metric-space
//!    normalisation (§4.1: "The query processor will utilize these
//!    normalizations functions to transform terms to and from the
//!    articulation ontology in order to answer queries involving the
//!    prices of vehicles");
//! 3. [`plan()`] decides which sources to consult (those with a mapped
//!    class) and pushes converted conditions down;
//! 4. [`exec`] runs the per-source queries through [`wrapper`]s over
//!    [`kb`] fact stores and merges results in articulation vocabulary.

#![forbid(unsafe_code)]

pub mod ast;
pub mod exec;
pub mod kb;
pub mod pattern_query;
pub mod plan;
pub mod reformulate;
pub mod result;
pub mod wrapper;

pub use ast::{CmpOp, Condition, Query, Value};
pub use exec::execute;
pub use kb::{Instance, KnowledgeBase};
pub use pattern_query::query_unified;
pub use plan::{plan, plan_indexed, QueryPlan, SourceQuery};
pub use reformulate::Reformulator;
pub use result::{ResultRow, ResultSet};
pub use wrapper::{InMemoryWrapper, Wrapper};

/// Errors from the query system.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Syntax error in the textual query form.
    Parse(String),
    /// The queried class is unknown in the articulation ontology.
    UnknownClass(String),
    /// A conversion function was needed but not registered.
    Conversion(String),
    /// A wrapper failed to answer.
    Source(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Parse(m) => write!(f, "query parse error: {m}"),
            QueryError::UnknownClass(c) => write!(f, "unknown articulation class {c:?}"),
            QueryError::Conversion(m) => write!(f, "conversion error: {m}"),
            QueryError::Source(m) => write!(f, "source error: {m}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, QueryError>;
