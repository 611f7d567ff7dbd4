//! # onion-algebra
//!
//! The ontology algebra of the paper's §5 — "the machinery to support
//! the composition of ontologies via the articulation".
//!
//! * Unary operators [`filter()`] and [`extract()`] "work on a single
//!   ontology … analogous to the select and project operations in
//!   relational algebra": given a graph pattern they return selected
//!   portions of the ontology graph.
//! * Binary [`union()`]: the two source graphs connected by the
//!   articulation — `OU = (N1 ∪ N2 ∪ NA, E1 ∪ E2 ∪ EA ∪ BridgeEdges)`
//!   (§5.1), computed dynamically, never stored.
//! * Binary [`intersect()`]: the articulation ontology itself — "the
//!   portions of knowledge bases that deal with similar concepts"
//!   (§5.2); the composable unit that makes articulation scale.
//! * Binary [`difference()`]: "the terms and relationships of the first
//!   ontology that have not been determined to exist in the second"
//!   (§5.3), with the paper's conservative path semantics; the basis for
//!   independent source evolution.
//! * [`compose`]: n-way composition by re-articulating an articulation
//!   with further sources (§4.2: "the articulation ontology of two
//!   ontologies can be composed with another source ontology … with
//!   minimal effort").
//! * [`laws`]: executable algebraic sanity properties used by the test
//!   suite and the B5 bench.

#![forbid(unsafe_code)]

pub mod compose;
pub mod difference;
pub mod extract;
pub mod filter;
pub mod intersect;
pub mod laws;
pub mod union;

pub use compose::{compose_all, Composition};
pub use difference::{difference, DifferenceReport};
pub use extract::extract;
pub use filter::filter;
pub use intersect::intersect;
pub use union::{union, UnionResult};

/// Errors from algebra operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgebraError {
    /// Underlying graph failure.
    Graph(onion_graph::GraphError),
    /// Underlying articulation failure.
    Articulate(onion_articulate::ArticulateError),
}

impl std::fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlgebraError::Graph(e) => write!(f, "graph error: {e}"),
            AlgebraError::Articulate(e) => write!(f, "articulation error: {e}"),
        }
    }
}

impl std::error::Error for AlgebraError {}

impl From<onion_graph::GraphError> for AlgebraError {
    fn from(e: onion_graph::GraphError) -> Self {
        AlgebraError::Graph(e)
    }
}

impl From<onion_articulate::ArticulateError> for AlgebraError {
    fn from(e: onion_articulate::ArticulateError) -> Self {
        AlgebraError::Articulate(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, AlgebraError>;
