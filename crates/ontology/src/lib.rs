//! # onion-ontology
//!
//! The ontology layer of the ONION reproduction: a named, *consistent*
//! ontology is a directed labeled graph (from `onion-graph`) together
//! with the properties of its relationships (from `onion-rules`) and the
//! local rules that structure it.
//!
//! The paper defines an ontology as "a knowledge structure to enable
//! sharing and reuse of knowledge by specifying the terms and the
//! relationships among them" (§1), requiring consistency — "a term in an
//! ontology does not refer to different concepts within one knowledge
//! base" — which this crate enforces via the graph's unique-label mode
//! plus the [`consistency`] checks (acyclic `SubclassOf`, sane
//! `InstanceOf` usage).
//!
//! [`examples`] reconstructs the paper's Fig. 2 running example (the
//! `carrier` and `factory` source ontologies); the exact node/edge
//! inventory is documented there and asserted by experiment E1.

#![forbid(unsafe_code)]

pub mod builder;
pub mod consistency;
pub mod examples;
pub mod import;
pub mod label_index;
pub mod ontology;

pub use builder::OntologyBuilder;
pub use consistency::{check, ConsistencyIssue};
pub use label_index::LabelIndex;
pub use ontology::Ontology;

/// Result alias re-exported from the graph layer (ontology operations
/// surface graph errors).
pub type Result<T> = std::result::Result<T, onion_graph::GraphError>;
