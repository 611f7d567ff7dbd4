//! # onion-articulate
//!
//! The articulation engine — the primary contribution of the paper
//! (§2.4, §4). Given two (or more) source ontologies, the engine:
//!
//! 1. **proposes** candidate articulation rules via SKAT-style matchers
//!    ([`skat`]): exact label match, lexicon synonym/hypernym lookup,
//!    string similarity, and structural propagation;
//! 2. submits them to an **expert** ([`expert`]) — in the paper a human
//!    at the ONION viewer, here a pluggable policy (accept-all,
//!    confidence threshold, scripted, or a ground-truth oracle for
//!    measurable precision/recall);
//! 3. **generates** the articulation ([`generator`]): the articulation
//!    ontology graph plus the semantic bridges (`SIBridge` edges and
//!    functional-conversion edges) linking it to the sources, following
//!    the §4.1 translation of simple, cascaded, conjunctive, disjunctive
//!    and functional rules;
//! 4. optionally lets the **inference engine** derive further bridges
//!    (transitive semantic implication), and iterates propose → confirm →
//!    generate until fixpoint ([`engine`]);
//! 5. **maintains** the articulation incrementally as sources change
//!    ([`maintain`]) — the scalability story of §5.3 / experiment B1.

#![forbid(unsafe_code)]

pub mod articulation;
pub mod candidate;
pub mod engine;
pub mod expert;
pub mod generator;
pub mod implication;
pub mod maintain;
pub mod persist;
pub mod skat;

pub use articulation::{Articulation, Bridge, BridgeKind};
pub use candidate::CandidateRule;
pub use engine::{ArticulationEngine, EngineConfig, EngineReport};
pub use expert::{AcceptAll, Expert, OracleExpert, ScriptedExpert, ThresholdExpert, Verdict};
pub use generator::{ArticulationGenerator, GeneratorConfig, GeneratorStats};
pub use implication::ImplicationIndex;
pub use skat::{
    ExactLabelMatcher, MatcherPipeline, RuleMatcher, SimilarityMatcher, StructuralMatcher,
    SynonymMatcher,
};

/// Errors raised while articulating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArticulateError {
    /// A rule referenced a term absent from its source ontology.
    UnknownTerm(String),
    /// A rule referenced an ontology that was not supplied.
    UnknownOntology(String),
    /// Underlying graph failure.
    Graph(onion_graph::GraphError),
    /// Underlying rule failure.
    Rule(onion_rules::RuleError),
}

impl std::fmt::Display for ArticulateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArticulateError::UnknownTerm(t) => write!(f, "unknown term {t}"),
            ArticulateError::UnknownOntology(o) => write!(f, "unknown ontology {o:?}"),
            ArticulateError::Graph(e) => write!(f, "graph error: {e}"),
            ArticulateError::Rule(e) => write!(f, "rule error: {e}"),
        }
    }
}

impl std::error::Error for ArticulateError {}

impl From<onion_graph::GraphError> for ArticulateError {
    fn from(e: onion_graph::GraphError) -> Self {
        ArticulateError::Graph(e)
    }
}

impl From<onion_rules::RuleError> for ArticulateError {
    fn from(e: onion_rules::RuleError) -> Self {
        ArticulateError::Rule(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ArticulateError>;
