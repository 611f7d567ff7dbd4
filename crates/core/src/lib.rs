//! # onion-core — the ONION system behind one API
//!
//! Facade over the full reproduction of *"A Graph-Oriented Model for
//! Articulation of Ontology Interdependencies"* (Mitra, Wiederhold,
//! Kersten; EDBT 2000). [`OnionSystem`] wires the architecture of the
//! paper's Fig. 1 together:
//!
//! * the **data layer** — source ontologies as directed labeled graphs
//!   (`onion-graph`, `onion-ontology`), articulation rules
//!   (`onion-rules`);
//! * the **articulation engine** — SKAT matchers, the expert in the
//!   loop, the articulation generator (`onion-articulate`);
//! * the **algebra** — union / intersection / difference over the
//!   articulation (`onion-algebra`);
//! * the **query system** — reformulation across bridges, per-source
//!   plans, wrappers (`onion-query`);
//! * the **viewer** — text rendering and scripted sessions
//!   (`onion-viewer`).
//!
//! ```
//! use onion_core::OnionSystem;
//! use onion_core::prelude::*;
//!
//! let mut onion = OnionSystem::with_transport_lexicon();
//! onion.add_source(onion_ontology::examples::carrier());
//! onion.add_source(onion_ontology::examples::factory());
//! onion.add_rules(onion_ontology::examples::fig2_rules_text()).unwrap();
//! let report = onion.articulate("carrier", "factory", &mut AcceptAll).unwrap();
//! assert!(report.accepted > 0);
//! assert!(onion.articulation().unwrap().bridges.len() > 10);
//! ```

#![forbid(unsafe_code)]

pub mod system;

pub use system::{DurableOpen, OnionSystem, PublishStats};

// Re-export the subsystem crates under their short names.
pub use onion_algebra as algebra;
pub use onion_articulate as articulate;
pub use onion_exec as exec;
pub use onion_graph as graph;
pub use onion_lexicon as lexicon;
pub use onion_obs as obs;
pub use onion_ontology as ontology;
pub use onion_query as query;
pub use onion_rules as rules;
pub use onion_testkit as testkit;
pub use onion_viewer as viewer;

/// The commonly-used types in one import.
pub mod prelude {
    pub use crate::PublishStats;
    pub use onion_algebra::{difference, extract, filter, intersect, union};
    pub use onion_articulate::{
        AcceptAll, Articulation, ArticulationEngine, ArticulationGenerator, Bridge, BridgeKind,
        CandidateRule, EngineConfig, EngineReport, Expert, GeneratorConfig, GeneratorStats,
        MatcherPipeline, OracleExpert, ScriptedExpert, ThresholdExpert, Verdict,
    };
    pub use onion_exec::{CacheKey, CacheStats, Executor, ResultCache};
    pub use onion_graph::{
        rel, CheckpointStats, Durability, EdgeId, GraphOp, LabelEquiv, Lsn, MatchConfig, Matcher,
        NodeId, OntGraph, Pattern, RecoveryStats, WalError,
    };
    pub use onion_lexicon::{builtin::transport_lexicon, Lexicon};
    pub use onion_obs::{MetricsSnapshot, TraceEvent};
    pub use onion_ontology::{examples, Ontology, OntologyBuilder};
    pub use onion_query::{
        execute, CmpOp, InMemoryWrapper, Instance, KnowledgeBase, Query, ResultSet, Value, Wrapper,
    };
    pub use onion_rules::{
        parse_rules, ArticulationRule, AtomId, AtomTable, ConversionRegistry, RelationRegistry,
        RuleExpr, RuleSet, Term,
    };
}
