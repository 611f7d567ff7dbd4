//! # onion-graph
//!
//! The graph-oriented data model underlying the ONION ontology-articulation
//! system (Mitra, Wiederhold, Kersten: *A Graph-Oriented Model for
//! Articulation of Ontology Interdependencies*, EDBT 2000).
//!
//! An ontology is represented as a **directed labeled graph** `G = (N, E)`:
//! a finite set of labeled nodes and a finite set of labeled edges. The node
//! label function `λ(n)` maps each node to a non-null string (typically a
//! noun phrase naming a concept); the edge label function `δ(e)` maps each
//! edge to a string naming either a natural-language verb or a pre-defined
//! semantic relationship such as `SubclassOf`, `AttributeOf`, `InstanceOf`
//! or `SemanticImplication`. The model is a refinement of the GOOD
//! graph-oriented object database model (Gyssens, Paredaens, Van Gucht,
//! PODS 1990).
//!
//! This crate provides:
//!
//! * [`OntGraph`] — the graph itself, with interned labels, tombstone
//!   deletion, and per-label node/edge indexes;
//! * the four **graph transformation primitives** of the paper (§3):
//!   node addition `NA`, node deletion `ND`, edge addition `EA`, edge
//!   deletion `ED`, both as direct methods and as a replayable
//!   [`ops::GraphOp`] journal;
//! * **graph patterns** ([`pattern::Pattern`]) with the paper's textual
//!   notation (`carrier:car:driver`, `truck(O: owner, model)`) and a
//!   backtracking subgraph [`matcher`] supporting exact and *fuzzy*
//!   matching (synonym node labels, relaxed edge labels);
//! * traversals, reachability, strongly connected components and per-label
//!   transitive [`closure`];
//! * label [`normalize`]ation (compound splitting, case folding, plural
//!   stemming): the form under which the lexical matchers and an
//!   ontology's normalised-label index compare labels;
//! * **durability** ([`wal`]): an LSN-stamped, CRC-framed write-ahead
//!   log of `GraphOp` records with group flush and segment rotation,
//!   fuzzy shard-incremental checkpoints of the published snapshot, and
//!   crash recovery (torn-tail truncation, torn-manifest fallback,
//!   committed-batch replay) behind the [`wal::Durability`] handle;
//! * published snapshots: [`snapshot::ShardedSnapshot`] (an immutable,
//!   `Send + Sync` frozen view holding each node's label and out-edge
//!   row, partitioned into [`snapshot::SnapshotShard`]s that rebuild
//!   independently) and [`snapshot::SnapshotStore`] (the single-writer
//!   slot behind incremental dirty-shard publish), which checkpoints
//!   serialise;
//! * interchange formats: a line-oriented [`text`] format, a minimal
//!   [`xml`] subset, and [`dot`] output for visualisation.
//!
//! The crate is deliberately free of ontology-level semantics (consistency,
//! relation properties, rules); those live in `onion-ontology` and
//! `onion-rules`, mirroring the paper's separation of the data layer from
//! the inference machinery (§2.1).

#![forbid(unsafe_code)]

pub mod closure;
pub mod dot;
mod edge_index;
pub mod error;
pub mod graph;
pub mod hash;
pub mod label;
pub mod matcher;
pub mod normalize;
pub mod ops;
pub mod path;
pub mod pattern;
pub mod snapshot;
pub mod stats;
pub mod text;
pub mod traverse;
pub mod wal;
pub mod xml;

pub use error::GraphError;
pub use graph::{
    adaptive_shard_count, EdgeId, EdgeRef, NodeId, NodeRef, OntGraph, DEFAULT_SHARD_COUNT,
    MAX_ADAPTIVE_SHARDS,
};
pub use label::{Interner, LabelId};
pub use matcher::{CaseInsensitiveEquiv, ExactEquiv, LabelEquiv, Match, MatchConfig, Matcher};
pub use ops::GraphOp;
pub use pattern::{EdgeConstraint, NodeConstraint, Pattern, PatternEdge, PatternNode};
pub use snapshot::{PublishStats, ShardedSnapshot, SnapshotShard, SnapshotStore};
pub use wal::{CheckpointStats, Durability, Lsn, RecoveryStats, WalError};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GraphError>;

/// Well-known edge labels used by the paper's running example (§2.5).
///
/// Ontologies may use arbitrary verbs as edge labels; these four have
/// pre-defined semantics in ONION and are the ones drawn in Fig. 2 of the
/// paper (abbreviated `S`, `A`, `I`, `SI` there).
pub mod rel {
    /// `SubclassOf` — class specialisation, transitive (`S` in Fig. 2).
    pub const SUBCLASS_OF: &str = "SubclassOf";
    /// `AttributeOf` — attribute attachment (`A` in Fig. 2).
    pub const ATTRIBUTE_OF: &str = "AttributeOf";
    /// `InstanceOf` — class membership of an individual (`I` in Fig. 2).
    pub const INSTANCE_OF: &str = "InstanceOf";
    /// `SemanticImplication` — cross-ontology implication (`SI` in Fig. 2).
    pub const SEMANTIC_IMPLICATION: &str = "SI";
    /// `SIBridge` — the articulation bridge edge label introduced in §4.1.
    pub const SI_BRIDGE: &str = "SIBridge";
}
