//! # onion-testkit
//!
//! Workload substrate for the ONION reproduction's tests and benchmarks:
//!
//! * [`gen`] — seeded synthetic ontology generation (class forests with
//!   configurable size, branching, attribute/instance density);
//! * [`overlap`] — pairs of ontologies sharing a planted concept subset
//!   with per-side renaming, plus the matching ground-truth
//!   correspondence and a lexicon that knows the renames (drives the
//!   precision/recall measurements of experiment B2);
//! * [`workload`] — update streams with a tunable articulation-locality
//!   knob (experiments B1/B8) and query workloads (B4);
//! * [`baseline`] — the **GlobalMerge** integrator: the build-one-giant-
//!   schema approach the paper argues against (§1), used as the
//!   comparison point in B1/B4/B7;
//! * [`metrics`] — precision/recall against planted truth.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod fs;
pub mod gen;
pub mod infer;
pub mod metrics;
pub mod overlap;
pub mod workload;

pub use baseline::GlobalMerge;
pub use gen::{generate_dag, generate_graph, generate_ontology, GraphSpec, OntologySpec};
pub use infer::{deep_chain_ontology, seed_subclass_facts_strings};
pub use metrics::{precision_recall, PrMetrics};
pub use overlap::{overlap_pair, OverlapPair, OverlapSpec};
pub use workload::{random_queries, update_stream, UpdateSpec};
