//! # onion-lexicon
//!
//! A WordNet-style semantic lexicon substrate for the ONION reproduction.
//!
//! The paper's SKAT articulation tool proposes semantic bridges "using
//! expert rules and other external knowledge sources or semantic lexicons
//! (e.g., Wordnet)" (§2.4). The original system consulted WordNet; this
//! crate provides the same *interface* — synonym sets, hypernym/hyponym
//! relations, and lexical similarity — backed by:
//!
//! * a hand-built [`builtin::transport_lexicon`] covering the vocabulary
//!   of the paper's Fig. 2 running example, and
//! * a seeded random [`generator`] for scale experiments.
//!
//! [`Lexicon`] implements [`onion_graph::LabelEquiv`], so it can plug
//! straight into the graph pattern matcher as the paper's §3 "fuzzy
//! matching" relaxation (nodes match when their labels are synonyms).
//!
//! The [`similarity`] module supplies the string metrics (Levenshtein,
//! Jaro-Winkler, n-gram Dice) SKAT-style matchers use when the lexicon
//! has no entry, and [`normalize`] handles the label conventions of real
//! ontologies (CamelCase compounds such as `CargoCarrier`, plural forms).
//! `normalize` lives in the data layer (`onion_graph::normalize`), so an
//! ontology can index its labels by normalised form without depending on
//! this crate; it is re-exported here under its old path.

#![forbid(unsafe_code)]

pub mod builtin;
pub mod generator;
pub mod lexicon;
pub mod similarity;
pub mod synset;

pub use onion_graph::normalize;

pub use lexicon::{Lexicon, SynonymEquiv};
pub use synset::{Synset, SynsetId};
