//! # onion-viewer
//!
//! Text-mode substitute for the ONION viewer GUI (paper §2.2). The
//! original is "a graphical user interface … A domain expert initiates a
//! session by calling into view the ontologies of interest", can refine
//! them, import more, drop some, and drive articulation. This crate
//! provides:
//!
//! * [`ascii`] — tree renderings of ontologies and articulations for the
//!   terminal (plus DOT output via `onion_graph::dot` for real graphics);
//! * [`session`] — a scripted, replayable session model exposing the
//!   same verbs the GUI offers (load / import / drop / articulate /
//!   show), so examples and tests can drive "viewer workflows"
//!   deterministically.

#![forbid(unsafe_code)]

pub mod ascii;
pub mod dot_clusters;
pub mod session;

pub use ascii::{render_articulation, render_ontology};
pub use dot_clusters::unified_to_dot;
pub use session::{Session, SessionCommand};
