//! # onion — workspace facade
//!
//! Thin re-export of [`onion_core`], so the integration tests under
//! `tests/` and the walkthroughs under `examples/` depend on a single
//! crate. See `README.md` for the crate map and `ARCHITECTURE.md` for
//! the per-crate design notes.

#![forbid(unsafe_code)]

pub use onion_core::*;
