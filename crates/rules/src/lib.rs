//! # onion-rules
//!
//! The articulation-rule machinery of the ONION reproduction (paper §4).
//!
//! Articulation rules take the form `P ⇒ Q` where `P`, `Q` are (in
//! general) graph-pattern predicates; the common cases the paper walks
//! through are:
//!
//! * **simple semantic implication** `carrier.Car ⇒ factory.Vehicle`;
//! * **cascaded** rules `carrier.Car ⇒ transport.PassengerCar ⇒
//!   factory.Vehicle`, introducing a new articulation term;
//! * **conjunction** `(factory.CargoCarrier ∧ factory.Vehicle) ⇒
//!   carrier.Trucks`;
//! * **disjunction** `factory.Vehicle ⇒ (carrier.Cars ∨ carrier.Trucks)`;
//! * **functional rules** `DGToEuroFn(): carrier.DutchGuilders ⇒
//!   transport.Euro` carrying a conversion function.
//!
//! This crate provides the rule [`ast`], a [`parser`] for the textual
//! syntax above (`&`/`|` spellings for ∧/∨), the [`horn`] clause form the
//! paper adopts "for performance reasons" (§4.1), two forward-chaining
//! [`infer`] engines (semi-naive, plus a deliberately heavyweight
//! full-closure baseline used by experiment B6), relation-property
//! declarations ([`properties`]) such as the transitivity of
//! `SubclassOf`, the conversion-function registry ([`convert`]), and
//! rule-set [`conflict`] detection.
//!
//! Inference runs over interned [`atoms`]: an [`AtomTable`] maps rule
//! terms, predicates and graph nodes to dense [`atoms::AtomId`]s, and
//! the [`infer::FactBase`] stores only ids — the parser and the rule AST
//! stay string-typed (text is the expert-facing boundary), while
//! everything from `FactBase` seeding to unification joins compares
//! `u32`s. The pre-refactor string-keyed engine is preserved verbatim in
//! [`mod@reference`] as a differential baseline.

#![forbid(unsafe_code)]

pub mod ast;
pub mod atoms;
pub mod conflict;
pub mod convert;
pub mod horn;
pub mod infer;
pub mod parser;
pub mod properties;
pub mod reference;

pub use ast::{ArticulationRule, RuleExpr, RuleSet, Term};
pub use atoms::{AtomId, AtomTable};
pub use convert::{ConversionRegistry, Converter};
pub use horn::{Atom, HornClause, HornProgram, TermArg};
pub use infer::{
    CompiledProgram, Fact, FactBase, InferenceEngine, InferenceStats, RoundStats, Strategy,
};
pub use parser::parse_rules;
pub use properties::{RelationProperties, RelationRegistry};

/// Errors for rule parsing and evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleError {
    /// Syntax error with line number and message.
    Parse {
        /// 1-based line.
        line: usize,
        /// Description.
        msg: String,
    },
    /// A functional rule references an unregistered conversion function.
    UnknownFunction(String),
    /// A Horn clause is unsafe (head variable absent from the body).
    UnsafeClause(String),
    /// Inference exceeded the configured iteration budget.
    BudgetExceeded {
        /// Facts derived before giving up.
        derived: usize,
    },
}

impl std::fmt::Display for RuleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuleError::Parse { line, msg } => write!(f, "rule parse error at line {line}: {msg}"),
            RuleError::UnknownFunction(n) => write!(f, "unknown conversion function {n:?}"),
            RuleError::UnsafeClause(c) => write!(f, "unsafe Horn clause: {c}"),
            RuleError::BudgetExceeded { derived } => {
                write!(f, "inference budget exceeded after deriving {derived} facts")
            }
        }
    }
}

impl std::error::Error for RuleError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, RuleError>;
