//! # proptest — offline stand-in
//!
//! The workspace builds hermetically (no crates-io), so the slice of
//! the `proptest` API that ONION's property tests use is vendored here
//! under the same names:
//!
//! * [`strategy::Strategy`] with `prop_map`, implemented for numeric
//!   ranges, `&str` regex patterns, tuples, and [`strategy::Just`];
//! * [`collection::vec`] for sized vectors of a strategy;
//! * the [`proptest!`], [`prop_assert!`], [`prop_assert_eq!`] and
//!   [`prop_oneof!`] macros;
//! * [`test_runner::ProptestConfig`] (only `cases` is honoured).
//!
//! Deliberate differences from the real crate: generation is seeded
//! deterministically per test (stable across runs and machines), there
//! is **no shrinking** — a failing case reports its case number and the
//! formatted assertion instead of a minimized input — and regex
//! strategies support only the subset the tests use (literals, escapes,
//! character classes, groups, and `{m,n}` / `?` / `*` / `+` repetition).
//!
//! Set `PROPTEST_CASES` to override the case count globally (useful to
//! crank coverage locally or trim CI time).

#![forbid(unsafe_code)]

pub mod collection;
pub mod strategy;
pub mod test_runner;

mod regex;

/// Mirrors `proptest::prelude` for the names the tests import.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};

    /// Mirrors the `prop::` module alias from the real prelude.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Declares property tests.
///
/// Supports the forms the workspace uses: an optional leading
/// `#![proptest_config(expr)]`, then any number of
/// `#[test] fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        config = ($config:expr);
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let strategy = ($($strategy,)+);
                $crate::test_runner::run(
                    &$config,
                    stringify!($name),
                    &strategy,
                    |($($arg,)+)| -> $crate::test_runner::TestCaseResult {
                        $body
                        ::core::result::Result::Ok(())
                    },
                );
            }
        )*
    };
}

/// Fails the current property case (with an optional format message)
/// unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(::std::format!($($fmt)+)),
            );
        }
    };
}

/// Fails the current property case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, $($fmt)+);
    }};
}

/// Picks uniformly between several strategies producing the same value
/// type. (The real macro supports weights; the workspace doesn't use
/// them.)
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::Union::boxed($strategy)),+
        ])
    };
}
