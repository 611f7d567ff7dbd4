//! The recording macros — the only way instrumented code should talk
//! to the registry.
//!
//! Every macro is self-gating: it checks [`enabled()`](crate::enabled)
//! (one relaxed load) before evaluating anything else, so disabled
//! call sites never format a field, never resolve a handle, and never
//! touch the registry mutex. Handles are resolved once per call site
//! and cached in a `static OnceLock`, so the enabled steady state is a
//! relaxed load plus a relaxed `fetch_add` on the metric's cell.
//!
//! Metric names must be string literals — span names are baked into
//! histogram names at compile time (`span!("publish")` records into
//! `onion_span_publish_us`).

/// Adds to a named counter: `count!("onion_x_total")` increments by 1,
/// `count!("onion_x_total", n)` adds `n` (any value castable to u64).
#[macro_export]
macro_rules! count {
    ($name:literal) => {
        $crate::count!($name, 1u64)
    };
    ($name:literal, $n:expr) => {
        if $crate::enabled() {
            static SITE: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
            SITE.get_or_init(|| $crate::global().counter($name)).add($n as u64);
        }
    };
}

/// Sets a named gauge to a point-in-time value (castable to i64).
#[macro_export]
macro_rules! gauge_set {
    ($name:literal, $v:expr) => {
        if $crate::enabled() {
            static SITE: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
            SITE.get_or_init(|| $crate::global().gauge($name)).set($v as i64);
        }
    };
}

/// Records a microsecond latency observation into a named histogram
/// with the [`LatencyUs`](crate::HistKind::LatencyUs) bucket preset.
#[macro_export]
macro_rules! observe_us {
    ($name:literal, $v:expr) => {
        if $crate::enabled() {
            static SITE: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
            SITE.get_or_init(|| $crate::global().histogram($name, $crate::HistKind::LatencyUs))
                .observe($v as u64);
        }
    };
}

/// Records a size/count observation into a named histogram with the
/// [`Count`](crate::HistKind::Count) bucket preset.
#[macro_export]
macro_rules! observe_val {
    ($name:literal, $v:expr) => {
        if $crate::enabled() {
            static SITE: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
            SITE.get_or_init(|| $crate::global().histogram($name, $crate::HistKind::Count))
                .observe($v as u64);
        }
    };
}

/// Opens a tracing span: returns a guard whose drop records wall-time
/// into the histogram `onion_span_<name>_us`. With `key = value`
/// fields, the drop additionally appends a structured span-end event
/// (fields rendered with `Display`) to the trace ring. Bind the
/// guard — `let _span = span!("publish");` — or it drops immediately.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        if $crate::enabled() {
            static SITE: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
            let h = SITE
                .get_or_init(|| {
                    $crate::global()
                        .histogram(concat!("onion_span_", $name, "_us"), $crate::HistKind::LatencyUs)
                })
                .clone();
            $crate::Span::recording(h, $name, ::std::vec::Vec::new(), false)
        } else {
            $crate::Span::disabled()
        }
    };
    ($name:literal, $($k:ident = $v:expr),+ $(,)?) => {
        if $crate::enabled() {
            static SITE: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
            let h = SITE
                .get_or_init(|| {
                    $crate::global()
                        .histogram(concat!("onion_span_", $name, "_us"), $crate::HistKind::LatencyUs)
                })
                .clone();
            $crate::Span::recording(
                h,
                $name,
                ::std::vec![$((stringify!($k), ::std::format!("{}", $v))),+],
                true,
            )
        } else {
            $crate::Span::disabled()
        }
    };
}

/// Appends a structured point event (name plus `key = value` fields,
/// rendered with `Display`) to the trace ring.
#[macro_export]
macro_rules! event {
    ($name:literal $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::push_event(
                $name,
                ::std::vec![$((stringify!($k), ::std::format!("{}", $v))),*],
                ::std::option::Option::None,
            );
        }
    };
}
