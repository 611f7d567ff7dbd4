//! # onion-obs — zero-dependency observability for ONION
//!
//! The metrics/tracing layer behind "why was this publish slow": a
//! lock-cheap **metrics registry** (named counters, gauges, and
//! fixed-bucket latency histograms, each backed by relaxed atomics),
//! a **tracing span** API whose guards record wall-time into
//! histograms and can append structured events to a bounded in-memory
//! trace ring (read it with [`trace_events`], capacity
//! [`TRACE_RING_CAP`]), and a [`MetricsSnapshot`] reader that renders to both
//! a JSON document and Prometheus text exposition format.
//!
//! Like the `crates/compat` stand-ins, the crate has **zero external
//! dependencies** — everything is `std` atomics and mutexes.
//!
//! ## Cost contract
//!
//! Observability is **disabled by default**. Every recording macro
//! ([`count!`], [`gauge_set!`], [`observe_us!`], [`observe_val!`],
//! [`span!`], [`event!`]) checks [`enabled()`] — a single relaxed
//! atomic load — before touching anything else, so an instrumented hot
//! path pays one load and a predictable branch when the registry is
//! off (pinned by `disabled_macros_record_nothing_and_stay_cheap`).
//! When enabled, a counter records with one relaxed `fetch_add` on its
//! one cell, and a histogram with two (its bucket and its sum) — no
//! lock. Recording sites fire on the thread driving a run, round,
//! publish, checkpoint or batch (per shard, WAL record or cache probe
//! at the finest); the one site reached from pool workers, the
//! implication-index build counter, fires once per state epoch. So
//! one cell per metric is not a coherence hotspot. The registry mutex
//! is taken only when a call site first resolves its handle (cached in
//! a per-site `OnceLock`) and when a snapshot is read.
//!
//! ## Consistency contract
//!
//! [`Registry::snapshot`] is *consistent enough*, not atomic: counters
//! are **monotone** (a snapshot taken during concurrent recording
//! never observes a counter lower than an earlier snapshot — a counter
//! is one atomic that only `fetch_add` modifies, so its modification
//! order only grows, and read-read coherence makes a read that happens
//! after an earlier read return a value no earlier in that order;
//! snapshots happen one after another because each holds the registry
//! mutex), gauges are point-in-time,
//! and a histogram's `sum` may lag its bucket counts by in-flight
//! observations. The rendered Prometheus `_count` is derived from the
//! bucket counts, so `le="+Inf"` always equals `_count` exactly.
//!
//! ```
//! use onion_obs as obs;
//!
//! obs::set_enabled(true);
//! {
//!     let _span = obs::span!("demo");
//!     obs::count!("onion_demo_total", 3);
//! }
//! let snap = obs::global().snapshot();
//! assert_eq!(snap.counter("onion_demo_total"), Some(3));
//! assert!(snap.to_prometheus().contains("onion_span_demo_us_bucket"));
//! obs::set_enabled(false);
//! ```

#![forbid(unsafe_code)]

mod macros;
mod registry;
mod snapshot;
mod trace;

pub use registry::{
    global, Counter, Gauge, HistKind, Histogram, Registry, COUNT_BOUNDS, LATENCY_BOUNDS_US,
};
pub use snapshot::{lint_prometheus, HistogramSnapshot, MetricsSnapshot};
pub use trace::{clear_trace, push_event, trace_events, Span, TraceEvent, TRACE_RING_CAP};

use std::sync::atomic::{AtomicBool, Ordering};

/// The global on/off switch. `false` (the default) is the production
/// fast path: recording macros reduce to this one relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is observability recording enabled? One relaxed atomic load — the
/// entire disabled-path cost of every recording macro.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns observability recording on or off, process-wide. Off is the
/// default. Turning it off stops new recording but keeps everything
/// already recorded readable via [`global()`]`.snapshot()`.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Instant;

    /// Serialises the tests that flip the process-wide enabled flag.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_macros_record_nothing_and_stay_cheap() {
        let _g = SERIAL.lock().unwrap();
        set_enabled(false);
        let start = Instant::now();
        for i in 0..1_000_000u64 {
            count!("onion_test_disabled_total", i);
            observe_us!("onion_test_disabled_us", i);
            gauge_set!("onion_test_disabled_depth", i as i64);
        }
        let elapsed = start.elapsed();
        let snap = global().snapshot();
        assert_eq!(snap.counter("onion_test_disabled_total"), None, "no handle ever resolved");
        assert!(snap.histogram("onion_test_disabled_us").is_none());
        assert!(snap.gauge("onion_test_disabled_depth").is_none());
        // 3M disabled macro hits are three relaxed loads each; even a
        // slow CI box does that in well under half a second.
        assert!(elapsed.as_millis() < 500, "disabled path too slow: {elapsed:?}");
    }

    #[test]
    fn enabled_macros_record_into_the_global_registry() {
        let _g = SERIAL.lock().unwrap();
        let _ring = trace::ring_test_lock();
        set_enabled(true);
        count!("onion_test_enabled_total");
        count!("onion_test_enabled_total", 4);
        gauge_set!("onion_test_enabled_depth", -7);
        observe_us!("onion_test_enabled_us", 42);
        observe_val!("onion_test_enabled_delta", 9);
        {
            let _s = span!("obs_selftest", source = "carrier");
        }
        event!("obs_selftest_event", code = 3);
        set_enabled(false);

        let snap = global().snapshot();
        assert_eq!(snap.counter("onion_test_enabled_total"), Some(5));
        assert_eq!(snap.gauge("onion_test_enabled_depth"), Some(-7));
        let h = snap.histogram("onion_test_enabled_us").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 42);
        let span_h = snap.histogram("onion_span_obs_selftest_us").unwrap();
        assert_eq!(span_h.count, 1);
        let events = trace_events();
        assert!(events.iter().any(|e| e.name == "obs_selftest"
            && e.duration_us.is_some()
            && e.fields == vec![("source", "carrier".to_string())]));
        assert!(
            events
                .iter()
                .any(|e| e.name == "obs_selftest_event"
                    && e.fields == vec![("code", "3".to_string())])
        );
    }

    #[test]
    fn toggling_off_stops_recording() {
        let _g = SERIAL.lock().unwrap();
        set_enabled(true);
        count!("onion_test_toggle_total");
        set_enabled(false);
        count!("onion_test_toggle_total");
        let snap = global().snapshot();
        assert_eq!(snap.counter("onion_test_toggle_total"), Some(1));
    }
}
