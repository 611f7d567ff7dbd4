//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms, each backed by relaxed atomics (see the crate docs for
//! the cost and consistency contracts).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::snapshot::{HistogramSnapshot, MetricsSnapshot};

/// Histogram bucket upper bounds (inclusive, microseconds) for
/// latency-shaped distributions: sub-microsecond to half a second on
/// a log-ish scale, plus the implicit `+Inf` overflow bucket.
pub const LATENCY_BOUNDS_US: &[u64] =
    &[1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 100_000, 500_000];

/// Histogram bucket upper bounds (inclusive) for count-shaped
/// distributions (delta sizes, batch sizes): powers of four up to 64k,
/// plus the implicit `+Inf` overflow bucket.
pub const COUNT_BOUNDS: &[u64] = &[1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536];

/// Which fixed bucket preset a histogram uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistKind {
    /// Wall-time in microseconds ([`LATENCY_BOUNDS_US`]).
    LatencyUs,
    /// Dimensionless sizes ([`COUNT_BOUNDS`]).
    Count,
}

impl HistKind {
    /// The preset's bucket upper bounds (exclusive of the `+Inf`
    /// overflow bucket every histogram also has).
    pub fn bounds(self) -> &'static [u64] {
        match self {
            HistKind::LatencyUs => LATENCY_BOUNDS_US,
            HistKind::Count => COUNT_BOUNDS,
        }
    }
}

/// A monotone counter handle. Cloning shares the underlying cell;
/// recording is one relaxed `fetch_add`.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` (relaxed).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total (monotone across reads).
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time gauge handle (one atomic, set or adjusted).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the gauge by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistCore {
    bounds: &'static [u64],
    /// `bounds.len() + 1` cells; the last is the `+Inf` overflow.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

/// A fixed-bucket histogram handle. Recording is two relaxed
/// `fetch_add`s (bucket + sum) after a short linear scan of the bounds
/// (≤ 16 entries, branch-predictable).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistCore>);

impl Histogram {
    fn new(kind: HistKind) -> Self {
        let bounds = kind.bounds();
        Histogram(Arc::new(HistCore {
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }))
    }

    /// Records one observation of `v`.
    #[inline]
    pub fn observe(&self, v: u64) {
        let core = &*self.0;
        let b = core.bounds.iter().position(|&ub| v <= ub).unwrap_or(core.bounds.len());
        core.buckets[b].fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// The preset bucket upper bounds (without the `+Inf` overflow).
    pub fn bounds(&self) -> &'static [u64] {
        self.0.bounds
    }

    fn read(&self, name: &str) -> HistogramSnapshot {
        let core = &*self.0;
        let buckets: Vec<u64> = core.buckets.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let sum = core.sum.load(Ordering::Relaxed);
        // Derive count from the buckets so the rendered `+Inf`
        // cumulative count always equals `_count` exactly, even while
        // recorders are mid-flight.
        let count = buckets.iter().sum();
        HistogramSnapshot { name: name.to_string(), bounds: core.bounds, buckets, count, sum }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A metrics registry: a name-keyed store of counters, gauges, and
/// histograms. The registry mutex guards only *registration* and
/// *snapshotting* — recording through a resolved handle never touches
/// it. The process-wide instance is [`global()`]; local registries
/// can be constructed for tests.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().unwrap();
        inner.counters.entry(name.to_string()).or_insert_with(|| Counter(Arc::default())).clone()
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().unwrap();
        inner.gauges.entry(name.to_string()).or_insert_with(|| Gauge(Arc::default())).clone()
    }

    /// The histogram named `name`, registering it with `kind`'s bucket
    /// preset on first use (later calls return the existing histogram
    /// whatever their `kind`).
    pub fn histogram(&self, name: &str, kind: HistKind) -> Histogram {
        let mut inner = self.inner.lock().unwrap();
        inner.histograms.entry(name.to_string()).or_insert_with(|| Histogram::new(kind)).clone()
    }

    /// A point-in-time read of every registered metric. Counters are
    /// monotone across successive snapshots; see the crate docs for
    /// the exact consistency contract.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: inner.counters.iter().map(|(n, c)| (n.clone(), c.value())).collect(),
            gauges: inner.gauges.iter().map(|(n, g)| (n.clone(), g.value())).collect(),
            histograms: inner.histograms.iter().map(|(n, h)| h.read(n)).collect(),
        }
    }
}

/// The process-wide registry every recording macro writes to.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn counter_accumulates_across_threads() {
        let reg = Registry::new();
        let c = reg.counter("t");
        thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 40_000);
    }

    #[test]
    fn same_name_same_metric() {
        let reg = Registry::new();
        reg.counter("x").add(2);
        reg.counter("x").add(3);
        assert_eq!(reg.counter("x").value(), 5);
        reg.gauge("g").set(9);
        assert_eq!(reg.gauge("g").value(), 9);
        reg.histogram("h", HistKind::LatencyUs).observe(7);
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("h").unwrap().count, 1);
    }

    #[test]
    fn histogram_buckets_cover_bounds_and_overflow() {
        let reg = Registry::new();
        let h = reg.histogram("lat", HistKind::LatencyUs);
        h.observe(0); // first bucket (<= 1)
        h.observe(1); // first bucket boundary is inclusive
        h.observe(2); // second bucket
        h.observe(u64::MAX); // +Inf overflow
        let snap = reg.snapshot().histogram("lat").unwrap().clone();
        assert_eq!(snap.buckets[0], 2);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(*snap.buckets.last().unwrap(), 1);
        assert_eq!(snap.count, 4);
    }

    #[test]
    fn gauge_is_point_in_time() {
        let reg = Registry::new();
        let g = reg.gauge("depth");
        g.set(5);
        g.add(-2);
        assert_eq!(g.value(), 3);
    }

    #[test]
    fn snapshot_counters_never_decrease_under_concurrent_recording() {
        let reg = Registry::new();
        let c = reg.counter("mono");
        let stop = AtomicBool::new(false);
        thread::scope(|s| {
            for _ in 0..3 {
                let c = c.clone();
                let stop = &stop;
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        c.inc();
                    }
                });
            }
            let mut last = 0u64;
            for _ in 0..500 {
                let v = reg.snapshot().counter("mono").unwrap();
                assert!(v >= last, "counter went backwards: {v} < {last}");
                last = v;
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
}
