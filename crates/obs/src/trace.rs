//! Tracing spans and the bounded in-memory event ring.
//!
//! A [`Span`] is a guard object minted by the [`span!`](crate::span!)
//! macro: on drop it records its wall-time into the site's latency
//! histogram and, when the site captured fields, appends a structured
//! [`TraceEvent`] to the global trace ring. The ring is for coarse
//! post-hoc inspection (recovery, checkpoints, expensive publishes) —
//! it is mutex-backed and bounded, not a hot-path structure.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::Histogram;

/// Capacity of the global trace ring: old events are dropped once this
/// many are buffered.
pub const TRACE_RING_CAP: usize = 256;

/// One structured event in the trace ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotone sequence number (process-wide, never reused; gaps mean
    /// events were dropped by the ring bound).
    pub seq: u64,
    /// Event (or span) name.
    pub name: &'static str,
    /// Captured `key = value` fields, in capture order.
    pub fields: Vec<(&'static str, String)>,
    /// Wall-time for span-end events; `None` for point events.
    pub duration_us: Option<u64>,
}

/// The bounded event buffer ("TraceRing"): a mutexed deque capped at
/// [`TRACE_RING_CAP`], plus the next sequence number. Both sit behind
/// one lock so events enter the deque in `seq` order.
#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<TraceEvent>,
    next_seq: u64,
}

/// Locks the global ring. A writer that panicked mid-push leaves it
/// valid (at worst a `seq` gap), so a poisoned lock is recovered rather
/// than propagated: `push_event` runs inside `Span::drop`.
fn ring() -> MutexGuard<'static, Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(Mutex::default).lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serialises the unit tests that fill, clear or read the global ring,
/// so one test's burst or clear cannot evict another test's events
/// between its push and its read. Poison is recovered as in [`ring`]:
/// a failed test must not fail the others.
#[cfg(test)]
pub(crate) fn ring_test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Appends one event to the global trace ring, evicting the oldest if
/// full. Callers normally go through [`event!`](crate::event!) (which
/// gates on [`enabled()`](crate::enabled)); this function records
/// unconditionally.
pub fn push_event(
    name: &'static str,
    fields: Vec<(&'static str, String)>,
    duration_us: Option<u64>,
) {
    let mut r = ring();
    let seq = r.next_seq;
    r.next_seq += 1;
    if r.events.len() == TRACE_RING_CAP {
        r.events.pop_front();
    }
    r.events.push_back(TraceEvent { seq, name, fields, duration_us });
}

/// A copy of the buffered events, oldest first.
pub fn trace_events() -> Vec<TraceEvent> {
    ring().events.iter().cloned().collect()
}

/// Empties the trace ring (sequence numbers keep counting).
pub fn clear_trace() {
    ring().events.clear();
}

/// A span guard: created by [`span!`](crate::span!), records on drop.
/// The disabled form carries no state and its drop is a no-op branch.
#[derive(Debug)]
pub struct Span {
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    start: Instant,
    hist: Histogram,
    name: &'static str,
    fields: Vec<(&'static str, String)>,
    trace: bool,
}

impl Span {
    /// The no-op span the disabled path returns.
    #[inline]
    pub fn disabled() -> Span {
        Span { active: None }
    }

    /// A recording span: wall-time since now goes into `hist` on drop;
    /// with `trace` set, a span-end [`TraceEvent`] carrying `fields`
    /// is appended too.
    pub fn recording(
        hist: Histogram,
        name: &'static str,
        fields: Vec<(&'static str, String)>,
        trace: bool,
    ) -> Span {
        Span { active: Some(ActiveSpan { start: Instant::now(), hist, name, fields, trace }) }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            let us = a.start.elapsed().as_micros() as u64;
            a.hist.observe(us);
            if a.trace {
                push_event(a.name, a.fields, Some(us));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HistKind, Registry};

    #[test]
    fn ring_is_bounded_and_ordered() {
        let _ring = ring_test_lock();
        clear_trace();
        let base = {
            push_event("bound_probe", Vec::new(), None);
            trace_events().last().unwrap().seq
        };
        for i in 0..TRACE_RING_CAP + 10 {
            push_event("bound_fill", vec![("i", i.to_string())], None);
        }
        let events = trace_events();
        assert_eq!(events.len(), TRACE_RING_CAP);
        // the probe and the 10 oldest fills were evicted
        assert!(events.first().unwrap().seq > base);
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    #[test]
    fn concurrent_writers_keep_the_ring_seq_ordered() {
        let _ring = ring_test_lock();
        let ordered = || trace_events().windows(2).all(|w| w[0].seq < w[1].seq);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for i in 0..5_000 {
                        push_event("race_probe", Vec::new(), None);
                        // check while all four writers contend, not just
                        // after the last one finished alone
                        if i % 64 == 0 {
                            assert!(ordered(), "ring out of seq order");
                        }
                    }
                });
            }
        });
        assert!(ordered(), "ring out of seq order");
    }

    #[test]
    fn span_records_duration_into_histogram() {
        let reg = Registry::new();
        let h = reg.histogram("span_us", HistKind::LatencyUs);
        {
            let _s = Span::recording(h, "t", Vec::new(), false);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("span_us").unwrap().count, 1);
    }

    #[test]
    fn traced_span_appends_event_with_duration() {
        let _ring = ring_test_lock();
        let reg = Registry::new();
        let h = reg.histogram("traced_us", HistKind::LatencyUs);
        {
            let _s = Span::recording(h, "traced_span", vec![("k", "v".into())], true);
        }
        let e = trace_events().into_iter().rfind(|e| e.name == "traced_span").unwrap();
        assert_eq!(e.fields, vec![("k", "v".to_string())]);
        assert!(e.duration_us.is_some());
    }

    #[test]
    fn disabled_span_is_inert() {
        let _s = Span::disabled(); // dropping must not touch anything
    }
}
