//! In-memory span recording for the traced run.
//!
//! Spans are recorded only by the benchmark, around each public layer
//! call it makes: name, start, end, parent span, and the id of the
//! session / batch / commit (the "unit") the work belongs to. They stay
//! in memory until the run ends and are then reduced to a self-time
//! table and written out. A span's self time is its duration minus the
//! part of its interval covered by its direct children (children on
//! pool threads may overlap, so coverage is an interval union).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::util::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    pub unit: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Thread-safe span sink; ids start at 1 so `0` can mean "no parent".
pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), next: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's
    /// id to parent its own children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        unit: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        // Relaxed: the id only needs to be unique, it orders nothing.
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now();
        let out = f(id);
        let end_ns = self.now();
        self.spans.lock().expect("a span recorder panicked").push(Span {
            id,
            parent,
            unit,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("a span recorder panicked").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi)`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[derive(Debug, Clone, Default)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The reduced trace: per-name totals and self times, root time and
/// how much of it named layer spans cover.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    pub by_name: BTreeMap<&'static str, NameStats>,
    /// Σ root span durations — the traced wall time of the timed work.
    pub root_ns: u64,
    /// Part of the root spans covered by their child (layer) spans.
    pub covered_ns: u64,
    /// Per root span id: time covered by its children.
    pub covered_by_root: BTreeMap<u64, u64>,
}

impl Analysis {
    pub fn coverage(&self) -> f64 {
        if self.root_ns == 0 {
            0.0
        } else {
            self.covered_ns as f64 / self.root_ns as f64
        }
    }

    /// Mean duration of the spans named `name`, in µs (0 when none ran).
    pub fn mean_us(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |s| s.total_ns as f64 / s.count.max(1) as f64 / 1e3)
    }
}

pub fn analyse(spans: &[Span]) -> Analysis {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut a = Analysis::default();
    for s in spans {
        let covered =
            children.get_mut(&s.id).map(|kids| union_len(kids, s.start_ns, s.end_ns)).unwrap_or(0);
        let e = a.by_name.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns() - covered;
        if s.parent == 0 {
            a.root_ns += s.dur_ns();
            a.covered_ns += covered;
            a.covered_by_root.insert(s.id, covered);
        }
    }
    a
}

/// Σ duration of spans named `name`, grouped by unit.
pub fn per_unit_ns(spans: &[Span], name: &str) -> BTreeMap<u64, u64> {
    let mut m = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *m.entry(s.unit).or_insert(0) += s.dur_ns();
    }
    m
}

/// Human-readable self-time table, sorted by self time.
pub fn self_time_table(a: &Analysis) -> String {
    let mut rows: Vec<(&&str, &NameStats)> = a.by_name.iter().collect();
    rows.sort_by_key(|(_, s)| std::cmp::Reverse(s.self_ns));
    let mut out = format!(
        "{:<28} {:>8} {:>12} {:>12} {:>8}\n",
        "span", "count", "total_ms", "self_ms", "self_%"
    );
    for (name, s) in rows {
        out.push_str(&format!(
            "{:<28} {:>8} {:>12.3} {:>12.3} {:>7.2}%\n",
            name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            100.0 * s.self_ns as f64 / a.root_ns.max(1) as f64
        ));
    }
    out.push_str(&format!(
        "layer spans cover {:.2}% of {:.3} ms traced root time\n",
        100.0 * a.coverage(),
        a.root_ns as f64 / 1e6
    ));
    out
}

/// The span dump plus the self-time table as JSON.
pub fn dump(spans: &[Span], a: &Analysis) -> Json {
    let table = a
        .by_name
        .iter()
        .map(|(name, s)| {
            (
                name.to_string(),
                Json::obj([
                    ("count", Json::Int(s.count)),
                    ("total_ms", Json::Num(s.total_ns as f64 / 1e6)),
                    ("self_ms", Json::Num(s.self_ns as f64 / 1e6)),
                ]),
            )
        })
        .collect();
    let spans = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("id", Json::Int(s.id)),
                ("parent", Json::Int(s.parent)),
                ("unit", Json::Int(s.unit)),
                ("name", Json::str(s.name)),
                ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
                ("end_us", Json::Num(s.end_ns as f64 / 1e3)),
            ])
        })
        .collect();
    Json::obj([
        ("root_ms", Json::Num(a.root_ns as f64 / 1e6)),
        ("coverage", Json::Num(a.coverage())),
        ("self_time", Json::Obj(table)),
        ("spans", Json::Arr(spans)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, unit: 0, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 50),
            span(3, 1, "b", 30, 70), // overlaps a: union is 10..70
            span(4, 2, "c", 20, 30),
        ];
        let a = analyse(&spans);
        assert_eq!(a.root_ns, 100);
        assert_eq!(a.covered_ns, 60);
        assert_eq!(a.by_name["root"].self_ns, 40);
        assert_eq!(a.by_name["a"].self_ns, 30);
        assert_eq!(a.by_name["c"].self_ns, 10);
        assert!((a.coverage() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_parents_and_units() {
        let t = Tracer::default();
        t.span("root", 0, 7, |root| {
            t.span("child", root, 7, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, root.id);
        assert_eq!(child.unit, 7);
        assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
    }
}
