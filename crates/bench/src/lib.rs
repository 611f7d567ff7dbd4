//! Shared scaffolding for the experiment families (README.md, "Tests and
//! benches").
//!
//! The `experiments` binary (`cargo run -p onion-bench --release --bin
//! experiments`) is the one driver: it prints the experiment tables and,
//! with `--json`, writes the `BENCH_onion.json` baseline. Every series
//! in either mode is timed by [`run_series`] into a [`BenchResult`].

#![forbid(unsafe_code)]

use std::hash::Hasher;
use std::sync::Arc;
use std::time::Instant;

use onion_core::exec::Fnv;
use onion_core::graph::hash::FxHasher;
use onion_core::prelude::*;
use onion_core::testkit::{overlap_pair, OverlapPair, OverlapSpec};

pub mod cache;
pub mod durability;
pub mod hotpaths;
pub mod inference;
pub mod observability;
pub mod parallel;

/// One measured series.
#[derive(Debug, Clone, Default)]
pub struct BenchResult {
    /// Stable series name (the JSON key).
    pub name: String,
    /// Median wall time over `reps` runs, in microseconds.
    pub median_us: f64,
    /// Fastest repetition, µs.
    pub min_us: f64,
    /// Slowest repetition, µs.
    pub max_us: f64,
    /// Number of timed repetitions.
    pub reps: usize,
    /// The routine's `u64` result from the last repetition, so the work
    /// cannot be optimised away and runs can be diffed for behavioural
    /// drift.
    pub checksum: u64,
}

impl BenchResult {
    /// Run-to-run spread: slowest over fastest repetition. The
    /// `--compare` regression thresholds are calibrated against the
    /// spreads recorded in the committed baseline (see `experiments`).
    pub fn spread(&self) -> f64 {
        if self.min_us > 0.0 {
            self.max_us / self.min_us
        } else {
            1.0
        }
    }
}

/// Times `reps` runs of `f` (whose `u64` result is black-boxed as the
/// checksum) into one [`BenchResult`].
pub fn run_series(name: &str, reps: usize, mut f: impl FnMut() -> u64) -> BenchResult {
    run_series_with(name, reps, &mut (), |_| {}, |_| f())
}

/// [`run_series`] with per-repetition preparation: `untimed` runs on
/// `state` before every repetition, outside the timed region, then
/// `timed` runs on it inside. The one timing loop of the crate.
pub fn run_series_with<S>(
    name: &str,
    reps: usize,
    state: &mut S,
    mut untimed: impl FnMut(&mut S),
    mut timed: impl FnMut(&mut S) -> u64,
) -> BenchResult {
    let reps = reps.max(1);
    let mut samples = Vec::with_capacity(reps);
    let mut checksum = 0u64;
    for _ in 0..reps {
        untimed(state);
        let t = Instant::now();
        checksum = std::hint::black_box(timed(state));
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    BenchResult {
        name: name.to_string(),
        median_us: samples[samples.len() / 2],
        min_us: samples[0],
        max_us: samples[samples.len() - 1],
        reps,
        checksum,
    }
}

/// Builds the standard experiment pair: `concepts` total concepts,
/// `overlap` shared fraction, half of the shared concepts renamed.
pub fn pair(seed: u64, concepts: usize, overlap: f64) -> OverlapPair {
    overlap_pair(&OverlapSpec { seed, concepts, overlap, rename_prob: 0.5, max_children: 5 })
}

/// Rule set bridging every planted truth pair (the confirmed
/// articulation for a generated pair).
pub fn truth_rules(pair: &OverlapPair) -> RuleSet {
    let mut rs = RuleSet::new();
    for (l, r) in &pair.truth {
        let (lo, ln) = l.split_once('.').expect("qualified");
        let (ro, rn) = r.split_once('.').expect("qualified");
        rs.push(ArticulationRule::term_implies(Term::qualified(lo, ln), Term::qualified(ro, rn)));
    }
    rs
}

/// Generates the articulation for a pair from its planted truth.
pub fn articulated(pair: &OverlapPair) -> Articulation {
    ArticulationGenerator::new()
        .generate(&truth_rules(pair), &[&pair.left, &pair.right])
        .expect("truth rules generate")
}

/// Populates one knowledge base per side with `n` instances spread over
/// the source's classes, each carrying a numeric `Price`.
pub fn instance_kbs(p: &OverlapPair, n: usize) -> (KnowledgeBase, KnowledgeBase) {
    let mut left = KnowledgeBase::new("left");
    let mut right = KnowledgeBase::new("right");
    for (kb, onto) in [(&mut left, &p.left), (&mut right, &p.right)] {
        let classes: Vec<String> = onto.graph().nodes().map(|x| x.label.to_string()).collect();
        for i in 0..n {
            let class = &classes[i % classes.len()];
            let id = format!("{}_{i}", kb.name());
            kb.add(Instance::new(&id, class).with("Price", Value::Num(((i * 37) % 50_000) as f64)));
        }
    }
    (left, right)
}

/// Order-sensitive checksum of a query batch's results over the whole
/// row: id, source, local class, and each attribute's name and value
/// (number bits or string bytes). Each string enters as its length and
/// its FxHash, which reads eight bytes per step: B15 times the checksum
/// with every batch, and a byte-at-a-time pass over every row would
/// outweigh the cache hits it checks.
pub fn batch_checksum(results: &[Arc<ResultSet>]) -> u64 {
    let mut h = Fnv::new();
    let text = |h: &mut Fnv, s: &str| {
        let mut fx = FxHasher::default();
        fx.write(s.as_bytes());
        h.mix(s.len() as u64);
        h.mix(fx.finish());
    };
    for rs in results {
        h.mix(rs.len() as u64);
        for row in &rs.rows {
            text(&mut h, &row.id);
            text(&mut h, &row.source);
            text(&mut h, &row.local_class);
            h.mix(row.attrs.len() as u64);
            for (k, v) in &row.attrs {
                text(&mut h, k);
                match v {
                    Value::Num(x) => h.mix(x.to_bits()),
                    Value::Str(s) => text(&mut h, s),
                }
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaffolding_builds() {
        let p = pair(1, 60, 0.25);
        let art = articulated(&p);
        assert_eq!(art.rules.len(), p.truth.len());
        let (l, r) = instance_kbs(&p, 50);
        assert_eq!(l.len(), 50);
        assert_eq!(r.len(), 50);
    }
}
