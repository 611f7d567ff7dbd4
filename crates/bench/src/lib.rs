//! Shared scaffolding for the experiment benches (README.md, "Tests and
//! benches").
//!
//! Each bench target regenerates one experiment's series; the
//! `experiments` binary (`cargo run -p onion-bench --release --bin
//! experiments`) prints the full set of experiment tables.

use onion_core::prelude::*;
use onion_core::testkit::{overlap_pair, OverlapPair, OverlapSpec};

pub mod cache;
pub mod durability;
pub mod hotpaths;
pub mod inference;
pub mod observability;
pub mod parallel;
pub mod publish;

/// Median wall time (µs) of `reps` runs of `f` — the one in-process
/// timing helper shared by the experiment tables, the B10 runner, and
/// the `experiments` binary.
pub fn median_micros(reps: usize, mut f: impl FnMut()) -> f64 {
    let reps = reps.max(1);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = std::time::Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
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
