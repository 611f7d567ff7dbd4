//! Differential properties of the query-serving fast path
//! ([`OnionSystem::run_batch`] + the epoch-keyed result cache):
//!
//! * batches through a cache-enabled system are **element-wise
//!   identical** to an identically-built cache-less system, across
//!   rounds of interleaved result-changing edits and source publishes
//!   — a stale hit after an edit is the bug class this suite exists to
//!   kill;
//! * under churn far past capacity the cache stays bounded (`entries ≤
//!   capacity`), evicts, and still serves correct results;
//! * exact-duplicate queries in one batch are deduplicated (the
//!   duplicate shares the executed `Arc`) even with the cache
//!   disabled, while parse errors stay reported in their input slot.

use std::sync::Arc;

use proptest::prelude::*;

use onion_core::exec::Executor;
use onion_core::prelude::*;
use onion_core::testkit::{overlap_pair, random_queries, OverlapPair, OverlapSpec};
use onion_core::OnionSystem;

fn std_pair(seed: u64, concepts: usize) -> OverlapPair {
    overlap_pair(&OverlapSpec { seed, concepts, overlap: 0.3, rename_prob: 0.5, max_children: 5 })
}

fn articulated(pair: &OverlapPair) -> Articulation {
    let mut rules = RuleSet::new();
    for (l, r) in &pair.truth {
        let (lo, ln) = l.split_once('.').unwrap();
        let (ro, rn) = r.split_once('.').unwrap();
        rules
            .push(ArticulationRule::term_implies(Term::qualified(lo, ln), Term::qualified(ro, rn)));
    }
    ArticulationGenerator::new().generate(&rules, &[&pair.left, &pair.right]).unwrap()
}

/// One side's knowledge base with `n` priced instances; growing `n`
/// changes query answers, which is exactly what the differential
/// rounds need.
fn side_kb(name: &str, onto: &Ontology, n: usize) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new(name);
    let classes: Vec<String> = onto.graph().nodes().map(|x| x.label.to_string()).collect();
    for i in 0..n {
        let class = &classes[i % classes.len()];
        kb.add(
            Instance::new(&format!("{name}_{i}"), class)
                .with("Price", Value::Num(((i * 37) % 50_000) as f64)),
        );
    }
    kb
}

/// Identically-built two-source system; `cache == 0` leaves the query
/// cache disabled.
fn build_system(pair: &OverlapPair, instances: usize, cache: usize) -> OnionSystem {
    let mut s = OnionSystem::new(pair.lexicon.clone());
    s.add_source(pair.left.clone());
    s.add_source(pair.right.clone());
    s.add_knowledge_base(side_kb("left", &pair.left, instances));
    s.add_knowledge_base(side_kb("right", &pair.right, instances));
    s.set_articulation(articulated(pair));
    if cache > 0 {
        s.set_query_cache(cache);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Cache-on vs cache-off differential across interleaved edits and
    /// publishes. Every round runs the batch twice on the cached
    /// system — the second pass is all warm hits, so any entry
    /// surviving the previous round's epoch bump would surface here as
    /// a stale result.
    #[test]
    fn cached_batches_match_uncached_across_interleaved_publishes(
        seed in 0u64..10,
        rounds in 1usize..4,
        base in 40usize..80,
    ) {
        let pair = std_pair(seed, 80);
        let queries = random_queries(&articulated(&pair), "Price", 16, seed ^ 0xca11);
        let mut cached = build_system(&pair, base, 64);
        let mut plain = build_system(&pair, base, 0);
        let exec = Executor::new(2);

        for round in 0..=rounds {
            let want: Vec<ResultSet> = plain
                .run_batch(&exec, &queries)
                .into_iter()
                .map(|r| r.unwrap().as_ref().clone())
                .collect();
            for pass in 0..2 {
                let got = cached.run_batch(&exec, &queries);
                for (slot, (g, w)) in got.iter().zip(&want).enumerate() {
                    prop_assert_eq!(
                        g.as_ref().unwrap().as_ref(), w,
                        "round={} pass={} slot={}", round, pass, slot
                    );
                }
            }

            // result-changing edit on BOTH systems: regrow the left KB
            // (replaces by name, bumps the state epoch) ...
            let grown = base + (round + 1) * 7;
            cached.add_knowledge_base(side_kb("left", &pair.left, grown));
            plain.add_knowledge_base(side_kb("left", &pair.left, grown));
            // ... plus a graph edit + publish on the right source
            for s in [&mut cached, &mut plain] {
                let g = s.source_mut("right").unwrap().graph_mut();
                let n = g.node_ids().next().unwrap();
                g.ensure_edge(n, &format!("probe{round}"), n).unwrap();
                s.publish_source("right").unwrap();
            }
        }

        let stats = cached.query_cache_stats().unwrap();
        prop_assert!(stats.hits > 0, "warm passes must hit");
        prop_assert!(stats.misses > 0, "epoch bumps must retire entries");
    }
}

/// A capacity-4 cache fed 24 distinct queries per round: the facade
/// reports the requested capacity, entries stay bounded by it (a full
/// cache stays full), the CLOCK sweep evicts, and the served results
/// still match the uncached system exactly.
#[test]
fn eviction_churn_stays_bounded_and_correct() {
    let pair = std_pair(77, 60);
    let queries: Vec<Query> = articulated(&pair)
        .ontology
        .graph()
        .nodes()
        .take(24)
        .map(|n| Query::all(&n.label.to_string()).select("Price"))
        .collect();
    assert!(queries.len() > 8, "need far more distinct queries than capacity");

    let cached = build_system(&pair, 120, 4);
    let plain = build_system(&pair, 120, 0);
    let exec = Executor::new(2);
    for round in 0..3 {
        let want = plain.run_batch(&exec, &queries);
        let got = cached.run_batch(&exec, &queries);
        for (slot, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.as_ref().unwrap().as_ref(),
                w.as_ref().unwrap().as_ref(),
                "round={round} slot={slot}"
            );
        }
    }

    let stats = cached.query_cache_stats().unwrap();
    assert_eq!(stats.capacity, 4, "set_query_cache(4) holds at most 4 entries");
    assert_eq!(stats.entries, 4, "24 distinct queries fill the cache");
    assert!(
        stats.entries <= stats.capacity,
        "cache must stay bounded: {} entries > {} capacity",
        stats.entries,
        stats.capacity
    );
    assert!(stats.evictions > 0, "churn past capacity must evict");
    assert_eq!(
        stats.insertions,
        stats.entries as u64 + stats.evictions,
        "every insert is either live or was evicted"
    );
}

/// Exact duplicates in a batch execute once and share the result
/// `Arc`; parse errors stay in their input slot. Holds with the cache
/// enabled AND disabled (dedup is a batch-scheduler property, not a
/// cache property).
#[test]
fn batch_dedup_and_error_slots_survive_cache_off() {
    let pair = std_pair(9, 60);
    let valid = {
        let art = articulated(&pair);
        let class = art.ontology.graph().nodes().next().unwrap().label.to_string();
        Query::all(&class).select("Price").to_string()
    };
    let texts = [valid.as_str(), "not a query", valid.as_str(), "definitely ) not ( either"];
    let exec = Executor::new(2);

    let mut answers = Vec::new();
    for capacity in [8usize, 0] {
        let system = build_system(&pair, 50, capacity);
        let out = system.query_batch(&exec, &texts);
        assert_eq!(out.len(), texts.len());
        assert!(out[0].is_ok(), "capacity={capacity}");
        assert!(out[1].is_err(), "parse error stays in slot 1 (capacity={capacity})");
        assert!(out[3].is_err(), "parse error stays in slot 3 (capacity={capacity})");
        assert!(
            Arc::ptr_eq(out[0].as_ref().unwrap(), out[2].as_ref().unwrap()),
            "duplicate shares the executed Arc (capacity={capacity})"
        );
        answers.push(out[0].as_ref().unwrap().as_ref().clone());
    }
    assert_eq!(answers[0], answers[1], "cache on/off answers agree");
}
