//! Properties of the parallel executor: parallel query batches are
//! **identical** to the sequential path at every thread count.

use onion_core::exec::Executor;
use onion_core::prelude::*;

/// Batch query execution through the facade: parallel `run_batch`
/// equals per-query sequential execution on a generated two-source
/// system (end-to-end, through reformulation and conversion).
#[test]
fn run_batch_equals_sequential_on_generated_sources() {
    use onion_core::testkit::{overlap_pair, random_queries, OverlapSpec};

    let pair = overlap_pair(&OverlapSpec {
        seed: 5,
        concepts: 120,
        overlap: 0.3,
        rename_prob: 0.5,
        max_children: 5,
    });
    let mut rules = RuleSet::new();
    for (l, r) in &pair.truth {
        let (lo, ln) = l.split_once('.').unwrap();
        let (ro, rn) = r.split_once('.').unwrap();
        rules
            .push(ArticulationRule::term_implies(Term::qualified(lo, ln), Term::qualified(ro, rn)));
    }
    let art = ArticulationGenerator::new().generate(&rules, &[&pair.left, &pair.right]).unwrap();
    let queries = random_queries(&art, "Price", 24, 11);

    let mut system = onion_core::OnionSystem::new(pair.lexicon.clone());
    system.add_source(pair.left.clone());
    system.add_source(pair.right.clone());
    system.set_articulation(art);
    let mut lkb = KnowledgeBase::new("left");
    let mut rkb = KnowledgeBase::new("right");
    for (kb, onto) in [(&mut lkb, &pair.left), (&mut rkb, &pair.right)] {
        let classes: Vec<String> = onto.graph().nodes().map(|x| x.label.to_string()).collect();
        for i in 0..200 {
            let class = &classes[i % classes.len()];
            kb.add(
                Instance::new(&format!("{}_{i}", kb.name()), class)
                    .with("Price", Value::Num(((i * 37) % 50_000) as f64)),
            );
        }
    }
    system.add_knowledge_base(lkb);
    system.add_knowledge_base(rkb);

    let sequential: Vec<ResultSet> = queries.iter().map(|q| system.run_query(q).unwrap()).collect();
    for threads in [1usize, 2, 4] {
        let exec = Executor::new(threads);
        let batch = system.run_batch(&exec, &queries);
        let got: Vec<ResultSet> = batch.into_iter().map(|r| r.unwrap().as_ref().clone()).collect();
        assert_eq!(got, sequential, "threads={threads}");
    }
}
