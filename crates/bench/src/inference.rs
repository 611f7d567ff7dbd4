//! B12 — the interned-atom inference seam: seeded `FactBase` build and
//! saturation on the 10k-class tree tier.
//!
//! Introduced with the `AtomId` port of `onion-rules`, this experiment
//! records three build series plus the saturation run:
//!
//! * `b12_seed_string_10k` — the **pre-refactor baseline**: the frozen
//!   string-keyed engine (`onion_rules::reference`) seeded by building
//!   a `"onto.Term"` string per edge endpoint, exactly as the generator
//!   used to;
//! * `b12_seed_interned_cold_10k` — the interned path from an empty
//!   [`AtomTable`] (first-ever articulation run: every label is
//!   interned once);
//! * `b12_seed_interned_warm_10k` — the interned path against a warm
//!   shared table (the `OnionSystem` steady state: per-graph label
//!   memos hit on every fact, no hashing at all);
//! * `b12_saturate_10k` — seeded build plus a semi-naive run of the
//!   standard ONION program to fixpoint.
//!
//! A second tier is the **10k-class deep-hierarchy tier**
//! ([`deep_chain_ontology`]: 500 chains × 20 deep — the
//! saturation-adversarial shape, where transitive closure derives ~10×
//! the seed count):
//!
//! * `b12_naive_deep10k` — the naive loop: every round re-joins the
//!   entire growing fact base;
//! * `b12_seminaive_cold_deep10k` / `b12_seminaive_warm_deep10k` —
//!   the semi-naive production engine from a cold / warm atom table;
//! * `b12_parallel_saturation_deep10k` — the generator's seeding walk
//!   plus the `onion-exec` work-unit engine on 4 threads.
//!
//! Every interned row seeds through the one walk the articulation
//! generator runs ([`seed_subclass_facts`]). The string and interned
//! fact sets are asserted identical before any timing is recorded, the
//! saturation derivation counts of all engines are asserted equal, and
//! the deep tier additionally asserts fact-set checksums and that
//! `ParallelEngine`'s fact base and whole `InferenceStats` equal the
//! sequential semi-naive engine's at 1 and 4 threads (as B10 does for
//! query batches) — the series measure the same work.

use onion_core::exec::{fact_set_checksum, Executor, ParallelEngine};
use onion_core::ontology::Ontology;
use onion_core::rules::atoms::AtomTable;
use onion_core::rules::horn::HornProgram;
use onion_core::rules::infer::{seed_subclass_facts, FactBase, Strategy};
use onion_core::rules::properties::RelationRegistry;
use onion_core::rules::{reference, InferenceEngine};
use onion_core::testkit::{
    deep_chain_ontology, generate_ontology, seed_subclass_facts_strings, OntologySpec,
};

use crate::{run_series, BenchResult};

/// Threads for the parallel saturation row — fixed (not
/// `available_parallelism`) so the row is comparable across machines
/// via the machine-factor gate.
const PARALLEL_THREADS: usize = 4;

/// The B12 report: tier shape plus the measured series.
#[derive(Debug, Clone, Default)]
pub struct B12Report {
    /// Classes in the generated ontology.
    pub classes: usize,
    /// `subclassof` facts each seeded build produces.
    pub seeded_facts: usize,
    /// Facts derived by the saturation run (identical across engines,
    /// asserted).
    pub derived: usize,
    /// Classes in the deep-hierarchy tier.
    pub deep_classes: usize,
    /// Seed facts of the deep tier.
    pub deep_seeded: usize,
    /// Facts derived saturating the deep tier (identical across the
    /// naive, semi-naive, parallel, and reference engines — asserted).
    pub deep_derived: usize,
    /// Fixpoint rounds on the deep tier (semi-naive ledger).
    pub deep_rounds: usize,
    /// The measured series, in emission order.
    pub rows: Vec<BenchResult>,
}

/// The tier: a 10k-class generated ontology (its `SubclassOf` edges are
/// an attachment tree, so the closure stays `O(n log n)`).
fn tier() -> Ontology {
    generate_ontology(&OntologySpec {
        attr_density: 0.0,
        instance_density: 0.0,
        ..OntologySpec::sized("b12", 23, 10_000)
    })
}

/// Runs B12 and returns the report.
pub fn run_b12() -> B12Report {
    let onto = tier();
    let program = HornProgram::standard(&RelationRegistry::onion_default());

    // correctness gate first: both seeding paths produce the same facts
    // and both engines derive the same closure
    let mut atoms = AtomTable::new();
    let mut fb = FactBase::new();
    let seeded_facts = seed_subclass_facts(onto.graph(), &mut atoms, &mut fb);
    let mut sref = reference::FactBase::new();
    let seeded_ref = seed_subclass_facts_strings(&onto, &mut sref);
    assert_eq!(seeded_facts, seeded_ref, "seeding paths must load the same facts");
    let stats = InferenceEngine::new(program.clone()).run(&mut atoms, &mut fb).unwrap();
    let ref_stats = reference::InferenceEngine::new(program.clone()).run(&mut sref).unwrap();
    assert_eq!(
        stats.derived, ref_stats.derived,
        "interned and string engines must derive the same closure"
    );

    let mut rows = Vec::new();
    // pre-refactor string baseline: format + hash two strings per edge
    rows.push(run_series("b12_seed_string_10k", 5, || {
        let mut fb = reference::FactBase::new();
        seed_subclass_facts_strings(&onto, &mut fb) as u64
    }));
    // interned, cold table per repetition (first-run shape)
    rows.push(run_series("b12_seed_interned_cold_10k", 5, || {
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        seed_subclass_facts(onto.graph(), &mut atoms, &mut fb) as u64
    }));
    // interned, one shared warm table (the OnionSystem steady state)
    let mut warm = AtomTable::new();
    {
        let mut fb = FactBase::new();
        seed_subclass_facts(onto.graph(), &mut warm, &mut fb);
    }
    rows.push(run_series("b12_seed_interned_warm_10k", 7, || {
        let mut fb = FactBase::new();
        seed_subclass_facts(onto.graph(), &mut warm, &mut fb) as u64
    }));
    // seeded build + saturation to fixpoint on the warm table
    rows.push(run_series("b12_saturate_10k", 3, || {
        let mut fb = FactBase::new();
        seed_subclass_facts(onto.graph(), &mut warm, &mut fb);
        let stats = InferenceEngine::new(program.clone()).run(&mut warm, &mut fb).unwrap();
        stats.derived as u64
    }));

    // --- the deep-hierarchy tier: 500 chains × 20 deep, ~10k classes.
    // Transitive closure here derives ~10× the seed count, so the naive
    // re-join of the full fact base each round is the adversarial case
    // semi-naive exists for.
    let deep = deep_chain_ontology("deep", 500, 20);

    // deep-tier identity gate, before any timing (as B10 does): naive,
    // semi-naive, and the parallel engine at two thread counts must all
    // reach the same fixpoint — same derived count, same fact-set
    // checksum — and the parallel fact base and InferenceStats must
    // equal the sequential engine's at both thread counts.
    let mut deep_atoms = AtomTable::new();
    let mut deep_fb = FactBase::new();
    let deep_seeded = seed_subclass_facts(deep.graph(), &mut deep_atoms, &mut deep_fb);
    let deep_stats =
        InferenceEngine::new(program.clone()).run(&mut deep_atoms, &mut deep_fb).unwrap();
    let deep_checksum = fact_set_checksum(&deep_atoms, &deep_fb);
    {
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        assert_eq!(seed_subclass_facts(deep.graph(), &mut atoms, &mut fb), deep_seeded);
        let naive = InferenceEngine::new(program.clone())
            .with_strategy(Strategy::Naive)
            .run(&mut atoms, &mut fb)
            .unwrap();
        assert_eq!(naive.derived, deep_stats.derived, "naive and semi-naive fixpoints differ");
        assert_eq!(fact_set_checksum(&atoms, &fb), deep_checksum);
    }
    let deep_facts = deep_fb.facts_in_pred_order();
    for threads in [1, PARALLEL_THREADS] {
        let exec = Executor::new(threads);
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        seed_subclass_facts(deep.graph(), &mut atoms, &mut fb);
        let stats = ParallelEngine::new(program.clone()).run(&exec, &mut atoms, &mut fb).unwrap();
        assert_eq!(stats, deep_stats, "parallel stats must equal sequential (threads={threads})");
        assert!(fb.facts_in_pred_order() == deep_facts, "parallel fact base (threads={threads})");
        assert_eq!(fact_set_checksum(&atoms, &fb), deep_checksum);
    }

    // naive loop on a warm table — the comparison point the semi-naive
    // rows are measured against
    let mut deep_warm = AtomTable::new();
    {
        let mut fb = FactBase::new();
        seed_subclass_facts(deep.graph(), &mut deep_warm, &mut fb);
    }
    rows.push(run_series("b12_naive_deep10k", 3, || {
        let mut fb = FactBase::new();
        seed_subclass_facts(deep.graph(), &mut deep_warm, &mut fb);
        let stats = InferenceEngine::new(program.clone())
            .with_strategy(Strategy::Naive)
            .run(&mut deep_warm, &mut fb)
            .unwrap();
        stats.derived as u64
    }));
    // semi-naive from a cold atom table (first-run shape)
    rows.push(run_series("b12_seminaive_cold_deep10k", 3, || {
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        seed_subclass_facts(deep.graph(), &mut atoms, &mut fb);
        let stats = InferenceEngine::new(program.clone()).run(&mut atoms, &mut fb).unwrap();
        stats.derived as u64
    }));
    // semi-naive on the warm table — the row the naive loop is judged
    // against
    rows.push(run_series("b12_seminaive_warm_deep10k", 3, || {
        let mut fb = FactBase::new();
        seed_subclass_facts(deep.graph(), &mut deep_warm, &mut fb);
        let stats = InferenceEngine::new(program.clone()).run(&mut deep_warm, &mut fb).unwrap();
        stats.derived as u64
    }));
    // the generator's seeding walk + work-unit saturation on 4 threads
    let par_exec = Executor::new(PARALLEL_THREADS);
    rows.push(run_series("b12_parallel_saturation_deep10k", 3, || {
        let mut fb = FactBase::new();
        seed_subclass_facts(deep.graph(), &mut deep_warm, &mut fb);
        let stats =
            ParallelEngine::new(program.clone()).run(&par_exec, &mut deep_warm, &mut fb).unwrap();
        stats.derived as u64
    }));

    B12Report {
        classes: onto.term_count(),
        seeded_facts,
        derived: stats.derived,
        deep_classes: deep.term_count(),
        deep_seeded,
        deep_derived: deep_stats.derived,
        deep_rounds: deep_stats.iterations,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b12_runs_on_a_small_tier() {
        // same routines, toy size, so the suite stays fast
        let onto = generate_ontology(&OntologySpec {
            attr_density: 0.0,
            instance_density: 0.0,
            ..OntologySpec::sized("b12small", 23, 150)
        });
        let program = HornProgram::standard(&RelationRegistry::onion_default());
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        let n = seed_subclass_facts(onto.graph(), &mut atoms, &mut fb);
        assert!(n > 0);
        let stats = InferenceEngine::new(program.clone()).run(&mut atoms, &mut fb).unwrap();
        let mut sref = reference::FactBase::new();
        assert_eq!(seed_subclass_facts_strings(&onto, &mut sref), n);
        let rstats = reference::InferenceEngine::new(program.clone()).run(&mut sref).unwrap();
        assert_eq!(stats.derived, rstats.derived);
        assert_eq!(stats.iterations, rstats.iterations);
        // the reference joins in body order, so only the engines
        // sharing the work units agree on the whole ledger
        for threads in [1, 2] {
            let mut atoms = AtomTable::new();
            let mut fb = FactBase::new();
            seed_subclass_facts(onto.graph(), &mut atoms, &mut fb);
            let exec = Executor::new(threads);
            let par = ParallelEngine::new(program.clone()).run(&exec, &mut atoms, &mut fb).unwrap();
            assert_eq!(par, stats, "threads={threads}");
        }
    }
}
