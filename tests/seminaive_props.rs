//! Differential fuzzing of semi-naive inference across engines, shard
//! counts and thread counts.
//!
//! The determinism contract under test (see `onion_exec::inference`):
//! seeding is the one graph walk (`seed_subclass_facts`), and
//! `ParallelEngine` runs the sequential engine's semi-naive work units
//! cut into delta-row ranges, merged in unit order. So the sequential
//! engine and `ParallelEngine` form one family: the seed counts, the
//! fact bases (`facts_in_pred_order()`, atom ids included) and the
//! whole [`InferenceStats`] must be **byte-identical across shard counts
//! {1, 2, 7, 64} and thread counts {1, 2, 4}**.
//!
//! Also here: the deep-hierarchy regression test pinning semi-naive's
//! O(log depth) round count and per-round deltas through the
//! [`RoundStats`] ledger (never wall-clock), and the generator-level
//! identity of `GeneratorStats` and the articulation with and without
//! an executor, on generated overlap pairs spread over 1 to 64 snapshot
//! shards.

use proptest::prelude::*;

use onion_core::articulate::{ArticulationGenerator, GeneratorConfig};
use onion_core::exec::ParallelEngine;
use onion_core::prelude::*;
use onion_core::rules::conflict::Disjointness;
use onion_core::rules::horn::HornProgram;
use onion_core::rules::infer::{
    seed_subclass_facts, FactBase, InferenceEngine, RoundStats, Strategy as InferStrategy,
};
use onion_core::rules::properties::RelationRegistry;
use onion_core::rules::{AtomTable, InferenceStats};
use onion_core::testkit::{deep_chain_ontology, overlap_pair, OverlapPair, OverlapSpec};

const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 64];
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn edge_list() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..24, 0u8..24), 1..40)
}

/// A subclass graph from the edge list (self-loops dropped: subclass
/// cycles would be rejected by ontology validation and are not the
/// subject here).
fn build_graph(edges: &[(u8, u8)], shards: usize) -> OntGraph {
    let mut g = OntGraph::new("g");
    for (a, b) in edges {
        if a != b {
            let _ = g.ensure_edge_by_labels(&format!("n{a}"), rel::SUBCLASS_OF, &format!("n{b}"));
        }
    }
    g.set_shard_count(shards);
    g
}

/// Every `pred` fact resolved to strings, sorted — the
/// interning-order-independent view.
fn resolved(atoms: &AtomTable, fb: &FactBase, pred: &str) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = fb
        .query2(atoms, pred, None, None)
        .into_iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    v.sort();
    v
}

/// Conflict verdicts: the sorted list of derived `si` pairs that
/// violate a disjointness declaration. Differential across engines —
/// a missing or extra derivation flips a verdict.
fn disjointness_verdicts(
    atoms: &AtomTable,
    fb: &FactBase,
    disjoint: &Disjointness,
) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> =
        resolved(atoms, fb, "si").into_iter().filter(|(a, b)| disjoint.contains(a, b)).collect();
    v.sort();
    v
}

/// Masks the process-global `graph_id` counter (fresh per generated
/// graph, run-independent noise) out of a Debug rendering.
fn mask_graph_id(s: &str) -> String {
    let mut out = String::new();
    let mut rest = s;
    while let Some(i) = rest.find("graph_id: ") {
        let tail = &rest[i + "graph_id: ".len()..];
        let digits = tail.find(|c: char| !c.is_ascii_digit()).unwrap_or(tail.len());
        out.push_str(&rest[..i]);
        out.push_str("graph_id: _");
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// One `left.X => right.Y` rule per planted equivalence of `pair`.
fn rules_from_truth(pair: &OverlapPair) -> RuleSet {
    let mut rs = RuleSet::new();
    for (l, r) in &pair.truth {
        let (lo, ln) = l.split_once('.').expect("qualified");
        let (ro, rn) = r.split_once('.').expect("qualified");
        rs.push(ArticulationRule::term_implies(Term::qualified(lo, ln), Term::qualified(ro, rn)));
    }
    rs
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// THE matrix property: seed + saturate on every shard count with
    /// the sequential engine and with `ParallelEngine` at every thread
    /// count. The whole family is byte-identical — seed counts, the
    /// final fact base with its atom ids and insertion order, the full
    /// `InferenceStats` — and so are the resolved fact sets and
    /// conflict verdicts read from it.
    #[test]
    fn shard_thread_matrix_is_deterministic(edges in edge_list()) {
        let program = HornProgram::standard(&RelationRegistry::onion_default());
        let mut disjoint = Disjointness::new();
        disjoint.declare("g.n1", "g.n2");
        disjoint.declare("g.n3", "g.n17");

        let mut family = None;
        for shards in SHARD_COUNTS {
            let g = build_graph(&edges, shards);
            // `None` is the sequential engine
            for threads in [None].into_iter().chain(THREAD_COUNTS.map(Some)) {
                let mut atoms = AtomTable::new();
                let mut fb = FactBase::new();
                let seeded = seed_subclass_facts(&g, &mut atoms, &mut fb);
                let stats = match threads {
                    None => InferenceEngine::new(program.clone()).run(&mut atoms, &mut fb),
                    Some(t) => ParallelEngine::new(program.clone())
                        .run(&Executor::new(t), &mut atoms, &mut fb),
                }
                .unwrap();
                let snapshot = (
                    seeded,
                    fb.facts_in_pred_order(),
                    stats,
                    (resolved(&atoms, &fb, "subclassof"), resolved(&atoms, &fb, "si")),
                    disjointness_verdicts(&atoms, &fb, &disjoint),
                );
                match &family {
                    None => family = Some(snapshot),
                    Some(first) => prop_assert_eq!(
                        &snapshot, first,
                        "byte-identical at shards={}, threads={:?}", shards, threads
                    ),
                }
            }
        }
    }

    /// The generator's executor path reproduces the sequential path
    /// exactly: the whole `GeneratorStats` and the articulation's
    /// `{:?}` (graph ids masked) are identical at two thread counts.
    /// Inputs are planted overlap pairs bridged by their ground truth,
    /// each source on its own drawn shard count.
    #[test]
    fn generator_parallel_expand_is_deterministic(
        seed in 0u64..1000,
        concepts in 20usize..80,
        shard_ix in (0usize..4, 0usize..4),
        threads_ix in 0usize..3,
    ) {
        let spec = OverlapSpec { seed, concepts, overlap: 0.4, ..Default::default() };
        let mut pair = overlap_pair(&spec);
        pair.left.graph_mut().set_shard_count(SHARD_COUNTS[shard_ix.0]);
        pair.right.graph_mut().set_shard_count(SHARD_COUNTS[shard_ix.1]);
        let rules = rules_from_truth(&pair);
        let sources = [&pair.left, &pair.right];

        let seq_gen = ArticulationGenerator::with_config(GeneratorConfig {
            expand_with_inference: true,
            ..Default::default()
        });
        let (seq_art, seq_stats) = seq_gen.generate_with_stats(&rules, &sources).unwrap();
        prop_assert!(seq_stats.derived_bridges > 0, "the input exercises inference");
        let seq_art = mask_graph_id(&format!("{seq_art:?}"));

        for threads in [THREAD_COUNTS[threads_ix], THREAD_COUNTS[(threads_ix + 1) % 3]] {
            let par_gen = ArticulationGenerator::with_config(GeneratorConfig {
                expand_with_inference: true,
                executor: Some(std::sync::Arc::new(Executor::new(threads))),
                ..Default::default()
            });
            let (par_art, par_stats) = par_gen.generate_with_stats(&rules, &sources).unwrap();
            prop_assert_eq!(&par_stats, &seq_stats, "threads={}", threads);
            prop_assert_eq!(mask_graph_id(&format!("{par_art:?}")), seq_art.clone(),
                "threads={}", threads);
        }
    }
}

/// Deep-hierarchy regression (satellite): semi-naive reaches the
/// fixpoint of a depth-`d` chain in O(log d) rounds — transitivity
/// doubles the reachable path length every round — with the shrinking
/// per-round deltas recorded in the ledger, while the naive loop
/// re-derives from the full fact set each round. Pinned entirely on
/// the `RoundStats` counters, never wall-clock.
#[test]
fn deep_chain_saturation_rounds_are_logarithmic() {
    let (chains, depth) = (4usize, 64usize);
    let onto = deep_chain_ontology("deep", chains, depth);
    let program =
        HornProgram::parse("subclassof(X, Z) :- subclassof(X, Y), subclassof(Y, Z).").unwrap();

    let run = |strategy: InferStrategy| -> (AtomTable, FactBase, InferenceStats) {
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        let seeded = seed_subclass_facts(onto.graph(), &mut atoms, &mut fb);
        assert_eq!(seeded, chains * depth);
        let stats = InferenceEngine::new(program.clone())
            .with_strategy(strategy)
            .run(&mut atoms, &mut fb)
            .unwrap();
        (atoms, fb, stats)
    };

    let (_, semi_fb, semi) = run(InferStrategy::SemiNaive);
    let (_, naive_fb, naive) = run(InferStrategy::Naive);
    assert_eq!(semi_fb.len(), naive_fb.len(), "identical fixpoint");
    assert_eq!(semi.derived, naive.derived);

    // O(log depth) rounds, not O(depth): path length doubles per round,
    // so ceil(log2(depth)) productive rounds + the fixpoint round.
    let log_bound = (usize::BITS - (depth - 1).leading_zeros()) as usize + 1;
    assert!(
        semi.iterations <= log_bound,
        "semi-naive took {} rounds for depth {depth} (log bound {log_bound})",
        semi.iterations
    );
    assert!(semi.iterations >= 4, "deep chain is genuinely multi-round");

    // The ledger: round 0 joins against every seeded fact, the deltas
    // then track exactly what the previous round derived, and the
    // derived column sums to the total.
    assert_eq!(semi.rounds.len(), semi.iterations);
    assert_eq!(semi.rounds[0].delta, chains * depth);
    for r in 1..semi.rounds.len() {
        assert_eq!(semi.rounds[r].delta, semi.rounds[r - 1].derived);
    }
    let ledger_total: usize = semi.rounds.iter().map(|r| r.derived).sum();
    assert_eq!(ledger_total, semi.derived);
    assert_eq!(semi.rounds.last().unwrap().derived, 0);

    // Naive's per-round derivations match (same fixpoint trajectory) …
    let semi_derived: Vec<usize> = semi.rounds.iter().map(|r| r.derived).collect();
    let naive_derived: Vec<usize> = naive.rounds.iter().map(|r| r.derived).collect();
    assert_eq!(semi_derived, naive_derived);
    // … but the delta columns separate the complexity classes: under
    // semi-naive every fact enters the delta exactly once, so the
    // column sums to the final fact count — O(total facts) join input
    // across the whole run. Naive feeds the entire growing base back
    // in every round — O(rounds × total facts) join input — and its
    // fixpoint-proving final round re-examines everything while
    // semi-naive's only chases the last (shrinking) delta.
    let semi_delta_sum: usize = semi.rounds.iter().map(|r| r.delta).sum();
    assert_eq!(semi_delta_sum, semi_fb.len(), "each fact is delta input exactly once");
    let naive_delta_sum: usize = naive.rounds.iter().map(|r| r.delta).sum();
    assert!(
        naive_delta_sum >= 2 * naive_fb.len(),
        "naive rederivation: {naive_delta_sum} delta input over {} facts",
        naive_fb.len()
    );
    let last: &RoundStats = naive.rounds.last().unwrap();
    assert_eq!(last.delta, naive_fb.len(), "naive joins the full base every round");
    assert!(
        last.examined >= 2 * semi.rounds.last().unwrap().examined,
        "final naive round re-examines the closure ({} vs {})",
        last.examined,
        semi.rounds.last().unwrap().examined
    );
    assert!(
        naive.atoms_examined * 2 >= semi.atoms_examined * 3,
        "naive total effort ({}) should clearly exceed semi-naive ({})",
        naive.atoms_examined,
        semi.atoms_examined
    );

    // The parallel engine runs the same work units: its fact base and
    // whole `InferenceStats` equal the sequential engine's at every
    // thread count.
    for threads in THREAD_COUNTS {
        let exec = Executor::new(threads);
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        seed_subclass_facts(onto.graph(), &mut atoms, &mut fb);
        let stats = ParallelEngine::new(program.clone()).run(&exec, &mut atoms, &mut fb).unwrap();
        assert_eq!(stats, semi, "threads={threads}");
        assert!(fb.facts_in_pred_order() == semi_fb.facts_in_pred_order(), "threads={threads}");
    }
}
