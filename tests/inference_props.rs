//! Property-based equivalence of the inference strategies (§4.1 / B6)
//! **and** of the engine generations: the interned-`AtomId` engine
//! (`onion_rules::infer`) must match the frozen pre-refactor
//! string-keyed engine (`onion_rules::reference`) on arbitrary Horn
//! programs built through the textual `parser`/`horn` boundary —
//! derived fact sets and the round trajectory for every strategy, and
//! the whole `InferenceStats` for naive and full-closure. Semi-naive
//! rounds run delta-first work units, while the reference joins in
//! body order, so their candidate counts differ. The parallel engine
//! (`onion_exec::ParallelEngine`) runs the same work units as the
//! sequential one and must equal it — fact base and whole
//! `InferenceStats` — at every thread count (the shard/thread matrix
//! lives in `seminaive_props.rs`).

use std::collections::HashSet;

use proptest::prelude::*;

use onion_core::exec::ParallelEngine;
use onion_core::prelude::*;
use onion_core::rules::horn::HornProgram;
use onion_core::rules::infer::{
    seed_subclass_facts, FactBase, InferenceEngine, InferenceStats, Strategy as InferStrategy,
};
use onion_core::rules::reference;
use onion_core::rules::AtomTable;

/// Graph-side oracle: every pair joined by a path of one or more
/// edges, closed by Warshall's triple loop over the edge relation.
fn brute_closure(g: &OntGraph) -> HashSet<(NodeId, NodeId)> {
    let nodes: Vec<NodeId> = g.node_ids().collect();
    let mut pairs: HashSet<(NodeId, NodeId)> =
        g.edge_entries().map(|(_, s, _, d)| (s, d)).collect();
    for &k in &nodes {
        for &i in &nodes {
            for &j in &nodes {
                if pairs.contains(&(i, k)) && pairs.contains(&(k, j)) {
                    pairs.insert((i, j));
                }
            }
        }
    }
    pairs
}

fn edge_list() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..10, 0u8..10), 0..30)
}

/// Symbol vocabulary mixing unqualified, qualified and multi-dot names,
/// so the differential test exercises the atom table's namespace split.
fn sym(i: u8) -> String {
    match i % 3 {
        0 => format!("n{i}"),
        1 => format!("o1.t{i}"),
        _ => format!("o2.sub.t{i}"),
    }
}

/// Known-safe clause templates over the shared vocabulary; programs are
/// random subsequences, composed and re-parsed through the text form.
const CLAUSES: &[&str] = &[
    "p(X, Z) :- p(X, Y), p(Y, Z).",
    "q(Y, X) :- p(X, Y).",
    "si(X, Y) :- p(X, Y).",
    "si(X, Z) :- si(X, Y), si(Y, Z).",
    "r(X) :- p(X, \"o1.t1\").",
    "si(X, Y) :- p(X, Y), q(X, Y).",
    "p(\"o1.t4\", \"o2.sub.t5\").",
    "touched(X) :- q(X, Y), si(Y, X).",
    // mixed arities: `p` and `touched` gain a second arity, `w` is
    // ternary, so rows of one predicate differ in length
    "p(X) :- q(X, Y).",
    "w(X, Y, Z) :- p(X, Y), p(Y, Z).",
    "touched(X, Y) :- w(X, Y, Y).",
];

const PREDS: &[&str] = &["p", "q", "r", "si", "touched", "w"];

fn program_text() -> impl Strategy<Value = String> {
    // bitmask subset of the templates (1.. so programs are non-empty);
    // the vendored proptest shim has no prop::sample
    (1usize..(1 << CLAUSES.len())).prop_map(|mask| {
        CLAUSES
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, c)| *c)
            .collect::<Vec<_>>()
            .join("\n")
    })
}

/// Every predicate's fact set, resolved to strings and sorted (rows
/// kept apart, since one predicate's rows may differ in arity).
fn interned_facts(fb: &FactBase, atoms: &AtomTable) -> Vec<Vec<Vec<String>>> {
    let mut out = Vec::new();
    for pred in PREDS {
        let mut rows: Vec<Vec<String>> = fb
            .facts_of(atoms, pred)
            .into_iter()
            .map(|args| args.into_iter().map(str::to_string).collect())
            .collect();
        rows.sort();
        out.push(rows);
    }
    out
}

fn reference_facts(fb: &reference::FactBase) -> Vec<Vec<Vec<String>>> {
    let mut out = Vec::new();
    for pred in PREDS {
        let mut rows: Vec<Vec<String>> = fb
            .facts_of(pred)
            .into_iter()
            .map(|args| args.into_iter().map(str::to_string).collect())
            .collect();
        rows.sort();
        out.push(rows);
    }
    out
}

/// `stats` without the counters that depend on join order
/// (`atoms_examined`, each round's `examined`) or on the merge
/// (`worker_merge_facts`): what a semi-naive run shares with the
/// reference engine's.
fn trajectory(stats: &InferenceStats) -> InferenceStats {
    let mut t = stats.clone();
    t.atoms_examined = 0;
    t.worker_merge_facts.clear();
    for r in &mut t.rounds {
        r.examined = 0;
    }
    t
}

fn sorted_facts(atoms: &AtomTable, fb: &FactBase, pred: &str) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = fb
        .query2(atoms, pred, None, None)
        .into_iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// THE differential property of the AtomId port: on random programs
    /// (through the parser text form) and random fact sets, the interned
    /// engine and the frozen string-keyed reference derive identical
    /// fact sets, for every strategy. Naive and full-closure also agree
    /// on the whole `InferenceStats`; semi-naive on everything but the
    /// join-order counters (see [`trajectory`]).
    #[test]
    fn interned_engine_matches_string_reference(
        text in program_text(),
        edges in edge_list(),
        strat_ix in 0usize..3,
    ) {
        let strat = [InferStrategy::SemiNaive, InferStrategy::Naive, InferStrategy::FullClosure]
            [strat_ix];
        let program = HornProgram::parse(&text).unwrap();

        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        let mut rfb = reference::FactBase::new();
        for (a, b) in &edges {
            let (sa, sb) = (sym(*a), sym(*b));
            fb.add(&mut atoms, "p", &[&sa, &sb]);
            rfb.add("p", &[&sa, &sb]);
        }
        let stats = InferenceEngine::new(program.clone())
            .with_strategy(strat)
            .run(&mut atoms, &mut fb)
            .unwrap();
        let ref_stats = reference::InferenceEngine::new(program)
            .with_strategy(strat)
            .run(&mut rfb)
            .unwrap();

        if strat == InferStrategy::SemiNaive {
            prop_assert_eq!(trajectory(&stats), trajectory(&ref_stats), "semi-naive trajectory");
        } else {
            prop_assert_eq!(stats, ref_stats, "work counters must match exactly ({:?})", strat);
        }
        prop_assert_eq!(fb.len(), rfb.len());
        prop_assert_eq!(
            interned_facts(&fb, &atoms),
            reference_facts(&rfb),
            "derived fact sets must match ({:?})", strat
        );
    }

    /// Interning is stable across `FactBase` reuse (the shared-table
    /// churn shape): re-seeding the same graph into a fresh base interns
    /// nothing new and yields the identical fact set; growing the graph
    /// interns exactly the new vocabulary.
    #[test]
    fn interning_stable_across_factbase_reuse(edges in edge_list(), extra in 0u8..10) {
        let mut g = OntGraph::new("churn");
        // anchor edge so the initial seeding always interns the
        // predicate, the namespace and n0 (the growth step's target)
        g.ensure_edge_by_labels("n0", rel::SUBCLASS_OF, "n1").unwrap();
        for (a, b) in &edges {
            if a != b {
                let _ = g.ensure_edge_by_labels(&format!("n{a}"), rel::SUBCLASS_OF, &format!("n{b}"));
            }
        }
        let mut atoms = AtomTable::new();
        let mut fb1 = FactBase::new();
        let o = Ontology::from_graph(g.clone());
        seed_subclass_facts(o.graph(), &mut atoms, &mut fb1);
        let warm = atoms.len();

        let mut fb2 = FactBase::new();
        seed_subclass_facts(o.graph(), &mut atoms, &mut fb2);
        prop_assert_eq!(atoms.len(), warm, "re-seeding interns nothing new");
        prop_assert_eq!(fb1.len(), fb2.len());
        prop_assert_eq!(
            sorted_facts(&atoms, &fb1, "subclassof"),
            sorted_facts(&atoms, &fb2, "subclassof")
        );

        // grow the graph by one fresh node: exactly one new name atom
        let fresh = format!("fresh{extra}");
        let root = g.ensure_node("n0").unwrap();
        let f = g.ensure_node(&fresh).unwrap();
        g.add_edge(f, rel::SUBCLASS_OF, root).unwrap();
        let o2 = Ontology::from_graph(g);
        let mut fb3 = FactBase::new();
        seed_subclass_facts(o2.graph(), &mut atoms, &mut fb3);
        prop_assert_eq!(atoms.len(), warm + 1, "one new symbol for the fresh node");
        prop_assert!(fb3.contains(&atoms, "subclassof", &[&format!("churn.{fresh}"), "churn.n0"]));
    }

    /// All three strategies derive identical fixpoints.
    #[test]
    fn strategies_agree(edges in edge_list()) {
        let program = HornProgram::parse("p(X, Z) :- p(X, Y), p(Y, Z).").unwrap();
        let mut results = Vec::new();
        for strat in [InferStrategy::SemiNaive, InferStrategy::Naive, InferStrategy::FullClosure] {
            let mut atoms = AtomTable::new();
            let mut fb = FactBase::new();
            for (a, b) in &edges {
                fb.add(&mut atoms, "p", &[&format!("n{a}"), &format!("n{b}")]);
            }
            InferenceEngine::new(program.clone())
                .with_strategy(strat)
                .run(&mut atoms, &mut fb)
                .unwrap();
            results.push(sorted_facts(&atoms, &fb, "p"));
        }
        prop_assert_eq!(&results[0], &results[1]);
        prop_assert_eq!(&results[1], &results[2]);
    }

    /// Horn transitivity agrees with graph transitive closure.
    #[test]
    fn horn_closure_matches_graph_closure(edges in edge_list()) {
        // graph side
        let mut g = OntGraph::new("t");
        for (a, b) in &edges {
            if a != b {
                let _ = g.ensure_edge_by_labels(&format!("n{a}"), "S", &format!("n{b}"));
            }
        }
        let mut graph_pairs: Vec<(String, String)> = brute_closure(&g)
            .into_iter()
            .filter(|(a, b)| a != b)
            .map(|(a, b)| {
                (g.node_label(a).unwrap().to_string(), g.node_label(b).unwrap().to_string())
            })
            .collect();
        graph_pairs.sort();
        graph_pairs.dedup();

        // horn side
        let program = HornProgram::parse("p(X, Z) :- p(X, Y), p(Y, Z).").unwrap();
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        for (a, b) in &edges {
            if a != b {
                fb.add(&mut atoms, "p", &[&format!("n{a}"), &format!("n{b}")]);
            }
        }
        InferenceEngine::new(program).run(&mut atoms, &mut fb).unwrap();
        let horn_pairs: Vec<(String, String)> = sorted_facts(&atoms, &fb, "p")
            .into_iter()
            .filter(|(a, b)| a != b)
            .collect();
        prop_assert_eq!(graph_pairs, horn_pairs);
    }

    /// Inference is monotone: adding facts never removes derivations.
    #[test]
    fn inference_monotone(edges in edge_list(), extra in (0u8..10, 0u8..10)) {
        let program = HornProgram::parse("p(X, Z) :- p(X, Y), p(Y, Z).").unwrap();
        let mut a1 = AtomTable::new();
        let mut fb1 = FactBase::new();
        for (a, b) in &edges {
            fb1.add(&mut a1, "p", &[&format!("n{a}"), &format!("n{b}")]);
        }
        InferenceEngine::new(program.clone()).run(&mut a1, &mut fb1).unwrap();
        let small = sorted_facts(&a1, &fb1, "p");

        let mut a2 = AtomTable::new();
        let mut fb2 = FactBase::new();
        for (a, b) in &edges {
            fb2.add(&mut a2, "p", &[&format!("n{a}"), &format!("n{b}")]);
        }
        fb2.add(&mut a2, "p", &[&format!("n{}", extra.0), &format!("n{}", extra.1)]);
        InferenceEngine::new(program).run(&mut a2, &mut fb2).unwrap();
        let big = sorted_facts(&a2, &fb2, "p");
        for fact in &small {
            prop_assert!(big.contains(fact), "lost fact {fact:?}");
        }
    }

    /// Running the engine twice adds nothing (fixpoint is a fixpoint).
    #[test]
    fn fixpoint_is_stable(edges in edge_list()) {
        let program = HornProgram::parse(
            "p(X, Z) :- p(X, Y), p(Y, Z). q(Y, X) :- p(X, Y).",
        )
        .unwrap();
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        for (a, b) in &edges {
            fb.add(&mut atoms, "p", &[&format!("n{a}"), &format!("n{b}")]);
        }
        InferenceEngine::new(program.clone()).run(&mut atoms, &mut fb).unwrap();
        let size = fb.len();
        let stats = InferenceEngine::new(program).run(&mut atoms, &mut fb).unwrap();
        prop_assert_eq!(fb.len(), size);
        prop_assert_eq!(stats.derived, 0);
    }

    /// The per-round ledger is internally consistent for every
    /// strategy: one entry per iteration, a zero-derivation final
    /// round at fixpoint, examined totals that add up, and (semi-naive)
    /// each round's delta being exactly the previous round's output.
    #[test]
    fn round_ledger_is_consistent(
        text in program_text(),
        edges in edge_list(),
        strat_ix in 0usize..3,
    ) {
        let strat = [InferStrategy::SemiNaive, InferStrategy::Naive, InferStrategy::FullClosure]
            [strat_ix];
        let program = HornProgram::parse(&text).unwrap();
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        for (a, b) in &edges {
            let (sa, sb) = (sym(*a), sym(*b));
            fb.add(&mut atoms, "p", &[&sa, &sb]);
        }
        let stats = InferenceEngine::new(program)
            .with_strategy(strat)
            .run(&mut atoms, &mut fb)
            .unwrap();
        prop_assert_eq!(stats.rounds.len(), stats.iterations);
        let last = stats.rounds.last().unwrap();
        prop_assert_eq!(last.derived, 0, "final round proves the fixpoint");
        let examined: usize = stats.rounds.iter().map(|r| r.examined).sum();
        prop_assert_eq!(examined, stats.atoms_examined);
        let derived: usize = stats.rounds.iter().map(|r| r.derived).sum();
        prop_assert!(derived <= stats.derived, "rounds exclude ground-clause fires");
        if strat == InferStrategy::SemiNaive {
            for r in 1..stats.rounds.len() {
                prop_assert_eq!(
                    stats.rounds[r].delta, stats.rounds[r - 1].derived,
                    "round {}'s delta is round {}'s output", r, r - 1
                );
            }
        }
    }

    /// Naive and semi-naive add the *same fact set in the same round*:
    /// the per-round derivation profile — not just the fixpoint — is
    /// strategy-independent.
    #[test]
    fn naive_and_seminaive_round_profiles_agree(text in program_text(), edges in edge_list()) {
        let program = HornProgram::parse(&text).unwrap();
        let mut profiles = Vec::new();
        for strat in [InferStrategy::SemiNaive, InferStrategy::Naive] {
            let mut atoms = AtomTable::new();
            let mut fb = FactBase::new();
            for (a, b) in &edges {
                let (sa, sb) = (sym(*a), sym(*b));
                fb.add(&mut atoms, "p", &[&sa, &sb]);
            }
            let stats = InferenceEngine::new(program.clone())
                .with_strategy(strat)
                .run(&mut atoms, &mut fb)
                .unwrap();
            profiles.push((
                stats.iterations,
                stats.derived,
                stats.rounds.iter().map(|r| r.derived).collect::<Vec<_>>(),
            ));
        }
        prop_assert_eq!(&profiles[0], &profiles[1]);
    }

    /// The parallel engine is a drop-in semi-naive: identical fact
    /// sets, totals, and per-round delta/derived counters vs the frozen
    /// string reference, and the sequential interned engine's fact base
    /// (atom ids and order included) and whole `InferenceStats` at
    /// every thread count.
    #[test]
    fn parallel_engine_matches_reference(text in program_text(), edges in edge_list()) {
        let program = HornProgram::parse(&text).unwrap();

        let mut rfb = reference::FactBase::new();
        for (a, b) in &edges {
            let (sa, sb) = (sym(*a), sym(*b));
            rfb.add("p", &[&sa, &sb]);
        }
        let ref_stats = reference::InferenceEngine::new(program.clone()).run(&mut rfb).unwrap();
        let expected = reference_facts(&rfb);

        let mut seq_atoms = AtomTable::new();
        let mut seq_fb = FactBase::new();
        for (a, b) in &edges {
            let (sa, sb) = (sym(*a), sym(*b));
            seq_fb.add(&mut seq_atoms, "p", &[&sa, &sb]);
        }
        let seq_stats =
            InferenceEngine::new(program.clone()).run(&mut seq_atoms, &mut seq_fb).unwrap();

        for threads in [1usize, 2, 4] {
            let exec = Executor::new(threads);
            let mut atoms = AtomTable::new();
            let mut fb = FactBase::new();
            for (a, b) in &edges {
                let (sa, sb) = (sym(*a), sym(*b));
                fb.add(&mut atoms, "p", &[&sa, &sb]);
            }
            let stats = ParallelEngine::new(program.clone())
                .run(&exec, &mut atoms, &mut fb)
                .unwrap();
            prop_assert_eq!(stats.iterations, ref_stats.iterations, "threads={}", threads);
            prop_assert_eq!(stats.derived, ref_stats.derived, "threads={}", threads);
            let rounds: Vec<(usize, usize)> =
                stats.rounds.iter().map(|r| (r.delta, r.derived)).collect();
            let ref_rounds: Vec<(usize, usize)> =
                ref_stats.rounds.iter().map(|r| (r.delta, r.derived)).collect();
            prop_assert_eq!(rounds, ref_rounds, "threads={}", threads);
            prop_assert_eq!(
                interned_facts(&fb, &atoms),
                expected.clone(),
                "parallel fact set matches reference (threads={})", threads
            );
            prop_assert_eq!(&stats, &seq_stats, "sequential InferenceStats (threads={})", threads);
            prop_assert_eq!(
                fb.facts_in_pred_order(),
                seq_fb.facts_in_pred_order(),
                "sequential fact base (threads={})", threads
            );
        }
    }

    /// Semi-naive never examines more candidate atoms than full-closure
    /// on inputs without self-loops. A self-loop `p(a, a)` alone reads
    /// semi-naive 4 > full-closure 2 (pinned by the `infer` unit test
    /// `self_loop_is_where_seminaive_examines_more_than_fullclosure`),
    /// so `a == b` edges are dropped, as `seminaive_props` does.
    #[test]
    fn seminaive_no_worse_than_fullclosure(edges in edge_list()) {
        let program = HornProgram::parse("p(X, Z) :- p(X, Y), p(Y, Z).").unwrap();
        let mut effort = Vec::new();
        for strat in [InferStrategy::SemiNaive, InferStrategy::FullClosure] {
            let mut atoms = AtomTable::new();
            let mut fb = FactBase::new();
            for (a, b) in edges.iter().filter(|(a, b)| a != b) {
                fb.add(&mut atoms, "p", &[&format!("n{a}"), &format!("n{b}")]);
            }
            let stats = InferenceEngine::new(program.clone())
                .with_strategy(strat)
                .run(&mut atoms, &mut fb)
                .unwrap();
            effort.push(stats.atoms_examined);
        }
        prop_assert!(effort[0] <= effort[1],
            "semi-naive {} > full-closure {}", effort[0], effort[1]);
    }
}
