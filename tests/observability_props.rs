//! Property suite for `onion-obs` (satellite of the observability PR).
//!
//! Three contracts:
//!
//! * **Snapshot monotonicity** — a [`MetricsSnapshot`] taken while
//!   writers hammer the counters never observes a counter or histogram
//!   count below a previously observed value (each cell only grows
//!   under relaxed `fetch_add`, and a later read of one atomic never
//!   returns a value earlier in its modification order).
//! * **Strict observationality** — enabling recording leaves the
//!   inference engines, the articulation generator and the articulation
//!   engine byte-identical: same fact bases (atom ids included), same
//!   `InferenceStats`, same full `Debug` rendering of the articulations,
//!   same `EngineReport`, across the same shard × thread matrix
//!   `seminaive_props` pins.
//! * **Prometheus format** — the text export of a busy registry passes
//!   the format lint (TYPE lines, cumulative buckets, `+Inf` ==
//!   `_count`).

use proptest::prelude::*;

use onion_core::articulate::{
    AcceptAll, ArticulationEngine, ArticulationGenerator, EngineReport, GeneratorConfig,
    MatcherPipeline,
};
use onion_core::exec::ParallelEngine;
use onion_core::obs;
use onion_core::obs::{HistKind, Registry};
use onion_core::ontology::examples::{carrier, factory};
use onion_core::prelude::*;
use onion_core::rules::horn::HornProgram;
use onion_core::rules::infer::{seed_subclass_facts, FactBase, InferenceEngine};
use onion_core::rules::properties::RelationRegistry;
use onion_core::rules::{parse_rules, AtomTable, InferenceStats};

const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 64];
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn edge_list() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..24, 0u8..24), 1..40)
}

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

/// Everything a mode flip could disturb: fact base, stats, the
/// generator's articulation `{:?}`, and the engine's report and
/// articulation `{:?}`.
type Artifacts = (Vec<onion_core::rules::Fact>, InferenceStats, String, EngineReport, String);

/// One full run of the parallel matrix plus the sequential engine, the
/// generator and the articulation engine (standard pipeline on Fig. 2,
/// accept-all), all on a **local** deterministic workload.
fn run_workload(edges: &[(u8, u8)]) -> Artifacts {
    let program = HornProgram::standard(&RelationRegistry::onion_default());

    let mut seq_atoms = AtomTable::new();
    let mut seq_fb = FactBase::new();
    seed_subclass_facts(&build_graph(edges, 1), &mut seq_atoms, &mut seq_fb);
    let seq_stats = InferenceEngine::new(program.clone()).run(&mut seq_atoms, &mut seq_fb).unwrap();

    // the parallel family must agree with itself in either mode; keep
    // one representative (the matrix identity itself is seminaive_props'
    // job — here the subject is the mode flip)
    let mut family: Option<(Vec<onion_core::rules::Fact>, InferenceStats)> = None;
    for shards in SHARD_COUNTS {
        let g = build_graph(edges, shards);
        for threads in THREAD_COUNTS {
            let exec = Executor::new(threads);
            let mut atoms = AtomTable::new();
            let mut fb = FactBase::new();
            seed_subclass_facts(&g, &mut atoms, &mut fb);
            let stats =
                ParallelEngine::new(program.clone()).run(&exec, &mut atoms, &mut fb).unwrap();
            let snapshot = (fb.facts_in_pred_order(), stats);
            match &family {
                None => family = Some(snapshot),
                Some(first) => assert_eq!(&snapshot, first, "shards={shards} threads={threads}"),
            }
        }
    }

    let gen = ArticulationGenerator::with_config(GeneratorConfig {
        expand_with_inference: true,
        ..Default::default()
    });
    let rules = parse_rules("carrier.Cars => transport.Vehicle\n").unwrap();
    let art = gen.generate(&rules, &[&carrier(), &factory()]).unwrap();

    let engine = ArticulationEngine::new(MatcherPipeline::standard(transport_lexicon()));
    let (engine_art, report) =
        engine.run(&carrier(), &factory(), &mut AcceptAll, RuleSet::new()).unwrap();

    let (facts, stats) = family.unwrap();
    assert_eq!(stats.derived, seq_stats.derived);
    (
        facts,
        stats,
        mask_graph_id(&format!("{art:?}")),
        report,
        mask_graph_id(&format!("{engine_art:?}")),
    )
}

/// Masks the process-global `graph_id` counter (fresh per generated
/// graph, mode-independent noise) out of a Debug rendering.
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Counters and histogram counts observed by concurrent snapshots
    /// are monotone: no snapshot ever reads a value below what an
    /// earlier snapshot of the same series read.
    #[test]
    fn snapshot_counters_never_decrease(writers in 1usize..4, per_writer in 1u64..4000) {
        let reg = std::sync::Arc::new(Registry::new());
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        // writers start only once the reader holds its first snapshot,
        // so the reader cannot be starved into observing nothing
        let start = std::sync::Arc::new(std::sync::Barrier::new(writers + 1));
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let reg = std::sync::Arc::clone(&reg);
                let start = std::sync::Arc::clone(&start);
                std::thread::spawn(move || {
                    let c = reg.counter("obs_props_total");
                    let h = reg.histogram("obs_props_us", HistKind::LatencyUs);
                    start.wait();
                    for i in 0..per_writer {
                        c.add(1 + (w as u64 & 1));
                        h.observe(i & 2047);
                    }
                })
            })
            .collect();
        let reader = {
            let reg = std::sync::Arc::clone(&reg);
            let stop = std::sync::Arc::clone(&stop);
            let start = std::sync::Arc::clone(&start);
            std::thread::spawn(move || {
                let (mut last_c, mut last_h) = (0u64, 0u64);
                let mut observed = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let snap = reg.snapshot();
                    let c = snap.counter("obs_props_total").unwrap_or(0);
                    let h = snap.histogram("obs_props_us").map(|h| h.count).unwrap_or(0);
                    assert!(c >= last_c, "counter went backwards: {last_c} -> {c}");
                    assert!(h >= last_h, "hist count went backwards: {last_h} -> {h}");
                    (last_c, last_h) = (c, h);
                    observed += 1;
                    if observed == 1 {
                        start.wait();
                    }
                }
                observed
            })
        };
        for t in handles {
            t.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        prop_assert!(reader.join().unwrap() > 0);

        // final totals are exact — no concurrent add was lost
        let snap = reg.snapshot();
        let expected: u64 = (0..writers as u64).map(|w| per_writer * (1 + (w & 1))).sum();
        prop_assert_eq!(snap.counter("obs_props_total"), Some(expected));
        prop_assert_eq!(
            snap.histogram("obs_props_us").map(|h| h.count),
            Some(per_writer * writers as u64)
        );
    }

    /// The mode flip is invisible to the engines: disabled vs enabled
    /// recording produces byte-identical fact bases, stats, and
    /// articulation renderings (the instrumentation is strictly
    /// observational).
    #[test]
    fn recording_mode_never_changes_results(edges in edge_list()) {
        let was = obs::enabled();
        obs::set_enabled(false);
        let off = run_workload(&edges);
        obs::set_enabled(true);
        let on = run_workload(&edges);
        obs::set_enabled(was);
        prop_assert_eq!(off.0, on.0, "fact bases differ across recording modes");
        prop_assert_eq!(off.1, on.1, "InferenceStats differ across recording modes");
        prop_assert_eq!(off.2, on.2, "articulation Debug differs across recording modes");
        prop_assert_eq!(off.3, on.3, "EngineReport differs across recording modes");
        prop_assert_eq!(off.4, on.4, "engine articulation Debug differs across recording modes");
    }
}

/// The Prometheus rendering of a registry that holds every metric kind
/// passes the format lint, and the `+Inf` bucket equals `_count` for
/// every histogram.
#[test]
fn prometheus_export_passes_format_lint() {
    let reg = Registry::new();
    reg.counter("onion_lint_total").add(7);
    reg.gauge("onion_lint_depth").set(-3);
    let lat = reg.histogram("onion_lint_us", HistKind::LatencyUs);
    let cnt = reg.histogram("onion_lint_items", HistKind::Count);
    for i in 0..1000u64 {
        lat.observe(i * 13 % 200_000);
        cnt.observe(i % 300);
    }
    let snap = reg.snapshot();
    let text = snap.to_prometheus();
    obs::lint_prometheus(&text).expect("well-formed Prometheus text format");
    for h in [snap.histogram("onion_lint_us").unwrap(), snap.histogram("onion_lint_items").unwrap()]
    {
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count, "+Inf bucket sum == _count");
        assert_eq!(h.count, 1000);
    }
    // the global registry's export stays lintable too (whatever other
    // tests in this binary recorded into it)
    obs::lint_prometheus(&obs::global().snapshot().to_prometheus()).expect("global export lints");
}
