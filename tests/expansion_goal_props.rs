//! The generator's goal-directed inference expansion against a copy of
//! the full-closure expansion it replaced.
//!
//! `ArticulationGenerator` expands by seeding one `si` fact per edge of
//! the one implication edge set (`SIBridge` bridges, articulation
//! `SubclassOf`, source `SubclassOf`/`InstanceOf`: what
//! `ImplicationIndex` indexes) and one `art(b)` goal fact per live
//! articulation node, and running `HornProgram::implication_goal`,
//! which derives `implies(a, b)` only along implication paths that end
//! at a goal. The pass it replaced seeded the graph edges under their
//! own relations plus the confirmed rules lowered to `si` facts, closed
//! `subclassof` and `si` whole under `HornProgram::standard` and
//! filtered the source→articulation pairs out of the closure;
//! `full_closure_expand` below is a copy of it, with a private copy of
//! the lowering. The bridges already carry every implication a lowered
//! rule adds, so the two agree. Each check generates the articulation without expansion, runs
//! the copy on it, and asserts that the generator's own expansion adds
//! the same bridges in the same order and leaves the same articulation
//! `{:?}` (graph ids masked): sequentially, on a warm shared atom table,
//! and on `ParallelEngine` at 1, 2 and 4 threads, whose whole
//! `GeneratorStats` must equal the sequential run's.
//!
//! Inputs: generated overlap pairs bridged by a subset of their planted
//! truth; 100-concept pairs at 25% overlap articulated through the
//! facade by an oracle expert, as the `articulate` benchmark's sessions
//! are; Fig. 2 with its rules; extra conjunctive, disjunctive, cascaded
//! and intra-articulation rules, so paths cross `synth.*` atoms and
//! articulation cycles; dotted source names; source subclass cycles;
//! deleted source nodes; and a deep chain.
//!
//! Dotted articulation names are the one input on which the two passes
//! differ. The old pass looked the atom's canonical name (`v2.Vehicle`
//! for `transport.v2`) up among the articulation's labels and lost
//! every derived bridge; a dotted name now gives exactly the dot-free
//! name's bridges, renamed.

use std::collections::HashSet;
use std::sync::{Arc, Mutex, OnceLock};

use proptest::prelude::*;

use onion_core::prelude::*;
use onion_core::rules::horn::{pred_name, HornProgram};
use onion_core::rules::infer::RoundStats;
use onion_core::rules::infer::{seed_relation_facts, FactBase, InferenceEngine, InferenceStats};
use onion_core::testkit::{deep_chain_ontology, overlap_pair, OverlapPair, OverlapSpec};
use onion_core::OnionSystem;

const ART: &str = "transport";

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

/// A copy of the expansion before goal direction: seed the SI bridges,
/// the sources' subclass and instance edges, the articulation's
/// subclass edges and the lowered rules, close them
/// under the standard program, keep each `si(a, b)` with `b` an
/// articulation term and `a` a source term, sort on text and add the
/// pairs no bridge already holds. Returns the number of bridges added.
///
/// One edit to the copy: a source term is named by the source its atom's
/// namespace names (`left.v2` and `Car`), as the generator now names it.
fn full_closure_expand(art: &mut Articulation, sources: &[&Ontology]) -> usize {
    let mut table = AtomTable::new();
    let atoms = &mut table;
    let mut fb = FactBase::new();
    let si = atoms.intern("si");
    for b in &art.bridges {
        if &*b.label == rel::SI_BRIDGE {
            let s = atoms.intern_term(&b.src);
            let d = atoms.intern_term(&b.dst);
            fb.add_fact(si, &[s, d]);
        }
    }
    let relations = sources
        .iter()
        .flat_map(|&o| [(o, rel::SUBCLASS_OF), (o, rel::INSTANCE_OF)])
        .chain([(&*art.ontology, rel::SUBCLASS_OF)]);
    for (o, relation) in relations {
        seed_relation_facts(o.graph(), &[relation], &pred_name(relation), atoms, &mut fb);
    }
    for (a, b) in lower_rules(atoms, &art.rules.rules) {
        fb.add_fact(si, &[a, b]);
    }
    let program = HornProgram::standard(&RelationRegistry::onion_default());
    InferenceEngine::new(program).run(atoms, &mut fb).unwrap();

    let matches = |atoms: &AtomTable, id: AtomId, key: &u32| atoms.namespace_of(id) == Some(*key);
    let Some(art_key) = atoms.namespace_lookup(art.name()) else { return 0 };
    let source_keys: Vec<(&Ontology, u32)> =
        sources.iter().filter_map(|&o| Some((o, atoms.namespace_lookup(o.name())?))).collect();
    // the term a source atom names: the matched source's own name and
    // the atom's name
    let source_term = |atoms: &AtomTable, id: AtomId| -> Option<Term> {
        let (o, _) = source_keys.iter().find(|(_, k)| matches(atoms, id, k))?;
        Some(Term::qualified(o.name(), atoms.name_of(id)))
    };
    let mut derived: Vec<(AtomId, AtomId)> = fb
        .query2_ids(si, None, None)
        .into_iter()
        .filter(|(a, b)| matches(atoms, *b, &art_key) && source_term(atoms, *a).is_some())
        .collect();
    derived.sort_by(|x, y| {
        (atoms.resolve(x.0), atoms.resolve(x.1)).cmp(&(atoms.resolve(y.0), atoms.resolve(y.1)))
    });
    let fresh: Vec<Bridge> = derived
        .into_iter()
        .filter(|&(_, b)| art.ontology.defines(atoms.name_of(b)))
        .map(|(a, b)| {
            Bridge::si(
                source_term(atoms, a).expect("kept atoms name a source term"),
                Term::qualified(art.name(), atoms.name_of(b)),
                BridgeKind::Derived,
            )
        })
        .collect();
    let keep: Vec<bool> = {
        let mut seen: HashSet<(&Term, &str, &Term)> =
            art.bridges.iter().map(|b| (&b.src, &*b.label, &b.dst)).collect();
        fresh.iter().map(|b| seen.insert((&b.src, &*b.label, &b.dst))).collect()
    };
    let before = art.bridges.len();
    art.bridges.extend(fresh.into_iter().zip(keep).filter_map(|(b, new)| new.then_some(b)));
    art.bridges.len() - before
}

/// A copy of the rule lowering the full-closure expansion seeded: one
/// `si` fact per adjacent pair of each implication chain, a conjunction
/// or disjunction standing for a `synth.<label>` atom that specialises
/// each conjunct and generalises each disjunct; functional rules lower
/// to nothing. Facts come out once each, in first-emission order.
fn lower_rules(atoms: &mut AtomTable, rules: &[ArticulationRule]) -> Vec<(AtomId, AtomId)> {
    fn expr_atom(atoms: &mut AtomTable, e: &RuleExpr) -> AtomId {
        match e {
            RuleExpr::Term(t) => atoms.intern_term(t),
            _ => atoms.intern_parts(Some("synth"), &e.default_label()),
        }
    }
    let mut facts: Vec<(AtomId, AtomId)> = Vec::new();
    let mut emit = |a: AtomId, b: AtomId| {
        if !facts.contains(&(a, b)) {
            facts.push((a, b));
        }
    };
    for rule in rules {
        let ArticulationRule::Implication { chain } = rule else { continue };
        for pair in chain.windows(2) {
            let (lhs, rhs) = (&pair[0], &pair[1]);
            let l = expr_atom(atoms, lhs);
            let r = expr_atom(atoms, rhs);
            emit(l, r);
            if let RuleExpr::And(xs) = lhs {
                for x in xs {
                    let xa = expr_atom(atoms, x);
                    emit(l, xa);
                }
            }
            if let RuleExpr::Or(xs) = rhs {
                for x in xs {
                    let xa = expr_atom(atoms, x);
                    emit(xa, r);
                }
            }
            if let RuleExpr::Or(xs) = lhs {
                for x in xs {
                    let xa = expr_atom(atoms, x);
                    emit(xa, l);
                }
            }
            if let RuleExpr::And(xs) = rhs {
                for x in xs {
                    let xa = expr_atom(atoms, x);
                    emit(r, xa);
                }
            }
        }
    }
    facts
}

/// One pool per thread count for the whole test binary.
fn executors() -> &'static [Arc<Executor>] {
    static POOLS: OnceLock<Vec<Arc<Executor>>> = OnceLock::new();
    POOLS.get_or_init(|| [1, 2, 4].into_iter().map(|t| Arc::new(Executor::new(t))).collect())
}

fn config(art_name: &str) -> GeneratorConfig {
    GeneratorConfig { art_name: art_name.into(), expand_with_inference: true, ..Default::default() }
}

/// Generates `rules` over `sources` with expansion in every mode and
/// asserts each run equals the full-closure copy applied to the
/// unexpanded articulation. Returns the sequential run's stats and
/// articulation.
fn check(
    rules: &RuleSet,
    sources: &[&Ontology],
) -> Result<(GeneratorStats, Articulation), TestCaseError> {
    let mut want = ArticulationGenerator::with_config(GeneratorConfig {
        expand_with_inference: false,
        ..config(ART)
    })
    .generate(rules, sources)
    .unwrap();
    let want_derived = full_closure_expand(&mut want, sources);
    let want_debug = mask_graph_id(&format!("{want:?}"));

    let (seq, seq_stats) = ArticulationGenerator::with_config(config(ART))
        .generate_with_stats(rules, sources)
        .unwrap();
    prop_assert_eq!(&seq.bridges, &want.bridges, "sequential: derived bridges in order");
    prop_assert_eq!(mask_graph_id(&format!("{seq:?}")), want_debug.clone(), "sequential");
    prop_assert_eq!(seq_stats.derived_bridges, want_derived);

    // a shared table, warmed by a first run, interns nothing new and
    // changes nothing
    let table = Arc::new(Mutex::new(AtomTable::new()));
    let warm = ArticulationGenerator::with_config(GeneratorConfig {
        atoms: Some(Arc::clone(&table)),
        ..config(ART)
    });
    warm.generate_with_stats(rules, sources).unwrap();
    let interned = table.lock().unwrap().len();
    let (shared, shared_stats) = warm.generate_with_stats(rules, sources).unwrap();
    prop_assert_eq!(table.lock().unwrap().len(), interned, "the warm run interned nothing");
    prop_assert_eq!(&shared.bridges, &want.bridges, "warm shared table");
    prop_assert_eq!(&shared_stats, &seq_stats, "warm shared table");

    for exec in executors() {
        let (par, par_stats) = ArticulationGenerator::with_config(GeneratorConfig {
            executor: Some(Arc::clone(exec)),
            ..config(ART)
        })
        .generate_with_stats(rules, sources)
        .unwrap();
        let threads = exec.threads();
        prop_assert_eq!(&par.bridges, &want.bridges, "threads={}", threads);
        prop_assert_eq!(
            mask_graph_id(&format!("{par:?}")),
            want_debug.clone(),
            "threads={}",
            threads
        );
        prop_assert_eq!(&par_stats, &seq_stats, "threads={}", threads);
    }
    Ok((seq_stats, seq))
}

/// splitmix64: the test's own deterministic choices from a case seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<'a>(&mut self, xs: &'a [String]) -> &'a str {
        &xs[self.below(xs.len())]
    }
}

fn labels(o: &Ontology) -> Vec<String> {
    let mut v: Vec<String> = o.graph().nodes().map(|n| n.label.to_string()).collect();
    v.sort_unstable();
    v
}

fn term(o: &Ontology, label: &str) -> RuleExpr {
    RuleExpr::Term(Term::qualified(o.name(), label))
}

fn art_term(label: &str) -> RuleExpr {
    RuleExpr::Term(Term::qualified(ART, label))
}

/// The planted truth as rules, keeping each with probability
/// `keep_pct`%, written against the sources' current names.
fn truth_rules(p: &OverlapPair, keep_pct: usize, mix: &mut Mix) -> RuleSet {
    let mut rs = RuleSet::new();
    for (l, r) in &p.truth {
        if mix.below(100) >= keep_pct {
            continue;
        }
        let (_, ln) = l.split_once('.').expect("qualified");
        let (_, rn) = r.split_once('.').expect("qualified");
        rs.push(ArticulationRule::implies(term(&p.left, ln), term(&p.right, rn)));
    }
    rs
}

/// Conjunctive, disjunctive, cascaded and intra-articulation rules over
/// random labels, so implication paths run through `synth.*` atoms,
/// synthesised articulation nodes and articulation cycles.
fn extra_rules(p: &OverlapPair, n: usize, mix: &mut Mix, rules: &mut RuleSet) {
    let (ll, rl) = (labels(&p.left), labels(&p.right));
    let art_labels: Vec<String> = rules
        .iter()
        .filter_map(|r| match r {
            ArticulationRule::Implication { chain } => match chain.last() {
                Some(RuleExpr::Term(t)) => Some(t.name.to_string()),
                _ => None,
            },
            ArticulationRule::Functional { .. } => None,
        })
        .collect();
    for k in 0..n {
        let (l, r) = (&p.left, &p.right);
        let rule = match mix.below(8) {
            0 => ArticulationRule::implies(
                RuleExpr::And(vec![term(l, mix.pick(&ll)), term(l, mix.pick(&ll))]),
                term(r, mix.pick(&rl)),
            ),
            1 => ArticulationRule::implies(
                term(l, mix.pick(&ll)),
                RuleExpr::Or(vec![term(r, mix.pick(&rl)), term(r, mix.pick(&rl))]),
            ),
            2 => ArticulationRule::implies(
                RuleExpr::Or(vec![term(l, mix.pick(&ll)), term(l, mix.pick(&ll))]),
                term(r, mix.pick(&rl)),
            ),
            3 => ArticulationRule::Implication {
                chain: vec![
                    term(l, mix.pick(&ll)),
                    art_term(&format!("Mid{k}")),
                    term(r, mix.pick(&rl)),
                ],
            },
            4 => ArticulationRule::implies(
                RuleExpr::And(vec![term(l, mix.pick(&ll)), term(r, mix.pick(&rl))]),
                art_term(&format!("Both{k}")),
            ),
            5 => ArticulationRule::implies(
                term(r, mix.pick(&rl)),
                RuleExpr::Or(vec![art_term(&format!("Any{k}")), term(l, mix.pick(&ll))]),
            ),
            _ if art_labels.len() >= 2 => {
                // both directions: a cycle inside the articulation
                let (x, y) = (mix.pick(&art_labels), mix.pick(&art_labels));
                rules.push(ArticulationRule::implies(art_term(y), art_term(x)));
                ArticulationRule::implies(art_term(x), art_term(y))
            }
            _ => continue,
        };
        rules.push(rule);
    }
}

/// Every qualified term the rules name, as `(ontology, label)`.
fn named_terms(rules: &RuleSet) -> HashSet<(String, String)> {
    rules
        .iter()
        .flat_map(|r| r.terms())
        .filter_map(|t| Some((t.ontology.as_deref()?.to_string(), t.name.to_string())))
        .collect()
}

/// Closes `cycles` subclass edges of `o` into 2-cycles and deletes up
/// to `deletes` nodes that no rule names.
fn churn(
    o: &mut Ontology,
    cycles: usize,
    deletes: usize,
    keep: &HashSet<(String, String)>,
    mix: &mut Mix,
) {
    let edges: Vec<(String, String)> = o
        .graph()
        .edges()
        .filter(|e| e.label == rel::SUBCLASS_OF)
        .filter_map(|e| {
            let g = o.graph();
            Some((g.node_label(e.src)?.to_string(), g.node_label(e.dst)?.to_string()))
        })
        .collect();
    for _ in 0..cycles.min(edges.len()) {
        let (child, parent) = &edges[mix.below(edges.len())];
        o.graph_mut().ensure_edge_by_labels(parent, rel::SUBCLASS_OF, child).unwrap();
    }
    let name = o.name().to_string();
    for _ in 0..deletes {
        let ls = labels(o);
        let victim = mix.pick(&ls).to_string();
        if keep.contains(&(name.clone(), victim.clone())) {
            continue;
        }
        o.graph_mut().delete_node_by_label(&victim).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Generated pairs with a subset of their truth, extra rule shapes,
    /// dotted source names, subclass cycles and deleted nodes: every
    /// mode's expansion equals the full-closure copy's.
    #[test]
    fn goal_expansion_matches_the_full_closure(
        seed in 0u64..100_000,
        concepts in 20usize..100,
        overlap_ix in 0usize..3,
        keep_pct in 50usize..101,
        extras in 0usize..8,
        dotted in 0usize..4,
        cycles in (0usize..3, 0usize..3),
        deletes in (0usize..4, 0usize..4),
    ) {
        let overlap = [0.25, 0.4, 0.6][overlap_ix];
        let mut p = overlap_pair(&OverlapSpec {
            seed,
            concepts,
            overlap,
            rename_prob: 0.5,
            max_children: 5,
        });
        if dotted & 1 != 0 {
            p.left.graph_mut().set_name("left.v2");
        }
        if dotted & 2 != 0 {
            p.right.graph_mut().set_name("right.x.y");
        }
        let mut mix = Mix(seed ^ 0x5EED);
        let mut rules = truth_rules(&p, keep_pct, &mut mix);
        extra_rules(&p, extras, &mut mix, &mut rules);
        let keep = named_terms(&rules);
        churn(&mut p.left, cycles.0, deletes.0, &keep, &mut mix);
        churn(&mut p.right, cycles.1, deletes.1, &keep, &mut mix);
        check(&rules, &[&p.left, &p.right])?;
    }

    /// The `articulate` benchmark's shape: 100-concept pairs at 25%
    /// overlap, articulated through the facade by an oracle expert with
    /// 2-thread inference on the system's shared atom table. The
    /// confirmed rules regenerate to the full-closure copy's
    /// articulation in every mode, and the facade stored that same
    /// articulation.
    #[test]
    fn benchmark_sessions_match_the_full_closure(seed in 0u64..100_000) {
        let p = overlap_pair(&OverlapSpec {
            seed,
            concepts: 100,
            overlap: 0.25,
            rename_prob: 0.5,
            max_children: 5,
        });
        let mut sys = OnionSystem::new(p.lexicon.clone());
        sys.add_source(p.left.clone());
        sys.add_source(p.right.clone());
        let mut cfg = EngineConfig::default();
        cfg.generator.expand_with_inference = true;
        sys.set_engine_config(cfg);
        sys.set_parallel_inference(2);
        sys.articulate("left", "right", &mut OracleExpert::new(p.truth.iter().cloned())).unwrap();
        let stored = sys.articulation().expect("articulated").clone();
        let (stats, art) = check(&stored.rules, &[&p.left, &p.right])?;
        prop_assert!(stats.derived_bridges > 0, "the session exercises expansion");
        prop_assert_eq!(&stored.bridges, &art.bridges);
        prop_assert_eq!(mask_graph_id(&format!("{stored:?}")), mask_graph_id(&format!("{art:?}")));
    }

    /// A dotted articulation name gives the dot-free name's bridges,
    /// renamed, in the same order — derived ones included.
    #[test]
    fn dotted_articulation_names_keep_their_derived_bridges(
        seed in 0u64..100_000,
        concepts in 20usize..100,
        extras in 0usize..6,
    ) {
        let p = overlap_pair(&OverlapSpec {
            seed,
            concepts,
            overlap: 0.4,
            rename_prob: 0.5,
            max_children: 5,
        });
        let mut mix = Mix(seed);
        let mut rules = truth_rules(&p, 100, &mut mix);
        extra_rules(&p, extras, &mut mix, &mut rules);
        let sources = [&p.left, &p.right];
        let (plain, plain_stats) =
            ArticulationGenerator::with_config(config(ART)).generate_with_stats(&rules, &sources).unwrap();
        prop_assert!(plain_stats.derived_bridges > 0, "the input exercises expansion");
        // the rules name the articulation as `transport`; rename them too
        let dotted_name = "transport.v2";
        let mut renamed = RuleSet::new();
        for r in rules.iter() {
            renamed.push(rename_rule(r, ART, dotted_name));
        }
        let (dotted, dotted_stats) = ArticulationGenerator::with_config(config(dotted_name))
            .generate_with_stats(&renamed, &sources)
            .unwrap();
        let want: Vec<Bridge> = plain.bridges.iter().map(|b| rename_bridge(b, ART, dotted_name)).collect();
        prop_assert_eq!(&dotted.bridges, &want);
        prop_assert_eq!(dotted_stats.derived_bridges, plain_stats.derived_bridges);
    }
}

fn rename_term(t: &Term, from: &str, to: &str) -> Term {
    match t.ontology.as_deref() {
        Some(o) if o == from => Term::qualified(to, &t.name),
        _ => t.clone(),
    }
}

fn rename_expr(e: &RuleExpr, from: &str, to: &str) -> RuleExpr {
    match e {
        RuleExpr::Term(t) => RuleExpr::Term(rename_term(t, from, to)),
        RuleExpr::And(xs) => RuleExpr::And(xs.iter().map(|x| rename_expr(x, from, to)).collect()),
        RuleExpr::Or(xs) => RuleExpr::Or(xs.iter().map(|x| rename_expr(x, from, to)).collect()),
    }
}

fn rename_rule(r: &ArticulationRule, from: &str, to: &str) -> ArticulationRule {
    match r {
        ArticulationRule::Implication { chain } => ArticulationRule::Implication {
            chain: chain.iter().map(|e| rename_expr(e, from, to)).collect(),
        },
        ArticulationRule::Functional { function, from: f, to: t } => ArticulationRule::Functional {
            function: function.clone(),
            from: rename_term(f, from, to),
            to: rename_term(t, from, to),
        },
    }
}

fn rename_bridge(b: &Bridge, from: &str, to: &str) -> Bridge {
    Bridge {
        src: rename_term(&b.src, from, to),
        label: b.label.clone(),
        dst: rename_term(&b.dst, from, to),
        kind: b.kind,
    }
}

/// Fig. 2's sources and rules, alone and with extra rule shapes that
/// route implications through `synth.*` atoms and the articulation.
#[test]
fn fig2_expansion_matches_the_full_closure() {
    let (c, f) = (examples::carrier(), examples::factory());
    let mut rules = examples::fig2_rules();
    let (stats, _) = check(&rules, &[&c, &f]).unwrap();
    assert!(stats.derived_bridges > 0, "Fig. 2 derives bridges");
    for text in [
        "carrier.Cars => transport.Vehicle",
        "(carrier.Cars | carrier.Trucks) => factory.Vehicle",
        "(factory.GoodsVehicle & factory.Truck) => transport.Hauler",
        "transport.Hauler => transport.Vehicle",
        "transport.Vehicle => transport.Hauler",
    ] {
        rules.extend_dedup(&parse_rules(&format!("{text}\n")).unwrap());
        check(&rules, &[&c, &f]).unwrap();
    }
}

/// A deep chain: every node of four 48-deep chains implies the
/// articulation term its root is bridged to. The goal program's rounds
/// grow with the longest implication path (one step per round), where
/// the closure's doubled it.
#[test]
fn deep_chain_expansion_matches_the_full_closure() {
    let (chains, depth) = (4, 48);
    let deep = deep_chain_ontology("deep", chains, depth);
    let top = OntologyBuilder::new("top").class_under("Thing", "Entity").build().unwrap();
    let rules = parse_rules("deep.Root => top.Thing\ndeep.c0_20 => transport.Middle\n").unwrap();
    let (stats, art) = check(&rules, &[&deep, &top]).unwrap();
    let to_thing = art
        .bridges
        .iter()
        .filter(|b| b.kind == BridgeKind::Derived && b.dst == Term::qualified(ART, "Thing"))
        .count();
    assert_eq!(to_thing, chains * depth, "every chain node reaches transport.Thing");
    assert!(
        stats.inference.iterations > depth,
        "one implication step per round: {} rounds for depth {depth}",
        stats.inference.iterations
    );
}

/// The whole `GeneratorStats` of one fixed 100-concept pair at 25%
/// overlap bridged by its truth: seeds include one goal per
/// articulation node, and saturation derives only the implications
/// that reach a goal.
#[test]
fn goal_expansion_stats_on_a_fixed_pair() {
    let p = overlap_pair(&OverlapSpec {
        seed: 7,
        concepts: 100,
        overlap: 0.25,
        rename_prob: 0.5,
        max_children: 5,
    });
    let mut mix = Mix(0);
    let rules = truth_rules(&p, 100, &mut mix);
    let (stats, _) = check(&rules, &[&p.left, &p.right]).unwrap();
    // (delta, derived, examined) per round: one implication step each
    let rounds = [
        (263, 88, 677),
        (88, 142, 268),
        (142, 80, 387),
        (80, 38, 158),
        (38, 21, 68),
        (21, 10, 37),
        (10, 5, 19),
        (5, 2, 8),
        (2, 0, 2),
    ];
    let want = GeneratorStats {
        seeded_facts: 263,
        inference: InferenceStats {
            iterations: 9,
            derived: 386,
            atoms_examined: 1624,
            rounds: rounds
                .iter()
                .map(|&(delta, derived, examined)| RoundStats { delta, derived, examined })
                .collect(),
            worker_merge_facts: vec![414],
        },
        derived_bridges: 250,
    };
    assert_eq!(stats, want);
}
