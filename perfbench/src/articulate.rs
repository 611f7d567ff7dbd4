//! `articulate`: the expert's session, a closed loop with one client.
//!
//! Each session builds a fresh `OnionSystem` from clones of a generated
//! overlap pair, turns on inference expansion with 2-thread parallel
//! inference, runs `articulate` with an oracle expert that knows the
//! planted truth, then asks for the union and the difference. SKAT and
//! generation plus inference do nearly all the work; the query, cache
//! and durability layers do none.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use onion_bench::pair;
use onion_core::articulate::{
    ExactLabelMatcher, RuleMatcher, SimilarityMatcher, StructuralMatcher, SynonymMatcher,
};
use onion_core::prelude::*;
use onion_core::testkit::{precision_recall, OverlapPair};
use onion_core::OnionSystem;

use crate::calib;
use crate::heap;
use crate::report::{Opts, Report};
use crate::trace::{self, Tracer};
use crate::util::{self, Hash64, Json};
use crate::THREADS;

const OVERLAP: f64 = 0.25;
/// Sessions per second of `--seconds`, rounded up to whole rounds of the
/// pool.
const PER_SECOND: f64 = 12.0;

#[derive(Debug, Clone)]
pub struct Size {
    /// Concepts per generated pair.
    pub concepts: usize,
    /// Distinct pairs a run cycles through (one reference each).
    pub pool: usize,
    pub min_sessions: usize,
    pub setup_reps: usize,
}

impl Size {
    pub fn full() -> Size {
        Size { concepts: 100, pool: 80, min_sessions: 160, setup_reps: 21 }
    }

    pub fn tiny() -> Size {
        Size { concepts: 40, pool: 3, min_sessions: 4, setup_reps: 2 }
    }
}

/// What a session produced, reduced to what the checks compare.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOut {
    /// Sorted bridges + sorted rules + union and difference shapes.
    pub fingerprint: u64,
    pub proposed: usize,
    pub accepted: usize,
    pub bridges: usize,
    pub derived_facts: usize,
    pub recall: f64,
}

fn fingerprint(art: &Articulation, union: &OntGraph, diff: &OntGraph) -> u64 {
    let mut bridges: Vec<String> = art.bridges.iter().map(|b| b.to_string()).collect();
    bridges.sort_unstable();
    let mut rules: Vec<String> = art.rules.iter().map(|r| r.to_string()).collect();
    rules.sort_unstable();
    let mut h = Hash64::default();
    for s in bridges.iter().chain(&rules) {
        h.bytes(s.as_bytes());
    }
    for n in [union.node_count(), union.edge_count(), diff.node_count(), diff.edge_count()] {
        h.int(n as u64);
    }
    h.finish()
}

fn oracle(p: &OverlapPair) -> OracleExpert {
    OracleExpert::new(p.truth.iter().cloned())
}

fn engine_config() -> EngineConfig {
    let mut cfg = EngineConfig::default();
    cfg.generator.expand_with_inference = true;
    cfg
}

/// The program's load path for one pair: a fresh system with clones of
/// both sources and inference configured; `threads == 0` keeps inference
/// sequential (the reference path).
fn load(p: &OverlapPair, threads: usize) -> OnionSystem {
    let mut sys = OnionSystem::new(p.lexicon.clone());
    sys.add_source(p.left.clone());
    sys.add_source(p.right.clone());
    sys.set_engine_config(engine_config());
    if threads > 0 {
        sys.set_parallel_inference(threads);
    }
    sys
}

/// One session through the facade: load, articulate, union, difference.
pub fn session(p: &OverlapPair, threads: usize) -> Result<SessionOut, String> {
    let mut sys = load(p, threads);
    let report = sys.articulate("left", "right", &mut oracle(p)).map_err(|e| e.to_string())?;
    let union = sys.union().map_err(|e| e.to_string())?;
    let (diff, _) = sys.difference("left", "right").map_err(|e| e.to_string())?;
    let art = sys.articulation().ok_or("articulate stored no articulation")?;
    Ok(SessionOut {
        fingerprint: fingerprint(art, &union, &diff),
        proposed: report.proposed,
        accepted: report.accepted,
        bridges: art.bridges.len(),
        derived_facts: report.generator.inference.derived,
        recall: precision_recall(&art.rules.rules, &p.truth_set()).recall(),
    })
}

/// Work counters of one traced session, from the program's stats.
#[derive(Debug, Clone, Default)]
struct Counters {
    candidates: usize,
    accepted: usize,
    gen: GeneratorStats,
    bridges: usize,
}

/// The same session, issuing the layer calls the facade makes
/// (`ArticulationEngine::run`, then `union`, then `difference`) one by
/// one inside spans.
fn traced_session(
    p: &OverlapPair,
    threads: usize,
    t: &Tracer,
    unit: u64,
) -> Result<(SessionOut, Counters), String> {
    t.span("articulate.session", 0, unit, |root| {
        let (left, right) = t.span("core.load", root, unit, |_| {
            let (mut l, mut r) = (p.left.clone(), p.right.clone());
            // what `add_source` does with the default (adaptive) shards
            l.graph_mut().set_shard_count(0);
            r.graph_mut().set_shard_count(0);
            (l, r)
        });
        let gen_config = t.span("exec.pool_start", root, unit, |_| GeneratorConfig {
            expand_with_inference: true,
            atoms: Some(Arc::new(Mutex::new(AtomTable::new()))),
            executor: Some(Arc::new(Executor::new(threads))),
            ..GeneratorConfig::default()
        });
        let matchers: Vec<(&'static str, Box<dyn RuleMatcher>)> = vec![
            ("skat.exact", Box::new(ExactLabelMatcher)),
            ("skat.synonym", Box::new(SynonymMatcher::new(p.lexicon.clone()))),
            ("skat.similarity", Box::new(SimilarityMatcher::default())),
            ("skat.structural", Box::new(StructuralMatcher::default())),
        ];
        let mut expert = oracle(p);
        let mut rules = RuleSet::new();
        let mut c = Counters::default();
        for _ in 0..EngineConfig::default().max_rounds {
            let mut all = Vec::new();
            for (name, m) in &matchers {
                t.span(name, root, unit, |_| all.extend(m.propose(&left, &right, &rules)));
            }
            let candidates = t.span("skat.merge", root, unit, |_| {
                let merged = CandidateRule::merge(all);
                merged
                    .into_iter()
                    .filter(|cand| !rules.rules.contains(&cand.rule))
                    .collect::<Vec<_>>()
            });
            let new = t.span("expert.review", root, unit, |_| {
                let mut new = 0;
                for cand in candidates {
                    c.candidates += 1;
                    let rule = match expert.review(&cand) {
                        Verdict::Accept => Some(cand.rule),
                        Verdict::Modify(rule) => Some(rule),
                        Verdict::Reject => None,
                    };
                    if rule.is_some_and(|r| rules.push(r)) {
                        c.accepted += 1;
                        new += 1;
                    }
                }
                new + expert.supply_rules().into_iter().filter(|r| rules.push(r.clone())).count()
            });
            if new == 0 {
                break;
            }
        }
        let (art, gen) = t.span("generate", root, unit, |_| {
            ArticulationGenerator::with_config(gen_config)
                .generate_with_stats(&rules, &[&left, &right])
                .map_err(|e| e.to_string())
        })?;
        let union = t.span("algebra.union", root, unit, |_| art.unified(&[&left, &right]));
        let union = union.map_err(|e| e.to_string())?;
        let diff = t.span("algebra.difference", root, unit, |_| {
            onion_core::algebra::difference(&left, &right, &art)
        });
        let (diff, _) = diff.map_err(|e| e.to_string())?;
        c.gen = gen;
        c.bridges = art.bridges.len();
        let out = SessionOut {
            fingerprint: fingerprint(&art, &union, &diff),
            proposed: c.candidates,
            accepted: c.accepted,
            bridges: c.bridges,
            derived_facts: c.gen.inference.derived,
            recall: precision_recall(&art.rules.rules, &p.truth_set()).recall(),
        };
        Ok((out, c))
    })
}

/// The run's inputs: `size.pool` generated pairs.
fn pairs(size: &Size, seed: u64) -> Vec<OverlapPair> {
    (0..size.pool).map(|k| pair(util::sub_seed(seed, k as u64), size.concepts, OVERLAP)).collect()
}

pub fn run(size: &Size, opts: &Opts) -> Result<Report, String> {
    let mut rep = Report::default();

    // set-up: the program loading every pair of the pool, one system
    // at a time as a session holds it (input generation and drops are
    // untimed); repeated at even intervals through the run, so one
    // burst of host load cannot move its median
    let pairs = pairs(size, opts.seed);
    let timed_load = |setup_s: &mut Vec<f64>| {
        let (s, scale) = calib::around(|| {
            let mut s = 0.0;
            for p in &pairs {
                let t0 = Instant::now();
                let sys = load(p, THREADS);
                s += t0.elapsed().as_secs_f64();
                drop(sys);
            }
            s
        });
        setup_s.push(s * scale);
    };
    let mut setup_s = Vec::new();
    timed_load(&mut setup_s);

    // references: the sequential inference path, once per pair
    let mut refs = pairs.iter().map(|p| session(p, 0)).collect::<Result<Vec<_>, _>>()?;
    if opts.plant_wrong_reference {
        refs[0].fingerprint ^= 1;
    }
    let truth: usize = pairs.iter().map(|p| p.truth.len()).sum();
    rep.info(
        "sizes",
        Json::obj([
            ("concepts_per_pair", Json::Int(size.concepts as u64)),
            ("pairs", Json::Int(pairs.len() as u64)),
            ("planted_truth", Json::Int(truth as u64)),
            ("bridges", Json::Int(refs.iter().map(|r| r.bridges as u64).sum())),
            ("derived_facts", Json::Int(refs.iter().map(|r| r.derived_facts as u64).sum())),
            ("threads", Json::Int(THREADS as u64)),
        ]),
    );
    let recall: Vec<f64> = refs.iter().map(|r| r.recall).collect();
    rep.info("recall_min", Json::Num(recall.iter().copied().fold(1.0, f64::min)));
    rep.info("recall_mean", Json::Num(util::mean(&recall)));

    // whole rounds of the pool, so every pair weighs the same
    let sessions = opts.op_count(PER_SECOND, size.min_sessions).div_ceil(pairs.len()) * pairs.len();
    let mut lat_ms = Vec::new();
    let mut wall_ms = Vec::new();
    let mut heap_mb = Vec::new();
    let mut outs = Vec::new();
    let mut busy = 0.0;
    let stride = (sessions / size.setup_reps.max(1)).max(1);
    for i in 0..sessions {
        let k = i % pairs.len();
        let ((out, dt), scale) =
            calib::around(|| heap::measured(&mut heap_mb, || session(&pairs[k], THREADS)));
        busy += dt;
        wall_ms.push(dt * 1e3);
        lat_ms.push(dt * 1e3 * scale);
        rep.op(out.as_ref().is_ok_and(|o| *o == refs[k]));
        outs.push(out.ok());
        if setup_s.len() < size.setup_reps && (i + 1) % stride == 0 {
            timed_load(&mut setup_s);
        }
    }
    rep.info("sessions", Json::Int(lat_ms.len() as u64));
    rep.info("rounds", Json::Int((lat_ms.len() / pairs.len()) as u64));
    rep.info("sessions_beyond_p90", Json::Int(util::beyond(&lat_ms, 90.0) as u64));
    rep.info("wall_p50_ms", Json::Num(util::median(&wall_ms)));

    if !opts.trace {
        let scaled_s = lat_ms.iter().sum::<f64>() / 1e3;
        rep.metric("setup_s", util::median(&setup_s), "s");
        rep.metric("op_p50_ms", util::median(&lat_ms), "ms");
        rep.metric("op_p90_ms", util::percentile(&lat_ms, 90.0), "ms");
        rep.metric("items_per_s", (lat_ms.len() * size.concepts) as f64 / scaled_s, "1/s");
        rep.metric("peak_heap_mb", util::mean(&heap_mb), "MiB");
        return Ok(rep);
    }

    // traced run: the same sessions again, layer by layer
    let t = Tracer::default();
    let mut counters = Vec::new();
    for (i, untraced) in outs.iter().enumerate() {
        let k = i % pairs.len();
        let traced = traced_session(&pairs[k], THREADS, &t, i as u64);
        let same = match (&traced, untraced) {
            (Ok((o, _)), Some(u)) => o == u,
            _ => false,
        };
        rep.op(same);
        if let Ok((_, c)) = traced {
            counters.push(c);
        }
    }
    let spans = t.spans();
    let a = trace::analyse(&spans);
    let untraced_ns = busy * 1e9;
    let per = |name: &str| -> f64 {
        let v: Vec<f64> =
            trace::per_unit_ns(&spans, name).values().map(|&ns| ns as f64 / 1e6).collect();
        util::median(&v)
    };
    let med = |f: &dyn Fn(&Counters) -> f64| -> f64 {
        util::median(&counters.iter().map(f).collect::<Vec<_>>())
    };
    for (metric, span) in [
        ("skat.exact_ms", "skat.exact"),
        ("skat.synonym_ms", "skat.synonym"),
        ("skat.similarity_ms", "skat.similarity"),
        ("skat.structural_ms", "skat.structural"),
        ("expert.review_ms", "expert.review"),
        ("generate.ms", "generate"),
        ("algebra.union_ms", "algebra.union"),
        ("algebra.difference_ms", "algebra.difference"),
    ] {
        rep.metric(metric, per(span), "ms");
    }
    rep.metric("skat.candidates", med(&|c| c.candidates as f64), "count");
    rep.metric(
        "expert.accept_ratio",
        med(&|c| c.accepted as f64 / c.candidates.max(1) as f64),
        "ratio",
    );
    rep.metric("generate.bridges", med(&|c| c.bridges as f64), "count");
    rep.metric("generate.derived_bridges", med(&|c| c.gen.derived_bridges as f64), "count");
    rep.metric("rules.seeded_facts", med(&|c| c.gen.seeded_facts as f64), "count");
    rep.metric("rules.derived_facts", med(&|c| c.gen.inference.derived as f64), "count");
    rep.metric("rules.rounds", med(&|c| c.gen.inference.iterations as f64), "count");
    rep.metric("rules.atoms_examined", med(&|c| c.gen.inference.atoms_examined as f64), "count");
    rep.metric(
        "rules.examined_per_derived",
        med(&|c| c.gen.inference.atoms_examined as f64 / c.gen.inference.derived.max(1) as f64),
        "ratio",
    );
    rep.metric(
        "exec.merge_facts",
        med(&|c| c.gen.inference.worker_merge_facts.iter().sum::<usize>() as f64),
        "count",
    );
    rep.metric("trace.overhead_ratio", a.root_ns as f64 / untraced_ns, "ratio");
    rep.metric("trace.coverage", a.coverage(), "ratio");
    crate::finish_trace(&mut rep, spans, a);
    Ok(rep)
}
