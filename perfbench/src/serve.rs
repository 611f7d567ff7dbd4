//! `serve`: query serving, a closed loop with one client.
//!
//! The server hosts several tenants, each an articulated 400-concept
//! pair with instance data on both sides. The client sends 64-query
//! `query_batch` calls to the tenants in turn, each batch drawn Zipf(1.0)
//! from that tenant's pool of distinct generated queries (a few per
//! articulation class). A tenant's result cache holds 32 entries (16
//! stripes of 2, so the CLOCK sweep picks victims), a fraction of the
//! pool, so the working set does not fit and the hit ratio sets
//! throughput. Spreading the load over several generated pairs keeps a
//! run's figures from hinging on one pair's shape. Query
//! planning/reformulation, the result cache and the batch scheduler do
//! the work; articulation and durability do none.

use std::collections::HashMap;
use std::time::Instant;

use onion_bench::{articulated, instance_kbs, pair};
use onion_core::prelude::*;
use onion_core::testkit::{random_queries, OverlapPair};
use onion_core::OnionSystem;

use crate::calib;
use crate::heap;
use crate::report::{Opts, Report};
use crate::scheduler::{checksum, report_query_layers, TracedScheduler};
use crate::trace::{self, Tracer};
use crate::util::{self, Hash64, Json, Rng, Zipf};
use crate::THREADS;

const OVERLAP: f64 = 0.25;
const ZIPF_S: f64 = 1.0;
/// Distinct pool queries per articulation class.
const QUERIES_PER_CLASS: usize = 2;

#[derive(Debug, Clone)]
pub struct Size {
    /// Independent systems served in turn.
    pub tenants: usize,
    pub concepts: usize,
    /// Instances per knowledge base (one per side).
    pub instances: usize,
    pub batch: usize,
    /// Result-cache entries per tenant.
    pub cache: usize,
    /// Batches per second of `--seconds`.
    pub per_second: f64,
    pub min_batches: usize,
    pub setup_reps: usize,
}

impl Size {
    pub fn full() -> Size {
        Size {
            tenants: 32,
            concepts: 400,
            instances: 2000,
            batch: 64,
            cache: 32,
            per_second: 14.0,
            min_batches: 100,
            setup_reps: 9,
        }
    }

    pub fn tiny() -> Size {
        Size {
            tenants: 2,
            concepts: 60,
            instances: 100,
            batch: 8,
            cache: 4,
            per_second: 12.0,
            min_batches: 12,
            setup_reps: 2,
        }
    }
}

/// One tenant's generated inputs.
struct Inputs {
    pair: OverlapPair,
    kbs: (KnowledgeBase, KnowledgeBase),
}

fn inputs(size: &Size, seed: u64) -> Vec<Inputs> {
    (0..size.tenants)
        .map(|k| {
            let pair = pair(util::sub_seed(seed, k as u64), size.concepts, OVERLAP);
            let kbs = instance_kbs(&pair, size.instances);
            Inputs { pair, kbs }
        })
        .collect()
}

/// The program's set-up of one tenant: load clones of both sources and
/// knowledge bases, articulate from the planted truth, enable the cache.
fn load(size: &Size, inp: &Inputs) -> OnionSystem {
    let p = &inp.pair;
    let mut sys = OnionSystem::new(p.lexicon.clone());
    sys.add_source(p.left.clone());
    sys.add_source(p.right.clone());
    sys.add_knowledge_base(inp.kbs.0.clone());
    sys.add_knowledge_base(inp.kbs.1.clone());
    sys.set_articulation(articulated(p));
    sys.set_query_cache(size.cache);
    sys
}

/// A tenant's inputs: its distinct query pool, largest answers first,
/// and a checksum of each query's uncached `run_query` reference answer.
struct Pool {
    texts: Vec<String>,
    refs: Vec<u64>,
    rows: usize,
}

/// Draws the pool from `random_queries`, keeping the same number of
/// distinct queries for every articulation class, and orders it by
/// reference answer size, largest first. Zipf rank then maps to cost the
/// same way for every seed, so a run's figures do not hinge on which
/// ranks the draw happened to give the few queries over root classes.
fn pool(sys: &OnionSystem, exec: &Executor, seed: u64) -> Result<Pool, String> {
    let art = sys.articulation().expect("articulated in set-up");
    let classes = art.ontology.graph().node_count();
    let mut seen = std::collections::HashSet::new();
    let mut per_class: HashMap<String, usize> = HashMap::new();
    let queries: Vec<Query> = random_queries(art, "Price", 64 * QUERIES_PER_CLASS * classes, seed)
        .into_iter()
        .filter(|q| {
            let n = per_class.entry(q.class.clone()).or_insert(0);
            let keep = *n < QUERIES_PER_CLASS && seen.insert(q.to_string());
            *n += usize::from(keep);
            keep
        })
        .collect();
    // reduced to size and checksum at once, so the run's peak memory
    // is the program's and not that of the reference answers
    let answers = exec
        .par_map(&queries, |q| sys.run_query(q).map(|a| (a.rows.len(), checksum(&a))))
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("reference query failed: {e}"))?;
    let mut entries: Vec<(usize, String, u64)> =
        queries.iter().zip(answers).map(|(q, (rows, sum))| (rows, q.to_string(), sum)).collect();
    entries.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    Ok(Pool {
        rows: entries.iter().map(|e| e.0).sum(),
        refs: entries.iter().map(|e| e.2).collect(),
        texts: entries.into_iter().map(|e| e.1).collect(),
    })
}

pub fn run(size: &Size, opts: &Opts) -> Result<Report, String> {
    let mut rep = Report::default();
    let inputs = inputs(size, opts.seed);
    // set-up: the program loading every tenant (input generation and
    // drops untimed); repeated at even intervals through the run, so one
    // burst of host load cannot move its median
    let timed_load = |setup_s: &mut Vec<f64>| {
        let ((tenants, dt), scale) = calib::around(|| {
            let t0 = Instant::now();
            let tenants: Vec<OnionSystem> = inputs.iter().map(|inp| load(size, inp)).collect();
            (tenants, t0.elapsed().as_secs_f64())
        });
        setup_s.push(dt * scale);
        tenants
    };
    let mut setup_s = Vec::new();
    let tenants = timed_load(&mut setup_s);
    let exec = Executor::new(THREADS);
    let mut pools = tenants
        .iter()
        .enumerate()
        .map(|(k, t)| pool(t, &exec, util::sub_seed(opts.seed, 100 + k as u64)))
        .collect::<Result<Vec<_>, _>>()?;
    let zipf: Vec<Zipf> = pools.iter().map(|p| Zipf::new(p.texts.len(), ZIPF_S)).collect();
    let mut rng = Rng::new(util::sub_seed(opts.seed, 200));
    let count = opts.op_count(size.per_second, size.min_batches);
    let batches: Vec<Vec<usize>> = (0..count)
        .map(|b| (0..size.batch).map(|_| zipf[b % tenants.len()].sample(&mut rng)).collect())
        .collect();
    if opts.plant_wrong_reference {
        pools[0].refs[batches[0][0]] ^= 1;
    }
    let arts = tenants.iter().map(|t| t.articulation().expect("articulated"));
    let capacity = tenants[0].query_cache_stats().expect("cache enabled").capacity;
    rep.info(
        "sizes",
        Json::obj([
            ("tenants", Json::Int(size.tenants as u64)),
            ("concepts_per_tenant", Json::Int(size.concepts as u64)),
            ("instances_per_side", Json::Int(size.instances as u64)),
            ("bridges", Json::Int(arts.clone().map(|a| a.bridges.len() as u64).sum())),
            (
                "articulation_classes",
                Json::Int(arts.map(|a| a.ontology.graph().node_count() as u64).sum()),
            ),
            ("distinct_pool_queries", Json::Int(pools.iter().map(|p| p.texts.len() as u64).sum())),
            ("reference_rows", Json::Int(pools.iter().map(|p| p.rows as u64).sum())),
            ("batch", Json::Int(size.batch as u64)),
            ("cache_capacity_per_tenant", Json::Int(capacity as u64)),
        ]),
    );

    let mut lat_ms = Vec::new();
    let mut wall_ms = Vec::new();
    let mut heap_mb = Vec::new();
    let mut sums = Vec::new();
    let mut busy = 0.0;
    let stride = (batches.len() / size.setup_reps.max(1)).max(1);
    for (b, idx) in batches.iter().enumerate() {
        let k = b % tenants.len();
        let batch: Vec<&str> = idx.iter().map(|&i| pools[k].texts[i].as_str()).collect();
        let ((out, dt), scale) = calib::around(|| {
            heap::measured(&mut heap_mb, || tenants[k].query_batch(&exec, &batch))
        });
        busy += dt;
        wall_ms.push(dt * 1e3);
        lat_ms.push(dt * 1e3 * scale);
        let mut h = Hash64::default();
        for (res, i) in out.iter().zip(idx) {
            let sum = res.as_ref().map(|rs| checksum(rs));
            rep.op(sum.as_ref().is_ok_and(|&s| s == pools[k].refs[*i]));
            h.int(sum.unwrap_or(0));
        }
        sums.push(h.finish());
        if setup_s.len() < size.setup_reps && (b + 1) % stride == 0 {
            drop(timed_load(&mut setup_s));
        }
    }
    let stats: Vec<CacheStats> =
        tenants.iter().map(|t| t.query_cache_stats().expect("cache enabled")).collect();
    let hits: u64 = stats.iter().map(|s| s.hits).sum();
    let lookups: u64 = stats.iter().map(|s| s.hits + s.misses).sum();
    rep.info("batches", Json::Int(lat_ms.len() as u64));
    rep.info("batches_beyond_p90", Json::Int(util::beyond(&lat_ms, 90.0) as u64));
    rep.info("cache_hit_ratio", Json::Num(hits as f64 / lookups.max(1) as f64));
    rep.info("cache_evictions", Json::Int(stats.iter().map(|s| s.evictions).sum()));
    rep.info("wall_p50_ms", Json::Num(util::median(&wall_ms)));

    if !opts.trace {
        let queries = (lat_ms.len() * size.batch) as f64;
        let scaled_s = lat_ms.iter().sum::<f64>() / 1e3;
        rep.metric("setup_s", util::median(&setup_s), "s");
        rep.metric("op_p50_ms", util::median(&lat_ms), "ms");
        rep.metric("op_p90_ms", util::percentile(&lat_ms, 90.0), "ms");
        rep.metric("items_per_s", queries / scaled_s, "1/s");
        rep.metric("peak_heap_mb", util::mean(&heap_mb), "MiB");
        return Ok(rep);
    }

    // traced run: the same batches, each tenant through a fresh cache of
    // equal size
    let scheds: Vec<TracedScheduler> =
        inputs.iter().map(|inp| TracedScheduler::new(&inp.kbs, size.cache)).collect();
    let t = Tracer::default();
    let mut counts = Vec::new();
    for (b, idx) in batches.iter().enumerate() {
        let k = b % scheds.len();
        let (out, c) = t.span("serve.batch", 0, b as u64, |root| {
            let parsed: Vec<Query> = idx
                .iter()
                .map(|&i| {
                    let text = &pools[k].texts[i];
                    t.span("query.parse", root, b as u64, |_| Query::parse(text))
                })
                .collect::<Result<_, _>>()
                .expect("pool queries parse");
            scheds[k].batch(&tenants[k], &exec, &parsed, &t, root, b as u64)
        });
        let mut h = Hash64::default();
        for res in &out {
            h.int(res.as_ref().map_or(0, |rs| checksum(rs)));
        }
        rep.op(out.iter().all(Result::is_ok) && h.finish() == sums[b]);
        counts.push(c);
    }
    let traced: Vec<CacheStats> = scheds.iter().map(TracedScheduler::cache_stats).collect();
    rep.check("traced_cache_hits_match_facade", traced.iter().map(|s| s.hits).sum::<u64>() == hits);

    let spans = t.spans();
    let a = trace::analyse(&spans);
    rep.metric("query.parse_us", a.mean_us("query.parse"), "us");
    report_query_layers(&mut rep, &spans, &a, &counts, &traced, "serve.batch", &wall_ms);
    rep.metric("trace.overhead_ratio", a.root_ns as f64 / (busy * 1e9), "ratio");
    rep.metric("trace.coverage", a.coverage(), "ratio");
    crate::finish_trace(&mut rep, spans, a);
    Ok(rep)
}
