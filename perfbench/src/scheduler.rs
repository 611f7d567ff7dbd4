//! The query path shared by `serve` and `evolve`: the result checksum
//! both compare, and the batch scheduler of `OnionSystem::run_batch`
//! issued layer call by layer call inside spans for their traced runs.

use std::collections::HashMap;
use std::sync::Arc;

use onion_core::prelude::*;
use onion_core::query::exec::execute_plan;
use onion_core::query::{plan, ResultRow};
use onion_core::OnionSystem;

use crate::report::Report;
use crate::trace::{Analysis, Span, Tracer};
use crate::util::{self, Hash64};

/// The facade's cache-key scope, so the traced scheduler's cache
/// stripes (and therefore its hits and evictions) match the facade's.
const CACHE_SCOPE: &str = "onion-system";

/// Order-sensitive checksum of one result set: row ids, sources, local
/// classes and every converted attribute value.
pub fn checksum(rs: &ResultSet) -> u64 {
    let mut h = Hash64::default();
    h.int(rs.rows.len() as u64);
    for row in &rs.rows {
        h.bytes(row.id.as_bytes());
        h.bytes(row.source.as_bytes());
        h.bytes(row.local_class.as_bytes());
        for (k, v) in &row.attrs {
            h.bytes(k.as_bytes());
            match v {
                Value::Num(x) => h.int(x.to_bits()),
                Value::Str(s) => h.bytes(s.as_bytes()),
            }
        }
    }
    h.finish()
}

/// Per-batch work counts of the traced scheduler.
#[derive(Debug, Default, Clone, Copy)]
pub struct BatchCounts {
    pub queries: usize,
    pub unique: usize,
    pub misses: usize,
    pub rows: usize,
}

/// What `run_batch` does (canonicalise + dedup, cache probe, plan and
/// execute the unique misses on the pool, insert, scatter), with its own
/// cache of the facade's capacity.
pub struct TracedScheduler {
    wrappers: Vec<InMemoryWrapper>,
    conversions: ConversionRegistry,
    cache: ResultCache<ResultSet>,
}

impl TracedScheduler {
    pub fn new(kbs: &(KnowledgeBase, KnowledgeBase), cache: usize) -> Self {
        TracedScheduler {
            wrappers: vec![
                InMemoryWrapper::new(kbs.0.clone()),
                InMemoryWrapper::new(kbs.1.clone()),
            ],
            conversions: ConversionRegistry::standard(),
            cache: ResultCache::new(cache),
        }
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// One batch against `sys`'s current state; every layer call is a
    /// child span of `root`.
    pub fn batch(
        &self,
        sys: &OnionSystem,
        exec: &Executor,
        queries: &[Query],
        t: &Tracer,
        root: u64,
        unit: u64,
    ) -> (Vec<Result<Arc<ResultSet>, String>>, BatchCounts) {
        let mut counts = BatchCounts { queries: queries.len(), ..BatchCounts::default() };
        let epoch = sys.query_epoch();
        let keys: Vec<String> = queries.iter().map(|q| q.to_string()).collect();
        let mut slot_of: HashMap<&str, usize> = HashMap::new();
        let mut uniq_first: Vec<usize> = Vec::new();
        let assign: Vec<usize> = keys
            .iter()
            .enumerate()
            .map(|(i, key)| {
                *slot_of.entry(key.as_str()).or_insert_with(|| {
                    uniq_first.push(i);
                    uniq_first.len() - 1
                })
            })
            .collect();
        counts.unique = uniq_first.len();

        let mut slots: Vec<Option<Result<Arc<ResultSet>, String>>> =
            uniq_first.iter().map(|_| None).collect();
        let mut misses = Vec::new();
        for (slot, &i) in uniq_first.iter().enumerate() {
            let key = CacheKey::new(CACHE_SCOPE, epoch, keys[i].clone());
            match t.span("cache.probe", root, unit, |_| self.cache.get(&key)) {
                Some(hit) => slots[slot] = Some(Ok(hit)),
                None => misses.push(slot),
            }
        }
        counts.misses = misses.len();

        let art = sys.articulation().expect("articulated in set-up");
        let sources: Vec<&Ontology> =
            art.source_names().iter().map(|n| sys.source(n).expect("loaded")).collect();
        let computed = t.span("exec.par_map", root, unit, |pm| {
            exec.par_map(&misses, |&slot| {
                let q = &queries[uniq_first[slot]];
                let wrappers: Vec<&dyn Wrapper> =
                    self.wrappers.iter().map(|w| w as &dyn Wrapper).collect();
                let planned =
                    t.span("query.plan", pm, unit, |_| plan(q, art, &sources, &self.conversions));
                planned
                    .and_then(|p| {
                        t.span("query.execute", pm, unit, |_| {
                            execute_plan(&p, art, &sources, &self.conversions, &wrappers)
                        })
                    })
                    .map_err(|e| e.to_string())
            })
        });
        for (&slot, res) in misses.iter().zip(computed) {
            let res = res.map(Arc::new);
            if let Ok(v) = &res {
                counts.rows += v.rows.len();
                let key = CacheKey::new(CACHE_SCOPE, epoch, keys[uniq_first[slot]].clone());
                let weight = v.rows.len() * std::mem::size_of::<ResultRow>();
                t.span("cache.insert", root, unit, |_| {
                    self.cache.insert(key, Arc::clone(v), weight)
                });
            }
            slots[slot] = Some(res);
        }
        let out = assign
            .into_iter()
            .map(|slot| match &slots[slot] {
                Some(Ok(v)) => Ok(Arc::clone(v)),
                Some(Err(e)) => Err(e.clone()),
                None => Err("slot never filled".to_string()),
            })
            .collect();
        (out, counts)
    }
}

/// Reports the query, cache and batch-scheduler metrics of a traced
/// run. `root` names the batch's root span, whose unit indexes
/// `untraced_ms`, the untraced latency of the same batch; the facade's
/// own time is that latency minus the traced children.
pub fn report_query_layers(
    rep: &mut Report,
    spans: &[Span],
    a: &Analysis,
    counts: &[BatchCounts],
    caches: &[CacheStats],
    root: &str,
    untraced_ms: &[f64],
) {
    let total = |f: fn(&BatchCounts) -> usize| counts.iter().map(f).sum::<usize>() as f64;
    let hits: u64 = caches.iter().map(|s| s.hits).sum();
    let lookups: u64 = caches.iter().map(|s| s.hits + s.misses).sum();
    let evictions: u64 = caches.iter().map(|s| s.evictions).sum();
    rep.metric("query.plan_us", a.mean_us("query.plan"), "us");
    rep.metric("query.execute_us", a.mean_us("query.execute"), "us");
    rep.metric("query.rows_per_query", total(|c| c.rows) / total(|c| c.misses).max(1.0), "count");
    rep.metric("cache.hit_ratio", hits as f64 / lookups.max(1) as f64, "ratio");
    rep.metric("cache.evictions_per_batch", evictions as f64 / counts.len().max(1) as f64, "count");
    rep.metric("cache.probe_us", a.mean_us("cache.probe"), "us");
    rep.metric("core.dedup_ratio", total(|c| c.unique) / total(|c| c.queries).max(1.0), "ratio");
    let self_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name == root)
        .map(|s| untraced_ms[s.unit as usize] - a.covered_by_root[&s.id] as f64 / 1e6)
        .collect();
    rep.metric("core.batch_self_ms", util::median(&self_ms), "ms");
}
