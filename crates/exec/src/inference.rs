//! Shard-parallel semi-naive Horn inference on the executor pool.
//!
//! This is the articulation generator's one parallel saturation path:
//! with `GeneratorConfig::executor` set (the facade's
//! `OnionSystem::set_parallel_inference`), `expand` seeds graph edges
//! with [`par_seed_subclass_facts`] into its single fact base and the
//! shared atom table, then saturates with [`ParallelEngine`]. Without
//! an executor it runs the sequential `InferenceEngine`; both yield
//! the same derived facts and bridges.
//!
//! Two entry points, both with a hard determinism contract:
//!
//! * [`par_seed_subclass_facts`] — the parallel counterpart of the
//!   generator's sequential graph-edge seeding. Seed edges are
//!   partitioned by snapshot shard (worker `k` owns every edge whose
//!   source node lives in shard `k`, i.e. `src.index() % shard_count ==
//!   k`); each worker collects its shard's `(LabelId, LabelId)`
//!   subclass pairs into a private scratch table; the merge then
//!   re-maps labels to [`AtomId`]s canonically. The resulting fact
//!   base and atom table are **byte-identical at every shard count and
//!   every thread count**.
//!
//! * [`ParallelEngine`] — semi-naive saturation whose per-round delta
//!   is split into `(clause, delta position, delta rows)` work units
//!   evaluated concurrently via
//!   [`CompiledProgram::eval_delta_range`]. The delta is each
//!   predicate's rows the previous round appended, so a unit is a
//!   sub-range of one predicate's delta rows. Work units are a function
//!   of the delta alone (never of the thread count), results merge in
//!   unit order, and per-unit effort sums are partition-invariant, so
//!   derived fact sets *and* [`InferenceStats`] — including the
//!   per-round counters — are byte-identical at every thread count.
//!
//! ## Merge order (load-bearing, tested)
//!
//! 1. **Seeding**: per-shard results are combined in ascending shard
//!    order; `skipped_dead_nodes` is the sum in that order. The union
//!    of label pairs is sorted by `(LabelId, LabelId)`; endpoint
//!    labels are interned in ascending [`LabelId`] order (the
//!    deterministic id-remap — `LabelId` order is a property of the
//!    graph, not of the partitioning); facts are inserted in sorted
//!    pair order.
//! 2. **Saturation**: a unit emits only heads the store did not hold
//!    when the round began. Each round's unit outputs are concatenated
//!    in unit order — units are ordered by (clause index, delta
//!    position, delta row range start) — then deduplicated through
//!    `FactBase::add_fact`, which appends the next round's delta rows
//!    in that order. `worker_merge_facts` counts the heads that reach
//!    this merge.
//!
//! The round-level counters (`rounds[r].delta`, `rounds[r].derived`,
//! `iterations`, `derived`) equal the sequential
//! [`Strategy::SemiNaive`](onion_rules::Strategy) engine's exactly;
//! `atoms_examined` is the parallel engine's own effort measure
//! (delta-first join order examines a different — typically smaller —
//! candidate stream than the sequential body-order join), invariant
//! across shard and thread counts but not comparable across engines.
//! The `seminaive_props` differential suite pins all of this.

use onion_graph::hash::FxHashSet;
use onion_graph::{rel, LabelId, OntGraph};
use onion_rules::infer::{CompiledProgram, FactRows};
use onion_rules::{AtomId, AtomTable, FactBase, HornProgram, InferenceStats};

use crate::Executor;

/// Outcome of one parallel seeding pass over a graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSeedStats {
    /// Facts that were new to the fact base.
    pub seeded: usize,
    /// Edges dropped because an endpoint node was deleted (summed over
    /// shards in ascending shard order).
    pub skipped_dead_nodes: usize,
    /// Shard partitions the scan used (`graph.shard_count()`).
    pub shards: usize,
}

/// Seeds one interned `subclassof` fact per live subclass edge of `g`,
/// scanning shard-parallel on `exec` (see module docs for the
/// partition and merge-order contract). Returns what was seeded.
///
/// The fact *set* equals the sequential
/// [`seed path`](onion_rules::AtomTable::graph_atoms) exactly; atom
/// ids may differ from a sequential seeding (labels are interned in
/// `LabelId` order here, edge order there), but are identical across
/// every `(shard count, thread count)` combination.
pub fn par_seed_subclass_facts(
    exec: &Executor,
    g: &OntGraph,
    atoms: &mut AtomTable,
    fb: &mut FactBase,
) -> ShardSeedStats {
    let shards = g.shard_count().max(1);
    let mut out = ShardSeedStats { seeded: 0, skipped_dead_nodes: 0, shards };
    let Some(sub) = g.label_id(rel::SUBCLASS_OF) else { return out };

    // Fan out: worker k scans the edges owned by snapshot shard k into
    // a private scratch table of label pairs.
    let shard_ids: Vec<usize> = (0..shards).collect();
    let per_shard: Vec<(Vec<(LabelId, LabelId)>, usize)> = exec.par_map(&shard_ids, |&k| {
        let mut seen: FxHashSet<(LabelId, LabelId)> = FxHashSet::default();
        let mut pairs: Vec<(LabelId, LabelId)> = Vec::new();
        let mut skipped = 0usize;
        for (_, src, lid, dst) in g.edge_entries() {
            if lid != sub || src.index() % shards != k {
                continue;
            }
            match (g.node_label_id(src), g.node_label_id(dst)) {
                (Some(s), Some(d)) => {
                    if seen.insert((s, d)) {
                        pairs.push((s, d));
                    }
                }
                _ => skipped += 1,
            }
        }
        (pairs, skipped)
    });

    // Merge in ascending shard order (the documented contract).
    let mut pairs: Vec<(LabelId, LabelId)> = Vec::new();
    for (p, skipped) in per_shard {
        out.skipped_dead_nodes += skipped;
        pairs.extend(p);
    }
    pairs.sort_unstable();
    pairs.dedup();

    // Canonical id-remap: intern endpoint labels in ascending LabelId
    // order, then insert facts in sorted pair order. Both orders are
    // properties of the graph alone, so the AtomIds assigned and the
    // fact base's insertion order are independent of how the scan was
    // partitioned.
    let pred = atoms.intern("subclassof");
    let mut cursor = atoms.graph_atoms(g);
    let mut labels: Vec<LabelId> = pairs.iter().flat_map(|&(s, d)| [s, d]).collect();
    labels.sort_unstable();
    labels.dedup();
    for l in labels {
        cursor.atom(l);
    }
    for (s, d) in pairs {
        let (s, d) = (cursor.atom(s), cursor.atom(d));
        if fb.add_fact(pred, &[s, d]) {
            out.seeded += 1;
        }
    }
    out
}

/// Semi-naive forward chaining with each round's delta evaluated in
/// parallel work units on an [`Executor`] (see module docs for the
/// determinism contract).
#[derive(Debug, Clone)]
pub struct ParallelEngine {
    program: HornProgram,
    /// Abort once this many facts have been derived (0 = unlimited).
    pub max_derived: usize,
    /// Abort after this many rounds (0 = unlimited).
    pub max_iterations: usize,
}

/// Target number of row-range units per (clause, delta position) slot —
/// enough to keep a pool busy without drowning small rounds in
/// per-unit overhead. A function of the slot predicate's delta rows
/// only, NEVER of the thread count: the unit grid must be identical
/// for every executor.
const DELTA_UNITS: usize = 32;
/// Fewest delta rows worth dispatching as their own unit.
const MIN_UNIT: usize = 64;

impl ParallelEngine {
    /// Engine for `program` with no budget.
    pub fn new(program: HornProgram) -> Self {
        ParallelEngine { program, max_derived: 0, max_iterations: 0 }
    }

    /// Sets the derivation budget (same semantics as the sequential
    /// engine's `with_budget`).
    pub fn with_budget(mut self, max_derived: usize, max_iterations: usize) -> Self {
        self.max_derived = max_derived;
        self.max_iterations = max_iterations;
        self
    }

    /// Runs the program to fixpoint on `fb`, adding derived facts.
    ///
    /// `iterations`, `derived`, and the per-round `delta`/`derived`
    /// counters equal the sequential semi-naive engine's; the whole
    /// [`InferenceStats`] — `atoms_examined` included — is
    /// byte-identical across thread counts.
    pub fn run(
        &self,
        exec: &Executor,
        atoms: &mut AtomTable,
        fb: &mut FactBase,
    ) -> onion_rules::Result<InferenceStats> {
        let compiled = CompiledProgram::compile(&self.program, atoms)?;
        let slots = compiled.delta_slots();
        let (mut stats, merged) =
            compiled.saturate(fb, self.max_derived, self.max_iterations, false, |fb| {
                // The unit grid: (clause, delta position, delta rows),
                // ordered by construction. Range width depends on the
                // predicate's delta size alone.
                let mut units = Vec::new();
                for &(ci, d, pred) in &slots {
                    let rows = fb.delta_rows(pred);
                    let chunk = rows.len().div_ceil(DELTA_UNITS).max(MIN_UNIT);
                    let mut lo = rows.start;
                    while lo < rows.end {
                        let hi = (lo + chunk).min(rows.end);
                        units.push((ci, d, lo..hi));
                        lo = hi;
                    }
                }
                let (heads, efforts): (Vec<FactRows>, Vec<usize>) = exec
                    .par_map(&units, |(ci, d, rows)| {
                        let mut out = FactRows::default();
                        let mut effort = 0usize;
                        compiled.eval_delta_range(fb, *ci, *d, rows.clone(), &mut out, &mut effort);
                        (out, effort)
                    })
                    .into_iter()
                    .unzip();
                let examined: usize = efforts.iter().sum();
                // Work-unit imbalance: the hottest unit's effort
                // relative to the mean, in percent (100 = perfectly
                // balanced). Observational only — partition-invariant
                // like the stats.
                if onion_obs::enabled() && !efforts.is_empty() {
                    let max = efforts.iter().copied().max().unwrap_or(0);
                    let avg = examined / efforts.len();
                    if let Some(pct) = (max * 100).checked_div(avg) {
                        onion_obs::observe_val!("onion_inference_unit_imbalance_pct", pct);
                    }
                }
                (heads, examined)
            })?;
        // One worker, one barrier: every head that reached the serial
        // merge.
        stats.worker_merge_facts = vec![merged];
        Ok(stats)
    }
}

/// An order-insensitive checksum of a fact base's contents resolved
/// against `atoms` — equal across runs whose fact *sets* are equal,
/// whatever the interning order. Bench B12 asserts engine identity
/// with this before timing.
pub fn fact_set_checksum(atoms: &AtomTable, fb: &FactBase) -> u64 {
    let mut acc: u64 = 0;
    for (pred, args) in fb.facts_in_pred_order() {
        let mut h = crate::Fnv::new();
        mix_atom(&mut h, atoms, pred);
        for a in args {
            mix_atom(&mut h, atoms, a);
        }
        // XOR-fold per fact: set semantics, not sequence semantics
        acc ^= h.finish();
    }
    acc
}

fn mix_atom(h: &mut crate::Fnv, atoms: &AtomTable, a: AtomId) {
    h.mix_bytes(atoms.resolve(a).as_bytes());
    h.mix(0xff); // separator
}

#[cfg(test)]
mod tests {
    use super::*;
    use onion_rules::{Fact, RuleError};

    fn chain(n: usize) -> (AtomTable, FactBase) {
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        for i in 0..n {
            fb.add(&mut atoms, "p", &[&format!("n{i}"), &format!("n{}", i + 1)]);
        }
        (atoms, fb)
    }

    fn transitivity() -> HornProgram {
        HornProgram::parse("p(X, Z) :- p(X, Y), p(Y, Z).").unwrap()
    }

    #[test]
    fn parallel_closure_matches_sequential() {
        let n = 24;
        let (mut atoms_seq, mut fb_seq) = chain(n);
        let seq = onion_rules::InferenceEngine::new(transitivity())
            .run(&mut atoms_seq, &mut fb_seq)
            .unwrap();
        for threads in [1, 2, 4] {
            let exec = Executor::new(threads);
            let (mut atoms, mut fb) = chain(n);
            let par = ParallelEngine::new(transitivity()).run(&exec, &mut atoms, &mut fb).unwrap();
            assert_eq!(fb.len(), fb_seq.len(), "threads={threads}");
            assert_eq!(par.derived, seq.derived);
            assert_eq!(par.iterations, seq.iterations);
            let seq_rounds: Vec<(usize, usize)> =
                seq.rounds.iter().map(|r| (r.delta, r.derived)).collect();
            let par_rounds: Vec<(usize, usize)> =
                par.rounds.iter().map(|r| (r.delta, r.derived)).collect();
            assert_eq!(par_rounds, seq_rounds, "threads={threads}");
            assert_eq!(
                fact_set_checksum(&atoms, &fb),
                fact_set_checksum(&atoms_seq, &fb_seq),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_stats_identical_across_thread_counts() {
        let (mut a1, mut f1) = chain(40);
        let s1 = ParallelEngine::new(transitivity()).run(&Executor::new(1), &mut a1, &mut f1);
        let (mut a2, mut f2) = chain(40);
        let s2 = ParallelEngine::new(transitivity()).run(&Executor::new(4), &mut a2, &mut f2);
        assert_eq!(s1.unwrap(), s2.unwrap(), "full stats byte-identical across thread counts");
        assert_eq!(f1.facts_in_pred_order(), f2.facts_in_pred_order(), "same facts, same ids");
    }

    #[test]
    fn parallel_budget_errors_match_sequential() {
        let (mut atoms, mut fb) = chain(50);
        let err = ParallelEngine::new(transitivity())
            .with_budget(10, 0)
            .run(&Executor::new(2), &mut atoms, &mut fb)
            .unwrap_err();
        assert!(matches!(err, RuleError::BudgetExceeded { derived } if derived > 10));
        let (mut atoms, mut fb) = chain(50);
        let err = ParallelEngine::new(transitivity())
            .with_budget(0, 2)
            .run(&Executor::new(2), &mut atoms, &mut fb)
            .unwrap_err();
        assert!(matches!(err, RuleError::BudgetExceeded { .. }));
    }

    #[test]
    fn par_seed_identical_across_shard_counts() {
        let mut edges = Vec::new();
        for i in 0..30 {
            edges.push((format!("c{i}"), format!("c{}", (i * 7) % 30)));
        }
        let mut baseline: Option<(usize, Vec<Fact>)> = None;
        for shards in [1usize, 2, 7, 64] {
            let mut g = OntGraph::new("s");
            for (a, b) in &edges {
                g.ensure_edge_by_labels(a, rel::SUBCLASS_OF, b).unwrap();
            }
            g.set_shard_count(shards);
            let mut atoms = AtomTable::new();
            let mut fb = FactBase::new();
            let s = par_seed_subclass_facts(&Executor::new(2), &g, &mut atoms, &mut fb);
            assert_eq!(s.shards, shards);
            let facts = fb.facts_in_pred_order();
            assert_eq!(s.seeded, facts.len());
            match &baseline {
                None => baseline = Some((s.seeded, facts)),
                Some((seeded, base)) => {
                    assert_eq!(s.seeded, *seeded, "shards={shards}");
                    assert_eq!(&facts, base, "identical atom ids at shards={shards}");
                }
            }
        }
    }
}
