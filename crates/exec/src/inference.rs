//! Semi-naive Horn inference on the executor pool.
//!
//! With `GeneratorConfig::executor` set (the facade's
//! `OnionSystem::set_parallel_inference`), the articulation generator
//! seeds its fact base with the one graph walk,
//! `onion_rules::infer::seed_relation_facts`, then saturates with
//! [`ParallelEngine`] instead of the sequential `InferenceEngine`.
//!
//! [`ParallelEngine`] joins nothing itself. It runs the sequential
//! engine's semi-naive rounds — one `(clause, delta position, delta
//! rows)` work unit per [`CompiledProgram::delta_slots`] entry,
//! evaluated by [`CompiledProgram::eval_delta_range`] inside
//! [`CompiledProgram::saturate`] — but cuts each slot's delta rows into
//! sub-ranges and evaluates them concurrently via [`Executor::par_map`].
//! The cut is a function of the slot predicate's delta size alone
//! (never of the thread count), and results come back in unit order.
//!
//! ## Merge order (load-bearing, tested)
//!
//! A unit emits only heads the store did not hold when the round
//! began. Each round's unit outputs are concatenated in unit order —
//! (clause index, delta position, delta row range start) — then
//! deduplicated through `FactBase::add_fact`, which appends the next
//! round's delta rows in that order. A slot's heads are the
//! concatenation of its rows' heads, so this is the order the
//! sequential engine emits, and every counter is a sum over delta
//! rows. Fact bases (`facts_in_pred_order()`, atom ids included) and
//! the whole [`InferenceStats`] — `atoms_examined`, the round ledger
//! and `worker_merge_facts` (the heads that reach the merge) — are
//! therefore equal to the sequential semi-naive engine's at every
//! thread count. The `seminaive_props` and `inference_props` suites pin
//! this.

use onion_rules::infer::{CompiledProgram, FactRows};
use onion_rules::{AtomId, AtomTable, FactBase, HornProgram, InferenceStats};

use crate::Executor;

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
    /// The fact base and the whole [`InferenceStats`] equal the
    /// sequential semi-naive engine's at every thread count.
    pub fn run(
        &self,
        exec: &Executor,
        atoms: &mut AtomTable,
        fb: &mut FactBase,
    ) -> onion_rules::Result<InferenceStats> {
        let compiled = CompiledProgram::compile(&self.program, atoms)?;
        let slots = compiled.delta_slots();
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
        })
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
    use onion_rules::RuleError;

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
            assert_eq!(par, seq, "threads={threads}");
            assert_eq!(fb.facts_in_pred_order(), fb_seq.facts_in_pred_order(), "threads={threads}");
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
}
