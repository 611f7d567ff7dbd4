//! Forward-chaining inference over Horn programs, keyed by interned
//! [`AtomId`]s.
//!
//! §4.1 motivates restricting articulation rules to Horn clauses so that
//! "a much lighter (and faster) inference engine" can be plugged in. We
//! provide three strategies whose contrast is experiment **B6**:
//!
//! * [`Strategy::SemiNaive`] — delta-driven evaluation with per-argument
//!   fact indexes; the "lighter and faster" engine the paper envisages;
//! * [`Strategy::Naive`] — re-evaluates every clause against the full
//!   fact base each round (still indexed);
//! * [`Strategy::FullClosure`] — the deliberately heavyweight stand-in
//!   for a full first-order prover: no indexes, every body atom scans the
//!   entire fact base every round.
//!
//! All strategies compute the same least fixpoint; they differ only in
//! work done, which [`InferenceStats`] exposes (`atoms_examined` is the
//! effort proxy reported by bench B6).
//!
//! Symbols live in an external [`AtomTable`] rather than inside the fact
//! base, so one table can back many fact bases (the articulation
//! generator reuses the system's shared table across runs) and seeding
//! from a graph goes through [`AtomTable::graph_atoms`] without ever
//! formatting or hashing a string per fact. The string-accepting methods
//! here are the thin display/test view the parser boundary needs; the
//! hot paths are the `*_fact`/`*_ids` variants. The pre-refactor
//! string-keyed engine survives as [`crate::reference`] for differential
//! testing and the B12 baseline.

use std::collections::{HashMap, HashSet};

use crate::atoms::{AtomId, AtomTable};
use crate::horn::{Atom, HornClause, HornProgram, TermArg};
use crate::{Result, RuleError};

/// A ground fact: interned predicate and argument atoms.
///
/// Public so `onion-exec` can shuttle per-round deltas between the
/// engine and its worker pool without re-encoding.
pub type Fact = (AtomId, Vec<AtomId>);

/// A deduplicated set of ground facts with per-argument indexes.
///
/// Facts are tuples of [`AtomId`]s resolved against a caller-owned
/// [`AtomTable`]; the base itself stores no strings.
#[derive(Debug, Default, Clone)]
pub struct FactBase {
    facts: HashSet<Fact>,
    /// pred → list of argument tuples (insertion order)
    by_pred: HashMap<AtomId, Vec<Vec<AtomId>>>,
    /// (pred, position, symbol) → indexes into `by_pred[pred]`
    index: HashMap<(AtomId, u8, AtomId), Vec<u32>>,
}

impl FactBase {
    /// Empty fact base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fact by strings (interning through `atoms`); returns true
    /// if new.
    pub fn add(&mut self, atoms: &mut AtomTable, pred: &str, args: &[&str]) -> bool {
        let p = atoms.intern(pred);
        let a: Vec<AtomId> = args.iter().map(|s| atoms.intern(s)).collect();
        self.add_fact(p, a)
    }

    /// Adds a ground [`Atom`]; returns true if new. Panics if not ground.
    pub fn add_atom(&mut self, atoms: &mut AtomTable, atom: &Atom) -> bool {
        assert!(atom.is_ground(), "add_atom requires a ground atom");
        let p = atoms.intern(&atom.pred);
        let args: Vec<AtomId> = atom
            .args
            .iter()
            .map(|a| match a {
                TermArg::Const(c) => atoms.intern(c),
                TermArg::Var(_) => unreachable!("ground checked"),
            })
            .collect();
        self.add_fact(p, args)
    }

    /// Adds a fact by pre-interned atoms — the zero-allocation seeding
    /// path; returns true if new.
    pub fn add_fact(&mut self, pred: AtomId, args: Vec<AtomId>) -> bool {
        let fact = (pred, args);
        if self.facts.contains(&fact) {
            return false;
        }
        let (pred, args) = fact.clone();
        let list = self.by_pred.entry(pred).or_default();
        let pos = list.len() as u32;
        for (i, &sym) in args.iter().enumerate() {
            self.index.entry((pred, i as u8, sym)).or_default().push(pos);
        }
        list.push(args);
        self.facts.insert(fact);
        true
    }

    /// Membership test by strings (never interns).
    pub fn contains(&self, atoms: &AtomTable, pred: &str, args: &[&str]) -> bool {
        let Some(p) = atoms.lookup(pred) else { return false };
        let mut ids = Vec::with_capacity(args.len());
        for s in args {
            match atoms.lookup(s) {
                Some(id) => ids.push(id),
                None => return false,
            }
        }
        self.facts.contains(&(p, ids))
    }

    /// Membership test by pre-interned atoms.
    pub fn contains_fact(&self, pred: AtomId, args: &[AtomId]) -> bool {
        // allocation-free probe would need a borrowed key; fact tuples
        // are short so the Vec clone here is cheaper than a custom key
        self.facts.contains(&(pred, args.to_vec()))
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// True if no facts.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// All facts of a predicate, resolved to strings — display/test view.
    pub fn facts_of<'a>(&'a self, atoms: &'a AtomTable, pred: &str) -> Vec<Vec<&'a str>> {
        let Some(p) = atoms.lookup(pred) else { return Vec::new() };
        self.by_pred
            .get(&p)
            .map(|list| {
                list.iter().map(|args| args.iter().map(|&a| atoms.resolve(a)).collect()).collect()
            })
            .unwrap_or_default()
    }

    /// Binary-predicate query with optional argument constraints,
    /// resolved to strings — display/test view.
    pub fn query2<'a>(
        &'a self,
        atoms: &'a AtomTable,
        pred: &str,
        a: Option<&str>,
        b: Option<&str>,
    ) -> Vec<(&'a str, &'a str)> {
        let Some(p) = atoms.lookup(pred) else { return Vec::new() };
        let a_id = a.map(|s| atoms.lookup(s));
        let b_id = b.map(|s| atoms.lookup(s));
        if matches!(a_id, Some(None)) || matches!(b_id, Some(None)) {
            return Vec::new(); // constrained to an unknown symbol
        }
        self.query2_ids(p, a_id.flatten(), b_id.flatten())
            .into_iter()
            .map(|(x, y)| (atoms.resolve(x), atoms.resolve(y)))
            .collect()
    }

    /// All facts in the canonical deterministic order: predicates by
    /// ascending atom id, then per-predicate insertion order.
    ///
    /// `by_pred` is a `HashMap` whose iteration order is seeded
    /// per-process, so every path that needs a reproducible fact
    /// sequence — semi-naive round-one delta seeding, the parallel
    /// engine's work-unit grid in `onion-exec` — goes through this
    /// instead of iterating the map directly.
    pub fn facts_in_pred_order(&self) -> Vec<Fact> {
        let mut preds: Vec<AtomId> = self.by_pred.keys().copied().collect();
        preds.sort_unstable_by_key(|p| p.index());
        let mut out = Vec::with_capacity(self.facts.len());
        for p in preds {
            for args in &self.by_pred[&p] {
                out.push((p, args.clone()));
            }
        }
        out
    }

    /// Binary-predicate query over pre-interned atoms — the id-path
    /// variant the articulation generator filters on.
    pub fn query2_ids(
        &self,
        pred: AtomId,
        a: Option<AtomId>,
        b: Option<AtomId>,
    ) -> Vec<(AtomId, AtomId)> {
        let list = match self.by_pred.get(&pred) {
            Some(l) => l,
            None => return Vec::new(),
        };
        list.iter()
            .filter(|args| args.len() == 2)
            .filter(|args| a.map(|x| args[0] == x).unwrap_or(true))
            .filter(|args| b.map(|x| args[1] == x).unwrap_or(true))
            .map(|args| (args[0], args[1]))
            .collect()
    }
}

/// Evaluation strategy (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Delta-driven, indexed — the production engine.
    SemiNaive,
    /// Full re-evaluation per round, indexed.
    Naive,
    /// Full re-evaluation, **no indexes** — the heavyweight baseline.
    FullClosure,
}

/// Work and outcome counters for one inference run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InferenceStats {
    /// Fixpoint rounds executed.
    pub iterations: usize,
    /// New facts derived.
    pub derived: usize,
    /// Candidate facts examined during joins — the effort proxy.
    pub atoms_examined: usize,
    /// Per-round breakdown; `rounds.len() == iterations` (the final
    /// entry is the empty round that proves the fixpoint, unless the
    /// run aborted on budget) and the `derived` fields sum to
    /// `derived` minus ground-clause fires.
    pub rounds: Vec<RoundStats>,
    /// Facts pushed through a merge barrier, one entry per merging
    /// worker. The sequential engines leave this empty; `onion-exec`'s
    /// parallel engine records a single entry: every fact its work
    /// units emit, duplicates included, funnelled through the one
    /// per-round merge.
    pub worker_merge_facts: Vec<usize>,
}

/// Counters for one fixpoint round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Facts the round joined against: the delta carried into the
    /// round (semi-naive) or the whole fact base (naive/full-closure).
    pub delta: usize,
    /// New facts the round added.
    pub derived: usize,
    /// Candidate facts examined during the round's joins.
    pub examined: usize,
}

/// Compiled clause: variables resolved to dense slots.
#[derive(Debug, Clone)]
struct CClause {
    head_pred: AtomId,
    head_args: Vec<CArg>,
    body: Vec<CAtom>,
    nvars: usize,
}

#[derive(Debug, Clone)]
struct CAtom {
    pred: AtomId,
    args: Vec<CArg>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CArg {
    Slot(usize),
    Const(AtomId),
}

/// A forward-chaining engine for one program.
///
/// ```
/// use onion_rules::atoms::AtomTable;
/// use onion_rules::horn::HornProgram;
/// use onion_rules::infer::{FactBase, InferenceEngine};
///
/// let program = HornProgram::parse("si(X, Z) :- si(X, Y), si(Y, Z).").unwrap();
/// let mut atoms = AtomTable::new();
/// let mut facts = FactBase::new();
/// facts.add(&mut atoms, "si", &["car", "vehicle"]);
/// facts.add(&mut atoms, "si", &["vehicle", "transportation"]);
/// InferenceEngine::new(program).run(&mut atoms, &mut facts).unwrap();
/// assert!(facts.contains(&atoms, "si", &["car", "transportation"]));
/// ```
#[derive(Debug, Clone)]
pub struct InferenceEngine {
    program: HornProgram,
    strategy: Strategy,
    /// Abort once this many facts have been derived (0 = unlimited).
    pub max_derived: usize,
    /// Abort after this many rounds (0 = unlimited).
    pub max_iterations: usize,
}

impl InferenceEngine {
    /// Engine with the production strategy (semi-naive).
    pub fn new(program: HornProgram) -> Self {
        InferenceEngine {
            program,
            strategy: Strategy::SemiNaive,
            max_derived: 0,
            max_iterations: 0,
        }
    }

    /// Selects a strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the derivation budget.
    pub fn with_budget(mut self, max_derived: usize, max_iterations: usize) -> Self {
        self.max_derived = max_derived;
        self.max_iterations = max_iterations;
        self
    }

    /// Runs the program to fixpoint on `fb`, adding derived facts.
    /// Clause predicates and constants are interned through `atoms` —
    /// the only interning an inference run performs.
    pub fn run(&self, atoms: &mut AtomTable, fb: &mut FactBase) -> Result<InferenceStats> {
        let compiled = CompiledProgram::compile(&self.program, atoms)?;
        // Ground-fact clauses fire once up front.
        let mut stats = InferenceStats::default();
        let mut delta: Vec<Fact> = compiled.fire_ground(fb);
        stats.derived = delta.len();
        // Seed delta with everything for semi-naive round one, in the
        // canonical pred-then-insertion order so the round-one delta
        // sequence is reproducible across processes.
        if self.strategy == Strategy::SemiNaive {
            delta = fb.facts_in_pred_order();
        }

        loop {
            stats.iterations += 1;
            if self.max_iterations != 0 && stats.iterations > self.max_iterations {
                return Err(RuleError::BudgetExceeded { derived: stats.derived });
            }
            let round_delta = match self.strategy {
                Strategy::SemiNaive => delta.len(),
                Strategy::Naive | Strategy::FullClosure => fb.len(),
            };
            let examined_before = stats.atoms_examined;
            let mut new_facts: Vec<Fact> = Vec::new();
            match self.strategy {
                Strategy::SemiNaive => {
                    let dix = DeltaIndex::build(&delta);
                    for c in &compiled.clauses {
                        if c.body.is_empty() {
                            continue;
                        }
                        for d in 0..c.body.len() {
                            eval_clause(
                                fb,
                                c,
                                Some(DeltaView { index: &dix, position: d }),
                                false,
                                &mut new_facts,
                                &mut stats.atoms_examined,
                            );
                        }
                    }
                }
                Strategy::Naive | Strategy::FullClosure => {
                    let unindexed = self.strategy == Strategy::FullClosure;
                    for c in &compiled.clauses {
                        if c.body.is_empty() {
                            continue;
                        }
                        eval_clause(
                            fb,
                            c,
                            None,
                            unindexed,
                            &mut new_facts,
                            &mut stats.atoms_examined,
                        );
                    }
                }
            }
            let mut added: Vec<Fact> = Vec::new();
            for f in new_facts {
                if fb.add_fact(f.0, f.1.clone()) {
                    stats.derived += 1;
                    if self.max_derived != 0 && stats.derived > self.max_derived {
                        return Err(RuleError::BudgetExceeded { derived: stats.derived });
                    }
                    added.push(f);
                }
            }
            stats.rounds.push(RoundStats {
                delta: round_delta,
                derived: added.len(),
                examined: stats.atoms_examined - examined_before,
            });
            if added.is_empty() {
                break;
            }
            delta = added;
        }
        record_run_metrics(&stats);
        Ok(stats)
    }
}

/// Reports one finished inference run to the observability registry
/// (strictly observational — shared by the sequential engine here and
/// the shard-parallel engine in `onion-exec`).
pub fn record_run_metrics(stats: &InferenceStats) {
    onion_obs::count!("onion_inference_runs_total");
    onion_obs::count!("onion_inference_rounds_total", stats.iterations);
    onion_obs::count!("onion_inference_derived_total", stats.derived);
    if onion_obs::enabled() {
        for r in &stats.rounds {
            onion_obs::observe_val!("onion_inference_round_delta", r.delta);
        }
    }
}

/// A Horn program compiled against an [`AtomTable`]: variables resolved
/// to dense slots, predicates and constants interned.
///
/// [`InferenceEngine::run`] compiles on entry and keeps the result
/// private; `onion-exec`'s parallel engine compiles once up front and
/// then drives [`CompiledProgram::eval_delta_range`] work units across
/// its pool — the compiled form is `Sync`, so workers share one copy.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    clauses: Vec<CClause>,
}

impl CompiledProgram {
    /// Compiles every clause of `program`, interning through `atoms`.
    pub fn compile(program: &HornProgram, atoms: &mut AtomTable) -> Result<CompiledProgram> {
        let mut clauses = Vec::with_capacity(program.clauses.len());
        for clause in &program.clauses {
            clauses.push(compile_clause(clause, atoms)?);
        }
        Ok(CompiledProgram { clauses })
    }

    /// Fires every ground-fact (empty-body) clause into `fb`; returns
    /// the facts that were new.
    pub fn fire_ground(&self, fb: &mut FactBase) -> Vec<Fact> {
        let mut fired = Vec::new();
        for c in &self.clauses {
            if c.body.is_empty() {
                let args: Vec<AtomId> = c
                    .head_args
                    .iter()
                    .map(|a| match a {
                        CArg::Const(s) => *s,
                        CArg::Slot(_) => unreachable!("safety: ground head"),
                    })
                    .collect();
                if fb.add_fact(c.head_pred, args.clone()) {
                    fired.push((c.head_pred, args));
                }
            }
        }
        fired
    }

    /// `(clause index, body length)` for every clause with a non-empty
    /// body — the per-round work-unit grid a parallel driver partitions
    /// into `(clause, delta position, delta range)` units.
    pub fn rule_shapes(&self) -> Vec<(usize, usize)> {
        self.clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.body.is_empty())
            .map(|(i, c)| (i, c.body.len()))
            .collect()
    }

    /// Evaluates one semi-naive work unit: clause `clause` with the
    /// delta at body position `position`, restricted to delta facts
    /// whose index falls in `lo..hi`.
    ///
    /// The delta atom is evaluated *outermost* (delta-first), then the
    /// remaining body atoms join in clause order against the full
    /// store, with the standard semi-naive skip rule (atoms before
    /// `position` must not match delta facts). Because every candidate
    /// examined and every head emitted belongs to exactly one delta
    /// index, partitioning `0..delta.len()` into disjoint ranges
    /// changes neither the union of emitted facts nor the summed
    /// `effort` — the invariant the parallel engine's determinism
    /// contract rests on.
    #[allow(clippy::too_many_arguments)]
    pub fn eval_delta_range(
        &self,
        fb: &FactBase,
        dix: &DeltaIndex<'_>,
        clause: usize,
        position: usize,
        lo: usize,
        hi: usize,
        out: &mut Vec<Fact>,
        effort: &mut usize,
    ) {
        let c = &self.clauses[clause];
        let atom = &c.body[position];
        let mut env: Vec<Option<AtomId>> = vec![None; c.nvars];
        let idxs = dix.pred_indices(atom.pred);
        // index lists are built in ascending order — binary-search the
        // unit's window instead of scanning the whole predicate list
        let start = idxs.partition_point(|&i| (i as usize) < lo);
        let end = idxs.partition_point(|&i| (i as usize) < hi);
        for &fi in &idxs[start..end] {
            *effort += 1;
            let fact_args = &dix.facts[fi as usize].1;
            if fact_args.len() != atom.args.len() {
                continue;
            }
            let mut trail: Vec<usize> = Vec::new();
            let mut ok = true;
            for (a, &v) in atom.args.iter().zip(fact_args.iter()) {
                match a {
                    CArg::Const(s) => {
                        if *s != v {
                            ok = false;
                            break;
                        }
                    }
                    CArg::Slot(s) => match env[*s] {
                        Some(bound) => {
                            if bound != v {
                                ok = false;
                                break;
                            }
                        }
                        None => {
                            env[*s] = Some(v);
                            trail.push(*s);
                        }
                    },
                }
            }
            if ok {
                join_skip(fb, c, 0, position, dix, &mut env, out, effort);
            }
            for s in trail {
                env[s] = None;
            }
        }
    }
}

fn compile_clause(clause: &HornClause, atoms: &mut AtomTable) -> Result<CClause> {
    if !clause.is_safe() {
        return Err(RuleError::UnsafeClause(clause.to_string()));
    }
    let mut slots: HashMap<&str, usize> = HashMap::new();
    let mut body = Vec::with_capacity(clause.body.len());
    for atom in &clause.body {
        let pred = atoms.intern(&atom.pred);
        let mut args = Vec::with_capacity(atom.args.len());
        for a in &atom.args {
            match a {
                TermArg::Const(c) => args.push(CArg::Const(atoms.intern(c))),
                TermArg::Var(v) => {
                    let n = slots.len();
                    let slot = *slots.entry(v.as_str()).or_insert(n);
                    args.push(CArg::Slot(slot));
                }
            }
        }
        body.push(CAtom { pred, args });
    }
    let head_pred = atoms.intern(&clause.head.pred);
    let mut head_args = Vec::with_capacity(clause.head.args.len());
    for a in &clause.head.args {
        match a {
            TermArg::Const(c) => head_args.push(CArg::Const(atoms.intern(c))),
            TermArg::Var(v) => {
                let slot = *slots.get(v.as_str()).expect("safety guarantees body binding");
                head_args.push(CArg::Slot(slot));
            }
        }
    }
    Ok(CClause { head_pred, head_args, nvars: slots.len(), body })
}

/// Per-round index over the delta facts (same atom ids as the main
/// store), giving the delta-constrained body position the same
/// index-driven candidate generation as the full store. Public so the
/// parallel engine in `onion-exec` can build it once per round and
/// share it (read-only) across work units.
pub struct DeltaIndex<'d> {
    facts: &'d [Fact],
    set: HashSet<&'d Fact>,
    by_pred: HashMap<AtomId, Vec<u32>>,
    by_arg: HashMap<(AtomId, u8, AtomId), Vec<u32>>,
}

impl<'d> DeltaIndex<'d> {
    /// Indexes `facts` by predicate and by every argument position.
    pub fn build(facts: &'d [Fact]) -> Self {
        let mut set: HashSet<&'d Fact> = HashSet::with_capacity(facts.len());
        let mut by_pred: HashMap<AtomId, Vec<u32>> = HashMap::new();
        let mut by_arg: HashMap<(AtomId, u8, AtomId), Vec<u32>> = HashMap::new();
        for (i, fact) in facts.iter().enumerate() {
            let (p, args) = fact;
            set.insert(fact);
            by_pred.entry(*p).or_default().push(i as u32);
            for (pos, &sym) in args.iter().enumerate() {
                by_arg.entry((*p, pos as u8, sym)).or_default().push(i as u32);
            }
        }
        DeltaIndex { facts, set, by_pred, by_arg }
    }

    /// Number of indexed delta facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// True if the delta is empty.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Candidates for `atom` under `env`: tightest index available.
    fn candidates(&self, atom: &CAtom, env: &[Option<AtomId>]) -> Vec<&'d Vec<AtomId>> {
        let bound: Option<(u8, AtomId)> =
            atom.args.iter().enumerate().find_map(|(pos, a)| match a {
                CArg::Const(s) => Some((pos as u8, *s)),
                CArg::Slot(s) => env[*s].map(|v| (pos as u8, v)),
            });
        let idxs = match bound {
            Some((pos, sym)) => self.by_arg.get(&(atom.pred, pos, sym)),
            None => self.by_pred.get(&atom.pred),
        };
        idxs.map(|v| v.iter().map(|&i| &self.facts[i as usize].1).collect()).unwrap_or_default()
    }

    /// Ascending delta indices of facts with predicate `pred`.
    fn pred_indices(&self, pred: AtomId) -> &[u32] {
        self.by_pred.get(&pred).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Is the fact a member of this round's delta?
    fn contains(&self, fact: &Fact) -> bool {
        self.set.contains(fact)
    }
}

/// The semi-naive restriction handed down the join: body atom
/// `position` draws candidates from the delta only.
struct DeltaView<'a, 'd> {
    index: &'a DeltaIndex<'d>,
    position: usize,
}

/// Evaluates one clause, appending head instantiations to `out`.
///
/// `delta`: when present, body atom `delta.position` is restricted to
/// delta facts (semi-naive). `unindexed`: scan everything (full-closure
/// baseline).
fn eval_clause(
    fb: &FactBase,
    c: &CClause,
    delta: Option<DeltaView<'_, '_>>,
    unindexed: bool,
    out: &mut Vec<Fact>,
    effort: &mut usize,
) {
    let mut env: Vec<Option<AtomId>> = vec![None; c.nvars];
    join(fb, c, 0, delta.as_ref(), unindexed, &mut env, out, effort);
}

#[allow(clippy::too_many_arguments)]
fn join(
    fb: &FactBase,
    c: &CClause,
    i: usize,
    delta: Option<&DeltaView<'_, '_>>,
    unindexed: bool,
    env: &mut Vec<Option<AtomId>>,
    out: &mut Vec<Fact>,
    effort: &mut usize,
) {
    if i == c.body.len() {
        emit_head(c, env, out);
        return;
    }
    let atom = &c.body[i];

    // Enumerate candidate facts for this atom.
    let candidates: Vec<&Vec<AtomId>> = match delta {
        Some(dv) if dv.position == i => dv.index.candidates(atom, env),
        _ => fb_candidates(fb, atom, env, unindexed),
    };

    for fact_args in candidates {
        *effort += 1;
        if fact_args.len() != atom.args.len() {
            continue;
        }
        // semi-naive duplicate avoidance: atoms before the delta position
        // must NOT match delta facts (they were covered when that
        // position was the delta). We approximate the standard stratified
        // scheme by skipping delta facts at positions < d.
        if let Some(dv) = delta {
            if i < dv.position {
                let probe: Fact = (atom.pred, fact_args.clone());
                if dv.index.contains(&probe) {
                    continue;
                }
            }
        }
        // unify
        let mut trail: Vec<usize> = Vec::new();
        let mut ok = true;
        for (a, &v) in atom.args.iter().zip(fact_args.iter()) {
            match a {
                CArg::Const(s) => {
                    if *s != v {
                        ok = false;
                        break;
                    }
                }
                CArg::Slot(s) => match env[*s] {
                    Some(bound) => {
                        if bound != v {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        env[*s] = Some(v);
                        trail.push(*s);
                    }
                },
            }
        }
        if ok {
            join(fb, c, i + 1, delta, unindexed, env, out, effort);
        }
        for s in trail {
            env[s] = None;
        }
    }
}

/// The delta-first companion of [`join`], used by
/// [`CompiledProgram::eval_delta_range`]: body atom `skip` was already
/// bound to a delta fact by the caller, the remaining atoms join in
/// clause order against the full store. Atoms before `skip` apply the
/// same semi-naive skip rule as [`join`], so the two evaluation orders
/// derive the identical per-round fact set.
#[allow(clippy::too_many_arguments)]
fn join_skip(
    fb: &FactBase,
    c: &CClause,
    i: usize,
    skip: usize,
    dix: &DeltaIndex<'_>,
    env: &mut Vec<Option<AtomId>>,
    out: &mut Vec<Fact>,
    effort: &mut usize,
) {
    if i == c.body.len() {
        emit_head(c, env, out);
        return;
    }
    if i == skip {
        join_skip(fb, c, i + 1, skip, dix, env, out, effort);
        return;
    }
    let atom = &c.body[i];
    for fact_args in fb_candidates(fb, atom, env, false) {
        *effort += 1;
        if fact_args.len() != atom.args.len() {
            continue;
        }
        if i < skip {
            let probe: Fact = (atom.pred, fact_args.clone());
            if dix.contains(&probe) {
                continue;
            }
        }
        let mut trail: Vec<usize> = Vec::new();
        let mut ok = true;
        for (a, &v) in atom.args.iter().zip(fact_args.iter()) {
            match a {
                CArg::Const(s) => {
                    if *s != v {
                        ok = false;
                        break;
                    }
                }
                CArg::Slot(s) => match env[*s] {
                    Some(bound) => {
                        if bound != v {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        env[*s] = Some(v);
                        trail.push(*s);
                    }
                },
            }
        }
        if ok {
            join_skip(fb, c, i + 1, skip, dix, env, out, effort);
        }
        for s in trail {
            env[s] = None;
        }
    }
}

/// Instantiates the clause head under `env` and appends it to `out`.
fn emit_head(c: &CClause, env: &[Option<AtomId>], out: &mut Vec<Fact>) {
    let args: Vec<AtomId> = c
        .head_args
        .iter()
        .map(|a| match a {
            CArg::Const(s) => *s,
            CArg::Slot(s) => env[*s].expect("head slots bound (safety)"),
        })
        .collect();
    out.push((c.head_pred, args));
}

/// Candidate facts for `atom` from the main store under `env`: the
/// tightest available index, or a full scan for the full-closure
/// baseline.
fn fb_candidates<'f>(
    fb: &'f FactBase,
    atom: &CAtom,
    env: &[Option<AtomId>],
    unindexed: bool,
) -> Vec<&'f Vec<AtomId>> {
    if unindexed {
        // full-closure: scan EVERYTHING, filter by predicate
        return fb
            .by_pred
            .iter()
            .flat_map(|(&p, list)| list.iter().map(move |a| (p, a)))
            .filter(|(p, _)| *p == atom.pred)
            .map(|(_, a)| a)
            .collect();
    }
    // use the tightest available index
    let bound: Option<(u8, AtomId)> = atom.args.iter().enumerate().find_map(|(pos, a)| match a {
        CArg::Const(s) => Some((pos as u8, *s)),
        CArg::Slot(s) => env[*s].map(|v| (pos as u8, v)),
    });
    match bound {
        Some((pos, sym)) => {
            let list = fb.by_pred.get(&atom.pred);
            fb.index
                .get(&(atom.pred, pos, sym))
                .map(|idxs| {
                    let list = list.expect("index implies pred list");
                    idxs.iter().map(|&j| &list[j as usize]).collect()
                })
                .unwrap_or_default()
        }
        None => fb.by_pred.get(&atom.pred).map(|l| l.iter().collect()).unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::horn::HornProgram;

    fn transitivity() -> HornProgram {
        HornProgram::parse("p(X, Z) :- p(X, Y), p(Y, Z).").unwrap()
    }

    fn chain_fb(n: usize) -> (AtomTable, FactBase) {
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        for i in 0..n {
            fb.add(&mut atoms, "p", &[&format!("n{i}"), &format!("n{}", i + 1)]);
        }
        (atoms, fb)
    }

    #[test]
    fn factbase_dedup_and_query() {
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        assert!(fb.add(&mut atoms, "p", &["a", "b"]));
        assert!(!fb.add(&mut atoms, "p", &["a", "b"]));
        assert!(fb.contains(&atoms, "p", &["a", "b"]));
        assert!(!fb.contains(&atoms, "p", &["b", "a"]));
        assert!(!fb.contains(&atoms, "q", &["a", "b"]));
        assert_eq!(fb.len(), 1);
        fb.add(&mut atoms, "p", &["a", "c"]);
        let from_a = fb.query2(&atoms, "p", Some("a"), None);
        assert_eq!(from_a.len(), 2);
        assert_eq!(fb.query2(&atoms, "p", Some("a"), Some("c")), vec![("a", "c")]);
        assert!(fb.query2(&atoms, "p", Some("zz"), None).is_empty());
        assert_eq!(fb.facts_of(&atoms, "p").len(), 2);
        assert!(fb.facts_of(&atoms, "nope").is_empty());
    }

    #[test]
    fn fact_path_and_string_path_coincide() {
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        let p = atoms.intern("si");
        let a = atoms.intern("carrier.Car");
        let b = atoms.intern("factory.Vehicle");
        assert!(fb.add_fact(p, vec![a, b]));
        assert!(fb.contains(&atoms, "si", &["carrier.Car", "factory.Vehicle"]));
        assert!(fb.contains_fact(p, &[a, b]));
        assert!(!fb.add(&mut atoms, "si", &["carrier.Car", "factory.Vehicle"]));
        assert_eq!(fb.query2_ids(p, Some(a), None), vec![(a, b)]);
    }

    #[test]
    fn transitive_closure_all_strategies_agree() {
        let n = 12;
        let expected = n * (n + 1) / 2; // pairs (i<j) over chain of n edges
        for strat in [Strategy::SemiNaive, Strategy::Naive, Strategy::FullClosure] {
            let (mut atoms, mut fb) = chain_fb(n);
            let stats = InferenceEngine::new(transitivity())
                .with_strategy(strat)
                .run(&mut atoms, &mut fb)
                .unwrap();
            assert_eq!(fb.len(), expected, "strategy {strat:?}");
            assert_eq!(stats.derived, expected - n, "strategy {strat:?}");
        }
    }

    #[test]
    fn seminaive_examines_fewer_atoms_than_fullclosure() {
        let n = 24;
        let (mut a1, mut fb1) = chain_fb(n);
        let s1 = InferenceEngine::new(transitivity())
            .with_strategy(Strategy::SemiNaive)
            .run(&mut a1, &mut fb1)
            .unwrap();
        let (mut a2, mut fb2) = chain_fb(n);
        let s2 = InferenceEngine::new(transitivity())
            .with_strategy(Strategy::FullClosure)
            .run(&mut a2, &mut fb2)
            .unwrap();
        assert_eq!(fb1.len(), fb2.len());
        assert!(
            s1.atoms_examined < s2.atoms_examined / 2,
            "semi-naive {} vs full-closure {}",
            s1.atoms_examined,
            s2.atoms_examined
        );
    }

    #[test]
    fn ground_fact_clauses_fire() {
        let prog =
            HornProgram::parse("p(a, b).\n p(b, c).\n p(X, Z) :- p(X, Y), p(Y, Z).").unwrap();
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        let stats = InferenceEngine::new(prog).run(&mut atoms, &mut fb).unwrap();
        assert!(fb.contains(&atoms, "p", &["a", "c"]));
        assert_eq!(stats.derived, 3);
    }

    #[test]
    fn symmetric_rule() {
        let prog = HornProgram::parse("r(Y, X) :- r(X, Y).").unwrap();
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        fb.add(&mut atoms, "r", &["a", "b"]);
        InferenceEngine::new(prog).run(&mut atoms, &mut fb).unwrap();
        assert!(fb.contains(&atoms, "r", &["b", "a"]));
        assert_eq!(fb.len(), 2);
    }

    #[test]
    fn projection_between_predicates() {
        let prog = HornProgram::parse("si(X, Y) :- subclassof(X, Y).").unwrap();
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        fb.add(&mut atoms, "subclassof", &["car", "vehicle"]);
        InferenceEngine::new(prog).run(&mut atoms, &mut fb).unwrap();
        assert!(fb.contains(&atoms, "si", &["car", "vehicle"]));
    }

    #[test]
    fn constants_in_body_filter() {
        let prog = HornProgram::parse("special(X) :- p(X, vehicle).").unwrap();
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        fb.add(&mut atoms, "p", &["car", "vehicle"]);
        fb.add(&mut atoms, "p", &["price", "money"]);
        InferenceEngine::new(prog).run(&mut atoms, &mut fb).unwrap();
        assert!(fb.contains(&atoms, "special", &["car"]));
        assert!(!fb.contains(&atoms, "special", &["price"]));
    }

    #[test]
    fn three_atom_join() {
        let prog =
            HornProgram::parse("grandparent(X, Z) :- parent(X, Y), parent(Y, Z), person(X, X).")
                .unwrap();
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        fb.add(&mut atoms, "parent", &["a", "b"]);
        fb.add(&mut atoms, "parent", &["b", "c"]);
        fb.add(&mut atoms, "person", &["a", "a"]);
        InferenceEngine::new(prog).run(&mut atoms, &mut fb).unwrap();
        assert!(fb.contains(&atoms, "grandparent", &["a", "c"]));
        // b has no person fact, so nothing from b
        assert_eq!(fb.facts_of(&atoms, "grandparent").len(), 1);
    }

    #[test]
    fn cyclic_facts_terminate() {
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        fb.add(&mut atoms, "p", &["a", "b"]);
        fb.add(&mut atoms, "p", &["b", "a"]);
        let stats = InferenceEngine::new(transitivity()).run(&mut atoms, &mut fb).unwrap();
        // closure of a 2-cycle: all four ordered pairs
        assert_eq!(fb.len(), 4);
        assert!(stats.iterations < 10);
    }

    #[test]
    fn budget_exceeded_derived() {
        let (mut atoms, mut fb) = chain_fb(50);
        let err = InferenceEngine::new(transitivity())
            .with_budget(10, 0)
            .run(&mut atoms, &mut fb)
            .unwrap_err();
        assert!(matches!(err, RuleError::BudgetExceeded { derived } if derived > 10));
    }

    #[test]
    fn budget_exceeded_iterations() {
        let (mut atoms, mut fb) = chain_fb(50);
        let err = InferenceEngine::new(transitivity())
            .with_budget(0, 2)
            .run(&mut atoms, &mut fb)
            .unwrap_err();
        assert!(matches!(err, RuleError::BudgetExceeded { .. }));
    }

    #[test]
    fn empty_program_is_noop() {
        let (mut atoms, mut fb) = chain_fb(3);
        let before = fb.len();
        let stats = InferenceEngine::new(HornProgram::new()).run(&mut atoms, &mut fb).unwrap();
        assert_eq!(fb.len(), before);
        assert_eq!(stats.derived, 0);
    }

    #[test]
    fn standard_program_on_ontology_facts() {
        use crate::properties::RelationRegistry;
        let prog = HornProgram::standard(&RelationRegistry::onion_default());
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        fb.add(&mut atoms, "subclassof", &["suv", "car"]);
        fb.add(&mut atoms, "subclassof", &["car", "vehicle"]);
        InferenceEngine::new(prog).run(&mut atoms, &mut fb).unwrap();
        assert!(fb.contains(&atoms, "subclassof", &["suv", "vehicle"]), "transitivity");
        assert!(fb.contains(&atoms, "si", &["suv", "car"]), "subclass implies si");
        assert!(fb.contains(&atoms, "si", &["suv", "vehicle"]), "si closed transitively");
    }

    #[test]
    fn diamond_derivation_no_duplicates() {
        // a->b, a->c, b->d, c->d: a->d derivable two ways, counted once
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        for (x, y) in [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")] {
            fb.add(&mut atoms, "p", &[x, y]);
        }
        let stats = InferenceEngine::new(transitivity()).run(&mut atoms, &mut fb).unwrap();
        assert!(fb.contains(&atoms, "p", &["a", "d"]));
        assert_eq!(stats.derived, 1);
        assert_eq!(fb.len(), 5);
    }

    #[test]
    fn shared_table_backs_many_fact_bases() {
        // the OnionSystem reuse shape: one table, fresh fact bases
        let mut atoms = AtomTable::new();
        let mut fb1 = FactBase::new();
        fb1.add(&mut atoms, "p", &["a", "b"]);
        InferenceEngine::new(transitivity()).run(&mut atoms, &mut fb1).unwrap();
        let interned = atoms.len();
        let mut fb2 = FactBase::new();
        fb2.add(&mut atoms, "p", &["a", "b"]);
        InferenceEngine::new(transitivity()).run(&mut atoms, &mut fb2).unwrap();
        assert_eq!(atoms.len(), interned, "second identical run interns nothing new");
        assert_eq!(fb1.len(), fb2.len());
    }
}
