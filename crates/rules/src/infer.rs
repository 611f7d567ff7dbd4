//! Forward-chaining inference over Horn programs, keyed by interned
//! [`AtomId`]s.
//!
//! §4.1 motivates restricting articulation rules to Horn clauses so that
//! "a much lighter (and faster) inference engine" can be plugged in. We
//! provide three strategies whose contrast is experiment **B6**:
//!
//! * [`Strategy::SemiNaive`] — delta-driven evaluation with per-argument
//!   fact indexes; the "lighter and faster" engine the paper envisages.
//!   A round runs one work unit per `(clause, delta position)` slot
//!   ([`CompiledProgram::delta_slots`]) over that predicate's delta
//!   rows, binding the delta atom first
//!   ([`CompiledProgram::eval_delta_range`]);
//! * [`Strategy::Naive`] — re-evaluates every clause in body order
//!   against the full fact base each round (still indexed);
//! * [`Strategy::FullClosure`] — the deliberately heavyweight stand-in
//!   for a full first-order prover: no indexes, every body atom scans
//!   every row of its predicate every round.
//!
//! All strategies compute the same least fixpoint; they differ only in
//! work done, which [`InferenceStats`] exposes (`atoms_examined` is the
//! effort proxy reported by bench B6, where naive and full-closure are
//! semi-naive's measured baselines).
//!
//! Symbols live in an external [`AtomTable`] rather than inside the fact
//! base, so one table can back many fact bases (the articulation
//! generator reuses the system's shared table across runs) and seeding
//! from a graph ([`seed_relation_facts`]) goes through
//! [`AtomTable::graph_atoms`] without ever formatting or hashing a
//! string per fact. The string-accepting methods here are the thin
//! display/test view the parser boundary needs; the hot paths are the
//! `*_fact`/`*_ids` variants.
//!
//! Saturation allocates nothing per examined candidate, per skip-rule
//! test, per unification or per emitted head the store already holds:
//! joins iterate the store's rows and index lists in place, the
//! semi-naive delta is a suffix of each predicate's rows (so "is this
//! candidate in the delta" compares row numbers), bindings are undone
//! from one trail per evaluation, and a head is built in a scratch
//! buffer and probed against the store before it is copied out.
//!
//! Semi-naive evaluation exists once. `onion-exec`'s parallel engine
//! shares the round loop ([`CompiledProgram::saturate`]) and the work
//! unit, and only cuts each slot's delta rows into sub-ranges run on
//! its pool, so both engines return equal [`InferenceStats`] and fact
//! bases. The pre-refactor string-keyed engine survives as
//! [`crate::reference`] for differential testing and the B12 baseline;
//! it joins semi-naive rounds in body order, so its `atoms_examined`
//! differs from this engine's.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;

use onion_graph::hash::{FxHashMap, FxHasher};
use onion_graph::{rel, LabelId, OntGraph};

use crate::atoms::{AtomId, AtomTable};
use crate::horn::{pred_name, Atom, HornClause, HornProgram, TermArg};
use crate::{Result, RuleError};

/// A ground fact: interned predicate and argument atoms — the owned
/// view [`FactBase::facts_in_pred_order`] returns. The store itself
/// keeps rows.
pub type Fact = (AtomId, Vec<AtomId>);

/// A deduplicated set of ground facts, stored as rows per predicate.
///
/// Facts are tuples of [`AtomId`]s resolved against a caller-owned
/// [`AtomTable`]; the base itself stores no strings. Each predicate's
/// facts are numbered rows in insertion order, packed back to back in
/// one atom vector, so no fact owns an allocation. Rows of one
/// predicate may differ in arity. Dedup and membership hash a borrowed
/// `(pred, &[AtomId])` row and compare it with the stored rows, and the
/// per-argument indexes list row numbers in ascending order.
///
/// The semi-naive engines read a *delta*: each predicate's rows that the
/// previous round appended (every row in round one), which is a suffix
/// of its rows ([`FactBase::delta_rows`]).
#[derive(Debug, Default, Clone)]
pub struct FactBase {
    preds: FxHashMap<AtomId, Rows>,
    len: usize,
}

/// A free slot in [`Rows::slots`].
const EMPTY: u32 = u32::MAX;

/// One predicate's rows.
#[derive(Debug, Clone)]
struct Rows {
    /// Every row's atoms, back to back.
    atoms: Vec<AtomId>,
    /// Row `r` is `atoms[bounds[r]..bounds[r + 1]]`.
    bounds: Vec<u32>,
    /// Open-addressing dedup table of row numbers (linear probing, a
    /// power-of-two length at most half full).
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: a row hash's top bits pick its slot.
    shift: u32,
    /// (position, symbol) → ascending row numbers.
    index: FxHashMap<(u8, AtomId), Vec<u32>>,
    /// First row of the semi-naive delta.
    delta_from: u32,
}

fn hash_row(args: &[AtomId]) -> u64 {
    let mut h = FxHasher::default();
    for a in args {
        a.hash(&mut h);
    }
    h.finish()
}

impl Rows {
    fn new() -> Rows {
        Rows {
            atoms: Vec::new(),
            bounds: vec![0],
            slots: vec![EMPTY; 8],
            shift: 61,
            index: FxHashMap::default(),
            delta_from: 0,
        }
    }

    fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    fn row(&self, r: u32) -> &[AtomId] {
        let r = r as usize;
        &self.atoms[self.bounds[r] as usize..self.bounds[r + 1] as usize]
    }

    /// Every row, in insertion order.
    fn iter(&self) -> impl Iterator<Item = &[AtomId]> + '_ {
        self.bounds.windows(2).map(|w| &self.atoms[w[0] as usize..w[1] as usize])
    }

    /// The row equal to `args`, or the free slot where it would go.
    fn find(&self, args: &[AtomId]) -> std::result::Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = (hash_row(args) >> self.shift) as usize;
        loop {
            match self.slots[i] {
                EMPTY => return Err(i),
                r if self.row(r) == args => return Ok(r),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn insert(&mut self, args: &[AtomId]) -> bool {
        let Err(slot) = self.find(args) else { return false };
        // row numbers and offsets are u32, and `EMPTY` is no row
        assert!(self.len() < EMPTY as usize, "a predicate holds fewer than 2^32 - 1 rows");
        let r = self.len() as u32;
        self.slots[slot] = r;
        self.atoms.extend_from_slice(args);
        let end = u32::try_from(self.atoms.len()).expect("a predicate holds fewer than 2^32 atoms");
        self.bounds.push(end);
        for (pos, &sym) in args.iter().enumerate() {
            self.index.entry((pos as u8, sym)).or_default().push(r);
        }
        if self.len() * 2 > self.slots.len() {
            self.grow();
        }
        true
    }

    fn grow(&mut self) {
        self.shift -= 1;
        let mask = self.slots.len() * 2 - 1;
        self.slots = vec![EMPTY; mask + 1];
        for r in 0..self.len() as u32 {
            let mut i = (hash_row(self.row(r)) >> self.shift) as usize;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = r;
        }
    }

    /// Rows that may match `atom` under `env`: the tightest index (the
    /// first bound argument's), or every row when nothing is bound or
    /// `unindexed`.
    fn candidates(&self, atom: &CAtom, env: &[Option<AtomId>], unindexed: bool) -> Candidates<'_> {
        let bound = atom.args.iter().enumerate().find_map(|(pos, a)| match *a {
            CArg::Const(s) => Some((pos as u8, s)),
            CArg::Slot(s) => env[s].map(|v| (pos as u8, v)),
        });
        match bound {
            Some(key) if !unindexed => {
                Candidates::Listed(self.index.get(&key).map_or(&[][..], Vec::as_slice).iter())
            }
            _ => Candidates::Span(0..self.len() as u32),
        }
    }
}

/// Row numbers a join visits, borrowed from the store.
enum Candidates<'r> {
    Span(Range<u32>),
    Listed(std::slice::Iter<'r, u32>),
}

impl Iterator for Candidates<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            Candidates::Span(rows) => rows.next(),
            Candidates::Listed(rows) => rows.next().copied(),
        }
    }
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
        self.add_fact(p, &a)
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
        self.add_fact(p, &args)
    }

    /// Adds a fact by pre-interned atoms, copying the row in only if it
    /// is new; returns true if new.
    pub fn add_fact(&mut self, pred: AtomId, args: &[AtomId]) -> bool {
        let added = self.preds.entry(pred).or_insert_with(Rows::new).insert(args);
        self.len += added as usize;
        added
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
        self.contains_fact(p, &ids)
    }

    /// Membership test by pre-interned atoms: one hash of the borrowed
    /// row, no allocation.
    pub fn contains_fact(&self, pred: AtomId, args: &[AtomId]) -> bool {
        self.preds.get(&pred).is_some_and(|rows| rows.find(args).is_ok())
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no facts.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All facts of a predicate, resolved to strings — display/test view.
    pub fn facts_of<'a>(&'a self, atoms: &'a AtomTable, pred: &str) -> Vec<Vec<&'a str>> {
        let Some(rows) = atoms.lookup(pred).and_then(|p| self.preds.get(&p)) else {
            return Vec::new();
        };
        rows.iter().map(|row| row.iter().map(|&a| atoms.resolve(a)).collect()).collect()
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
    /// The predicate map's iteration order is not part of any
    /// contract, so every path that needs a reproducible fact sequence
    /// (the identity suites, the fact-set checksum) goes through this
    /// instead of iterating the map directly.
    pub fn facts_in_pred_order(&self) -> Vec<Fact> {
        let mut preds: Vec<(&AtomId, &Rows)> = self.preds.iter().collect();
        preds.sort_unstable_by_key(|(p, _)| p.index());
        let mut out = Vec::with_capacity(self.len);
        for (&p, rows) in preds {
            out.extend(rows.iter().map(|row| (p, row.to_vec())));
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
        let Some(rows) = self.preds.get(&pred) else { return Vec::new() };
        rows.iter()
            .filter(|args| args.len() == 2)
            .filter(|args| a.map(|x| args[0] == x).unwrap_or(true))
            .filter(|args| b.map(|x| args[1] == x).unwrap_or(true))
            .map(|args| (args[0], args[1]))
            .collect()
    }

    /// The row numbers of `pred` in the semi-naive delta: the rows the
    /// previous round appended, or every row before the first round
    /// merges. A sequential work unit covers all of them, a parallel
    /// one a sub-range.
    pub fn delta_rows(&self, pred: AtomId) -> Range<usize> {
        self.preds.get(&pred).map_or(0..0, |rows| rows.delta_from as usize..rows.len())
    }

    /// Rows in the delta, over every predicate.
    fn delta_len(&self) -> usize {
        self.preds.values().map(|rows| rows.len() - rows.delta_from as usize).sum()
    }

    /// Puts every row in the delta (semi-naive round one).
    fn delta_all(&mut self) {
        for rows in self.preds.values_mut() {
            rows.delta_from = 0;
        }
    }

    /// Empties the delta: the rows appended from now on form the next.
    fn delta_restart(&mut self) {
        for rows in self.preds.values_mut() {
            rows.delta_from = rows.len() as u32;
        }
    }
}

/// Seeds one interned `subclassof(src, dst)` fact per live `SubclassOf`
/// edge of `g`, in edge order ([`seed_relation_facts`] for `SubclassOf`).
/// Returns the number of facts new to the fact base.
pub fn seed_subclass_facts(g: &OntGraph, atoms: &mut AtomTable, fb: &mut FactBase) -> usize {
    seed_relation_facts(g, &[rel::SUBCLASS_OF], &pred_name(rel::SUBCLASS_OF), atoms, fb)
}

/// Seeds one interned `pred(src, dst)` fact per live edge of `g` whose
/// label is one of `relations`, in edge order, and returns the number
/// of facts new to the fact base. Endpoints are the graph's node labels
/// under its name as namespace, resolved through the table's per-graph
/// label memo ([`AtomTable::graph_atoms`]), so no string is formatted
/// or hashed per fact. A live edge's endpoints are live: deleting a
/// node deletes its incident edges first.
///
/// This is the one graph-seeding walk: [`seed_subclass_facts`] runs it
/// under `subclassof`, and the articulation generator's inference
/// expansion runs it under `si` on every ontology of the implication
/// edge set, whether or not saturation then runs on an executor.
pub fn seed_relation_facts(
    g: &OntGraph,
    relations: &[&str],
    pred: &str,
    atoms: &mut AtomTable,
    fb: &mut FactBase,
) -> usize {
    let wanted: Vec<LabelId> = relations.iter().filter_map(|r| g.label_id(r)).collect();
    if wanted.is_empty() {
        return 0;
    }
    let pred = atoms.intern(pred);
    let mut cursor = atoms.graph_atoms(g);
    let mut seeded = 0;
    for (_, src, lid, dst) in g.edge_entries() {
        if wanted.contains(&lid) {
            let s = cursor.node_atom(src).expect("live");
            let d = cursor.node_atom(dst).expect("live");
            seeded += fb.add_fact(pred, &[s, d]) as usize;
        }
    }
    seeded
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
    /// Candidate facts examined during joins — the effort proxy. Equal
    /// across engines, thread counts and shard counts for one strategy;
    /// semi-naive runs count a delta row once when its unit binds it,
    /// then every candidate the rest of the body visits.
    pub atoms_examined: usize,
    /// Per-round breakdown; `rounds.len() == iterations` (the final
    /// entry is the empty round that proves the fixpoint, unless the
    /// run aborted on budget) and the `derived` fields sum to
    /// `derived` minus ground-clause fires.
    pub rounds: Vec<RoundStats>,
    /// Facts pushed through a merge barrier, one entry per merging
    /// worker. Semi-naive runs of either engine record a single entry:
    /// every head their work units emit that the store did not already
    /// hold when the round began, funnelled through the one per-round
    /// merge. Heads emitted twice within a round count twice. Naive and
    /// full-closure runs leave this empty.
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
    /// the only interning an inference run performs. A semi-naive round
    /// evaluates one work unit per [`CompiledProgram::delta_slots`]
    /// entry, in that order, over all its delta rows.
    pub fn run(&self, atoms: &mut AtomTable, fb: &mut FactBase) -> Result<InferenceStats> {
        let compiled = CompiledProgram::compile(&self.program, atoms)?;
        let (max_derived, max_iterations) = (self.max_derived, self.max_iterations);
        if self.strategy == Strategy::SemiNaive {
            let slots = compiled.delta_slots();
            return compiled.saturate(fb, max_derived, max_iterations, false, |fb| {
                let mut heads = FactRows::default();
                let mut examined = 0;
                for &(ci, d, pred) in &slots {
                    let rows = fb.delta_rows(pred);
                    compiled.eval_delta_range(fb, ci, d, rows, &mut heads, &mut examined);
                }
                (vec![heads], examined)
            });
        }
        let unindexed = self.strategy == Strategy::FullClosure;
        let mut scratch = Scratch::default();
        compiled.saturate(fb, max_derived, max_iterations, true, |fb| {
            let mut heads = FactRows::default();
            let mut examined = 0;
            for c in compiled.clauses.iter().filter(|c| !c.body.is_empty()) {
                scratch.reset(c.nvars);
                let plan = Plan { delta: None, unindexed };
                join(fb, c, 0, plan, &mut scratch, &mut heads, &mut examined);
            }
            (vec![heads], examined)
        })
    }
}

/// Reports one finished inference run to the observability registry
/// (strictly observational).
fn record_run_metrics(stats: &InferenceStats) {
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
/// then drives the same [`CompiledProgram::eval_delta_range`] work
/// units across its pool from inside [`CompiledProgram::saturate`] —
/// the compiled form is `Sync`, so workers share one copy.
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

    /// The round loop both engines share. Fires every ground-fact
    /// (empty-body) clause into `fb`, then runs rounds to fixpoint.
    ///
    /// `eval` evaluates one round against `fb`, whose delta
    /// ([`FactBase::delta_rows`]) is the rows the previous round
    /// appended (every row in round one), and returns the heads it
    /// emitted plus the candidates it examined. The heads are merged in
    /// order through the store's dedup, which fixes the next delta's
    /// rows and their order. The round ledger's `delta` counts the
    /// delta's rows, or every row when `whole_base` (naive rounds).
    /// Delta-driven runs record the number of heads merged as their one
    /// [`InferenceStats::worker_merge_facts`] entry.
    ///
    /// Records one `inference` span and the run metrics.
    pub fn saturate(
        &self,
        fb: &mut FactBase,
        max_derived: usize,
        max_iterations: usize,
        whole_base: bool,
        mut eval: impl FnMut(&FactBase) -> (Vec<FactRows>, usize),
    ) -> Result<InferenceStats> {
        let _span = onion_obs::span!("inference");
        let mut stats = InferenceStats::default();
        for c in self.clauses.iter().filter(|c| c.body.is_empty()) {
            let args: Vec<AtomId> = c
                .head_args
                .iter()
                .map(|a| match a {
                    CArg::Const(s) => *s,
                    CArg::Slot(_) => unreachable!("safety: ground head"),
                })
                .collect();
            stats.derived += fb.add_fact(c.head_pred, &args) as usize;
        }
        fb.delta_all();
        let mut merged = 0;
        loop {
            stats.iterations += 1;
            if max_iterations != 0 && stats.iterations > max_iterations {
                return Err(RuleError::BudgetExceeded { derived: stats.derived });
            }
            let delta = if whole_base { fb.len() } else { fb.delta_len() };
            let (heads, examined) = eval(fb);
            fb.delta_restart();
            let before = fb.len();
            for (pred, args) in heads.iter().flat_map(FactRows::iter) {
                merged += 1;
                if fb.add_fact(pred, args) {
                    stats.derived += 1;
                    if max_derived != 0 && stats.derived > max_derived {
                        return Err(RuleError::BudgetExceeded { derived: stats.derived });
                    }
                }
            }
            let derived = fb.len() - before;
            stats.atoms_examined += examined;
            stats.rounds.push(RoundStats { delta, derived, examined });
            if derived == 0 {
                break;
            }
        }
        if !whole_base {
            stats.worker_merge_facts = vec![merged];
        }
        record_run_metrics(&stats);
        Ok(stats)
    }

    /// `(clause index, body position, predicate)` for every body atom
    /// of every clause with a non-empty body — the slots a round's
    /// delta can fill, in the order both engines lay out their
    /// `(clause, delta position, delta rows)` work units.
    pub fn delta_slots(&self) -> Vec<(usize, usize, AtomId)> {
        let mut slots = Vec::new();
        for (ci, c) in self.clauses.iter().enumerate() {
            slots.extend(c.body.iter().enumerate().map(|(d, atom)| (ci, d, atom.pred)));
        }
        slots
    }

    /// Evaluates one semi-naive work unit: clause `clause` with the
    /// delta at body position `position`, restricted to the delta rows
    /// `rows` of that atom's predicate.
    ///
    /// The delta atom is evaluated *outermost* (delta-first), then the
    /// remaining body atoms join in clause order against the full
    /// store, with the standard semi-naive skip rule (atoms before
    /// `position` must not match delta rows). Every candidate examined
    /// and every head emitted belongs to exactly one delta row, and the
    /// rows run in order, so a range's heads are the concatenation of
    /// its sub-ranges' heads and its `effort` their sum — the invariant
    /// that makes the parallel engine's row-range units equal to the
    /// sequential engine's whole-slot units. Heads the store already
    /// holds are not emitted.
    pub fn eval_delta_range(
        &self,
        fb: &FactBase,
        clause: usize,
        position: usize,
        rows: Range<usize>,
        out: &mut FactRows,
        effort: &mut usize,
    ) {
        let c = &self.clauses[clause];
        let atom = &c.body[position];
        let Some(store) = fb.preds.get(&atom.pred) else { return };
        let mut scratch = Scratch::default();
        scratch.reset(c.nvars);
        let plan = Plan { delta: Some(position), unindexed: false };
        for r in rows {
            *effort += 1;
            let args = store.row(r as u32);
            if args.len() != atom.args.len() {
                continue;
            }
            if scratch.unify(atom, args) {
                join(fb, c, 0, plan, &mut scratch, out, effort);
            }
            scratch.undo(0);
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

/// Facts packed back to back: the heads one evaluation emitted, in
/// emission order, waiting for the round's merge.
#[derive(Debug, Default, Clone)]
pub struct FactRows {
    preds: Vec<AtomId>,
    /// Fact `i` is `atoms[ends[i - 1]..ends[i]]` (from 0 for the first).
    ends: Vec<u32>,
    atoms: Vec<AtomId>,
}

impl FactRows {
    fn push(&mut self, pred: AtomId, args: &[AtomId]) {
        self.atoms.extend_from_slice(args);
        self.preds.push(pred);
        self.ends
            .push(u32::try_from(self.atoms.len()).expect("a round emits fewer than 2^32 atoms"));
    }

    /// The facts in order, borrowed.
    fn iter(&self) -> impl Iterator<Item = (AtomId, &[AtomId])> + '_ {
        let mut start = 0;
        self.preds.iter().zip(&self.ends).map(move |(&pred, &end)| {
            let args = &self.atoms[start..end as usize];
            start = end as usize;
            (pred, args)
        })
    }
}

/// How one clause evaluation draws its candidates.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// Body position the caller already bound to a delta row
    /// (semi-naive); atoms before it skip delta rows, so each
    /// derivation is found at its first delta position only.
    delta: Option<usize>,
    /// Scan every row of the predicate, no indexes (the full-closure
    /// baseline).
    unindexed: bool,
}

/// One evaluation's reusable state: variable bindings, the trail that
/// undoes them, and the head under construction.
#[derive(Debug, Default)]
struct Scratch {
    env: Vec<Option<AtomId>>,
    trail: Vec<usize>,
    head: Vec<AtomId>,
}

impl Scratch {
    fn reset(&mut self, nvars: usize) {
        self.env.clear();
        self.env.resize(nvars, None);
        self.trail.clear();
    }

    /// Unifies `atom` with the row `args` (same arity), binding free
    /// slots onto the trail; false on a clash.
    fn unify(&mut self, atom: &CAtom, args: &[AtomId]) -> bool {
        for (a, &v) in atom.args.iter().zip(args) {
            match *a {
                CArg::Const(s) if s != v => return false,
                CArg::Const(_) => {}
                CArg::Slot(s) => match self.env[s] {
                    Some(bound) if bound != v => return false,
                    Some(_) => {}
                    None => {
                        self.env[s] = Some(v);
                        self.trail.push(s);
                    }
                },
            }
        }
        true
    }

    /// Unbinds every slot bound since the trail was `mark` long.
    fn undo(&mut self, mark: usize) {
        for s in self.trail.drain(mark..) {
            self.env[s] = None;
        }
    }
}

/// Joins body atoms `i..` of `c` in clause order against `fb` under
/// `plan`, passing over the delta atom the caller bound, and emits
/// every head instantiation the store does not hold.
fn join(
    fb: &FactBase,
    c: &CClause,
    i: usize,
    plan: Plan,
    s: &mut Scratch,
    out: &mut FactRows,
    effort: &mut usize,
) {
    if i == c.body.len() {
        emit_head(fb, c, s, out);
        return;
    }
    if plan.delta == Some(i) {
        join(fb, c, i + 1, plan, s, out, effort);
        return;
    }
    let atom = &c.body[i];
    let Some(rows) = fb.preds.get(&atom.pred) else { return };
    let skip_delta = plan.delta.is_some_and(|d| i < d);
    for r in rows.candidates(atom, &s.env, plan.unindexed) {
        *effort += 1;
        let args = rows.row(r);
        if args.len() != atom.args.len() || (skip_delta && r >= rows.delta_from) {
            continue;
        }
        let mark = s.trail.len();
        if s.unify(atom, args) {
            join(fb, c, i + 1, plan, s, out, effort);
        }
        s.undo(mark);
    }
}

/// Instantiates the clause head under the bindings and appends it to
/// `out` unless the store already holds it.
fn emit_head(fb: &FactBase, c: &CClause, s: &mut Scratch, out: &mut FactRows) {
    s.head.clear();
    s.head.extend(c.head_args.iter().map(|a| match *a {
        CArg::Const(x) => x,
        CArg::Slot(v) => s.env[v].expect("head slots bound (safety)"),
    }));
    if !fb.contains_fact(c.head_pred, &s.head) {
        out.push(c.head_pred, &s.head);
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
        assert!(fb.add_fact(p, &[a, b]));
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
    fn self_loop_is_where_seminaive_examines_more_than_fullclosure() {
        // p(a, a): nothing derivable, one round either way. Semi-naive
        // binds the delta row at each of the two body positions and
        // probes the other atom's index (2 × 2); full-closure's one
        // body-order scan visits the row once per atom (2). On inputs
        // without self-loops `inference_props` finds semi-naive never
        // examines more on this program.
        let mut counts = Vec::new();
        for strat in [Strategy::SemiNaive, Strategy::FullClosure] {
            let mut atoms = AtomTable::new();
            let mut fb = FactBase::new();
            fb.add(&mut atoms, "p", &["a", "a"]);
            let stats = InferenceEngine::new(transitivity())
                .with_strategy(strat)
                .run(&mut atoms, &mut fb)
                .unwrap();
            assert_eq!((stats.iterations, stats.derived), (1, 0), "{strat:?}");
            counts.push(stats.atoms_examined);
        }
        assert_eq!(counts, [4, 2]);
    }

    #[test]
    fn seeding_walks_live_subclass_edges_in_edge_order() {
        let mut g = OntGraph::new("o");
        g.ensure_edge_by_labels("b", rel::SUBCLASS_OF, "a").unwrap();
        g.ensure_edge_by_labels("c", "partof", "a").unwrap();
        g.ensure_edge_by_labels("c", rel::SUBCLASS_OF, "b").unwrap();
        g.ensure_edge_by_labels("d", rel::SUBCLASS_OF, "b").unwrap();
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        assert_eq!(seed_subclass_facts(&g, &mut atoms, &mut fb), 3);
        let seeded: Vec<(&str, &str)> = fb.query2(&atoms, "subclassof", None, None);
        assert_eq!(seeded, [("o.b", "o.a"), ("o.c", "o.b"), ("o.d", "o.b")]);
        // a second walk over the same graph adds nothing
        assert_eq!(seed_subclass_facts(&g, &mut atoms, &mut fb), 0);
        let mut plain = OntGraph::new("p");
        plain.ensure_edge_by_labels("x", "partof", "y").unwrap();
        assert_eq!(seed_subclass_facts(&plain, &mut atoms, &mut fb), 0);
        // two relations under one predicate: one walk, still edge order
        let both = [rel::SUBCLASS_OF, "partof"];
        assert_eq!(seed_relation_facts(&g, &both, "si", &mut atoms, &mut fb), 4);
        let seeded: Vec<(&str, &str)> = fb.query2(&atoms, "si", None, None);
        assert_eq!(seeded, [("o.b", "o.a"), ("o.c", "o.a"), ("o.c", "o.b"), ("o.d", "o.b")]);
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
