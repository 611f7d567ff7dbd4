//! Interned atom symbols for the inference engine.
//!
//! The paper's Horn facts range over qualified ontology terms
//! (`carrier.Car`) plus predicate names and synthesised constants. The
//! original engine keyed its fact base by strings, so seeding from a
//! graph built a `"onto.Term"` string per endpoint per fact — the last
//! alloc-heavy seam after every other layer moved to
//! `(onto-idx, label-id)` keys. [`AtomTable`] closes it: every symbol is
//! a dense [`AtomId`] over a `(namespace, name)` key, and
//! [`AtomTable::graph_atoms`] memoises a graph's `LabelId → AtomId`
//! mapping so re-seeding from the same graph is an array lookup — no
//! string is formatted or hashed per fact.
//!
//! Design points:
//!
//! * **One symbol space.** Predicates, constants and graph terms share
//!   one id space, exactly like the string engine shared one interner.
//! * **Exact keys.** A rule term or a graph node keys under its
//!   ontology's own name: `intern_parts(Some("acme.v2"), "Car")` is
//!   `("acme.v2", "Car")`, and so is node `Car` of graph `acme.v2`.
//!   Text splits at its first `.`: `intern("carrier.Car")` is
//!   `("carrier", "Car")`. The two agree for every dot-free ontology
//!   name — the only names text spells without ambiguity — so there a
//!   string-interned symbol and the same term interned from a graph node
//!   resolve to the *same* [`AtomId`]. No program path mixes
//!   text-interned terms with graph or rule-term atoms.
//! * **Lazy display text.** Qualified symbols materialise their
//!   `"onto.Term"` form on first [`AtomTable::resolve`] (behind a
//!   `OnceLock`, so the view API stays `&self`); a table that is only
//!   ever seeded and queried by id never builds the string at all.
//! * **Graph memos survive reuse.** Memos are keyed by
//!   [`onion_graph::OntGraph::graph_id`], and a graph's interner is
//!   append-only, so a shared table (see `OnionSystem`) keeps its memos
//!   valid across repeated articulation/maintenance cycles; clones and
//!   compacted graphs get fresh ids and therefore fresh memos.

use std::fmt;
use std::sync::OnceLock;

use onion_graph::hash::FxHashMap;
use onion_graph::{LabelId, NodeId, OntGraph};

use crate::ast::Term;

/// Sentinel namespace index for unqualified symbols.
const NO_NS: u32 = u32::MAX;

/// Compact identifier for an interned atom symbol.
///
/// Ids are dense from zero and valid only for the [`AtomTable`] that
/// produced them. Predicates and constants share the space.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomId(u32);

impl AtomId {
    /// The raw index value.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for AtomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// The shared symbol table mapping strings and graph terms to
/// [`AtomId`]s (see the module docs for the design).
#[derive(Default, Clone)]
pub struct AtomTable {
    /// Namespace (ontology) strings, dense.
    ns: Vec<Box<str>>,
    ns_ids: FxHashMap<Box<str>, u32>,
    /// Local-name strings, dense, shared by all namespaces.
    names: Vec<Box<str>>,
    name_ids: FxHashMap<Box<str>, u32>,
    /// Symbol store: `(namespace | NO_NS, name)` per atom.
    syms: Vec<(u32, u32)>,
    by_key: FxHashMap<(u32, u32), AtomId>,
    /// Lazily materialised `"ns.name"` display text, parallel to
    /// `syms`; unqualified symbols never populate their slot.
    text: Vec<OnceLock<Box<str>>>,
    /// namespace → `(graph_id the memo was built against,
    /// dense LabelId.index() → AtomId.0 + 1)` memo (0 = unmapped) used
    /// by [`AtomTable::graph_atoms`]. One memo per namespace: a fresh
    /// graph identity under the same name (clone, compaction, a
    /// regenerated articulation ontology) *replaces* the stale memo
    /// instead of leaking beside it, so a long-lived shared table stays
    /// bounded by the number of distinct ontology names.
    graph_memos: FxHashMap<u32, (u64, Vec<u32>)>,
}

impl fmt::Debug for AtomTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AtomTable")
            .field("atoms", &self.syms.len())
            .field("namespaces", &self.ns.len())
            .field("names", &self.names.len())
            .field("graph_memos", &self.graph_memos.len())
            .finish()
    }
}

impl AtomTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct atoms interned.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// Interns a namespace (ontology name), returning its dense index.
    pub fn namespace(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ns_ids.get(name) {
            return id;
        }
        let id = self.ns.len() as u32;
        let boxed: Box<str> = name.into();
        self.ns.push(boxed.clone());
        self.ns_ids.insert(boxed, id);
        id
    }

    /// Looks up a namespace index without interning.
    pub fn namespace_lookup(&self, name: &str) -> Option<u32> {
        self.ns_ids.get(name).copied()
    }

    fn name_intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(s) {
            return id;
        }
        let id = self.names.len() as u32;
        let boxed: Box<str> = s.into();
        self.names.push(boxed.clone());
        self.name_ids.insert(boxed, id);
        id
    }

    fn intern_key(&mut self, ns: u32, name: u32) -> AtomId {
        if let Some(&id) = self.by_key.get(&(ns, name)) {
            return id;
        }
        let id = AtomId(self.syms.len() as u32);
        self.syms.push((ns, name));
        self.text.push(OnceLock::new());
        self.by_key.insert((ns, name), id);
        id
    }

    /// Interns a symbol from its textual form, splitting `"ns.name"` on
    /// the first `.` (no dot → unqualified).
    pub fn intern(&mut self, s: &str) -> AtomId {
        self.intern_parts(None, s)
    }

    /// Interns a symbol from namespace/name parts — the path rule terms
    /// take, so no `"ns.name"` string is ever built. `Some(ns)` keys
    /// `(ns, name)` as given; `None` reads `name` as text (see
    /// [`AtomTable::intern`]).
    pub fn intern_parts(&mut self, ns: Option<&str>, name: &str) -> AtomId {
        let (ns, name) = key_parts(ns, name);
        let ns = match ns {
            Some(o) => self.namespace(o),
            None => NO_NS,
        };
        let name = self.name_intern(name);
        self.intern_key(ns, name)
    }

    /// Interns a rule [`Term`] without joining its parts.
    pub fn intern_term(&mut self, term: &Term) -> AtomId {
        self.intern_parts(term.ontology.as_deref(), &term.name)
    }

    /// Looks up a symbol by textual form without interning.
    pub fn lookup(&self, s: &str) -> Option<AtomId> {
        self.lookup_parts(None, s)
    }

    /// Looks up by parts without interning (keyed like
    /// [`AtomTable::intern_parts`]).
    pub fn lookup_parts(&self, ns: Option<&str>, name: &str) -> Option<AtomId> {
        let (ns, name) = key_parts(ns, name);
        let ns = match ns {
            Some(o) => self.ns_ids.get(o).copied()?,
            None => NO_NS,
        };
        let name = self.name_ids.get(name).copied()?;
        self.by_key.get(&(ns, name)).copied()
    }

    /// Looks up a rule [`Term`] without interning or joining.
    pub fn lookup_term(&self, term: &Term) -> Option<AtomId> {
        self.lookup_parts(term.ontology.as_deref(), &term.name)
    }

    /// The namespace index of an atom (`None` for unqualified symbols).
    #[inline]
    pub fn namespace_of(&self, id: AtomId) -> Option<u32> {
        let (ns, _) = self.syms[id.index()];
        (ns != NO_NS).then_some(ns)
    }

    /// The local name of an atom (the part after the namespace).
    pub fn name_of(&self, id: AtomId) -> &str {
        let (_, name) = self.syms[id.index()];
        &self.names[name as usize]
    }

    /// `(namespace, name)` string parts of an atom.
    pub fn parts(&self, id: AtomId) -> (Option<&str>, &str) {
        let (ns, name) = self.syms[id.index()];
        let ns = (ns != NO_NS).then(|| self.ns[ns as usize].as_ref());
        (ns, &self.names[name as usize])
    }

    /// The textual form of an atom: `"ns.name"` for qualified symbols
    /// (materialised on first call), the bare name otherwise.
    pub fn resolve(&self, id: AtomId) -> &str {
        let (ns, name) = self.syms[id.index()];
        if ns == NO_NS {
            return &self.names[name as usize];
        }
        self.text[id.index()]
            .get_or_init(|| {
                format!("{}.{}", self.ns[ns as usize], self.names[name as usize]).into_boxed_str()
            })
            .as_ref()
    }

    /// A cursor interning node labels of `g` under the graph's own name
    /// as namespace. The `LabelId → AtomId` memo is kept in the table
    /// across cursors — validated against [`OntGraph::graph_id`], so a
    /// fresh identity under the same name (clone, compaction, a
    /// regenerated graph) starts clean — and seeding the same graph
    /// again hits a dense array per fact: no hashing at all.
    pub fn graph_atoms<'t, 'g>(&'t mut self, g: &'g OntGraph) -> GraphAtoms<'t, 'g> {
        let ns = self.namespace(g.name());
        let graph_id = g.graph_id();
        let memo = match self.graph_memos.remove(&ns) {
            Some((id, memo)) if id == graph_id => memo,
            _ => Vec::new(), // no memo, or a stale graph identity
        };
        GraphAtoms { table: self, graph: g, ns, graph_id, memo }
    }
}

/// The `(namespace, name)` key of [`AtomTable::intern_parts`]' arguments:
/// given parts as they are, text split at its first `.`.
fn key_parts<'a>(ns: Option<&'a str>, name: &'a str) -> (Option<&'a str>, &'a str) {
    match ns {
        Some(_) => (ns, name),
        None => match name.split_once('.') {
            Some((head, tail)) => (Some(head), tail),
            None => (None, name),
        },
    }
}

/// A borrowed interning cursor over one graph (see
/// [`AtomTable::graph_atoms`]). Dropping it returns the memo to the
/// table.
pub struct GraphAtoms<'t, 'g> {
    table: &'t mut AtomTable,
    graph: &'g OntGraph,
    ns: u32,
    graph_id: u64,
    /// `LabelId.index() → AtomId.0 + 1`; 0 = unmapped.
    memo: Vec<u32>,
}

impl GraphAtoms<'_, '_> {
    /// The atom for a node-label id of the cursor's graph.
    #[inline]
    fn atom(&mut self, label: LabelId) -> AtomId {
        let i = label.index();
        if let Some(&slot) = self.memo.get(i) {
            if slot != 0 {
                return AtomId(slot - 1);
            }
        }
        self.intern_slow(label)
    }

    /// The atom for a live node, `None` if `n` is deleted (its label is
    /// gone, so it contributes no facts).
    #[inline]
    pub fn node_atom(&mut self, n: NodeId) -> Option<AtomId> {
        self.graph.node_label_id(n).map(|l| self.atom(l))
    }

    #[cold]
    fn intern_slow(&mut self, label: LabelId) -> AtomId {
        let name = self.table.name_intern(self.graph.interner().resolve(label));
        let id = self.table.intern_key(self.ns, name);
        let i = label.index();
        if self.memo.len() <= i {
            self.memo.resize(i + 1, 0);
        }
        self.memo[i] = id.0 + 1;
        id
    }
}

impl Drop for GraphAtoms<'_, '_> {
    fn drop(&mut self) {
        self.table.graph_memos.insert(self.ns, (self.graph_id, std::mem::take(&mut self.memo)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_and_parts_paths_agree() {
        let mut t = AtomTable::new();
        let a = t.intern("carrier.Car");
        let b = t.intern_parts(Some("carrier"), "Car");
        let c = t.intern_term(&Term::qualified("carrier", "Car"));
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(t.resolve(a), "carrier.Car");
        assert_eq!(t.parts(a), (Some("carrier"), "Car"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn unqualified_symbols_keep_their_text() {
        let mut t = AtomTable::new();
        let a = t.intern("vehicle");
        assert_eq!(t.resolve(a), "vehicle");
        assert_eq!(t.parts(a), (None, "vehicle"));
        assert_eq!(t.namespace_of(a), None);
        assert_eq!(t.intern_term(&Term::unqualified("vehicle")), a);
    }

    #[test]
    fn split_is_bijective_on_multi_dot_names() {
        let mut t = AtomTable::new();
        let a = t.intern("a.b.c");
        assert_eq!(t.parts(a), (Some("a"), "b.c"));
        assert_eq!(t.resolve(a), "a.b.c");
        assert_ne!(t.intern("a.b"), a);
        assert_ne!(t.intern("ab.c"), a);
    }

    #[test]
    fn lookup_never_interns() {
        let mut t = AtomTable::new();
        assert!(t.lookup("carrier.Car").is_none());
        assert!(t.lookup_term(&Term::qualified("carrier", "Car")).is_none());
        let a = t.intern("carrier.Car");
        assert_eq!(t.lookup("carrier.Car"), Some(a));
        assert_eq!(t.lookup_term(&Term::qualified("carrier", "Car")), Some(a));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn graph_atoms_match_string_interning() {
        let mut g = OntGraph::new("carrier");
        let car = g.ensure_node("Car").unwrap();
        let vehicle = g.ensure_node("Vehicle").unwrap();
        let mut t = AtomTable::new();
        let by_string = t.intern("carrier.Car");
        let (a, b) = {
            let mut cursor = t.graph_atoms(&g);
            (cursor.node_atom(car).unwrap(), cursor.node_atom(vehicle).unwrap())
        };
        assert_eq!(a, by_string, "graph path and string path intern the same atom");
        assert_eq!(t.resolve(b), "carrier.Vehicle");
    }

    #[test]
    fn graph_memo_survives_cursor_reuse() {
        let mut g = OntGraph::new("o");
        let n = g.ensure_node("X").unwrap();
        let mut t = AtomTable::new();
        let first = {
            let mut c = t.graph_atoms(&g);
            c.node_atom(n).unwrap()
        };
        let atoms_after_first = t.len();
        let second = {
            let mut c = t.graph_atoms(&g);
            c.node_atom(n).unwrap()
        };
        assert_eq!(first, second);
        assert_eq!(t.len(), atoms_after_first, "reuse interns nothing new");
        // a clone has a fresh graph identity: memo misses, atoms agree
        let g2 = g.clone();
        let third = {
            let mut c = t.graph_atoms(&g2);
            c.node_atom(n).unwrap()
        };
        assert_eq!(first, third, "same (ns, name) key regardless of graph identity");
    }

    #[test]
    fn dotted_namespace_names_canonicalise() {
        let mut t = AtomTable::new();
        // parts, a rule term and a graph node key a dotted ontology name
        // as given
        let by_parts = t.intern_parts(Some("acme.v2"), "Car");
        let by_term = t.intern_term(&Term::qualified("acme.v2", "Car"));
        assert_eq!(by_parts, by_term);
        assert_eq!(t.parts(by_parts), (Some("acme.v2"), "Car"));
        assert_eq!(t.resolve(by_parts), "acme.v2.Car");
        assert_eq!(t.lookup_parts(Some("acme.v2"), "Car"), Some(by_parts));
        assert_eq!(t.lookup_term(&Term::qualified("acme.v2", "Car")), Some(by_parts));
        let mut g = OntGraph::new("acme.v2");
        let car = g.ensure_node("Car").unwrap();
        let from_graph = {
            let mut c = t.graph_atoms(&g);
            c.node_atom(car).unwrap()
        };
        assert_eq!(from_graph, by_parts);
        // text splits at its first dot, so it names another atom
        let by_string = t.intern("acme.v2.Car");
        assert_ne!(by_string, by_parts);
        assert_eq!(t.parts(by_string), (Some("acme"), "v2.Car"));
        assert_eq!(t.lookup("acme.v2.Car"), Some(by_string));
        // unqualified parts with an embedded dot read as text
        assert_eq!(t.intern_parts(None, "a.b"), t.intern("a.b"));
    }

    #[test]
    fn graph_memos_bounded_per_namespace() {
        let mut t = AtomTable::new();
        // a fresh graph identity per cycle under the same name (the
        // repeated-articulation shape): the memo is replaced, not
        // leaked beside its predecessors
        for _ in 0..10 {
            let mut g = OntGraph::new("transport");
            let n = g.ensure_node("Vehicle").unwrap();
            let mut c = t.graph_atoms(&g);
            c.node_atom(n).unwrap();
        }
        let dbg = format!("{t:?}");
        assert!(dbg.contains("graph_memos: 1"), "one memo per namespace: {dbg}");
        assert_eq!(t.len(), 1, "one atom regardless of graph identity churn");
    }

    #[test]
    fn dead_nodes_yield_no_atom() {
        let mut g = OntGraph::new("o");
        let n = g.ensure_node("X").unwrap();
        g.delete_node(n).unwrap();
        let mut t = AtomTable::new();
        let mut c = t.graph_atoms(&g);
        assert!(c.node_atom(n).is_none());
    }

    #[test]
    fn debug_is_compact() {
        let mut t = AtomTable::new();
        t.intern("a.b");
        let s = format!("{t:?}");
        assert!(s.contains("atoms: 1"), "{s}");
    }
}
