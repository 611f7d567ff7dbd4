//! The directed labeled graph `G = (N, E)` of the paper's §3.
//!
//! Nodes and edges are stored in append-only arenas with tombstone
//! deletion, so [`NodeId`]s and [`EdgeId`]s remain stable across deletions
//! (the articulation maintains long-lived references into source
//! ontologies). Ontologies are *consistent* (§1): every term is depicted
//! by exactly one node, so a label names at most one live node and the
//! label index maps a label id to that node — the paper's convention of
//! addressing nodes by their label (§3 end).
//!
//! # The adjacency layer
//!
//! Traversal and maintenance are the hot paths of the whole system
//! (§5.3, §6), so each live node keeps one view of its live edges: its
//! **incident lists**, the live out-/in-edges as `(EdgeId, LabelId,
//! neighbour)` in insertion order, upheld by the four transformation
//! primitives. They answer
//!
//! * [`OntGraph::find_edge`] (a scan of the source's out-list, so
//!   `O(out-degree)`; ontology out-degrees are small), and through it
//!   `add_edge`'s duplicate check and [`OntGraph::ensure_edge`];
//! * label-filtered traversal ([`OntGraph::out_neighbors_by_id`] and
//!   friends), a pass over the list comparing label ids that never
//!   resolves a string.
//!
//! `ED`/`ND` remove dead [`EdgeId`]s from the lists (and `ND` drops the
//! node's `by_label` entry), so lookup, iteration and degree cost is
//! proportional to the *live* neighbourhood, not historical churn.
//!
//! String-typed APIs remain available and are thin wrappers that resolve
//! the label once at the boundary, then run on the id layer.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::GraphError;
use crate::hash::FxHashMap;
use crate::label::{Interner, LabelId};
use crate::ops::GraphOp;
use crate::Result;

/// Default number of shards a fresh graph is configured with: the unit
/// a checkpoint writes one file for (see [`OntGraph::set_shard_count`]
/// and [`crate::wal`]).
pub const DEFAULT_SHARD_COUNT: usize = 8;

/// Largest shard count the adaptive policy will pick. Past this, the
/// per-shard files and stamps a checkpoint writes, compares and
/// garbage-collects cost more than finer dirty tracking saves.
pub const MAX_ADAPTIVE_SHARDS: usize = 64;

/// The adaptive shard count for a graph with `edges` live edges:
/// `round(√E)` clamped to `[1, MAX_ADAPTIVE_SHARDS]`.
///
/// Rationale, checkpoint file granularity: an incremental checkpoint
/// rewrites each dirty shard's file, about `E/S` edges, while its
/// manifest, stamp comparisons and file count grow with `S`; `S ≈ √E`
/// balances the two, so a checkpoint after a few edits writes about
/// `√E` edges per dirty shard across graph sizes.
pub fn adaptive_shard_count(edges: usize) -> usize {
    ((edges as f64).sqrt().round() as usize).clamp(1, MAX_ADAPTIVE_SHARDS)
}

/// Source of unique graph identities ([`OntGraph::graph_id`]): shard
/// versions are only comparable within one identity, so every
/// constructed (or cloned) graph gets a fresh id.
static NEXT_GRAPH_ID: AtomicU64 = AtomicU64::new(1);

/// Stable identifier of a node within one [`OntGraph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw arena index (includes tombstoned slots).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// Stable identifier of an edge within one [`OntGraph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub(crate) u32);

impl EdgeId {
    /// Raw arena index (includes tombstoned slots).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct NodeData {
    label: LabelId,
    /// Live out-edges as `(id, label, dst)` — the neighbour is stored
    /// inline so traversal never dereferences the edge arena.
    out: Vec<(EdgeId, LabelId, NodeId)>,
    /// Live in-edges as `(id, label, src)`.
    inc: Vec<(EdgeId, LabelId, NodeId)>,
    alive: bool,
}

#[derive(Debug, Clone)]
struct EdgeData {
    src: NodeId,
    label: LabelId,
    dst: NodeId,
    alive: bool,
}

/// A borrowed view of a live node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRef<'g> {
    /// The node's id.
    pub id: NodeId,
    /// The node's label `λ(n)`.
    pub label: &'g str,
}

/// A borrowed view of a live edge `(n1, α, n2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef<'g> {
    /// The edge's id.
    pub id: EdgeId,
    /// Source node id `n1`.
    pub src: NodeId,
    /// Edge label `α = δ(e)`.
    pub label: &'g str,
    /// Target node id `n2`.
    pub dst: NodeId,
}

/// A directed labeled graph with interned labels.
///
/// `OntGraph` implements the data layer of the paper's §2.1 / §3: a finite
/// set of labeled nodes `N`, a finite set of labeled edges `E`, the label
/// functions `λ` and `δ`, and the four transformation primitives `NA`,
/// `ND`, `EA`, `ED`.
///
/// ```
/// use onion_graph::{rel, OntGraph};
///
/// let mut g = OntGraph::new("carrier");
/// g.ensure_edge_by_labels("Car", rel::SUBCLASS_OF, "Vehicle").unwrap();
/// g.ensure_edge_by_labels("Price", rel::ATTRIBUTE_OF, "Car").unwrap();
/// assert_eq!(g.node_count(), 3); // Car, Vehicle, Price
/// assert!(g.has_edge("Car", "SubclassOf", "Vehicle"));
///
/// // ND removes the node and its incident edges
/// g.delete_node_by_label("Car").unwrap();
/// assert_eq!(g.edge_count(), 0);
/// ```
///
/// The graph is **consistent** (§1): a label names at most one live
/// node, so nodes are addressable by label (§3 end). Edges are
/// *set*-semantics: at most one edge per `(src, label, dst)`
/// triple, matching the paper's definition of `E` as a set.
#[derive(Debug)]
pub struct OntGraph {
    name: String,
    interner: Interner,
    nodes: Vec<NodeData>,
    edges: Vec<EdgeData>,
    by_label: FxHashMap<LabelId, NodeId>,
    live_nodes: usize,
    live_edges: usize,
    journal: Option<Vec<GraphOp>>,
    /// Unique identity for shard-stamp comparison (fresh per
    /// construction *and* per clone — clones diverge independently).
    graph_id: u64,
    /// Shard count; node `n` belongs to shard `n.index() %
    /// shard_count` (stable under arena growth).
    shard_count: usize,
    /// Per-shard modification stamps, drawn from `version_clock` so a
    /// stamp value never repeats within one graph identity.
    shard_versions: Vec<u64>,
    version_clock: u64,
}

impl Clone for OntGraph {
    /// Clones content and journal state, but under a **fresh graph
    /// identity**: the clone's shard stamps are not comparable with
    /// stamps recorded from the original (the two graphs mutate
    /// independently from the moment of the clone), so every shard of
    /// the clone counts as changed against such a record.
    fn clone(&self) -> Self {
        OntGraph {
            name: self.name.clone(),
            interner: self.interner.clone(),
            nodes: self.nodes.clone(),
            edges: self.edges.clone(),
            by_label: self.by_label.clone(),
            live_nodes: self.live_nodes,
            live_edges: self.live_edges,
            journal: self.journal.clone(),
            graph_id: NEXT_GRAPH_ID.fetch_add(1, Ordering::Relaxed),
            shard_count: self.shard_count,
            shard_versions: self.shard_versions.clone(),
            version_clock: self.version_clock,
        }
    }
}

impl OntGraph {
    /// Creates an empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        OntGraph {
            name: name.into(),
            interner: Interner::new(),
            nodes: Vec::new(),
            edges: Vec::new(),
            by_label: FxHashMap::default(),
            live_nodes: 0,
            live_edges: 0,
            journal: None,
            graph_id: NEXT_GRAPH_ID.fetch_add(1, Ordering::Relaxed),
            shard_count: DEFAULT_SHARD_COUNT,
            shard_versions: vec![0; DEFAULT_SHARD_COUNT],
            version_clock: 0,
        }
    }

    // ------------------------------------------------------------------
    // Sharding configuration and dirty-shard tracking
    // ------------------------------------------------------------------

    /// The graph's unique identity. Shard stamps are comparable only
    /// within one identity; clones and compacted graphs get fresh ids.
    pub fn graph_id(&self) -> u64 {
        self.graph_id
    }

    /// Number of shards: the unit of dirty tracking, and of the files a
    /// checkpoint writes (see [`crate::wal`]).
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The shard owning node `n`: `n.index() % shard_count`. Stable
    /// under arena growth — allocating new nodes never moves existing
    /// nodes between shards.
    #[inline]
    pub fn shard_of(&self, n: NodeId) -> usize {
        n.index() % self.shard_count
    }

    /// The modification stamp of shard `s` (monotone per graph
    /// identity; bumped by adding or deleting a node the shard owns and
    /// by adding or deleting an edge whose source it owns — a shard
    /// holds its nodes' labels and out-rows, nothing of their in-edges).
    /// A checkpoint rewrites exactly the shards whose stamp moved since
    /// the previous manifest, and a facade publish counts them.
    pub fn shard_version(&self, s: usize) -> u64 {
        self.shard_versions.get(s).copied().unwrap_or(0)
    }

    /// Every shard's stamp, in shard order: what a caller records to
    /// ask [`OntGraph::shard_unchanged_since`] later.
    pub fn shard_stamps(&self) -> &[u64] {
        &self.shard_versions
    }

    /// True if shard `s` holds what it held when `stamps` were recorded
    /// from the graph identified by `graph_id`: the same identity, the
    /// same shard count and the same stamp for `s`. The one reuse rule
    /// of checkpoints (a clean shard's file is re-referenced) and of
    /// publish accounting (`PublishStats` at the facade).
    pub fn shard_unchanged_since(&self, graph_id: u64, stamps: &[u64], s: usize) -> bool {
        graph_id == self.graph_id
            && stamps.len() == self.shard_count
            && stamps[s] == self.shard_versions[s]
    }

    /// Reconfigures the shard count. `0` means **adaptive**: the count
    /// is derived from the current live edge count via
    /// [`adaptive_shard_count`] (≈√E, clamped to `[1, 64]`), which
    /// balances a checkpoint's per-shard file size against its file
    /// count without manual tuning. All shards are freshly stamped, so
    /// the next checkpoint rewrites every shard.
    pub fn set_shard_count(&mut self, count: usize) {
        let count = if count == 0 { adaptive_shard_count(self.live_edges) } else { count };
        self.shard_count = count;
        self.shard_versions = (0..count)
            .map(|_| {
                self.version_clock += 1;
                self.version_clock
            })
            .collect();
    }

    /// Marks the shard owning `n` as modified.
    #[inline]
    fn touch_shard(&mut self, n: NodeId) {
        self.version_clock += 1;
        let s = n.index() % self.shard_count;
        self.shard_versions[s] = self.version_clock;
    }

    /// The graph's name (the ontology name, e.g. `"carrier"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the graph.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// True if the graph has no live nodes.
    pub fn is_empty(&self) -> bool {
        self.live_nodes == 0
    }

    /// Upper bound (exclusive) for [`NodeId::index`] over every node
    /// ever allocated, tombstones included — the length to size dense
    /// per-node scratch arrays (visited stamps, adjacency) with.
    pub fn node_capacity(&self) -> usize {
        self.nodes.len()
    }

    /// Upper bound (exclusive) for [`EdgeId::index`], tombstones
    /// included.
    pub fn edge_capacity(&self) -> usize {
        self.edges.len()
    }

    /// Access to the label interner (read-only).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Interns a label in this graph's namespace.
    pub fn intern(&mut self, label: &str) -> LabelId {
        self.interner.intern(label)
    }

    /// Resolves an interned label id to its string.
    pub fn resolve(&self, id: LabelId) -> &str {
        self.interner.resolve(id)
    }

    /// Looks up a label id without interning.
    pub fn label_id(&self, label: &str) -> Option<LabelId> {
        self.interner.get(label)
    }

    // ------------------------------------------------------------------
    // Journal
    // ------------------------------------------------------------------

    /// Starts recording transformation primitives into an op journal.
    ///
    /// The journal is the mechanism behind incremental articulation
    /// maintenance: source-ontology deltas are replayed against the
    /// articulation instead of rebuilding it (§5.3; measured by bench B1).
    pub fn enable_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Vec::new());
        }
    }

    /// Stops journaling and returns the recorded ops.
    pub fn take_journal(&mut self) -> Vec<GraphOp> {
        self.journal.take().unwrap_or_default()
    }

    /// Drains the recorded ops while **keeping the journal enabled**.
    ///
    /// This is the durability seam: the WAL layer drains the journal at
    /// every flush point, so the in-memory `Vec<GraphOp>` is only ever
    /// the unflushed tail of the log — it no longer grows for the
    /// lifetime of the graph.
    pub fn drain_journal(&mut self) -> Vec<GraphOp> {
        match self.journal.as_mut() {
            Some(j) => std::mem::take(j),
            None => Vec::new(),
        }
    }

    /// Returns the ops recorded so far without stopping the journal.
    pub fn journal(&self) -> &[GraphOp] {
        self.journal.as_deref().unwrap_or(&[])
    }

    fn record(&mut self, op: impl FnOnce(&Self) -> GraphOp) {
        if self.journal.is_none() {
            return;
        }
        let entry = op(self);
        if let Some(journal) = self.journal.as_mut() {
            journal.push(entry);
        }
    }

    // ------------------------------------------------------------------
    // Node primitives (NA / ND)
    // ------------------------------------------------------------------

    /// `NA` — node addition (§3). Adds a node labeled `label`.
    ///
    /// Errors with [`GraphError::DuplicateLabel`] if a live node already
    /// carries the label, and with
    /// [`GraphError::EmptyLabel`] if the label is empty (`λ` must map to a
    /// non-null string).
    pub fn add_node(&mut self, label: &str) -> Result<NodeId> {
        if label.is_empty() {
            return Err(GraphError::EmptyLabel);
        }
        let lid = self.interner.intern(label);
        if self.by_label.contains_key(&lid) {
            return Err(GraphError::DuplicateLabel(label.to_string()));
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData { label: lid, out: Vec::new(), inc: Vec::new(), alive: true });
        self.by_label.insert(lid, id);
        self.live_nodes += 1;
        self.touch_shard(id);
        self.record(|_| GraphOp::node_add(label));
        Ok(id)
    }

    /// Returns the node labeled `label`, creating it if absent.
    pub fn ensure_node(&mut self, label: &str) -> Result<NodeId> {
        if let Some(id) = self.node_by_label(label) {
            return Ok(id);
        }
        self.add_node(label)
    }

    /// `ND` — node deletion (§3). Removes the node and all incident edges.
    pub fn delete_node(&mut self, id: NodeId) -> Result<()> {
        if !self.is_live_node(id) {
            return Err(GraphError::NodeNotFound(format!("{id:?}")));
        }
        // Capture the node's neighbourhood *before* the cascade empties
        // it, so the journaled ND op is lossless (its inverse restores
        // the node and every incident edge from the op alone).
        let captured = self.journal.is_some().then(|| GraphOp::capture_node_delete(self, id));
        // Collect incident edges first (both directions), then kill them.
        // Incident lists hold only live edges; a self-loop appears in
        // both, so dedup through the liveness check in the loop.
        let incident: Vec<EdgeId> = self.nodes[id.index()]
            .out
            .iter()
            .chain(self.nodes[id.index()].inc.iter())
            .map(|&(e, _, _)| e)
            .collect();
        for e in incident {
            if self.edges[e.index()].alive {
                self.delete_edge(e)?;
            }
        }
        let lid = self.nodes[id.index()].label;
        let node = &mut self.nodes[id.index()];
        node.alive = false;
        // cascaded edge deletion already emptied these; release the
        // allocations too
        node.out = Vec::new();
        node.inc = Vec::new();
        self.by_label.remove(&lid);
        self.live_nodes -= 1;
        self.touch_shard(id);
        if let Some(op) = captured {
            self.record(|_| op);
        }
        Ok(())
    }

    /// Deletes the node addressed by `label` (§3 end).
    pub fn delete_node_by_label(&mut self, label: &str) -> Result<()> {
        let id =
            self.node_by_label(label).ok_or_else(|| GraphError::NodeNotFound(label.to_string()))?;
        self.delete_node(id)
    }

    // ------------------------------------------------------------------
    // Edge primitives (EA / ED)
    // ------------------------------------------------------------------

    /// `EA` — edge addition (§3). Adds the edge `(src, label, dst)`.
    ///
    /// Errors if either endpoint is dead or if the identical triple is
    /// already present (`E` is a set).
    pub fn add_edge(&mut self, src: NodeId, label: &str, dst: NodeId) -> Result<EdgeId> {
        if label.is_empty() {
            return Err(GraphError::EmptyLabel);
        }
        if !self.is_live_node(src) {
            return Err(GraphError::NodeNotFound(format!("{src:?}")));
        }
        if !self.is_live_node(dst) {
            return Err(GraphError::NodeNotFound(format!("{dst:?}")));
        }
        let lid = self.interner.intern(label);
        if self.find_edge_by_ids(src, lid, dst).is_some() {
            return Err(GraphError::DuplicateEdge(format!(
                "({}, {label}, {})",
                self.node_label(src).unwrap_or("?"),
                self.node_label(dst).unwrap_or("?"),
            )));
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeData { src, label: lid, dst, alive: true });
        self.nodes[src.index()].out.push((id, lid, dst));
        self.nodes[dst.index()].inc.push((id, lid, src));
        self.live_edges += 1;
        // a shard holds its nodes' labels and out-rows, so only the
        // source's shard changes
        self.touch_shard(src);
        self.record(|g| {
            GraphOp::edge_add(
                g.node_label(src).expect("live src"),
                label,
                g.node_label(dst).expect("live dst"),
            )
        });
        Ok(id)
    }

    /// Adds the edge if absent, returning the existing id otherwise.
    pub fn ensure_edge(&mut self, src: NodeId, label: &str, dst: NodeId) -> Result<EdgeId> {
        if let Some(lid) = self.interner.get(label) {
            if let Some(id) = self.find_edge_by_ids(src, lid, dst) {
                return Ok(id);
            }
        }
        self.add_edge(src, label, dst)
    }

    /// Label-addressed [`OntGraph::ensure_edge`], creating missing endpoint
    /// nodes; this is the workhorse used by format importers and the
    /// articulation generator.
    pub fn ensure_edge_by_labels(&mut self, src: &str, label: &str, dst: &str) -> Result<EdgeId> {
        let s = self.ensure_node(src)?;
        let d = self.ensure_node(dst)?;
        self.ensure_edge(s, label, d)
    }

    /// `ED` — edge deletion (§3).
    pub fn delete_edge(&mut self, id: EdgeId) -> Result<()> {
        if !self.is_live_edge(id) {
            return Err(GraphError::EdgeNotFound(format!("{id:?}")));
        }
        let EdgeData { src, label, dst, .. } = self.edges[id.index()];
        self.edges[id.index()].alive = false;
        // prune the incident lists so historical churn never degrades
        // degree queries or iteration
        self.nodes[src.index()].out.retain(|&(e, _, _)| e != id);
        self.nodes[dst.index()].inc.retain(|&(e, _, _)| e != id);
        self.live_edges -= 1;
        self.touch_shard(src);
        let (s, l, d) = (
            self.node_label(src).unwrap_or("?").to_string(),
            self.interner.resolve(label).to_string(),
            self.node_label(dst).unwrap_or("?").to_string(),
        );
        self.record(|_| GraphOp::edge_delete(s.clone(), l.clone(), d.clone()));
        Ok(())
    }

    /// Deletes the edge addressed by its `(src, label, dst)` labels.
    pub fn delete_edge_by_labels(&mut self, src: &str, label: &str, dst: &str) -> Result<()> {
        let id = self
            .find_edge_by_labels(src, label, dst)
            .ok_or_else(|| GraphError::EdgeNotFound(format!("({src}, {label}, {dst})")))?;
        self.delete_edge(id)
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// True if `id` refers to a live node.
    pub fn is_live_node(&self, id: NodeId) -> bool {
        self.nodes.get(id.index()).map(|n| n.alive).unwrap_or(false)
    }

    /// True if `id` refers to a live edge.
    pub fn is_live_edge(&self, id: EdgeId) -> bool {
        self.edges.get(id.index()).map(|e| e.alive).unwrap_or(false)
    }

    /// The label `λ(n)` of a live node.
    pub fn node_label(&self, id: NodeId) -> Option<&str> {
        self.nodes.get(id.index()).filter(|n| n.alive).map(|n| self.interner.resolve(n.label))
    }

    /// The interned label id of a live node.
    pub fn node_label_id(&self, id: NodeId) -> Option<LabelId> {
        self.nodes.get(id.index()).filter(|n| n.alive).map(|n| n.label)
    }

    /// The live node carrying `label`, if any.
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        let lid = self.interner.get(label)?;
        self.by_label.get(&lid).copied()
    }

    /// True if a live node carries `label`.
    pub fn contains_label(&self, label: &str) -> bool {
        self.node_by_label(label).is_some()
    }

    /// Looks up a live edge by endpoints and label — one interner lookup
    /// plus one [`OntGraph::find_edge_by_ids`] scan.
    pub fn find_edge(&self, src: NodeId, label: &str, dst: NodeId) -> Option<EdgeId> {
        let lid = self.interner.get(label)?;
        self.find_edge_by_ids(src, lid, dst)
    }

    /// Looks up a live edge by endpoint ids and interned label: a scan
    /// of `src`'s live out-list, `O(out-degree)`, no string comparison.
    /// `E` is a set, so at most one entry matches.
    #[inline]
    pub fn find_edge_by_ids(&self, src: NodeId, label: LabelId, dst: NodeId) -> Option<EdgeId> {
        self.incident_entries(src, true)
            .iter()
            .find(|&&(_, l, d)| l == label && d == dst)
            .map(|&(e, _, _)| e)
    }

    /// Label-addressed [`OntGraph::find_edge`].
    pub fn find_edge_by_labels(&self, src: &str, label: &str, dst: &str) -> Option<EdgeId> {
        let s = self.node_by_label(src)?;
        let d = self.node_by_label(dst)?;
        self.find_edge(s, label, d)
    }

    /// True if the edge `(src, label, dst)` exists (by labels).
    pub fn has_edge(&self, src: &str, label: &str, dst: &str) -> bool {
        self.find_edge_by_labels(src, label, dst).is_some()
    }

    /// The `(src, label, dst)` view of a live edge.
    pub fn edge(&self, id: EdgeId) -> Option<EdgeRef<'_>> {
        let e = self.edges.get(id.index()).filter(|e| e.alive)?;
        Some(EdgeRef { id, src: e.src, label: self.interner.resolve(e.label), dst: e.dst })
    }

    // ------------------------------------------------------------------
    // Id-based adjacency layer
    //
    // Everything in this section works purely on NodeId/LabelId/EdgeId:
    // no `EdgeRef` is constructed and the interner is never touched, so
    // these are the primitives traversal, closure and the algebra build
    // on. Incident lists contain exactly the live edges (pruned on ED /
    // ND), so no liveness filtering is needed here either.
    // ------------------------------------------------------------------

    /// Out-neighbors of `n` via edges with the interned label `label`,
    /// in edge-insertion order: a pass over `n`'s out-list.
    #[inline]
    pub fn out_neighbors_by_id(
        &self,
        n: NodeId,
        label: LabelId,
    ) -> impl Iterator<Item = NodeId> + '_ {
        self.labeled_neighbors(n, Some(label), true)
    }

    /// In-neighbors of `n` via edges with the interned label `label`,
    /// in edge-insertion order: a pass over `n`'s in-list.
    #[inline]
    pub fn in_neighbors_by_id(
        &self,
        n: NodeId,
        label: LabelId,
    ) -> impl Iterator<Item = NodeId> + '_ {
        self.labeled_neighbors(n, Some(label), false)
    }

    /// The neighbours across `n`'s incident list whose edge label is
    /// `label`; `None` (a label never interned) matches nothing.
    fn labeled_neighbors(
        &self,
        n: NodeId,
        label: Option<LabelId>,
        out: bool,
    ) -> impl Iterator<Item = NodeId> + '_ {
        self.incident_entries(n, out)
            .iter()
            .filter(move |&&(_, l, _)| Some(l) == label)
            .map(|&(_, _, m)| m)
    }

    /// Iterates every live edge as `(id, src, label-id, dst)` without
    /// resolving labels.
    pub fn edge_entries(&self) -> impl Iterator<Item = (EdgeId, NodeId, LabelId, NodeId)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.alive)
            .map(|(i, e)| (EdgeId(i as u32), e.src, e.label, e.dst))
    }

    /// Iterates the live out-edges of `n` as `(id, label-id, dst)` —
    /// a sequential read of the node's incident list, no arena access.
    pub fn out_edge_entries(
        &self,
        n: NodeId,
    ) -> impl Iterator<Item = (EdgeId, LabelId, NodeId)> + '_ {
        self.incident_entries(n, true).iter().copied()
    }

    /// Iterates the live in-edges of `n` as `(id, label-id, src)`.
    pub fn in_edge_entries(
        &self,
        n: NodeId,
    ) -> impl Iterator<Item = (EdgeId, LabelId, NodeId)> + '_ {
        self.incident_entries(n, false).iter().copied()
    }

    fn incident_entries(&self, n: NodeId, out: bool) -> &[(EdgeId, LabelId, NodeId)] {
        self.nodes
            .get(n.index())
            .filter(|d| d.alive)
            .map(|d| if out { d.out.as_slice() } else { d.inc.as_slice() })
            .unwrap_or(&[])
    }

    // ------------------------------------------------------------------
    // Iteration
    // ------------------------------------------------------------------

    /// Iterates all live nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeRef<'_>> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, n)| NodeRef { id: NodeId(i as u32), label: self.interner.resolve(n.label) })
    }

    /// Iterates all live node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().enumerate().filter(|(_, n)| n.alive).map(|(i, _)| NodeId(i as u32))
    }

    /// Iterates all live edges.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef<'_>> + '_ {
        self.edges.iter().enumerate().filter(|(_, e)| e.alive).map(|(i, e)| EdgeRef {
            id: EdgeId(i as u32),
            src: e.src,
            label: self.interner.resolve(e.label),
            dst: e.dst,
        })
    }

    /// Iterates the live out-edges of `n`.
    pub fn out_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeRef<'_>> + '_ {
        self.incident(n, true)
    }

    /// Iterates the live in-edges of `n`.
    pub fn in_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeRef<'_>> + '_ {
        self.incident(n, false)
    }

    fn incident(&self, n: NodeId, out: bool) -> impl Iterator<Item = EdgeRef<'_>> + '_ {
        self.incident_entries(n, out).iter().map(move |&(e, lid, other)| {
            let (src, dst) = if out { (n, other) } else { (other, n) };
            EdgeRef { id: e, src, label: self.interner.resolve(lid), dst }
        })
    }

    /// Out-neighbors of `n` reachable via edges labeled `label`.
    ///
    /// Thin wrapper over [`OntGraph::out_neighbors_by_id`]: the label is
    /// resolved once, then the out-list is filtered on label ids.
    pub fn out_neighbors<'g>(
        &'g self,
        n: NodeId,
        label: &str,
    ) -> impl Iterator<Item = NodeId> + 'g {
        self.labeled_neighbors(n, self.interner.get(label), true)
    }

    /// In-neighbors of `n` via edges labeled `label` (wrapper over
    /// [`OntGraph::in_neighbors_by_id`]).
    pub fn in_neighbors<'g>(&'g self, n: NodeId, label: &str) -> impl Iterator<Item = NodeId> + 'g {
        self.labeled_neighbors(n, self.interner.get(label), false)
    }

    /// Out-degree. `O(1)`: incident lists hold exactly the live edges.
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.incident_entries(n, true).len()
    }

    /// In-degree. `O(1)`: incident lists hold exactly the live edges.
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.incident_entries(n, false).len()
    }

    /// All distinct edge labels in use on live edges.
    pub fn edge_labels(&self) -> Vec<&str> {
        let mut seen: HashSet<LabelId> = HashSet::new();
        for e in self.edges.iter().filter(|e| e.alive) {
            seen.insert(e.label);
        }
        let mut v: Vec<&str> = seen.into_iter().map(|l| self.interner.resolve(l)).collect();
        v.sort_unstable();
        v
    }

    // ------------------------------------------------------------------
    // Whole-graph operations
    // ------------------------------------------------------------------

    /// Copies all live nodes and edges of `other` into `self`.
    ///
    /// Nodes are merged **by label**: a node of `other` whose label already
    /// exists in `self` maps onto the existing node. Returns the
    /// node-id mapping from `other` into `self`. This is the primitive
    /// behind both ontology union (§5.1) and the global-merge baseline.
    pub fn merge_from(&mut self, other: &OntGraph) -> Result<HashMap<NodeId, NodeId>> {
        let mut map: HashMap<NodeId, NodeId> = HashMap::with_capacity(other.node_count());
        for n in other.nodes() {
            let here = self.ensure_node(n.label)?;
            map.insert(n.id, here);
        }
        for e in other.edges() {
            let s = map[&e.src];
            let d = map[&e.dst];
            self.ensure_edge(s, e.label, d)?;
        }
        Ok(map)
    }

    /// Builds a compacted copy with tombstones removed and dense ids.
    ///
    /// Returns the new graph and the old-to-new node-id mapping.
    pub fn compacted(&self) -> (OntGraph, HashMap<NodeId, NodeId>) {
        let mut g = OntGraph::new(self.name.clone());
        let mut map = HashMap::with_capacity(self.live_nodes);
        for n in self.nodes() {
            let id = g.add_node(n.label).expect("labels unique in source graph");
            map.insert(n.id, id);
        }
        for e in self.edges() {
            g.add_edge(map[&e.src], e.label, map[&e.dst]).expect("edges unique in source graph");
        }
        (g, map)
    }

    /// In-place arena compaction: drops every tombstoned node and edge
    /// slot, re-densifying ids. Returns the old-to-new node-id mapping
    /// for the surviving nodes.
    ///
    /// The append-only arenas otherwise grow monotonically under churn
    /// (`node_capacity`/`edge_capacity` track every slot ever
    /// allocated, and dense traversal scratch is sized by them), so
    /// long-lived servers should compact when the tombstone fraction
    /// gets large — the natural point is right before a checkpoint,
    /// whose shard files span the capacity. Compaction invalidates
    /// outstanding [`NodeId`]s, [`EdgeId`]s and [`LabelId`]s (the
    /// interner is rebuilt too): callers holding ids across a compact
    /// must remap through the returned table. The label-level shape is
    /// unchanged, so an active journal records nothing for a compact.
    pub fn compact(&mut self) -> HashMap<NodeId, NodeId> {
        let (mut dense, map) = self.compacted();
        // keep journaling state (compaction itself is a label-level
        // no-op, so no ops are recorded for it) and the shard
        // configuration; the dense graph carries a fresh graph_id, so
        // every shard counts as changed against any recorded stamps —
        // ids were remapped, every shard's content may have moved.
        dense.journal = self.journal.take();
        dense.set_shard_count(self.shard_count);
        *self = dense;
        map
    }

    /// Structural equality on the `(label, edge-label, label)` level,
    /// ignoring ids, tombstones, names and insertion order.
    pub fn same_shape(&self, other: &OntGraph) -> bool {
        if self.node_count() != other.node_count() || self.edge_count() != other.edge_count() {
            return false;
        }
        for n in self.nodes() {
            if !other.contains_label(n.label) {
                return false;
            }
        }
        for e in self.edges() {
            let s = self.node_label(e.src).expect("live");
            let d = self.node_label(e.dst).expect("live");
            if !other.has_edge(s, e.label, d) {
                return false;
            }
        }
        true
    }

    /// Sorted list of node labels (test/diagnostic helper).
    pub fn node_labels_sorted(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.nodes().map(|n| n.label).collect();
        v.sort_unstable();
        v
    }

    /// Sorted `(src, label, dst)` triples (test/diagnostic helper).
    pub fn edge_triples_sorted(&self) -> Vec<(String, String, String)> {
        let mut v: Vec<(String, String, String)> = self
            .edges()
            .map(|e| {
                (
                    self.node_label(e.src).expect("live").to_string(),
                    e.label.to_string(),
                    self.node_label(e.dst).expect("live").to_string(),
                )
            })
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> OntGraph {
        let mut g = OntGraph::new("t");
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        let c = g.add_node("C").unwrap();
        g.add_edge(a, "SubclassOf", b).unwrap();
        g.add_edge(b, "SubclassOf", c).unwrap();
        g
    }

    #[test]
    fn add_and_count() {
        let g = abc();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(!g.is_empty());
    }

    #[test]
    fn empty_label_rejected() {
        let mut g = OntGraph::new("t");
        assert_eq!(g.add_node(""), Err(GraphError::EmptyLabel));
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        assert_eq!(g.add_edge(a, "", b), Err(GraphError::EmptyLabel));
    }

    #[test]
    fn duplicate_label_rejected_in_consistent_mode() {
        let mut g = OntGraph::new("t");
        g.add_node("Car").unwrap();
        assert!(matches!(g.add_node("Car"), Err(GraphError::DuplicateLabel(_))));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut g = abc();
        let a = g.node_by_label("A").unwrap();
        let b = g.node_by_label("B").unwrap();
        assert!(matches!(g.add_edge(a, "SubclassOf", b), Err(GraphError::DuplicateEdge(_))));
        // but a different label between the same nodes is fine
        g.add_edge(a, "related", b).unwrap();
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn ensure_node_returns_existing() {
        let mut g = abc();
        let a = g.node_by_label("A").unwrap();
        assert_eq!(g.ensure_node("A").unwrap(), a);
        assert_eq!(g.node_count(), 3);
        let d = g.ensure_node("D").unwrap();
        assert_eq!(g.node_label(d), Some("D"));
        assert_eq!(g.node_count(), 4);
    }

    #[test]
    fn ensure_edge_is_idempotent() {
        let mut g = OntGraph::new("t");
        let e1 = g.ensure_edge_by_labels("A", "S", "B").unwrap();
        let e2 = g.ensure_edge_by_labels("A", "S", "B").unwrap();
        assert_eq!(e1, e2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn delete_node_removes_incident_edges() {
        let mut g = abc();
        let b = g.node_by_label("B").unwrap();
        g.delete_node(b).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.contains_label("B"));
        assert!(g.contains_label("A"));
        // ids of survivors still valid
        let a = g.node_by_label("A").unwrap();
        assert_eq!(g.node_label(a), Some("A"));
    }

    #[test]
    fn delete_node_with_self_loop() {
        let mut g = OntGraph::new("t");
        let a = g.add_node("A").unwrap();
        g.add_edge(a, "self", a).unwrap();
        g.delete_node(a).unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn delete_edge_then_readd() {
        let mut g = abc();
        let a = g.node_by_label("A").unwrap();
        let b = g.node_by_label("B").unwrap();
        let e = g.find_edge(a, "SubclassOf", b).unwrap();
        g.delete_edge(e).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert!(g.find_edge(a, "SubclassOf", b).is_none());
        // set-semantics allow re-adding after delete
        g.add_edge(a, "SubclassOf", b).unwrap();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn deleting_dead_entities_errors() {
        let mut g = abc();
        let a = g.node_by_label("A").unwrap();
        g.delete_node(a).unwrap();
        assert!(g.delete_node(a).is_err());
        assert!(g.delete_node_by_label("A").is_err());
        assert!(g.delete_edge_by_labels("A", "SubclassOf", "B").is_err());
    }

    #[test]
    fn label_reusable_after_delete() {
        let mut g = OntGraph::new("t");
        let a = g.add_node("A").unwrap();
        g.delete_node(a).unwrap();
        let a2 = g.add_node("A").unwrap();
        assert_ne!(a, a2);
        assert_eq!(g.node_by_label("A"), Some(a2));
    }

    #[test]
    fn neighbors_filtered_by_label() {
        let mut g = OntGraph::new("t");
        let car = g.add_node("Car").unwrap();
        let veh = g.add_node("Vehicle").unwrap();
        let price = g.add_node("Price").unwrap();
        g.add_edge(car, "SubclassOf", veh).unwrap();
        g.add_edge(price, "AttributeOf", car).unwrap();
        let subs: Vec<NodeId> = g.out_neighbors(car, "SubclassOf").collect();
        assert_eq!(subs, vec![veh]);
        let attrs: Vec<NodeId> = g.in_neighbors(car, "AttributeOf").collect();
        assert_eq!(attrs, vec![price]);
        assert_eq!(g.out_neighbors(car, "NoSuch").count(), 0);
    }

    #[test]
    fn degrees() {
        let g = abc();
        let b = g.node_by_label("B").unwrap();
        assert_eq!(g.out_degree(b), 1);
        assert_eq!(g.in_degree(b), 1);
    }

    #[test]
    fn edge_labels_sorted_unique() {
        let mut g = abc();
        g.ensure_edge_by_labels("A", "AttributeOf", "C").unwrap();
        assert_eq!(g.edge_labels(), vec!["AttributeOf", "SubclassOf"]);
    }

    #[test]
    fn merge_from_unions_by_label() {
        let mut g1 = abc();
        let mut g2 = OntGraph::new("u");
        g2.ensure_edge_by_labels("B", "SubclassOf", "D").unwrap();
        let map = g1.merge_from(&g2).unwrap();
        assert_eq!(g1.node_count(), 4); // A B C D — B merged
        assert_eq!(g1.edge_count(), 3);
        let b2 = g2.node_by_label("B").unwrap();
        assert_eq!(g1.node_label(map[&b2]), Some("B"));
    }

    #[test]
    fn compacted_drops_tombstones() {
        let mut g = abc();
        g.delete_node_by_label("B").unwrap();
        let (c, map) = g.compacted();
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.edge_count(), 0);
        assert_eq!(map.len(), 2);
        assert!(c.contains_label("A") && c.contains_label("C"));
    }

    #[test]
    fn compact_bounds_arena_growth_under_churn() {
        // regression (ROADMAP "Churn compaction"): the arenas grow
        // monotonically under add/delete cycles; periodic compaction
        // must keep capacity proportional to the live set.
        let mut g = OntGraph::new("t");
        g.ensure_edge_by_labels("Hub", "S", "Root").unwrap();
        for round in 0..50 {
            for i in 0..20 {
                g.ensure_edge_by_labels(&format!("T{round}_{i}"), "S", "Hub").unwrap();
            }
            for i in 0..20 {
                g.delete_node_by_label(&format!("T{round}_{i}")).unwrap();
            }
            if round % 10 == 9 {
                g.compact();
            }
        }
        g.compact();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.node_capacity(), 2, "no tombstone slots survive compact");
        assert_eq!(g.edge_capacity(), 1);
        assert!(g.has_edge("Hub", "S", "Root"));
    }

    #[test]
    fn compact_returns_remap_and_preserves_shape() {
        let mut g = abc();
        g.ensure_edge_by_labels("A", "related", "C").unwrap();
        g.delete_node_by_label("B").unwrap();
        let a_old = g.node_by_label("A").unwrap();
        let map = g.compact();
        let a_new = g.node_by_label("A").unwrap();
        assert_eq!(map[&a_old], a_new);
        assert_eq!(map.len(), 2);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.node_capacity(), 2);
        assert!(g.has_edge("A", "related", "C"));
    }

    #[test]
    fn compact_keeps_journal_running() {
        let mut g = OntGraph::new("t");
        g.enable_journal();
        g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        g.delete_node(b).unwrap();
        g.compact();
        g.add_node("C").unwrap();
        let j = g.take_journal();
        // NA(A), NA(B), ND(B), NA(C) — compaction records nothing
        assert_eq!(j.len(), 4);
        assert!(matches!(j[3], GraphOp::NodeAdd { .. }));
    }

    #[test]
    fn same_shape_ignores_ids_and_order() {
        let g1 = abc();
        let mut g2 = OntGraph::new("other-name");
        // build in a different order
        g2.ensure_edge_by_labels("B", "SubclassOf", "C").unwrap();
        g2.ensure_edge_by_labels("A", "SubclassOf", "B").unwrap();
        assert!(g1.same_shape(&g2));
        g2.ensure_edge_by_labels("A", "SubclassOf", "C").unwrap();
        assert!(!g1.same_shape(&g2));
    }

    #[test]
    fn journal_records_all_four_primitives() {
        let mut g = OntGraph::new("t");
        g.enable_journal();
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        let e = g.add_edge(a, "S", b).unwrap();
        g.delete_edge(e).unwrap();
        g.delete_node(b).unwrap();
        let j = g.take_journal();
        assert_eq!(j.len(), 5);
        assert!(matches!(j[0], GraphOp::NodeAdd { .. }));
        assert!(matches!(j[2], GraphOp::EdgeAdd { .. }));
        assert!(matches!(j[3], GraphOp::EdgeDelete { .. }));
        assert!(matches!(j[4], GraphOp::NodeDelete { .. }));
    }

    #[test]
    fn journal_records_cascaded_edge_deletes_before_node_delete() {
        let mut g = abc();
        g.enable_journal();
        g.delete_node_by_label("B").unwrap();
        let j = g.take_journal();
        // two incident edges then the node itself
        assert_eq!(j.len(), 3);
        assert!(matches!(j[0], GraphOp::EdgeDelete { .. }));
        assert!(matches!(j[1], GraphOp::EdgeDelete { .. }));
        assert!(matches!(j[2], GraphOp::NodeDelete { .. }));
    }

    #[test]
    fn churn_keeps_incident_lists_bounded() {
        // regression: dead EdgeIds used to accumulate in out/inc forever,
        // degrading degree queries linearly with historical churn
        let mut g = OntGraph::new("t");
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        for _ in 0..1000 {
            let e = g.add_edge(a, "S", b).unwrap();
            g.delete_edge(e).unwrap();
        }
        g.add_edge(a, "S", b).unwrap();
        assert_eq!(g.nodes[a.index()].out.len(), 1, "out list pruned on delete");
        assert_eq!(g.nodes[b.index()].inc.len(), 1, "inc list pruned on delete");
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(b), 1);
    }

    #[test]
    fn delete_node_prunes_empty_by_label_entry() {
        let mut g = OntGraph::new("t");
        let a = g.add_node("A").unwrap();
        let lid = g.label_id("A").unwrap();
        g.delete_node(a).unwrap();
        assert!(!g.by_label.contains_key(&lid), "empty by_label entry dropped");
        // the label is reusable afterwards
        g.add_node("A").unwrap();
        assert!(g.contains_label("A"));
    }

    #[test]
    fn id_layer_agrees_with_string_layer() {
        let mut g = abc();
        let a = g.node_by_label("A").unwrap();
        let b = g.node_by_label("B").unwrap();
        g.add_edge(a, "related", b).unwrap();
        let s = g.label_id("SubclassOf").unwrap();
        let by_id: Vec<NodeId> = g.out_neighbors_by_id(a, s).collect();
        let by_str: Vec<NodeId> = g.out_neighbors(a, "SubclassOf").collect();
        assert_eq!(by_id, by_str);
        assert_eq!(g.find_edge_by_ids(a, s, b), g.find_edge(a, "SubclassOf", b));
        assert_eq!(g.out_neighbors_by_id(a, s).count(), 1);
        let b_s = g.out_neighbors_by_id(b, s).count() + g.in_neighbors_by_id(b, s).count();
        assert_eq!(b_s, 2, "B has one S in-edge and one S out-edge");
        assert_eq!(g.out_edge_entries(a).count(), g.out_degree(a));
    }

    #[test]
    fn self_loop_counts_once_per_direction_in_labeled_degree() {
        let mut g = OntGraph::new("t");
        let a = g.add_node("A").unwrap();
        g.add_edge(a, "loop", a).unwrap();
        let lid = g.label_id("loop").unwrap();
        assert_eq!(g.out_neighbors_by_id(a, lid).collect::<Vec<_>>(), vec![a]);
        assert_eq!(g.in_neighbors_by_id(a, lid).collect::<Vec<_>>(), vec![a]);
        g.delete_node(a).unwrap();
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn shard_versions_track_exactly_the_touched_shards() {
        let mut g = OntGraph::new("t");
        g.set_shard_count(4);
        let before: Vec<u64> = (0..4).map(|s| g.shard_version(s)).collect();
        let a = g.add_node("A").unwrap(); // index 0 → shard 0
        let b = g.add_node("B").unwrap(); // index 1 → shard 1
        assert_ne!(g.shard_version(0), before[0]);
        assert_ne!(g.shard_version(1), before[1]);
        assert_eq!(g.shard_version(2), before[2]);
        assert_eq!(g.shard_version(3), before[3]);
        let mid: Vec<u64> = (0..4).map(|s| g.shard_version(s)).collect();
        g.add_edge(a, "S", b).unwrap(); // touches only the source's shard 0
        assert_ne!(g.shard_version(0), mid[0]);
        assert_eq!(g.shard_version(1), mid[1], "the target's shard holds no in-rows");
        assert_eq!(g.shard_version(2), mid[2]);
        // deleting B cascades the edge delete (A's shard 0) and the node
        // (shard 1)
        let (e0, e1) = (g.shard_version(0), g.shard_version(1));
        g.delete_node(b).unwrap();
        assert_ne!(g.shard_version(0), e0);
        assert_ne!(g.shard_version(1), e1);
        assert_eq!(g.shard_version(3), mid[3], "shard 3 never touched");
    }

    #[test]
    fn adaptive_shard_count_derivation_is_pinned() {
        // round(√E) clamped to [1, 64] — the exact policy ROADMAP names
        assert_eq!(adaptive_shard_count(0), 1);
        assert_eq!(adaptive_shard_count(1), 1);
        assert_eq!(adaptive_shard_count(2), 1, "√2 ≈ 1.41 rounds down");
        assert_eq!(adaptive_shard_count(3), 2, "√3 ≈ 1.73 rounds up");
        assert_eq!(adaptive_shard_count(64), 8, "matches DEFAULT_SHARD_COUNT at 64 edges");
        assert_eq!(adaptive_shard_count(100), 10);
        assert_eq!(adaptive_shard_count(2500), 50);
        assert_eq!(adaptive_shard_count(4096), 64);
        assert_eq!(adaptive_shard_count(10_000), 64, "√10000 = 100 clamps to 64");
        assert_eq!(adaptive_shard_count(usize::MAX), MAX_ADAPTIVE_SHARDS);
    }

    #[test]
    fn set_shard_count_zero_is_adaptive() {
        let mut g = OntGraph::new("t");
        for i in 0..40 {
            let a = g.ensure_node(&format!("n{i}")).unwrap();
            let b = g.ensure_node(&format!("n{}", i + 1)).unwrap();
            g.add_edge(a, "S", b).unwrap();
        }
        assert_eq!(g.edge_count(), 40);
        g.set_shard_count(0);
        assert_eq!(g.shard_count(), adaptive_shard_count(40));
        assert_eq!(g.shard_count(), 6, "√40 ≈ 6.32 rounds to 6");
        // explicit counts still win
        g.set_shard_count(3);
        assert_eq!(g.shard_count(), 3);
    }

    #[test]
    fn shard_unchanged_since_needs_identity_count_and_stamp() {
        let mut g = abc();
        g.set_shard_count(2);
        let (id, stamps) = (g.graph_id(), g.shard_stamps().to_vec());
        assert!((0..2).all(|s| g.shard_unchanged_since(id, &stamps, s)));
        let a = g.node_by_label("A").unwrap();
        g.add_edge(a, "loop", a).unwrap();
        let edited = g.shard_of(a);
        for s in 0..2 {
            assert_eq!(g.shard_unchanged_since(id, &stamps, s), s != edited, "shard {s}");
        }
        let stamps = g.shard_stamps().to_vec();
        let clone = g.clone();
        assert_eq!(clone.shard_stamps(), &stamps[..], "a clone keeps every stamp");
        assert!(!clone.shard_unchanged_since(id, &stamps, 0), "but not the identity");
        g.set_shard_count(3);
        assert!(!g.shard_unchanged_since(id, &stamps, 0), "nor a re-sharded graph");
    }

    #[test]
    fn clone_and_compact_get_fresh_graph_ids() {
        let mut g = abc();
        let id = g.graph_id();
        let c = g.clone();
        assert_ne!(c.graph_id(), id, "clones diverge under a fresh identity");
        assert_eq!(c.shard_count(), g.shard_count());
        g.compact();
        assert_ne!(g.graph_id(), id, "compaction remaps ids: fresh identity");
    }

    #[test]
    fn edge_triples_sorted_roundtrip() {
        let g = abc();
        let t = g.edge_triples_sorted();
        assert_eq!(
            t,
            vec![
                ("A".to_string(), "SubclassOf".to_string(), "B".to_string()),
                ("B".to_string(), "SubclassOf".to_string(), "C".to_string()),
            ]
        );
    }
}
