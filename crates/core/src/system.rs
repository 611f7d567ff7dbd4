//! [`OnionSystem`]: the assembled architecture of the paper's Fig. 1.

use std::collections::{BTreeMap, HashMap};
use std::mem;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

use onion_articulate::{
    Articulation, ArticulationEngine, ArticulationGenerator, EngineConfig, EngineReport, Expert,
    GeneratorConfig, ImplicationIndex, MatcherPipeline,
};
use onion_exec::{CacheKey, CacheStats, ResultCache};
use onion_graph::wal::{CheckpointStats, Durability, Lsn, RecoveryStats, WalError};
use onion_graph::{GraphOp, OntGraph};
use onion_lexicon::Lexicon;
use onion_ontology::Ontology;
use onion_query::{
    InMemoryWrapper, KnowledgeBase, Query, QueryPlan, ResultRow, ResultSet, Value, Wrapper,
};
use onion_rules::{parse_rules, AtomTable, ConversionRegistry, RuleSet};

/// Errors surfaced by the facade.
#[derive(Debug)]
pub enum SystemError {
    /// Named ontology is not loaded.
    UnknownSource(String),
    /// No articulation generated yet.
    NotArticulated,
    /// Rule text failed to parse.
    Rules(onion_rules::RuleError),
    /// Articulation failed.
    Articulate(onion_articulate::ArticulateError),
    /// Algebra failed.
    Algebra(onion_algebra::AlgebraError),
    /// Query failed.
    Query(onion_query::QueryError),
    /// WAL / checkpoint / recovery failed.
    Durability(WalError),
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::UnknownSource(s) => write!(f, "unknown source ontology {s:?}"),
            SystemError::NotArticulated => write!(f, "no articulation generated yet"),
            SystemError::Rules(e) => write!(f, "{e}"),
            SystemError::Articulate(e) => write!(f, "{e}"),
            SystemError::Algebra(e) => write!(f, "{e}"),
            SystemError::Query(e) => write!(f, "{e}"),
            SystemError::Durability(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SystemError {}

/// Result alias for the facade.
pub type Result<T> = std::result::Result<T, SystemError>;

/// Scope component of the facade's query-cache keys. The cache is
/// per-system and the state epoch is per-system too, so a constant
/// scope suffices; it exists so a future shared/multi-tenant cache can
/// partition by system identity without a key-schema change.
const CACHE_SCOPE: &str = "onion-system";

/// Byte estimate of a cached [`ResultSet`] for the cache's memory
/// accounting: the row structs, one `(name, value)` entry per projected
/// attribute and the bytes of its string values. A row shares its id,
/// class, source and attribute names with the knowledge bases and its
/// sibling rows ([`ResultRow`]), so those strings are not counted.
fn result_weight(rs: &ResultSet) -> usize {
    let mut bytes = mem::size_of::<ResultSet>() + rs.rows.len() * mem::size_of::<ResultRow>();
    for row in &rs.rows {
        bytes += row.attrs.len() * mem::size_of::<(Arc<str>, Value)>();
        for v in row.attrs.values() {
            if let Value::Str(s) = v {
                bytes += s.len();
            }
        }
    }
    bytes
}

/// The assembled ONION system: data layer + articulation engine +
/// algebra + query system (paper Fig. 1).
pub struct OnionSystem {
    lexicon: Lexicon,
    conversions: ConversionRegistry,
    sources: BTreeMap<String, Ontology>,
    kbs: BTreeMap<String, InMemoryWrapper>,
    rules: RuleSet,
    articulation: Option<Articulation>,
    engine_config: EngineConfig,
    /// Shard count applied to every loaded source graph; `0` (the
    /// default) means adaptive ≈√E sizing per graph.
    shard_count: usize,
    /// Per source, the graph identity and shard stamps its latest
    /// publish saw: the next publish counts the shards edited since.
    published: BTreeMap<String, (u64, Vec<u64>)>,
    /// The system-wide atom table backing inference runs. Shared into
    /// every generator the facade builds, so interned symbols and
    /// per-graph label memos persist across articulation and
    /// maintenance cycles.
    atoms: Arc<Mutex<AtomTable>>,
    /// Executor for parallel inference saturation; `None` (the
    /// default) keeps expansion sequential. Threaded into every
    /// generator the facade builds.
    inference_executor: Option<Arc<onion_exec::Executor>>,
    /// Per-source durability handles ([`OnionSystem::open_durable`]).
    /// A durable source's journal is drained into its WAL (and
    /// group-flushed) at every publish, so the in-memory journal only
    /// ever holds the unflushed tail.
    durables: BTreeMap<String, Durability>,
    /// Monotonic facade **state epoch**: bumped by every mutation that
    /// can change a query's answer (sources, KBs, rules, conversions,
    /// articulation, publishes). Part of every query-cache key, so a
    /// bump makes all cached results unaddressable — stale reads are
    /// structurally impossible, no explicit invalidation path exists.
    /// It is the only notion of "query-visible state changed": the
    /// implication index below lives exactly as long as one epoch.
    state_epoch: u64,
    /// The implication index of the current epoch: emptied by every
    /// bump, built at the first query miss after it, and shared by
    /// every later miss (and every batch worker) in the epoch.
    query_index: OnceLock<ImplicationIndex>,
    /// Optional hot-result cache ([`OnionSystem::set_query_cache`]).
    /// `None` (the default) keeps the serving path allocation-free.
    query_cache: Option<ResultCache<ResultSet>>,
}

/// What one [`OnionSystem::publish_source`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishStats {
    /// The state epoch the publish made current
    /// ([`OnionSystem::query_epoch`]).
    pub epoch: u64,
    /// Shards edited since the source's previous publish: each whose
    /// stamp moved, or every shard when there was no previous publish
    /// of this graph identity at this shard count.
    pub rebuilt: usize,
    /// Shards left untouched since the previous publish.
    pub reused: usize,
}

/// What [`OnionSystem::open_durable`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableOpen {
    /// True when the source was recovered from existing durable state;
    /// false when the loaded source bootstrapped a fresh directory.
    pub recovered: bool,
    /// Recovery accounting (recovered case).
    pub recovery: Option<RecoveryStats>,
    /// The initial full checkpoint (bootstrap case).
    pub checkpoint: Option<CheckpointStats>,
}

impl OnionSystem {
    /// System with an explicit lexicon.
    pub fn new(lexicon: Lexicon) -> Self {
        OnionSystem {
            lexicon,
            conversions: ConversionRegistry::standard(),
            sources: BTreeMap::new(),
            kbs: BTreeMap::new(),
            rules: RuleSet::new(),
            articulation: None,
            engine_config: EngineConfig::default(),
            shard_count: 0,
            published: BTreeMap::new(),
            atoms: Arc::new(Mutex::new(AtomTable::new())),
            inference_executor: None,
            durables: BTreeMap::new(),
            state_epoch: 0,
            query_index: OnceLock::new(),
            query_cache: None,
        }
    }

    /// Records that query-visible state changed: bumps the state epoch,
    /// which retires every cached query result at once, and drops the
    /// epoch's implication index.
    fn touch(&mut self) {
        self.state_epoch += 1;
        self.query_index.take();
    }

    /// System with the built-in transportation lexicon (the Fig. 2
    /// domain).
    pub fn with_transport_lexicon() -> Self {
        Self::new(onion_lexicon::builtin::transport_lexicon())
    }

    /// Replaces the engine configuration (articulation namespace,
    /// rounds, inference expansion …). Its `generator.conversions` is
    /// not read: the generator wires inverse bridges from the system's
    /// registry ([`set_conversions`](Self::set_conversions)), the one
    /// queries convert with.
    pub fn set_engine_config(&mut self, config: EngineConfig) {
        self.engine_config = config;
    }

    /// Replaces the conversion registry that queries convert with and
    /// articulation wires inverse bridges from.
    pub fn set_conversions(&mut self, conversions: ConversionRegistry) {
        self.conversions = conversions;
        self.touch();
    }

    // ------------------------------------------------------------------
    // data layer
    // ------------------------------------------------------------------

    /// Loads a source ontology (its graph adopts the system's shard
    /// count).
    pub fn add_source(&mut self, mut ontology: Ontology) {
        ontology.graph_mut().set_shard_count(self.shard_count);
        self.sources.insert(ontology.name().to_string(), ontology);
        self.touch();
    }

    /// Loads instance data for a source.
    pub fn add_knowledge_base(&mut self, kb: KnowledgeBase) {
        self.kbs.insert(kb.name().to_string(), InMemoryWrapper::new(kb));
        self.touch();
    }

    /// Loaded source names.
    pub fn sources(&self) -> Vec<&str> {
        self.sources.keys().map(String::as_str).collect()
    }

    /// A loaded source by name.
    pub fn source(&self, name: &str) -> Option<&Ontology> {
        self.sources.get(name)
    }

    /// Mutable access to a loaded source (to apply updates). Handing
    /// the handle out counts as an edit for cache purposes: the state
    /// epoch is bumped, so no stale cached result can survive whatever
    /// the caller does with it.
    pub fn source_mut(&mut self, name: &str) -> Option<&mut Ontology> {
        if self.sources.contains_key(name) {
            self.touch();
        }
        self.sources.get_mut(name)
    }

    // ------------------------------------------------------------------
    // shard configuration + publish
    // ------------------------------------------------------------------

    /// The configured shard count: `0` means adaptive (each graph is
    /// sized ≈√E by [`onion_graph::adaptive_shard_count`]), any other
    /// value is applied to every loaded source graph.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Reconfigures the shard count for every loaded source graph and
    /// for sources loaded later. `0` selects adaptive ≈√E sizing per
    /// graph (the default); explicit counts pin the layout. Every shard
    /// is freshly stamped, so the next publish counts all of them and
    /// the next checkpoint rewrites all of them.
    pub fn set_shard_count(&mut self, count: usize) {
        self.shard_count = count;
        for ontology in self.sources.values_mut() {
            ontology.graph_mut().set_shard_count(count);
        }
    }

    /// Publishes the current state of a source: a durable source
    /// ([`OnionSystem::open_durable`]) first drains its journal tail
    /// into the WAL as one committed batch and group-flushes it, then
    /// the state epoch moves, so every later query and checkpoint reads
    /// a recoverable cut. Returns the commit LSN of a durable publish
    /// (`None` for an in-memory source) and the [`PublishStats`]: the
    /// shards edited since the source's previous publish, by the rule
    /// checkpoints reuse shard files by
    /// ([`OntGraph::shard_unchanged_since`]).
    ///
    /// With the adaptive shard policy (no explicit
    /// [`OnionSystem::set_shard_count`]), the first publish of a source
    /// re-derives its ≈√E layout from the edge count at that moment, so
    /// a graph grown substantially between load and first publish still
    /// gets a right-sized layout; later publishes keep it stable, so
    /// checkpoints stay incremental.
    pub fn publish_source(&mut self, name: &str) -> Result<(Option<Lsn>, PublishStats)> {
        let lsn = self.flush_durable(name)?;
        let _span = onion_obs::span!("publish");
        let ontology = self
            .sources
            .get_mut(name)
            .ok_or_else(|| SystemError::UnknownSource(name.to_string()))?;
        let last = self.published.get(name);
        if self.shard_count == 0 && last.is_none() {
            ontology.graph_mut().set_shard_count(0);
        }
        let g = ontology.graph();
        let rebuilt = (0..g.shard_count())
            .filter(|&s| !last.is_some_and(|(id, stamps)| g.shard_unchanged_since(*id, stamps, s)))
            .count();
        let reused = g.shard_count() - rebuilt;
        self.published.insert(name.to_string(), (g.graph_id(), g.shard_stamps().to_vec()));
        self.touch();
        onion_obs::count!("onion_publish_total");
        onion_obs::count!("onion_publish_shards_rebuilt_total", rebuilt);
        onion_obs::count!("onion_publish_shards_reused_total", reused);
        Ok((lsn, PublishStats { epoch: self.state_epoch, rebuilt, reused }))
    }

    // ------------------------------------------------------------------
    // query cache
    // ------------------------------------------------------------------

    /// The facade-level state epoch: monotonic, bumped by every
    /// mutation that can change a query's answer (loading sources or
    /// KBs, rules, conversions, articulation, `source_mut` access,
    /// publishes). This is the epoch component of every query-cache
    /// key, so comparing two readings tells whether cached results
    /// from the first reading are still servable.
    ///
    /// It is the facade's only notion of "query-visible state
    /// changed": the result cache keys on it, the implication index is
    /// built once per epoch, at its first query miss, and
    /// [`PublishStats::epoch`] reports the epoch a publish made
    /// current.
    pub fn query_epoch(&self) -> u64 {
        self.state_epoch
    }

    /// Enables the hot-result query cache, bounded at `capacity`
    /// entries (`0` disables and drops it). Cached entries are keyed by
    /// `(scope, state epoch, canonical query text)`; any mutation bumps
    /// the epoch and thereby retires every cached result — a stale hit
    /// after an edit is structurally impossible. Cache-served results
    /// are byte-identical to re-execution (the stored value *is* the
    /// executed `ResultSet`, shared by `Arc`).
    pub fn set_query_cache(&mut self, capacity: usize) {
        self.query_cache = if capacity == 0 { None } else { Some(ResultCache::new(capacity)) };
    }

    /// The cache's counters (hits, misses, insertions, evictions, live
    /// entries / bytes), or `None` while the cache is disabled. The
    /// same counts flow into the `onion_query_cache_*` series of
    /// [`OnionSystem::metrics_snapshot`] when observability is on.
    pub fn query_cache_stats(&self) -> Option<CacheStats> {
        self.query_cache.as_ref().map(ResultCache::stats)
    }

    // ------------------------------------------------------------------
    // observability
    // ------------------------------------------------------------------

    /// Turns observability recording on or off (process-wide; recording
    /// is off by default and every instrumented hot path then costs one
    /// relaxed atomic load). Everything recorded so far stays readable
    /// through [`OnionSystem::metrics_snapshot`].
    pub fn set_observability(&self, on: bool) {
        onion_obs::set_enabled(on);
    }

    /// The process-wide metrics registry every instrumented layer
    /// (publish, WAL, checkpoints, inference, query batches) records
    /// into while observability is enabled.
    pub fn metrics(&self) -> &'static onion_obs::Registry {
        onion_obs::global()
    }

    /// A point-in-time read of every recorded metric; render it with
    /// [`MetricsSnapshot::to_json`](onion_obs::MetricsSnapshot::to_json)
    /// or
    /// [`to_prometheus`](onion_obs::MetricsSnapshot::to_prometheus).
    pub fn metrics_snapshot(&self) -> onion_obs::MetricsSnapshot {
        onion_obs::global().snapshot()
    }

    // ------------------------------------------------------------------
    // durability: WAL + checkpoints + recovery
    // ------------------------------------------------------------------

    /// Attaches durable storage under `dir` to the source `name`.
    ///
    /// * If `dir` already holds durable state, the source is
    ///   **recovered** from it — newest complete checkpoint manifest,
    ///   clean shards restored, committed WAL suffix replayed — loaded
    ///   (replacing any in-memory source of the same name), and
    ///   re-published.
    /// * Otherwise the already-loaded source **bootstraps** `dir`: its
    ///   full content is logged as the first committed batch, published,
    ///   and checkpointed, so recovery works even if the first manifest
    ///   is later torn.
    ///
    /// From then on the source's journal is the unflushed WAL tail:
    /// every [`OnionSystem::publish_source`] drains and group-flushes
    /// it, and [`OnionSystem::checkpoint_source`] bounds both the
    /// journal and the WAL itself.
    ///
    /// Ops are journaled and replayed label-addressed (§3; a label names
    /// at most one node), so recovery is identity-preserving at the
    /// label level (node ids may compact).
    pub fn open_durable(&mut self, name: &str, dir: impl AsRef<Path>) -> Result<DurableOpen> {
        let dir = dir.as_ref();
        if Durability::has_state(dir) {
            let (mut g, dur, recovery) = Durability::open(dir).map_err(SystemError::Durability)?;
            if dur.name() != name {
                return Err(SystemError::Durability(WalError::Unsupported(format!(
                    "durable directory belongs to source {:?}, not {name:?}",
                    dur.name()
                ))));
            }
            g.enable_journal();
            self.add_source(onion_ontology::Ontology::from_graph(g));
            self.durables.insert(name.to_string(), dur);
            self.publish_source(name)?;
            Ok(DurableOpen { recovered: true, recovery: Some(recovery), checkpoint: None })
        } else {
            let ontology = self.get_source(name)?;
            let g = ontology.graph();
            // Bootstrap batch: the source's full content as ops, so the
            // WAL alone can rebuild it if the first manifest tears.
            let mut ops: Vec<GraphOp> =
                g.node_ids().map(|n| GraphOp::node_add(g.node_label(n).expect("live"))).collect();
            let triples: Vec<(String, String, String)> = g
                .edges()
                .map(|e| {
                    (
                        g.node_label(e.src).expect("live").to_string(),
                        e.label.to_string(),
                        g.node_label(e.dst).expect("live").to_string(),
                    )
                })
                .collect();
            for chunk in triples.chunks(4096) {
                ops.push(GraphOp::EdgeAdd { edges: chunk.to_vec() });
            }
            let mut dur = Durability::create(dir, name).map_err(SystemError::Durability)?;
            dur.log_batch(&ops);
            dur.flush().map_err(SystemError::Durability)?;
            let graph = self.sources.get_mut(name).expect("checked above").graph_mut();
            // Any pre-durability journal is already covered by the
            // bootstrap batch; journaling starts fresh from here.
            graph.take_journal();
            graph.enable_journal();
            self.durables.insert(name.to_string(), dur);
            self.publish_source(name)?;
            let stats = self.checkpoint_source(name)?;
            Ok(DurableOpen { recovered: false, recovery: None, checkpoint: Some(stats) })
        }
    }

    /// Flushes and checkpoints a durable source: journal tail → WAL
    /// (committed + group-flushed) by a publish, then a
    /// **shard-incremental** checkpoint of the graph at that commit LSN
    /// — only shards whose version stamps changed since the previous
    /// checkpoint are encoded and written, and WAL segments no longer
    /// needed for recovery are retired.
    pub fn checkpoint_source(&mut self, name: &str) -> Result<CheckpointStats> {
        if !self.durables.contains_key(name) {
            return Err(SystemError::Durability(WalError::Unsupported(format!(
                "source {name:?} is not durable; call open_durable first"
            ))));
        }
        let (lsn, _) = self.publish_source(name)?;
        let lsn = lsn.expect("a durable publish returns its commit LSN");
        let dur = self.durables.get_mut(name).expect("checked above");
        dur.checkpoint(self.sources[name].graph(), lsn).map_err(SystemError::Durability)
    }

    /// Recovers a graph from a durable directory without loading it
    /// into a system — the raw recovery entry point (inspection,
    /// tests, offline tooling). Equivalent to what
    /// [`OnionSystem::open_durable`] does internally for existing state.
    pub fn recover(dir: impl AsRef<Path>) -> Result<(OntGraph, RecoveryStats)> {
        let (g, _dur, stats) = Durability::open(dir).map_err(SystemError::Durability)?;
        Ok((g, stats))
    }

    /// The durability handle of a source, if `open_durable` attached
    /// one (observability: manifests, WAL segments, unflushed bytes).
    pub fn durable(&self, name: &str) -> Option<&Durability> {
        self.durables.get(name)
    }

    /// Drains a durable source's journal tail into its WAL as one
    /// committed, group-flushed batch. Returns the durable LSN, or
    /// `None` when `name` isn't durable.
    fn flush_durable(&mut self, name: &str) -> Result<Option<Lsn>> {
        let Some(dur) = self.durables.get_mut(name) else {
            return Ok(None);
        };
        let ontology = self
            .sources
            .get_mut(name)
            .ok_or_else(|| SystemError::UnknownSource(name.to_string()))?;
        let ops = ontology.graph_mut().drain_journal();
        dur.log_batch(&ops);
        let lsn = dur.flush().map_err(SystemError::Durability)?;
        Ok(Some(lsn))
    }

    /// Adds expert articulation rules in the textual syntax.
    pub fn add_rules(&mut self, text: &str) -> Result<usize> {
        let rs = parse_rules(text).map_err(SystemError::Rules)?;
        self.touch();
        Ok(self.rules.extend_dedup(&rs))
    }

    /// The confirmed rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    // ------------------------------------------------------------------
    // articulation
    // ------------------------------------------------------------------

    fn get_source(&self, name: &str) -> Result<&Ontology> {
        self.sources.get(name).ok_or_else(|| SystemError::UnknownSource(name.to_string()))
    }

    /// A handle to the system-wide atom table (symbol interning shared
    /// by every inference run the facade triggers). Exposed for
    /// observability — e.g. asserting that repeated cycles stop
    /// interning once the vocabulary is warm.
    pub fn atom_table(&self) -> Arc<Mutex<AtomTable>> {
        Arc::clone(&self.atoms)
    }

    /// Runs inference expansion's saturation on `threads` threads
    /// (`0` = one per available CPU): each round's semi-naive work
    /// units are cut into delta-row ranges that run on the executor and
    /// merge in a fixed order (see `onion_exec::inference`); seeding is
    /// the same graph walk as without it. Only takes effect when the
    /// engine config turns `expand_with_inference` on. The
    /// articulation and the generator's stats are identical to the
    /// sequential path's at every shard and thread count — this is a
    /// throughput knob, not a semantics knob.
    pub fn set_parallel_inference(&mut self, threads: usize) {
        let exec = match threads {
            0 => onion_exec::Executor::with_default_parallelism(),
            n => onion_exec::Executor::new(n),
        };
        self.inference_executor = Some(Arc::new(exec));
    }

    /// The configured generator settings with the system's conversion
    /// registry, shared atom table (and parallel-inference executor,
    /// when enabled) threaded in.
    fn generator_config(&self) -> GeneratorConfig {
        let mut config = self.engine_config.generator.clone();
        config.conversions = self.conversions.clone();
        config.atoms = Some(Arc::clone(&self.atoms));
        if config.executor.is_none() {
            config.executor = self.inference_executor.clone();
        }
        config
    }

    /// Runs the iterative articulation engine between two loaded
    /// sources, seeding it with the rules added so far. The confirmed
    /// rules and generated articulation are stored on the system.
    pub fn articulate(
        &mut self,
        left: &str,
        right: &str,
        expert: &mut dyn Expert,
    ) -> Result<EngineReport> {
        let l = self.get_source(left)?;
        let r = self.get_source(right)?;
        let mut engine_config = self.engine_config.clone();
        engine_config.generator = self.generator_config();
        let engine = ArticulationEngine::new(MatcherPipeline::standard(self.lexicon.clone()))
            .with_config(engine_config);
        let (articulation, report) =
            engine.run(l, r, expert, self.rules.clone()).map_err(SystemError::Articulate)?;
        self.rules = articulation.rules.clone();
        self.articulation = Some(articulation);
        self.touch();
        Ok(report)
    }

    /// Generates the articulation purely from the added rules (no
    /// matcher proposals — the "manual expert" path).
    pub fn articulate_from_rules(&mut self, left: &str, right: &str) -> Result<&Articulation> {
        let l = self.get_source(left)?;
        let r = self.get_source(right)?;
        let generator = ArticulationGenerator::with_config(self.generator_config());
        let articulation =
            generator.generate(&self.rules, &[l, r]).map_err(SystemError::Articulate)?;
        self.articulation = Some(articulation);
        self.touch();
        Ok(self.articulation.as_ref().expect("just set"))
    }

    /// The current articulation.
    pub fn articulation(&self) -> Option<&Articulation> {
        self.articulation.as_ref()
    }

    /// Installs a precomputed articulation (loaded from persistence or
    /// generated out-of-band); its confirmed rules replace the
    /// system's. The sources it references must be loaded before
    /// querying.
    pub fn set_articulation(&mut self, articulation: Articulation) {
        self.rules = articulation.rules.clone();
        self.articulation = Some(articulation);
        self.touch();
    }

    // ------------------------------------------------------------------
    // algebra
    // ------------------------------------------------------------------

    fn articulated_pair(&self) -> Result<(&Articulation, Vec<&Ontology>)> {
        let art = self.articulation.as_ref().ok_or(SystemError::NotArticulated)?;
        let names = art.source_names();
        let mut sources = Vec::with_capacity(names.len());
        for n in names {
            sources.push(self.get_source(n)?);
        }
        Ok((art, sources))
    }

    /// The unified ontology graph (§5.1 Union), computed on demand.
    pub fn union(&self) -> Result<OntGraph> {
        let (art, sources) = self.articulated_pair()?;
        art.unified(&sources).map_err(SystemError::Articulate)
    }

    /// The intersection ontology (§5.2) — the articulation ontology.
    pub fn intersection(&self) -> Result<&Ontology> {
        Ok(&self.articulation.as_ref().ok_or(SystemError::NotArticulated)?.ontology)
    }

    /// The difference `left − right` (§5.3).
    pub fn difference(
        &self,
        left: &str,
        right: &str,
    ) -> Result<(OntGraph, onion_algebra::DifferenceReport)> {
        let art = self.articulation.as_ref().ok_or(SystemError::NotArticulated)?;
        let l = self.get_source(left)?;
        let r = self.get_source(right)?;
        onion_algebra::difference(l, r, art).map_err(SystemError::Algebra)
    }

    // ------------------------------------------------------------------
    // query system
    // ------------------------------------------------------------------

    /// Plans and executes a textual query (articulation vocabulary)
    /// against the loaded knowledge bases.
    pub fn query(&self, text: &str) -> Result<ResultSet> {
        let q = Query::parse(text).map_err(SystemError::Query)?;
        self.run_query(&q)
    }

    /// Executes a pre-built query. Planning reuses the epoch's
    /// implication index (built here if this is the epoch's first
    /// miss); the result equals [`onion_query::execute`] over the same
    /// articulation, sources and knowledge bases.
    pub fn run_query(&self, query: &Query) -> Result<ResultSet> {
        let (art, sources) = self.articulated_pair()?;
        let plan = self.plan_query(query, art, &sources)?;
        let wrappers: Vec<&dyn Wrapper> = self.kbs.values().map(|w| w as &dyn Wrapper).collect();
        onion_query::exec::execute_plan(&plan, art, &sources, &self.conversions, &wrappers)
            .map_err(SystemError::Query)
    }

    /// Plans `query` through the current epoch's implication index,
    /// building it first if the epoch has none yet. Concurrent callers
    /// (a batch's workers) wait for one build and share it; every build
    /// counts in `onion_query_index_builds_total`.
    fn plan_query(
        &self,
        query: &Query,
        art: &Articulation,
        sources: &[&Ontology],
    ) -> Result<QueryPlan> {
        let index = self.query_index.get_or_init(|| {
            onion_obs::count!("onion_query_index_builds_total");
            ImplicationIndex::new(art, sources)
        });
        onion_query::plan_indexed(query, index, art, sources, &self.conversions)
            .map_err(SystemError::Query)
    }

    /// Executes a batch of pre-built queries in parallel on `exec`,
    /// returning per-query results in input order. Equal results are
    /// shared: a query appearing `k` times in the batch is planned and
    /// executed once and its `Arc` handed to all `k` slots.
    ///
    /// The batch scheduler: queries are **canonicalised** (display
    /// form, which round-trips through the parser), exact duplicates
    /// **deduped** within the batch, the whole batch pinned to one
    /// state epoch, only unique cache misses executed in parallel, and
    /// the shared results scattered back in input order. With a cache
    /// enabled ([`OnionSystem::set_query_cache`]), repeats across
    /// batches at an unchanged epoch are served without executing
    /// anything.
    ///
    /// The system is read-only for the whole batch (`&self`), so every
    /// worker plans and executes against the same articulation state.
    /// Result *values* are identical to calling
    /// [`OnionSystem::run_query`] per query sequentially, for every
    /// thread count, cache on or off.
    pub fn run_batch(
        &self,
        exec: &onion_exec::Executor,
        queries: &[Query],
    ) -> Vec<Result<Arc<ResultSet>>> {
        let _span = onion_obs::span!("query_batch");
        onion_obs::count!("onion_query_batch_queries_total", queries.len());
        let refs: Vec<&Query> = queries.iter().collect();
        self.run_batch_scheduled(exec, &refs)
    }

    /// Parses and executes a batch of textual queries in parallel
    /// (per-query errors stay per-query; a parse failure does not
    /// affect its batch siblings). Parsed queries go through the same
    /// dedup + cache scheduler as [`OnionSystem::run_batch`].
    pub fn query_batch(
        &self,
        exec: &onion_exec::Executor,
        texts: &[&str],
    ) -> Vec<Result<Arc<ResultSet>>> {
        let _span = onion_obs::span!("query_batch");
        onion_obs::count!("onion_query_batch_queries_total", texts.len());
        let parsed: Vec<Result<Query>> =
            texts.iter().map(|t| Query::parse(t).map_err(SystemError::Query)).collect();
        let ok_refs: Vec<&Query> = parsed.iter().filter_map(|p| p.as_ref().ok()).collect();
        let mut executed = self.run_batch_scheduled(exec, &ok_refs).into_iter();
        parsed
            .into_iter()
            .map(|p| match p {
                Ok(_) => executed.next().expect("one executed result per parsed query"),
                Err(e) => Err(e),
            })
            .collect()
    }

    /// The shared batch scheduler: canonicalise → dedup → probe the
    /// cache under the pinned epoch → execute unique misses in
    /// parallel → fill the cache → scatter `Arc`s in input order.
    ///
    /// `SystemError` is not `Clone`, so when a deduped query fails the
    /// first occurrence takes the original error and later occurrences
    /// re-execute individually (execution under `&self` is
    /// deterministic, so they fail the same way).
    fn run_batch_scheduled(
        &self,
        exec: &onion_exec::Executor,
        queries: &[&Query],
    ) -> Vec<Result<Arc<ResultSet>>> {
        let epoch = self.state_epoch;
        let keys: Vec<String> = queries.iter().map(|q| q.to_string()).collect();
        // key → unique slot; uniq_first[slot] = first input index
        let mut slot_of: HashMap<&str, usize> = HashMap::new();
        let mut uniq_first: Vec<usize> = Vec::new();
        let mut assign: Vec<usize> = Vec::with_capacity(queries.len());
        for (i, key) in keys.iter().enumerate() {
            let slot = *slot_of.entry(key.as_str()).or_insert_with(|| {
                uniq_first.push(i);
                uniq_first.len() - 1
            });
            assign.push(slot);
        }
        let duplicates = queries.len() - uniq_first.len();
        if duplicates > 0 {
            onion_obs::count!("onion_query_batch_dedup_total", duplicates);
        }

        // probe the cache under the pinned epoch
        let mut slot_results: Vec<Option<Result<Arc<ResultSet>>>> = Vec::new();
        slot_results.resize_with(uniq_first.len(), || None);
        let mut misses: Vec<usize> = Vec::new();
        for (slot, &i) in uniq_first.iter().enumerate() {
            match self
                .query_cache
                .as_ref()
                .and_then(|c| c.get(&CacheKey::new(CACHE_SCOPE, epoch, keys[i].clone())))
            {
                Some(hit) => slot_results[slot] = Some(Ok(hit)),
                None => misses.push(slot),
            }
        }

        // execute only the unique misses in parallel
        let computed = exec.par_map(&misses, |&slot| self.run_query(queries[uniq_first[slot]]));
        for (&slot, res) in misses.iter().zip(computed) {
            let res = res.map(Arc::new);
            if let (Some(cache), Ok(v)) = (self.query_cache.as_ref(), &res) {
                cache.insert(
                    CacheKey::new(CACHE_SCOPE, epoch, keys[uniq_first[slot]].clone()),
                    Arc::clone(v),
                    result_weight(v),
                );
            }
            slot_results[slot] = Some(res);
        }

        // scatter in input order; an erred slot is taken by its first
        // occurrence and re-executed for the rest
        assign
            .into_iter()
            .map(|slot| {
                let entry = &mut slot_results[slot];
                match entry {
                    Some(Ok(v)) => Ok(Arc::clone(v)),
                    Some(Err(_)) => entry.take().expect("checked Some"),
                    None => self.run_query(queries[uniq_first[slot]]).map(Arc::new),
                }
            })
            .collect()
    }

    /// Renders the query plan for a textual query (the viewer's
    /// "explain").
    pub fn explain(&self, text: &str) -> Result<String> {
        let q = Query::parse(text).map_err(SystemError::Query)?;
        let (art, sources) = self.articulated_pair()?;
        Ok(self.plan_query(&q, art, &sources)?.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onion_articulate::AcceptAll;
    use onion_ontology::examples::{carrier, factory, fig2_rules_text};
    use onion_query::{CmpOp, Instance, QueryError, Value};

    fn loaded() -> OnionSystem {
        let mut s = OnionSystem::with_transport_lexicon();
        s.add_source(carrier());
        s.add_source(factory());
        s
    }

    #[test]
    fn sources_listed_sorted() {
        let s = loaded();
        assert_eq!(s.sources(), vec!["carrier", "factory"]);
        assert!(s.source("carrier").is_some());
        assert!(s.source("nope").is_none());
    }

    #[test]
    fn rules_then_manual_articulation() {
        let mut s = loaded();
        let added = s.add_rules(fig2_rules_text()).unwrap();
        assert!(added >= 10);
        let art = s.articulate_from_rules("carrier", "factory").unwrap();
        assert!(art.bridges.len() >= 12);
        assert!(s.union().unwrap().node_count() > 0);
        assert_eq!(s.intersection().unwrap().name(), "transport");
    }

    #[test]
    fn engine_articulation_and_query() {
        let mut s = loaded();
        s.add_rules(fig2_rules_text()).unwrap();
        let report = s.articulate("carrier", "factory", &mut AcceptAll).unwrap();
        assert!(report.accepted > 0);

        let mut ckb = KnowledgeBase::new("carrier");
        ckb.add(Instance::new("MyCar", "Cars").with("Price", Value::Num(2203.71)));
        s.add_knowledge_base(ckb);
        let rs = s.query("find Vehicle(Price)").unwrap();
        assert_eq!(rs.len(), 1);
        assert!((rs.rows[0].attrs["Price"].as_num().unwrap() - 1000.0).abs() < 1e-6);

        let plan = s.explain("find Vehicle(Price) where Price < 5000").unwrap();
        assert!(plan.contains("carrier"));
    }

    #[test]
    fn parallel_inference_through_facade_matches_sequential() {
        let articulated = |threads: Option<usize>| {
            let mut s = loaded();
            let mut cfg = EngineConfig::default();
            cfg.generator.expand_with_inference = true;
            s.set_engine_config(cfg);
            if let Some(t) = threads {
                s.set_parallel_inference(t);
            }
            s.add_rules(fig2_rules_text()).unwrap();
            let report = s.articulate("carrier", "factory", &mut AcceptAll).unwrap();
            let mut bridges: Vec<String> =
                s.articulation().unwrap().bridges.iter().map(|b| format!("{b:?}")).collect();
            bridges.sort();
            (report, bridges)
        };
        // everything but the generator's engine-specific work counters
        // (`atoms_examined`, `worker_merge_facts`), which measure each
        // engine's own join and merge
        let key = |r: &EngineReport| {
            let g = &r.generator;
            let rounds: Vec<(usize, usize)> =
                g.inference.rounds.iter().map(|r| (r.delta, r.derived)).collect();
            let session = EngineReport { generator: Default::default(), ..r.clone() };
            let counters = (g.seeded_facts, g.derived_bridges);
            (session, counters, g.inference.derived, g.inference.iterations, rounds)
        };
        let (seq_report, seq_bridges) = articulated(None);
        assert!(seq_report.generator.inference.derived > 0, "inference ran");
        for t in [1, 4] {
            let (report, bridges) = articulated(Some(t));
            assert_eq!(key(&report), key(&seq_report), "threads={t}");
            assert_eq!(bridges, seq_bridges, "threads={t}");
        }
    }

    #[test]
    fn difference_through_facade() {
        let mut s = loaded();
        s.add_rules("carrier.Cars => factory.Vehicle\n").unwrap();
        s.articulate_from_rules("carrier", "factory").unwrap();
        let (d, report) = s.difference("carrier", "factory").unwrap();
        assert!(!d.contains_label("Cars"));
        assert_eq!(report.determined, vec!["Cars"]);
        let (d2, r2) = s.difference("factory", "carrier").unwrap();
        assert!(d2.contains_label("Vehicle"));
        assert_eq!(r2.removed(), 0);
    }

    #[test]
    fn run_batch_matches_sequential_queries_at_any_thread_count() {
        let mut s = loaded();
        s.add_rules(fig2_rules_text()).unwrap();
        s.articulate("carrier", "factory", &mut AcceptAll).unwrap();
        let mut ckb = KnowledgeBase::new("carrier");
        ckb.add(Instance::new("MyCar", "Cars").with("Price", Value::Num(2203.71)));
        ckb.add(Instance::new("suv1", "SUV").with("Price", Value::Num(22037.1)));
        s.add_knowledge_base(ckb);

        let queries: Vec<Query> = [
            "find Vehicle(Price)",
            "find Vehicle(Price) where Price < 5000",
            "find CargoCarrier(Price)",
        ]
        .iter()
        .map(|t| Query::parse(t).unwrap())
        .collect();
        let sequential: Vec<ResultSet> = queries.iter().map(|q| s.run_query(q).unwrap()).collect();
        for threads in [1, 2, 4] {
            let exec = onion_exec::Executor::new(threads);
            let batch = s.run_batch(&exec, &queries);
            assert_eq!(batch.len(), queries.len());
            for (got, want) in batch.into_iter().zip(&sequential) {
                assert_eq!(got.unwrap().as_ref(), want, "threads={threads}");
            }
        }
    }

    #[test]
    fn run_batch_dedups_exact_duplicates() {
        let mut s = loaded();
        s.add_rules(fig2_rules_text()).unwrap();
        s.articulate("carrier", "factory", &mut AcceptAll).unwrap();
        let mut ckb = KnowledgeBase::new("carrier");
        ckb.add(Instance::new("MyCar", "Cars").with("Price", Value::Num(2203.71)));
        s.add_knowledge_base(ckb);
        let q = |t: &str| Query::parse(t).unwrap();
        let queries =
            vec![q("find Vehicle(Price)"), q("find Truck(Price)"), q("find Vehicle(Price)")];
        let exec = onion_exec::Executor::new(2);
        // dedup is on even with the cache disabled: duplicate slots
        // share one Arc
        let out = s.run_batch(&exec, &queries);
        let a = out[0].as_ref().unwrap();
        let c = out[2].as_ref().unwrap();
        assert!(Arc::ptr_eq(a, c), "duplicates share the executed result");
        assert_eq!(a.len(), 1);
    }

    /// `Query::all("Vehicle(Price)")` names a class that does not exist
    /// and `find Vehicle(Price)` selects `Price` from `Vehicle`. Both
    /// used to print as `find Vehicle(Price)`, so they shared a dedup
    /// slot and a cache key.
    #[test]
    fn run_batch_keeps_queries_that_printed_alike_apart() {
        let mut s = loaded();
        s.add_rules(fig2_rules_text()).unwrap();
        s.articulate("carrier", "factory", &mut AcceptAll).unwrap();
        let mut ckb = KnowledgeBase::new("carrier");
        ckb.add(Instance::new("MyCar", "Cars").with("Price", Value::Num(2203.71)));
        s.add_knowledge_base(ckb);
        let odd = Query::all("Vehicle(Price)");
        let valid = Query::all("Vehicle").select("Price");
        assert_eq!(odd.to_string(), r#"find "Vehicle(Price)""#);
        assert_eq!(valid.to_string(), "find Vehicle(Price)");
        let unknown = |r: &Result<Arc<ResultSet>>| matches!(r, Err(SystemError::Query(QueryError::UnknownClass(c))) if c == "Vehicle(Price)");
        let rows = |r: &Result<Arc<ResultSet>>| r.as_ref().map(|rs| rs.len()).ok();
        let exec = onion_exec::Executor::new(2);
        for batch in [[odd.clone(), valid.clone()], [valid.clone(), odd.clone()]] {
            let out = s.run_batch(&exec, &batch);
            let (o, v) = if batch[0] == odd { (&out[0], &out[1]) } else { (&out[1], &out[0]) };
            assert!(unknown(o));
            assert_eq!(rows(v), Some(1));
        }
        // across batches with a cache: each is answered as itself
        s.set_query_cache(8);
        for _ in 0..2 {
            assert_eq!(rows(&s.run_batch(&exec, std::slice::from_ref(&valid))[0]), Some(1));
            assert!(unknown(&s.run_batch(&exec, std::slice::from_ref(&odd))[0]));
        }
        assert_eq!(s.query_cache_stats().unwrap().hits, 1, "only the valid repeat hits");
    }

    /// The cache's byte estimate for two rows: the row structs, plus
    /// one entry per projected attribute and its string bytes. Ids,
    /// classes and names are shared, not counted.
    #[test]
    fn result_weight_counts_rows_and_attribute_entries() {
        let mut s = loaded();
        s.add_rules(fig2_rules_text()).unwrap();
        s.articulate_from_rules("carrier", "factory").unwrap();
        let mut ckb = KnowledgeBase::new("carrier");
        ckb.add(
            Instance::new("car0", "Cars")
                .with("Price", Value::Num(2203.71))
                .with("Owner", Value::Str("Ann".into())),
        );
        ckb.add(Instance::new("car1", "Cars").with("Price", Value::Num(4407.42)));
        s.add_knowledge_base(ckb);
        let bare = s.query("find Vehicle").unwrap();
        let projected = s.query("find Vehicle(Price, Owner)").unwrap();
        assert_eq!((bare.len(), projected.len()), (2, 2));
        let (set, row, pair) = (
            mem::size_of::<ResultSet>(),
            mem::size_of::<ResultRow>(),
            mem::size_of::<(Arc<str>, Value)>(),
        );
        assert_eq!(result_weight(&bare), set + 2 * row);
        // car0 projects Owner ("Ann") and Price, car1 only Price
        assert_eq!(result_weight(&projected), set + 2 * row + 3 * pair + "Ann".len());
        if cfg!(target_pointer_width = "64") {
            assert_eq!((set, row, pair), (24, 72, 40));
            assert_eq!((result_weight(&bare), result_weight(&projected)), (168, 291));
        }
    }

    #[test]
    fn query_cache_hits_repeat_batches_and_epoch_bump_invalidates() {
        let mut s = loaded();
        s.add_rules(fig2_rules_text()).unwrap();
        s.articulate("carrier", "factory", &mut AcceptAll).unwrap();
        let mut ckb = KnowledgeBase::new("carrier");
        ckb.add(Instance::new("MyCar", "Cars").with("Price", Value::Num(2203.71)));
        s.add_knowledge_base(ckb);
        s.set_query_cache(64);
        let exec = onion_exec::Executor::new(2);
        let queries = vec![Query::parse("find Vehicle(Price)").unwrap()];

        let cold = s.run_batch(&exec, &queries);
        let stats = s.query_cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        let warm = s.run_batch(&exec, &queries);
        let stats = s.query_cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(cold[0].as_ref().unwrap(), warm[0].as_ref().unwrap());
        assert!(
            Arc::ptr_eq(cold[0].as_ref().unwrap(), warm[0].as_ref().unwrap()),
            "warm hit serves the cached Arc"
        );

        // any mutation bumps the state epoch: the next batch misses
        // and reflects the new data
        let before = s.query_epoch();
        let mut ckb2 = KnowledgeBase::new("carrier");
        ckb2.add(Instance::new("MyCar", "Cars").with("Price", Value::Num(2203.71)));
        ckb2.add(Instance::new("suv9", "Cars").with("Price", Value::Num(440.742)));
        s.add_knowledge_base(ckb2);
        assert!(s.query_epoch() > before);
        let fresh = s.run_batch(&exec, &queries);
        assert_eq!(fresh[0].as_ref().unwrap().len(), 2, "stale hit after an edit is forbidden");

        // disabling drops the cache
        s.set_query_cache(0);
        assert!(s.query_cache_stats().is_none());
    }

    #[test]
    fn query_batch_keeps_errors_per_query() {
        let mut s = loaded();
        s.add_rules(fig2_rules_text()).unwrap();
        s.articulate_from_rules("carrier", "factory").unwrap();
        let exec = onion_exec::Executor::new(2);
        let out = s.query_batch(&exec, &["find Vehicle(Price)", "not a query"]);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(SystemError::Query(_))));
    }

    #[test]
    fn quoted_operators_and_keywords_match_their_rows() {
        let mut s = loaded();
        s.add_rules(fig2_rules_text()).unwrap();
        s.articulate_from_rules("carrier", "factory").unwrap();
        let owners = ["a<b", "x!=y", "Smith and Sons", r#"say "hi""#];
        let mut ckb = KnowledgeBase::new("carrier");
        for (i, owner) in owners.iter().enumerate() {
            ckb.add(
                Instance::new(&format!("car{i}"), "Cars")
                    .with("Owner", Value::Str(owner.to_string())),
            );
        }
        s.add_knowledge_base(ckb);
        let texts: Vec<String> = owners
            .iter()
            .map(|o| {
                Query::all("Vehicle")
                    .select("Owner")
                    .filter("Owner", CmpOp::Eq, Value::Str(o.to_string()))
                    .to_string()
            })
            .collect();
        assert_eq!(texts[0], r#"find Vehicle(Owner) where Owner = "a<b""#);
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let out = s.query_batch(&onion_exec::Executor::new(2), &refs);
        for (i, (rs, owner)) in out.iter().zip(owners).enumerate() {
            let rs = rs.as_ref().unwrap();
            assert_eq!(rs.len(), 1, "{owner:?}");
            assert_eq!(&*rs.rows[0].id, format!("car{i}"));
            assert_eq!(rs.rows[0].attrs["Owner"], Value::Str(owner.to_string()));
        }
    }

    #[test]
    fn system_is_shareable_across_threads() {
        fn assert_sync<T: Sync>() {}
        fn assert_send<T: Send>() {}
        assert_sync::<OnionSystem>();
        assert_send::<OnionSystem>();
        assert_send::<SystemError>();
    }

    #[test]
    fn publish_source_counts_the_shards_edited_since_the_last_publish() {
        let mut s = loaded();
        s.set_shard_count(4);
        assert_eq!(s.shard_count(), 4);
        let (lsn, stats0) = s.publish_source("carrier").unwrap();
        assert_eq!(lsn, None, "an in-memory source has no commit LSN");
        assert_eq!(stats0.epoch, s.query_epoch(), "the epoch the publish made current");
        assert_eq!((stats0.rebuilt, stats0.reused), (4, 0), "a first publish counts every shard");
        // a single same-shard mutation dirties exactly one shard
        let g = s.source_mut("carrier").unwrap().graph_mut();
        let n = g.node_ids().next().unwrap();
        g.add_edge(n, "probe", n).unwrap();
        let (_, stats1) = s.publish_source("carrier").unwrap();
        assert_eq!((stats1.rebuilt, stats1.reused), (1, 3), "self-loop touches one shard");
        assert!(stats1.epoch > stats0.epoch);
        assert_eq!(stats1.epoch, s.query_epoch());
        let (_, stats2) = s.publish_source("carrier").unwrap();
        assert_eq!((stats2.rebuilt, stats2.reused), (0, 4), "no edit, nothing counted");
        assert!(matches!(s.publish_source("nope"), Err(SystemError::UnknownSource(_))));
    }

    #[test]
    fn publish_source_counts_only_the_shard_a_self_loop_edits() {
        let mut s = OnionSystem::with_transport_lexicon();
        s.set_shard_count(4);
        // nodes 0..8 spread round-robin across the 4 shards
        let mut g = OntGraph::new("t");
        for i in 0..8 {
            g.add_node(&format!("N{i}")).unwrap();
        }
        s.add_source(Ontology::from_graph(g));
        s.publish_source("t").unwrap();
        let before = s.published["t"].1.clone();
        // a self-loop on node 0 touches only shard 0
        let g = s.source_mut("t").unwrap().graph_mut();
        let n0 = g.node_by_label("N0").unwrap();
        g.add_edge(n0, "loop", n0).unwrap();
        let (_, stats) = s.publish_source("t").unwrap();
        assert_eq!((stats.rebuilt, stats.reused), (1, 3));
        let after = &s.published["t"].1;
        let moved: Vec<usize> = (0..4).filter(|&i| after[i] != before[i]).collect();
        assert_eq!(moved, vec![0], "only the self-loop's shard moved");
        assert_eq!(s.source("t").unwrap().graph().edge_count(), 1);
        // an untouched publish counts nothing
        let (_, stats) = s.publish_source("t").unwrap();
        assert_eq!((stats.rebuilt, stats.reused), (0, 4));
    }

    #[test]
    fn publish_source_counts_every_shard_after_a_shard_count_change_or_clone() {
        let mut s = loaded();
        s.set_shard_count(4);
        s.publish_source("carrier").unwrap();
        // a shard count change re-stamps every shard
        s.set_shard_count(2);
        let (_, stats) = s.publish_source("carrier").unwrap();
        assert_eq!((stats.rebuilt, stats.reused), (2, 0), "count change counts everything");
        // a clone keeps every stamp but has a fresh identity: its stamps
        // are not comparable
        let g = s.source_mut("carrier").unwrap().graph_mut();
        *g = g.clone();
        let (_, stats) = s.publish_source("carrier").unwrap();
        assert_eq!((stats.rebuilt, stats.reused), (2, 0));
    }

    #[test]
    fn default_shard_count_is_adaptive() {
        let s = loaded();
        assert_eq!(s.shard_count(), 0, "unset means adaptive");
        let g = s.source("carrier").unwrap().graph();
        assert_eq!(
            g.shard_count(),
            onion_graph::adaptive_shard_count(g.edge_count()),
            "loaded graphs are sized ~sqrt(E)"
        );
    }

    #[test]
    fn adaptive_first_publish_resizes_to_edge_count() {
        let mut s = loaded();
        // grow carrier well past its load-time size before first publish
        let g = s.source_mut("carrier").unwrap().graph_mut();
        let first = g.node_ids().next().unwrap();
        for i in 0..200 {
            let n = g.ensure_node(&format!("bulk{i}")).unwrap();
            g.add_edge(n, "SubclassOf", first).unwrap();
        }
        let edges = g.edge_count();
        s.publish_source("carrier").unwrap();
        let shards = s.source("carrier").unwrap().graph().shard_count();
        assert_eq!(shards, onion_graph::adaptive_shard_count(edges));
        // second publish keeps the layout (incremental path preserved)
        let g = s.source_mut("carrier").unwrap().graph_mut();
        let n = g.node_ids().next().unwrap();
        g.add_edge(n, "probe", n).unwrap();
        let (_, stats2) = s.publish_source("carrier").unwrap();
        assert_eq!(s.source("carrier").unwrap().graph().shard_count(), shards);
        assert_eq!((stats2.rebuilt, stats2.reused), (1, shards - 1), "layout stable");
    }

    #[test]
    fn repeated_articulation_reuses_shared_atom_table() {
        let mut s = loaded();
        let mut cfg = EngineConfig::default();
        cfg.generator.expand_with_inference = true;
        s.set_engine_config(cfg);
        s.add_rules("carrier.Cars => factory.Vehicle\n").unwrap();
        s.articulate_from_rules("carrier", "factory").unwrap();
        let warm = {
            let t = s.atom_table();
            let len = t.lock().unwrap().len();
            assert!(len > 0, "first run interned the vocabulary");
            len
        };
        let b1 = s.articulation().unwrap().bridges.clone();
        s.articulate_from_rules("carrier", "factory").unwrap();
        assert_eq!(s.atom_table().lock().unwrap().len(), warm, "second cycle interned nothing new");
        assert_eq!(s.articulation().unwrap().bridges, b1, "reuse never changes results");
    }

    #[test]
    fn shard_count_change_applies_to_loaded_sources() {
        let mut s = loaded();
        s.set_shard_count(2);
        assert_eq!(s.source("carrier").unwrap().graph().shard_count(), 2);
        let mut late = onion_ontology::examples::carrier().into_graph();
        late.set_name("late");
        s.add_source(Ontology::from_graph(late));
        assert_eq!(s.source("late").unwrap().graph().shard_count(), 2);
    }

    fn label_shape(g: &OntGraph) -> (Vec<String>, Vec<(String, String, String)>) {
        let mut nodes: Vec<String> =
            g.node_ids().map(|n| g.node_label(n).unwrap().to_string()).collect();
        nodes.sort();
        let mut edges: Vec<(String, String, String)> = g
            .edges()
            .map(|e| {
                (
                    g.node_label(e.src).unwrap().to_string(),
                    e.label.to_string(),
                    g.node_label(e.dst).unwrap().to_string(),
                )
            })
            .collect();
        edges.sort();
        (nodes, edges)
    }

    #[test]
    fn durable_lifecycle_bootstrap_checkpoint_recover() {
        let td = onion_testkit::fs::TempDir::new("sys-durable");
        let mut s = loaded();
        let open = s.open_durable("carrier", td.path()).unwrap();
        assert!(!open.recovered);
        let ck0 = open.checkpoint.expect("bootstrap writes a full checkpoint");
        assert_eq!(ck0.shards_reused, 0, "first checkpoint is full");

        // Checkpointed mutations…
        let g = s.source_mut("carrier").unwrap().graph_mut();
        g.ensure_edge_by_labels("Bikes", "SubclassOf", "Vehicles").unwrap();
        let ck1 = s.checkpoint_source("carrier").unwrap();
        assert!(ck1.shards_written >= 1 && ck1.seq == ck0.seq + 1);
        assert!(
            s.source("carrier").unwrap().graph().journal().is_empty(),
            "checkpoint drains the journal tail"
        );

        // …plus flushed-but-uncheckpointed mutations (replayed from WAL).
        let g = s.source_mut("carrier").unwrap().graph_mut();
        g.ensure_edge_by_labels("Scooters", "SubclassOf", "Bikes").unwrap();
        g.delete_node_by_label("Scooters").unwrap();
        let (lsn, _) = s.publish_source("carrier").unwrap();
        assert_eq!(lsn, Some(s.durable("carrier").unwrap().last_lsn()), "the commit LSN");
        let want = label_shape(s.source("carrier").unwrap().graph());
        drop(s);

        let mut s2 = OnionSystem::with_transport_lexicon();
        s2.add_source(factory());
        let open = s2.open_durable("carrier", td.path()).unwrap();
        assert!(open.recovered);
        assert_eq!(label_shape(s2.source("carrier").unwrap().graph()), want);
        let (_, stats) = s2.publish_source("carrier").unwrap();
        assert_eq!(stats.rebuilt, 0, "recovery publishes the recovered graph");

        // The recovered source articulates like any loaded one.
        s2.add_rules(fig2_rules_text()).unwrap();
        let report = s2.articulate("carrier", "factory", &mut AcceptAll).unwrap();
        assert!(report.accepted > 0);

        // Raw recovery entry point agrees with the loaded state.
        let (rg, stats) = OnionSystem::recover(td.path()).unwrap();
        assert_eq!(label_shape(&rg), want);
        assert!(stats.manifest_seq.is_some());
    }

    #[test]
    fn checkpoint_requires_open_durable() {
        let mut s = loaded();
        assert!(matches!(s.checkpoint_source("carrier"), Err(SystemError::Durability(_))));
    }

    #[test]
    fn open_durable_rejects_wrong_source_name() {
        let td = onion_testkit::fs::TempDir::new("sys-durable-name");
        let mut s = loaded();
        s.open_durable("carrier", td.path()).unwrap();
        drop(s);
        let mut s2 = loaded();
        assert!(matches!(s2.open_durable("factory", td.path()), Err(SystemError::Durability(_))));
    }

    #[test]
    fn articulation_and_queries_share_the_systems_conversion_registry() {
        let us = onion_ontology::OntologyBuilder::new("us")
            .class_under("Truck", "Fleet")
            .attr("Price", "Truck")
            .relate("Price", "expressedIn", "Dollars")
            .build()
            .unwrap();
        let mut s = loaded();
        s.add_source(us);
        let mut conversions = ConversionRegistry::standard();
        conversions.register_pair("USDToEuroFn", "EuroToUSDFn", 1.25);
        s.set_conversions(conversions);
        s.add_rules(
            "us.Truck => transport.Truck\n\
             us.Price => transport.Price\n\
             USDToEuroFn(): us.Dollars => transport.Euro\n",
        )
        .unwrap();
        let art = s.articulate_from_rules("us", "carrier").unwrap();
        let inverse = art.bridges.iter().find(|b| b.label.as_ref() == "EuroToUSDFn");
        let inverse = inverse.expect("the inverse bridge is wired from the system's registry");
        assert_eq!(
            (inverse.src.to_string(), inverse.dst.to_string()),
            ("transport.Euro".into(), "us.Dollars".into())
        );

        let mut kb = KnowledgeBase::new("us");
        kb.add(Instance::new("t1", "Truck").with("Price", Value::Num(2000.0))); // 1600 EUR
        kb.add(Instance::new("t2", "Truck").with("Price", Value::Num(3000.0))); // 2400 EUR
        s.add_knowledge_base(kb);
        let rs = s.query("find Truck(Price) where Price < 2000").unwrap();
        assert_eq!(rs.rows.iter().map(|r| r.id.as_ref()).collect::<Vec<_>>(), ["t1"]);
    }

    #[test]
    fn errors_for_missing_pieces() {
        let mut s = OnionSystem::with_transport_lexicon();
        assert!(matches!(s.union(), Err(SystemError::NotArticulated)));
        assert!(matches!(
            s.articulate("a", "b", &mut AcceptAll),
            Err(SystemError::UnknownSource(_))
        ));
        assert!(matches!(s.add_rules("not a rule"), Err(SystemError::Rules(_))));
        assert!(matches!(s.query("find X"), Err(SystemError::NotArticulated)));
    }
}
