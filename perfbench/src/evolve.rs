//! `evolve`: source maintenance with reads after writes, a closed loop
//! with one client.
//!
//! The `left` source of an articulated 2,000-concept pair is durable
//! (`open_durable`: group flush + `sync_data` at every publish,
//! `sync_all` at checkpoints). Each commit applies a generated 20-op
//! edit batch, maintains the articulation incrementally (`apply_delta`
//! with an exact-label re-articulation pipeline), installs it and
//! publishes; the commit is acknowledged when the publish returns. An
//! 8-query read batch follows every commit and misses the cache, since
//! the publish moved the epoch. Every tenth commit is followed by a
//! checkpoint. After 35 commits a simulated crash (edits applied, never
//! published, system dropped) and recoveries from copies of the durable
//! directory end the epoch; a run repeats such epochs from a fresh
//! system, so the source does not grow through the run. Edits, snapshot
//! publish, WAL, checkpoints and recovery do the work, plus the query
//! layers in the all-miss regime.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use onion_bench::{articulated, instance_kbs, pair};
use onion_core::articulate::maintain::{apply_delta, MaintenanceReport};
use onion_core::articulate::ExactLabelMatcher;
use onion_core::graph::ops::apply_all;
use onion_core::prelude::*;
use onion_core::testkit::{random_queries, update_stream, OverlapPair, UpdateSpec};
use onion_core::OnionSystem;

use crate::calib;
use crate::heap;
use crate::report::{Opts, Report};
use crate::scheduler::{checksum, report_query_layers, BatchCounts, TracedScheduler};
use crate::trace::{self, Tracer};
use crate::util::{self, Hash64, Json, Rng};
use crate::THREADS;

/// Shares of each generated edit batch that touch bridged concepts and
/// that delete.
const BRIDGED_FRACTION: f64 = 0.25;
const DELETE_FRACTION: f64 = 0.20;
/// Commits per second of `--seconds`, rounded up to whole epochs.
const PER_SECOND: f64 = 15.0;

#[derive(Debug, Clone)]
pub struct Size {
    pub concepts: usize,
    pub overlap: f64,
    pub instances: usize,
    pub ops_per_commit: usize,
    pub read_batch: usize,
    pub query_pool: usize,
    pub checkpoint_every: usize,
    /// Every n-th read batch is compared with uncached `run_query`.
    pub verify_every: usize,
    pub cache: usize,
    /// Commits from a fresh system to the crash; half-way between
    /// checkpoints, so the crash leaves a published WAL suffix for
    /// recovery to replay.
    pub epoch_commits: usize,
    pub min_epochs: usize,
    /// Recoveries from copies of the crashed directory, per epoch.
    pub recoveries: usize,
    /// Set-ups timed per epoch.
    pub setup_reps: usize,
}

impl Size {
    pub fn full() -> Size {
        Size {
            concepts: 2000,
            overlap: 0.10,
            instances: 1000,
            ops_per_commit: 20,
            read_batch: 8,
            query_pool: 400,
            checkpoint_every: 10,
            verify_every: 10,
            cache: 32,
            epoch_commits: 35,
            min_epochs: 3,
            recoveries: 3,
            setup_reps: 3,
        }
    }

    pub fn tiny() -> Size {
        Size {
            concepts: 80,
            overlap: 0.25,
            instances: 50,
            ops_per_commit: 6,
            read_batch: 3,
            query_pool: 10,
            checkpoint_every: 3,
            verify_every: 2,
            cache: 8,
            epoch_commits: 7,
            min_epochs: 1,
            recoveries: 2,
            setup_reps: 1,
        }
    }
}

/// A scratch directory inside the working directory, removed on drop.
struct WorkDir(PathBuf);

static WORK_DIRS: AtomicUsize = AtomicUsize::new(0);

impl WorkDir {
    fn new(tag: &str) -> Result<WorkDir, String> {
        // Relaxed: the counter only has to hand out distinct numbers
        let n = WORK_DIRS.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(".bench_work").join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // leaves `.bench_work` itself only if another run still uses it
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Sorted node labels and edge triples of a graph, hashed.
fn label_shape(g: &OntGraph) -> u64 {
    let mut nodes: Vec<&str> = g.node_ids().map(|n| g.node_label(n).expect("live")).collect();
    nodes.sort_unstable();
    let mut edges: Vec<(&str, &str, &str)> = g
        .edges()
        .map(|e| (g.node_label(e.src).expect("live"), e.label, g.node_label(e.dst).expect("live")))
        .collect();
    edges.sort_unstable();
    let mut h = Hash64::default();
    for n in nodes {
        h.bytes(n.as_bytes());
    }
    for (s, l, d) in edges {
        h.bytes(s.as_bytes());
        h.bytes(l.as_bytes());
        h.bytes(d.as_bytes());
    }
    h.finish()
}

/// Checksum of a read batch's results, in order.
fn batch_checksum<'a>(rs: impl IntoIterator<Item = &'a ResultSet>) -> u64 {
    let mut h = Hash64::default();
    for r in rs {
        h.int(checksum(r));
    }
    h.finish()
}

/// Everything a run's commits depend on, generated from the seed.
struct Inputs {
    pair: OverlapPair,
    art: Articulation,
    kbs: (KnowledgeBase, KnowledgeBase),
    queries: Vec<Query>,
}

fn inputs(size: &Size, seed: u64) -> Inputs {
    let pair = pair(seed, size.concepts, size.overlap);
    let art = articulated(&pair);
    let kbs = instance_kbs(&pair, size.instances);
    let queries = random_queries(&art, "Price", size.query_pool, util::sub_seed(seed, 3));
    Inputs { pair, art, kbs, queries }
}

/// The program's set-up: load, articulate, attach durable storage
/// (bootstrap batch + first checkpoint).
fn system(size: &Size, inp: &Inputs, dir: &Path) -> Result<OnionSystem, String> {
    let mut sys = OnionSystem::new(inp.pair.lexicon.clone());
    sys.add_source(inp.pair.left.clone());
    sys.add_source(inp.pair.right.clone());
    sys.add_knowledge_base(inp.kbs.0.clone());
    sys.add_knowledge_base(inp.kbs.1.clone());
    sys.set_articulation(articulated(&inp.pair));
    sys.set_query_cache(size.cache);
    sys.open_durable("left", dir).map_err(|e| e.to_string())?;
    Ok(sys)
}

/// Commit `c`'s edit batch: a generated update stream whose new labels
/// get a per-commit suffix (`update_stream` labels are unique only
/// within one stream). Every epoch starts from a fresh system and
/// replays the same batches.
fn edit_batch(size: &Size, sys: &OnionSystem, seed: u64, c: usize) -> Vec<GraphOp> {
    let spec = UpdateSpec {
        seed: util::sub_seed(seed, 1000 + c as u64),
        ops: size.ops_per_commit,
        bridged_fraction: BRIDGED_FRACTION,
        delete_fraction: DELETE_FRACTION,
    };
    let source = sys.source("left").expect("left loaded");
    let art = sys.articulation().expect("articulated");
    let rename = |label: &mut String| *label = format!("{label}x{c}");
    let mut ops = update_stream(source, art, &spec);
    for op in &mut ops {
        match op {
            GraphOp::NodeAdd { label, .. } | GraphOp::NodeDelete { label, .. } => rename(label),
            _ => {}
        }
    }
    ops
}

fn wal_bytes(sys: &OnionSystem) -> u64 {
    let dur = sys.durable("left").expect("left is durable");
    dur.segments().map(|s| s.iter().map(|seg| seg.bytes).sum()).unwrap_or(0)
}

/// The layer calls of one commit, each wrapped by `span` (a no-op
/// wrapper on the untraced path).
struct Commit<'a> {
    pipeline: &'a MatcherPipeline,
    generator: &'a ArticulationGenerator,
    expert: &'a mut OracleExpert,
}

#[derive(Debug, Clone, Copy, Default)]
struct CommitOut {
    maint: MaintenanceReport,
    rebuilt: usize,
    reused: usize,
}

impl Commit<'_> {
    fn run(
        &mut self,
        sys: &mut OnionSystem,
        ops: &[GraphOp],
        span: &dyn Fn(&'static str, &mut dyn FnMut()),
    ) -> Result<CommitOut, String> {
        let mut err: Option<String> = None;
        let mut fail = |e: String| err = err.take().or(Some(e));
        let mut out = CommitOut::default();
        span("graph.apply_ops", &mut || {
            let g = sys.source_mut("left").expect("left loaded").graph_mut();
            if let Err(e) = apply_all(g, ops) {
                fail(e.to_string());
            }
        });
        let mut art = None;
        span("core.articulation_clone", &mut || art = sys.articulation().cloned());
        span("maintain.apply_delta", &mut || {
            let (Some(art), Some(left), Some(right)) =
                (art.as_mut(), sys.source("left"), sys.source("right"))
            else {
                return fail("articulation or source missing".into());
            };
            let pipeline = Some((self.pipeline, &mut *self.expert as &mut dyn Expert));
            match apply_delta(art, "left", ops, &[left, right], self.generator, pipeline) {
                Ok(r) => out.maint = r,
                Err(e) => fail(e.to_string()),
            }
        });
        span("core.set_articulation", &mut || {
            if let Some(a) = art.take() {
                sys.set_articulation(a);
            }
        });
        span("core.publish", &mut || match sys.publish_source("left") {
            Ok((_, stats)) => (out.rebuilt, out.reused) = (stats.rebuilt, stats.reused),
            Err(e) => fail(e.to_string()),
        });
        match err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }
}

/// Per-phase measurements (the untraced and traced phases each run
/// the same epochs).
#[derive(Debug, Default)]
struct Phase {
    commit_ms: Vec<f64>,
    /// Commit times scaled to the nominal host speed.
    scaled_ms: Vec<f64>,
    heap_mb: Vec<f64>,
    read_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    recover_ms: Vec<f64>,
    /// Per epoch: every read batch's checksum, then every recovered
    /// graph's label shape.
    checksums: Vec<Vec<u64>>,
    tail_changed: bool,
    ops: usize,
    relevant: usize,
    wal_bytes: u64,
    checkpoint_bytes: u64,
    shards_written: Vec<f64>,
    rebuilt_ratio: Vec<f64>,
    replayed_ops: Vec<f64>,
    setup_s: Vec<f64>,
    /// Traced phase only: the scheduler's per-read counts, and its cache
    /// per epoch.
    read_counts: Vec<BatchCounts>,
    read_caches: Vec<CacheStats>,
}

struct Runner<'a> {
    size: &'a Size,
    opts: &'a Opts,
    inp: &'a Inputs,
    exec: Executor,
}

impl Runner<'_> {
    /// Runs `epochs` epochs; `t` selects the traced path. Every epoch
    /// starts from a fresh system in a fresh directory and repeats the
    /// same commits, so per-commit costs do not drift with the source's
    /// growth through a run, and each position in an epoch is timed at
    /// several moments of the run.
    fn phase(&self, rep: &mut Report, epochs: usize, t: Option<&Tracer>) -> Result<Phase, String> {
        let mut ph = Phase { tail_changed: true, ..Phase::default() };
        for e in 0..epochs {
            let dir = WorkDir::new(if t.is_some() { "evolve-traced" } else { "evolve" })?;
            self.epoch(rep, &mut ph, &dir, e, t)?;
        }
        Ok(ph)
    }

    /// One epoch: set-up, the commits with their reads and checkpoints,
    /// then the crash and the recoveries.
    fn epoch(
        &self,
        rep: &mut Report,
        ph: &mut Phase,
        dir: &WorkDir,
        e: usize,
        t: Option<&Tracer>,
    ) -> Result<(), String> {
        let size = self.size;
        let seed = self.opts.seed;
        let state = dir.join("state");
        // the set-up is repeated; the last system built is the epoch's
        let mut built = None;
        for i in 0..size.setup_reps {
            let at = if i + 1 == size.setup_reps {
                state.clone()
            } else {
                dir.join(&format!("setup{i}"))
            };
            drop(built.take());
            let ((sys, dt), scale) = calib::around(|| {
                let t0 = Instant::now();
                (system(size, self.inp, &at), t0.elapsed().as_secs_f64())
            });
            built = Some(sys?);
            ph.setup_s.push(dt * scale);
        }
        let mut sys = built.ok_or("no set-up repetitions")?;
        let pipeline = MatcherPipeline::new().with(ExactLabelMatcher);
        let generator = ArticulationGenerator::new();
        let mut expert = OracleExpert::new(self.inp.pair.truth.iter().cloned());
        let mut commit = Commit { pipeline: &pipeline, generator: &generator, expert: &mut expert };
        let mut rng = Rng::new(util::sub_seed(seed, 4));
        let sched = t.map(|_| TracedScheduler::new(&self.inp.kbs, size.cache));
        let mut sums = Vec::new();
        for c in 0..size.epoch_commits {
            let unit = (e * size.epoch_commits + c) as u64;
            let ops = edit_batch(size, &sys, seed, c);
            let wal0 = wal_bytes(&sys);
            let ((out, dt), scale) = calib::around(|| {
                heap::measured(&mut ph.heap_mb, || match t {
                    None => commit.run(&mut sys, &ops, &|_, f| f()),
                    Some(t) => t.span("evolve.commit", 0, unit, |root| {
                        commit.run(&mut sys, &ops, &|name, f| t.span(name, root, unit, |_| f()))
                    }),
                })
            });
            ph.commit_ms.push(dt * 1e3);
            ph.scaled_ms.push(dt * 1e3 * scale);
            rep.op(out.is_ok());
            let out = out?;
            ph.wal_bytes += wal_bytes(&sys).saturating_sub(wal0);
            ph.ops += out.maint.ops_total;
            ph.relevant += out.maint.ops_relevant;
            ph.rebuilt_ratio.push(out.rebuilt as f64 / (out.rebuilt + out.reused).max(1) as f64);

            // read after write: every probe misses (the publish moved
            // the epoch)
            let picks: Vec<Query> = (0..size.read_batch)
                .map(|_| self.inp.queries[rng.below(self.inp.queries.len())].clone())
                .collect();
            let t1 = Instant::now();
            let read: Vec<Result<_, String>> = match (t, &sched) {
                (Some(t), Some(sched)) => t.span("evolve.read", 0, unit, |root| {
                    let (out, counts) = sched.batch(&sys, &self.exec, &picks, t, root, unit);
                    ph.read_counts.push(counts);
                    out
                }),
                _ => sys
                    .run_batch(&self.exec, &picks)
                    .into_iter()
                    .map(|r| r.map_err(|e| e.to_string()))
                    .collect(),
            };
            let rt = t1.elapsed().as_secs_f64();
            ph.read_ms.push(rt * 1e3);
            let read: Result<Vec<_>, String> = read.into_iter().collect();
            let mut ok = read.is_ok();
            if let Ok(got) = &read {
                let got_sum = batch_checksum(got.iter().map(|r| &**r));
                sums.push(got_sum);
                if (c + 1) % size.verify_every == 0 {
                    let want: Result<Vec<ResultSet>, _> =
                        picks.iter().map(|q| sys.run_query(q)).collect();
                    let mut want_sum = want.map(|w| batch_checksum(&w)).unwrap_or(0);
                    if self.opts.plant_wrong_reference && e == 0 && c + 1 == size.verify_every {
                        want_sum ^= 1;
                    }
                    ok = want_sum == got_sum;
                }
            }
            rep.op(ok);

            if (c + 1) % size.checkpoint_every == 0 {
                let t2 = Instant::now();
                let ck = match t {
                    None => sys.checkpoint_source("left"),
                    Some(t) => t.span("evolve.checkpoint", 0, unit, |root| {
                        t.span("core.checkpoint", root, unit, |_| sys.checkpoint_source("left"))
                    }),
                };
                let ct = t2.elapsed().as_secs_f64();
                ph.checkpoint_ms.push(ct * 1e3);
                rep.op(ck.is_ok());
                let ck = ck.map_err(|e| e.to_string())?;
                ph.checkpoint_bytes += ck.bytes_written;
                ph.shards_written.push(ck.shards_written as f64);
            }
        }

        // crash: the last acknowledged publish is the recoverable cut;
        // a further batch, plus one node add so that it cannot net to no
        // change, is applied but never published
        let acked = label_shape(sys.source("left").expect("left").graph());
        let mut tail = edit_batch(size, &sys, seed, size.epoch_commits);
        tail.push(GraphOp::node_add("unpublished-tail"));
        apply_all(sys.source_mut("left").expect("left").graph_mut(), &tail)
            .map_err(|e| e.to_string())?;
        let unacked = label_shape(sys.source("left").expect("left").graph());
        ph.tail_changed &= unacked != acked;
        if let Some(sched) = &sched {
            ph.read_caches.push(sched.cache_stats());
        }
        drop(sys);
        for i in 0..size.recoveries {
            let unit = (e * size.recoveries + i) as u64;
            let copy = dir.join(&format!("copy{i}"));
            copy_dir(&state, &copy)?;
            let t3 = Instant::now();
            let rec = match t {
                None => OnionSystem::recover(&copy),
                Some(t) => t.span("evolve.recover", 0, unit, |root| {
                    t.span("graph.recover", root, unit, |_| OnionSystem::recover(&copy))
                }),
            };
            ph.recover_ms.push(t3.elapsed().as_secs_f64() * 1e3);
            let ok = match &rec {
                Ok((g, stats)) => {
                    ph.replayed_ops.push(stats.replayed_ops as f64);
                    label_shape(g) == acked
                }
                Err(_) => false,
            };
            rep.op(ok);
            if let Ok((g, _)) = &rec {
                sums.push(label_shape(g));
            }
            let _ = std::fs::remove_dir_all(&copy);
        }
        ph.checksums.push(sums);
        Ok(())
    }
}

pub fn run(size: &Size, opts: &Opts) -> Result<Report, String> {
    let mut rep = Report::default();
    let inp = inputs(size, opts.seed);

    rep.info(
        "sizes",
        Json::obj([
            ("concepts", Json::Int(size.concepts as u64)),
            ("left_nodes", Json::Int(inp.pair.left.graph().node_count() as u64)),
            ("bridges", Json::Int(inp.art.bridges.len() as u64)),
            ("instances_per_side", Json::Int(size.instances as u64)),
            ("query_pool", Json::Int(inp.queries.len() as u64)),
            ("ops_per_commit", Json::Int(size.ops_per_commit as u64)),
            ("cache_capacity", Json::Int(size.cache as u64)),
        ]),
    );

    let min = size.min_epochs * size.epoch_commits;
    let epochs = opts.op_count(PER_SECOND, min).div_ceil(size.epoch_commits);
    let runner = Runner { size, opts, inp: &inp, exec: Executor::new(THREADS) };
    let ph = runner.phase(&mut rep, epochs, None)?;
    rep.check("crash_tail_changes_the_graph", ph.tail_changed);
    let edit_ops = ph.ops.max(1) as f64;
    rep.info("epochs", Json::Int(epochs as u64));
    rep.info("commits", Json::Int(ph.commit_ms.len() as u64));
    rep.info("edit_ops", Json::Int(ph.ops as u64));
    rep.info("checkpoints", Json::Int(ph.checkpoint_ms.len() as u64));
    rep.info("recoveries", Json::Int(ph.recover_ms.len() as u64));
    rep.info("commits_beyond_p90", Json::Int(util::beyond(&ph.scaled_ms, 90.0) as u64));
    rep.info("wall_p50_ms", Json::Num(util::median(&ph.commit_ms)));
    // every epoch replays the same commits and reads
    rep.check("epochs_read_alike", ph.checksums.windows(2).all(|w| w[0] == w[1]));

    if !opts.trace {
        let scaled_s = ph.scaled_ms.iter().sum::<f64>() / 1e3;
        rep.metric("setup_s", util::median(&ph.setup_s), "s");
        rep.metric("op_p50_ms", util::median(&ph.scaled_ms), "ms");
        rep.metric("op_p90_ms", util::percentile(&ph.scaled_ms, 90.0), "ms");
        rep.metric("items_per_s", ph.ops as f64 / scaled_s, "1/s");
        rep.metric("peak_heap_mb", util::mean(&ph.heap_mb), "MiB");
        return Ok(rep);
    }

    // traced run: the same epochs
    let t = Tracer::default();
    let traced = runner.phase(&mut rep, epochs, Some(&t))?;
    rep.check("traced_checksums_match", traced.checksums == ph.checksums);
    let spans = t.spans();
    let a = trace::analyse(&spans);
    let untraced_ns: f64 = [&ph.commit_ms, &ph.read_ms, &ph.checkpoint_ms, &ph.recover_ms]
        .iter()
        .flat_map(|v| v.iter())
        .sum::<f64>()
        * 1e6;
    rep.metric("maintain.apply_delta_us", a.mean_us("maintain.apply_delta"), "us");
    rep.metric(
        "maintain.relevant_ratio",
        traced.relevant as f64 / traced.ops.max(1) as f64,
        "ratio",
    );
    rep.metric("graph.apply_ops_us", a.mean_us("graph.apply_ops"), "us");
    rep.metric("core.publish_us", a.mean_us("core.publish"), "us");
    rep.metric("graph.shards_rebuilt_ratio", util::mean(&traced.rebuilt_ratio), "ratio");
    rep.metric("wal.bytes_per_op", traced.wal_bytes as f64 / traced.ops.max(1) as f64, "B/op");
    rep.metric("checkpoint.ms", a.mean_us("core.checkpoint") / 1e3, "ms");
    rep.metric("checkpoint.shards_written", util::mean(&traced.shards_written), "count");
    rep.metric(
        "checkpoint.bytes",
        traced.checkpoint_bytes as f64 / traced.checkpoint_ms.len().max(1) as f64,
        "B",
    );
    rep.metric("recover.ms", a.mean_us("graph.recover") / 1e3, "ms");
    rep.metric("recover.replayed_ops", util::mean(&traced.replayed_ops), "count");
    report_query_layers(
        &mut rep,
        &spans,
        &a,
        &traced.read_counts,
        &traced.read_caches,
        "evolve.read",
        &ph.read_ms,
    );
    rep.metric("evolve.read_after_write_p50_ms", util::median(&ph.read_ms), "ms");
    rep.metric("evolve.checkpoint_p50_ms", util::median(&ph.checkpoint_ms), "ms");
    rep.metric("evolve.recover_p50_ms", util::median(&ph.recover_ms), "ms");
    rep.metric(
        "evolve.write_bytes_per_op",
        (ph.wal_bytes + ph.checkpoint_bytes) as f64 / edit_ops,
        "B/op",
    );
    rep.metric("trace.overhead_ratio", a.root_ns as f64 / untraced_ns, "ratio");
    rep.metric("trace.coverage", a.coverage(), "ratio");
    crate::finish_trace(&mut rep, spans, a);
    Ok(rep)
}
