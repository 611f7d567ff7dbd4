//! Properties of the per-state query structures: the facade's
//! implication index, the class-partitioned knowledge base and the
//! lending wrapper.
//!
//! * **No stale index.** [`OnionSystem`] builds one
//!   [`ImplicationIndex`](onion_core::articulate::ImplicationIndex) per
//!   state epoch and drops it at every bump. After each kind of
//!   query-visible mutation (`add_source` replacing a source,
//!   `source_mut` edits that add and delete `SubclassOf` edges and
//!   nodes, `publish_source`, `set_articulation`, `add_rules` +
//!   `articulate_from_rules`, `add_knowledge_base`, `set_conversions`
//!   and `open_durable` recovery) the facade's `run_query`,
//!   `run_batch` (1 and 2 threads, cache on and off) and `explain`
//!   must equal a fresh `onion_query::execute` / `plan` over the same
//!   articulation, sources and knowledge bases. Every check runs after
//!   the previous state's index was built, so an index that outlived
//!   its epoch would answer from stale label ids and bridges.
//! * **Index builds are counted.** With observability on, a batch of
//!   distinct misses builds one index, a second batch at the same
//!   epoch builds none, and a publish makes the next batch build one.
//! * **The partition is invisible, and fetches come in id order.**
//!   `KnowledgeBase::query` equals a copy of the full scan it replaced
//!   (kept below as the oracle), stably sorted by id: by id, and
//!   instances that share an id in insertion order. It holds for random
//!   class lists with duplicates and unknown names, random conditions
//!   and duplicate ids; `InMemoryWrapper::fetch` lends exactly those
//!   instances in that order.
//! * **A visitor error stops the fetch** and is what `execute_plan`
//!   returns.
//!
//! The metrics registry is process-wide, so every test here that
//! queries a facade holds [`FACADE`]: no index is built by another test
//! while the counter test is recording.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;

use onion_core::exec::Executor;
use onion_core::obs;
use onion_core::prelude::*;
use onion_core::query::exec::execute_plan;
use onion_core::query::reformulate::AttrConversion;
use onion_core::query::{plan, Condition, QueryError, QueryPlan, SourceQuery};
use onion_core::system::SystemError;
use onion_core::testkit::fs::TempDir;
use onion_core::testkit::{
    overlap_pair, random_queries, update_stream, OverlapPair, OverlapSpec, UpdateSpec,
};
use onion_core::OnionSystem;

/// Serialises the tests that build facade indexes (see module docs).
static FACADE: Mutex<()> = Mutex::new(());

fn facade_lock() -> MutexGuard<'static, ()> {
    FACADE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn std_pair(seed: u64, concepts: usize) -> OverlapPair {
    overlap_pair(&OverlapSpec { seed, concepts, overlap: 0.4, rename_prob: 0.5, max_children: 4 })
}

fn truth_rules(truth: &[(String, String)]) -> RuleSet {
    let mut rules = RuleSet::new();
    for (l, r) in truth {
        let (lo, ln) = l.split_once('.').unwrap();
        let (ro, rn) = r.split_once('.').unwrap();
        rules
            .push(ArticulationRule::term_implies(Term::qualified(lo, ln), Term::qualified(ro, rn)));
    }
    rules
}

fn articulate(truth: &[(String, String)], left: &Ontology, right: &Ontology) -> Articulation {
    ArticulationGenerator::new().generate(&truth_rules(truth), &[left, right]).unwrap()
}

/// `onto` with `ops` applied, as a new ontology (fresh label ids).
fn edited(onto: &Ontology, ops: &[GraphOp]) -> Ontology {
    let mut o = onto.clone();
    for op in ops {
        op.apply(o.graph_mut()).unwrap();
    }
    o
}

/// A knowledge base of `n` instances spread over `classes`, with a
/// price on most and an owner on some, so conditions can miss.
fn side_kb(name: &str, classes: &[String], n: usize, salt: usize) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new(name);
    for i in 0..n {
        let mut inst =
            Instance::new(&format!("{name}_{i}"), &classes[(i * 7 + salt) % classes.len()]);
        if i % 5 != 0 {
            inst = inst.with("Price", Value::Num(((i * 37 + salt) % 5_000) as f64));
        }
        if i % 3 == 0 {
            inst = inst.with("Owner", Value::Str(format!("owner{}", i % 4)));
        }
        kb.add(inst);
    }
    kb
}

/// Every class label `onto` has or `ops` add: instances of a class the
/// ops create answer queries only once the index knows the class.
fn class_pool(onto: &Ontology, ops: &[GraphOp]) -> Vec<String> {
    let mut pool: Vec<String> = onto.graph().nodes().map(|n| n.label.to_string()).collect();
    for op in ops {
        if let GraphOp::NodeAdd { label, .. } = op {
            pool.push(label.clone());
        }
    }
    pool
}

/// The query workload: random priced queries plus plain and
/// owner-filtered queries over the articulation's classes.
fn workload(art: &Articulation, seed: u64) -> Vec<Query> {
    let mut queries = random_queries(art, "Price", 8, seed);
    for (i, n) in art.ontology.graph().nodes().take(6).enumerate() {
        let q = Query::all(n.label).select("Price").select("Owner");
        queries.push(match i % 3 {
            0 => q,
            1 => q.filter("Owner", CmpOp::Ne, Value::Str("owner1".into())),
            _ => q.filter("Price", CmpOp::Ge, Value::Num(1_000.0)),
        });
    }
    queries
}

/// Two identically mutated systems, one with the result cache and one
/// without, plus the knowledge bases and conversions they were given
/// (the facade does not hand its knowledge bases back out).
struct Fixture {
    on: OnionSystem,
    off: OnionSystem,
    kbs: BTreeMap<String, KnowledgeBase>,
    conversions: ConversionRegistry,
}

impl Fixture {
    fn new(lexicon: &Lexicon, sources: [&Ontology; 2], kbs: [KnowledgeBase; 2]) -> Self {
        let build = |cache: usize| {
            let mut s = OnionSystem::new(lexicon.clone());
            for o in sources {
                s.add_source(o.clone());
            }
            for kb in &kbs {
                s.add_knowledge_base(kb.clone());
            }
            if cache > 0 {
                s.set_query_cache(cache);
            }
            s
        };
        let (on, off) = (build(64), build(0));
        let kbs = kbs.into_iter().map(|kb| (kb.name().to_string(), kb)).collect();
        Fixture { on, off, kbs, conversions: ConversionRegistry::standard() }
    }

    /// Applies one mutation to both systems.
    fn mutate(&mut self, mut f: impl FnMut(&mut OnionSystem)) {
        f(&mut self.on);
        f(&mut self.off);
    }

    fn add_knowledge_base(&mut self, kb: KnowledgeBase) {
        self.mutate(|s| s.add_knowledge_base(kb.clone()));
        self.kbs.insert(kb.name().to_string(), kb);
    }

    fn set_conversions(&mut self, conversions: ConversionRegistry) {
        self.mutate(|s| s.set_conversions(conversions.clone()));
        self.conversions = conversions;
    }

    /// Both systems answer every query and explain every plan exactly
    /// as a fresh execute / plan over their own state does.
    fn check(&self, queries: &[Query], step: &str) -> Result<(), TestCaseError> {
        let wrappers: Vec<InMemoryWrapper> =
            self.kbs.values().cloned().map(InMemoryWrapper::new).collect();
        let wrappers: Vec<&dyn Wrapper> = wrappers.iter().map(|w| w as &dyn Wrapper).collect();
        let as_system = |e: QueryError| SystemError::Query(e).to_string();
        for (mode, sys) in [("cache on", &self.on), ("cache off", &self.off)] {
            let art = sys.articulation().unwrap();
            let sources: Vec<&Ontology> =
                art.source_names().iter().map(|n| sys.source(n).unwrap()).collect();
            let want: Vec<Result<ResultSet, String>> = queries
                .iter()
                .map(|q| execute(q, art, &sources, &self.conversions, &wrappers).map_err(as_system))
                .collect();
            for (i, (q, w)) in queries.iter().zip(&want).enumerate() {
                let got = sys.run_query(q).map_err(|e| e.to_string());
                prop_assert_eq!(&got, w, "{} {} run_query #{}: {}", step, mode, i, q);
                let explained = sys.explain(&q.to_string()).map_err(|e| e.to_string());
                let planned = plan(q, art, &sources, &self.conversions)
                    .map(|p| p.explain())
                    .map_err(as_system);
                prop_assert_eq!(explained, planned, "{} {} explain #{}: {}", step, mode, i, q);
            }
            for threads in [1, 2] {
                let exec = Executor::new(threads);
                // the second pass is served from the cache when it is on
                for pass in 0..2 {
                    let got = sys.run_batch(&exec, queries);
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        let g = g.as_ref().map(|rs| rs.as_ref().clone()).map_err(|e| e.to_string());
                        prop_assert_eq!(
                            &g,
                            w,
                            "{} {} run_batch threads={} pass={} #{}",
                            step,
                            mode,
                            threads,
                            pass,
                            i
                        );
                    }
                }
            }
        }
        Ok(())
    }
}

/// Rule text for `truth` in the facade's rule syntax.
fn rules_text(truth: &[(String, String)]) -> String {
    truth.iter().map(|(l, r)| format!("{l} => {r}\n")).collect()
}

/// A durable directory whose recovered `left` source is `onto`.
fn durable_dir(lexicon: &Lexicon, onto: &Ontology, tag: &str) -> TempDir {
    let dir = TempDir::new(tag);
    let mut s = OnionSystem::new(lexicon.clone());
    s.add_source(onto.clone());
    let opened = s.open_durable(onto.name(), dir.path()).unwrap();
    assert!(!opened.recovered, "a fresh directory bootstraps");
    dir
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Generated pairs × update-stream scripts: after every kind of
    /// mutation, the facade equals a fresh plan and execute.
    #[test]
    fn facade_queries_equal_fresh_plans_after_every_mutation(
        seed in 0u64..1_000,
        concepts in 24usize..48,
        ops in 6usize..16,
    ) {
        let _guard = facade_lock();
        let pair = std_pair(seed, concepts);
        let (left, right) = (&pair.left, &pair.right);
        let art0 = articulate(&pair.truth, left, right);
        let spec = |s: u64| UpdateSpec { seed: s, ops, bridged_fraction: 0.7, delete_fraction: 0.3 };
        let left_ops = update_stream(left, &art0, &spec(seed ^ 0x1ef7));
        let right_ops = update_stream(right, &art0, &spec(seed ^ 0x5167));
        let left_pool = class_pool(left, &left_ops);
        let right_pool = class_pool(right, &right_ops);
        let queries = workload(&art0, seed);

        let mut f = Fixture::new(
            &pair.lexicon,
            [left, right],
            [side_kb("left", &left_pool, 160, 0), side_kb("right", &right_pool, 160, 3)],
        );
        f.mutate(|s| s.set_articulation(art0.clone()));
        f.check(&queries, "initial")?;

        // source_mut: the script's node additions and deletions, plus a
        // deleted and an added SubclassOf edge between original nodes
        let (half, rest) = left_ops.split_at(left_ops.len() / 2);
        let g0 = left.graph();
        let sub_edge = g0.edges().find(|e| e.label == rel::SUBCLASS_OF).map(|e| {
            (g0.node_label(e.src).unwrap().to_string(), g0.node_label(e.dst).unwrap().to_string())
        });
        let mut edits: Vec<GraphOp> = half.to_vec();
        if let Some((src, dst)) = &sub_edge {
            edits.push(GraphOp::edge_delete(src.clone(), rel::SUBCLASS_OF, dst.clone()));
            edits.push(GraphOp::edge_add(dst.clone(), rel::SUBCLASS_OF, src.clone()));
        }
        f.mutate(|s| {
            let g = s.source_mut("left").unwrap().graph_mut();
            for op in &edits {
                op.apply(g).unwrap();
            }
        });
        f.check(&queries, "source_mut")?;

        f.mutate(|s| {
            s.publish_source("left").unwrap();
        });
        f.check(&queries, "publish_source")?;

        let right2 = edited(right, &right_ops);
        f.mutate(|s| s.add_source(right2.clone()));
        f.check(&queries, "add_source")?;

        f.add_knowledge_base(side_kb("left", &left_pool, 220, 5));
        f.check(&queries, "add_knowledge_base")?;

        let mut conversions = ConversionRegistry::standard();
        conversions.register_pair("DGToEuroFn", "EuroToDGFn", 2.0);
        f.set_conversions(conversions);
        f.check(&queries, "set_conversions")?;

        let (kept, dropped): (Vec<_>, Vec<_>) =
            pair.truth.iter().cloned().enumerate().partition(|(i, _)| i % 2 == 0);
        let kept: Vec<(String, String)> = kept.into_iter().map(|(_, t)| t).collect();
        let dropped: Vec<(String, String)> = dropped.into_iter().map(|(_, t)| t).collect();
        let left1 = f.off.source("left").unwrap().clone();
        let narrow = articulate(&kept, &left1, &right2);
        f.mutate(|s| s.set_articulation(narrow.clone()));
        f.check(&queries, "set_articulation")?;

        let text = rules_text(&dropped);
        f.mutate(|s| {
            s.add_rules(&text).unwrap();
            s.articulate_from_rules("left", "right").unwrap();
        });
        f.check(&queries, "articulate_from_rules")?;

        // recovery replaces `left` with the rest of the script applied,
        // its node ids compacted
        let recovered = edited(&left1, rest);
        let dirs = [
            durable_dir(&pair.lexicon, &recovered, "qix-on"),
            durable_dir(&pair.lexicon, &recovered, "qix-off"),
        ];
        for (s, dir) in [(&mut f.on, &dirs[0]), (&mut f.off, &dirs[1])] {
            let opened = s.open_durable("left", dir.path()).unwrap();
            prop_assert!(opened.recovered);
        }
        f.check(&queries, "open_durable")?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The partitioned `query` equals the full scan it replaced, stably
    /// sorted by id, and `fetch` lends exactly those instances. Ids
    /// repeat (`i % 17`), so ties must keep insertion order.
    #[test]
    fn partitioned_query_equals_the_full_scan(
        picks in prop::collection::vec((0usize..8, 0usize..4, 0usize..3), 0..120),
        classes in prop::collection::vec(0usize..11, 0..7),
        conds in prop::collection::vec((0usize..3, 0usize..6, 0usize..4), 0..3),
    ) {
        let mut kb = KnowledgeBase::new("s");
        for (i, &(class, price, owner)) in picks.iter().enumerate() {
            let mut inst = Instance::new(&format!("i{}", i % 17), &format!("C{class}"));
            if price > 0 {
                inst = inst.with("Price", Value::Num((price * 100) as f64));
            }
            if owner > 0 {
                inst = inst.with("Owner", Value::Str(format!("o{owner}")));
            }
            kb.add(inst);
        }
        // C8..C10 name no instance; repeats come from the generator
        let classes: Vec<String> = classes.iter().map(|c| format!("C{c}")).collect();
        let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ne, CmpOp::Ge, CmpOp::Gt];
        let conditions: Vec<Condition> = conds
            .iter()
            .map(|&(attr, op, v)| match attr {
                0 => Condition::new("Price", ops[op], Value::Num((v * 100) as f64)),
                1 => Condition::new("Owner", ops[op], Value::Str(format!("o{v}"))),
                _ => Condition::new("Missing", ops[op], Value::Num(v as f64)),
            })
            .collect();

        let mut scan = full_scan(&kb, &classes, &conditions);
        scan.sort_by(|a, b| a.id.cmp(&b.id));
        let want = positions(kb.instances(), scan);
        let got = positions(kb.instances(), kb.query(&classes, &conditions));
        prop_assert_eq!(&got, &want, "classes={:?} conditions={:?}", classes, conditions);

        let wrapper = InMemoryWrapper::new(kb);
        let all = wrapper.kb().instances();
        let mut lent = Vec::new();
        wrapper
            .fetch(&classes, &conditions, &mut |i| {
                lent.extend(positions(all, [i]));
                Ok(())
            })
            .unwrap();
        prop_assert_eq!(lent, want);
    }
}

/// Positions in `all` of the instances `found` borrows from it.
fn positions<'k>(all: &[Instance], found: impl IntoIterator<Item = &'k Instance>) -> Vec<usize> {
    let base = all.as_ptr() as usize;
    found
        .into_iter()
        .map(|i| (i as *const Instance as usize - base) / std::mem::size_of::<Instance>())
        .collect()
}

/// The full scan `KnowledgeBase::query` ran before the class
/// partition: one class-set probe per instance, in insertion order.
fn full_scan<'k>(
    kb: &'k KnowledgeBase,
    classes: &[String],
    conditions: &[Condition],
) -> Vec<&'k Instance> {
    let wanted: HashSet<&str> = classes.iter().map(String::as_str).collect();
    kb.instances()
        .iter()
        .filter(|i| wanted.contains(&*i.class))
        .filter(|i| conditions.iter().all(|c| i.satisfies(c)))
        .collect()
}

/// Counts what a wrapper lends, to show where a fetch stopped.
struct Counting {
    inner: InMemoryWrapper,
    lent: std::cell::Cell<usize>,
}

impl Wrapper for Counting {
    fn source(&self) -> &str {
        self.inner.source()
    }

    fn fetch(
        &self,
        classes: &[String],
        conditions: &[Condition],
        visit: &mut dyn FnMut(&Instance) -> onion_core::query::Result<()>,
    ) -> onion_core::query::Result<()> {
        self.inner.fetch(classes, conditions, &mut |i| {
            self.lent.set(self.lent.get() + 1);
            visit(i)
        })
    }
}

/// A conversion that fails on the first fetched row: the visitor's
/// error stops the fetch after one instance, and `execute_plan`
/// returns that error.
#[test]
fn visitor_error_stops_the_fetch_and_is_returned() {
    let mut kb = KnowledgeBase::new("s");
    for i in 0..5 {
        kb.add(Instance::new(&format!("i{i}"), "C").with("Price", Value::Num(i as f64)));
    }
    let wrapper = Counting { inner: InMemoryWrapper::new(kb), lent: std::cell::Cell::new(0) };
    let source_query = SourceQuery {
        source: "s".into(),
        classes: vec!["C".into()],
        attr_map: HashMap::from([("Price".to_string(), "Price".to_string())]),
        conversions: vec![AttrConversion {
            local_attr: "Price".into(),
            to_articulation: "NoSuchFn".into(),
            to_local: None,
        }],
        conditions: Vec::new(),
    };
    let plan =
        QueryPlan { query: Query::all("X").select("Price"), source_queries: vec![source_query] };
    let conversions = ConversionRegistry::standard();
    let err =
        execute_plan(&plan, &Articulation::new("x"), &[], &conversions, &[&wrapper]).unwrap_err();
    let want = conversions.apply("NoSuchFn", 0.0).unwrap_err().to_string();
    assert_eq!(err, QueryError::Conversion(want));
    assert_eq!(wrapper.lent.get(), 1, "the fetch stops at the failing row");
}

/// One index per state epoch, counted: with observability on, a
/// cache-off batch of distinct misses on two threads builds exactly one
/// index, a second batch at the same epoch builds none, and after a
/// publish the next batch builds one.
#[test]
fn index_builds_once_per_epoch() {
    let _guard = facade_lock();
    let pair = std_pair(11, 40);
    let art = articulate(&pair.truth, &pair.left, &pair.right);
    let kb = |name: &str, onto: &Ontology| side_kb(name, &class_pool(onto, &[]), 120, 1);
    let mut f = Fixture::new(
        &pair.lexicon,
        [&pair.left, &pair.right],
        [kb("left", &pair.left), kb("right", &pair.right)],
    );
    f.mutate(|s| s.set_articulation(art.clone()));
    let sys = &mut f.off;
    let queries: Vec<Query> = art
        .ontology
        .graph()
        .nodes()
        .take(10)
        .map(|n| Query::all(n.label).select("Price"))
        .collect();
    assert!(queries.len() >= 8, "need at least 8 distinct misses");
    let exec = Executor::new(2);
    let builds = || obs::global().snapshot().counter("onion_query_index_builds_total").unwrap_or(0);

    sys.set_observability(true);
    let before = builds();
    let first = sys.run_batch(&exec, &queries);
    let after_first = builds();
    let second = sys.run_batch(&exec, &queries);
    let after_second = builds();
    sys.publish_source("left").unwrap();
    let third = sys.run_batch(&exec, &queries);
    let after_third = builds();
    sys.set_observability(false);

    assert!(first.iter().chain(&second).chain(&third).all(Result::is_ok));
    assert_eq!(after_first - before, 1, "one build for a batch of misses");
    assert_eq!(after_second - after_first, 0, "no build at the same epoch");
    assert_eq!(after_third - after_second, 1, "one build after a publish");
}
