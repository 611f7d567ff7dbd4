//! Differential check of query reformulation against the forward search
//! it replaced.
//!
//! `Reformulator` finds the source terms that imply a target with one
//! backward search over reversed implication edges. The oracle below is
//! the older algorithm, kept naive on purpose: implication edges between
//! qualified label strings (`SI_BRIDGE` bridges, articulation
//! `SubclassOf`, source `SubclassOf`/`InstanceOf`) and one forward BFS
//! from every source node. `local_classes`, `local_attr` and the whole
//! `reformulate` output must equal the oracle's on generated overlap
//! pairs articulated from random subsets of their planted truth, and on
//! shapes the generator never builds:
//!
//! * reverse rules whose bridges close implication cycles;
//! * rules and bridges naming terms absent from their graph (overflow
//!   ids): in a source namespace, the articulation's, an unknown
//!   namespace and the unqualified one;
//! * two sources with the same name, the second reached through label
//!   strings rather than its own interner;
//! * nodes deleted after articulation while bridges still name them.
//!
//! Every generated source also carries instances (`InstanceOf`) and a
//! priced attribute whose currency a functional bridge converts, so
//! attribute maps, conversions and pushed-down conditions are compared
//! too.

use std::collections::{HashMap, HashSet, VecDeque};

use proptest::prelude::*;

use onion_core::articulate::GeneratorConfig;
use onion_core::prelude::*;
use onion_core::query::reformulate::SourceReformulation;
use onion_core::query::{Condition, QueryError, Reformulator};
use onion_core::testkit::{overlap_pair, random_queries, OverlapSpec};

/// A term qualified by its ontology's name: `(ontology, label)`.
type QTerm = (String, String);

fn qt(onto: &str, label: &str) -> QTerm {
    (onto.to_string(), label.to_string())
}

/// The forward-search reformulator: implication edges keyed by strings
/// and one BFS per candidate node. The conversion lookup is shared with
/// [`Reformulator::conversion_for`], which the backward search does not
/// touch.
struct Oracle<'a> {
    art: &'a Articulation,
    sources: &'a [&'a Ontology],
    conversions: &'a ConversionRegistry,
    implies: HashMap<QTerm, Vec<QTerm>>,
}

impl<'a> Oracle<'a> {
    fn new(
        art: &'a Articulation,
        sources: &'a [&'a Ontology],
        conversions: &'a ConversionRegistry,
    ) -> Self {
        let mut implies: HashMap<QTerm, Vec<QTerm>> = HashMap::new();
        for b in art.bridges.iter().filter(|b| b.label == rel::SI_BRIDGE) {
            let src = qt(b.src.ontology.as_deref().unwrap_or(""), &b.src.name);
            let dst = qt(b.dst.ontology.as_deref().unwrap_or(""), &b.dst.name);
            implies.entry(src).or_default().push(dst);
        }
        let graphs = std::iter::once((&art.ontology, &[rel::SUBCLASS_OF][..]))
            .chain(sources.iter().map(|o| (*o, &[rel::SUBCLASS_OF, rel::INSTANCE_OF][..])));
        for (onto, labels) in graphs {
            let g = onto.graph();
            for e in g.edges().filter(|e| labels.contains(&e.label)) {
                let src = qt(onto.name(), g.node_label(e.src).unwrap());
                let dst = qt(onto.name(), g.node_label(e.dst).unwrap());
                implies.entry(src).or_default().push(dst);
            }
        }
        Oracle { art, sources, conversions, implies }
    }

    /// Does a directed implication path lead from `from` to `to`?
    fn implies(&self, from: &QTerm, to: &QTerm) -> bool {
        let mut seen: HashSet<&QTerm> = HashSet::new();
        let mut queue: VecDeque<&QTerm> = VecDeque::from([from]);
        while let Some(cur) = queue.pop_front() {
            if cur == to {
                return true;
            }
            for next in self.implies.get(cur).into_iter().flatten() {
                if seen.insert(next) {
                    queue.push_back(next);
                }
            }
        }
        false
    }

    /// Does some edge lie on an implication cycle?
    fn has_cycle(&self) -> bool {
        self.implies.iter().any(|(s, ds)| ds.iter().any(|d| self.implies(d, s)))
    }

    fn implying_labels(&self, source: &Ontology, target: &QTerm) -> Vec<String> {
        let mut out: Vec<String> = source
            .graph()
            .nodes()
            .filter(|n| self.implies(&qt(source.name(), n.label), target))
            .map(|n| n.label.to_string())
            .collect();
        out.sort();
        out
    }

    fn local_classes(&self, source: &Ontology, class: &str) -> Vec<String> {
        self.implying_labels(source, &qt(self.art.name(), class))
    }

    fn local_attr(&self, source: &Ontology, attr: &str) -> Option<String> {
        let bridged = self.implying_labels(source, &qt(self.art.name(), attr)).into_iter().next();
        bridged.or_else(|| source.defines(attr).then(|| attr.to_string()))
    }

    fn reformulate(
        &self,
        r: &Reformulator,
        query: &Query,
    ) -> Result<Vec<SourceReformulation>, QueryError> {
        if !self.art.ontology.defines(&query.class) {
            return Err(QueryError::UnknownClass(query.class.clone()));
        }
        let mut out = Vec::new();
        for source in self.sources {
            let classes = self.local_classes(source, &query.class);
            if classes.is_empty() {
                continue;
            }
            let mut wanted: Vec<&String> = Vec::new();
            for attr in query.select.iter().chain(query.conditions.iter().map(|c| &c.attr)) {
                if !wanted.contains(&attr) {
                    wanted.push(attr);
                }
            }
            let mut attr_map = HashMap::new();
            let mut conversions = Vec::new();
            for attr in wanted {
                if let Some(local) = self.local_attr(source, attr) {
                    conversions.extend(r.conversion_for(source, &local));
                    attr_map.insert(attr.clone(), local);
                }
            }
            let mut conditions = Vec::new();
            for c in &query.conditions {
                let Some(local) = attr_map.get(&c.attr) else {
                    conditions.push(c.clone());
                    continue;
                };
                let value = match (&c.value, conversions.iter().find(|x| &x.local_attr == local)) {
                    (Value::Num(n), Some(conv)) => {
                        let inverse = conv.to_local.as_deref().ok_or_else(|| {
                            QueryError::Conversion(format!(
                                "no inverse registered for {}",
                                conv.to_articulation
                            ))
                        })?;
                        let converted = self
                            .conversions
                            .apply(inverse, *n)
                            .map_err(|e| QueryError::Conversion(e.to_string()))?;
                        Value::Num(converted)
                    }
                    (v, _) => v.clone(),
                };
                conditions.push(Condition::new(local, c.op, value));
            }
            out.push(SourceReformulation {
                source: source.name().to_string(),
                classes,
                attr_map,
                conversions,
                conditions,
            });
        }
        Ok(out)
    }
}

/// splitmix64: the deterministic choices of `build_case`.
struct Pick(u64);

impl Pick {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n.max(1) as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn label<'o>(&mut self, onto: &'o Ontology) -> &'o str {
        let labels = onto.graph().node_labels_sorted();
        labels[self.below(labels.len())]
    }
}

/// Irregular shapes layered onto a generated pair (bit flags).
const CYCLES: u8 = 1;
const GHOSTS: u8 = 2;
const TWIN: u8 = 4;
const DELETES: u8 = 8;

/// One reformulation input: an articulation, its sources (a twin shares
/// `left`'s name), queries and the terms to probe directly.
struct Case {
    art: Articulation,
    sources: Vec<Ontology>,
    queries: Vec<Query>,
    probes: Vec<String>,
}

fn build_case(seed: u64, concepts: usize, keep_percent: usize, shapes: u8) -> Case {
    let pair = overlap_pair(&OverlapSpec {
        seed,
        concepts,
        overlap: 0.4,
        rename_prob: 0.5,
        max_children: 4,
    });
    let mut pick = Pick(seed ^ (u64::from(shapes) << 56));
    let (mut left, mut right) = (pair.left, pair.right);
    for (onto, currency) in [(&mut left, "DutchGuilders"), (&mut right, "PoundSterling")] {
        let g = onto.graph_mut();
        g.ensure_edge_by_labels("Price", "expressedIn", currency).unwrap();
        let classes = g.node_labels_sorted().into_iter().map(String::from).collect::<Vec<_>>();
        for i in 0..4 {
            let class = &classes[pick.below(classes.len())];
            g.ensure_edge_by_labels(&format!("inst{i}"), rel::INSTANCE_OF, class).unwrap();
        }
    }

    let mut rules = String::from(
        "DGToEuroFn(): left.DutchGuilders => transport.Euro\n\
         PSToEuroFn(): right.PoundSterling => transport.Euro\n",
    );
    for (l, r) in &pair.truth {
        if pick.chance(keep_percent) {
            rules.push_str(&format!("{l} => {r}\n"));
        }
        if shapes & CYCLES != 0 && pick.chance(50) {
            rules.push_str(&format!("{r} => {l}\n"));
        }
    }
    if shapes & GHOSTS != 0 {
        for k in 0..3 {
            let (a, b) = (pick.label(&left).to_string(), pick.label(&right).to_string());
            rules.push_str(&format!("left.{a} => left.Ghost{k}\nleft.Ghost{k} => right.{b}\n"));
            rules.push_str(&format!("right.Phantom{k} => right.{b}\n"));
        }
    }
    let config = GeneratorConfig { strict_terms: false, ..GeneratorConfig::default() };
    let rules = parse_rules(&rules).unwrap();
    let mut art =
        ArticulationGenerator::with_config(config).generate(&rules, &[&left, &right]).unwrap();

    if shapes & CYCLES != 0 {
        // an articulation-internal SubclassOf cycle
        let labels = art.ontology.graph().node_labels_sorted();
        let (a, b) = (labels[pick.below(labels.len())], labels[pick.below(labels.len())]);
        let (a, b) = (a.to_string(), b.to_string());
        art.ontology.subclass(&a, &b).unwrap();
        art.ontology.subclass(&b, &a).unwrap();
    }
    if shapes & GHOSTS != 0 {
        // paths through graph-less namespaces (an unknown one and the
        // unqualified one), a bridge-only articulation term, and a source
        // term that names the other side's label
        let class = pick.label(&art.ontology).to_string();
        let (l, r) = (pick.label(&left).to_string(), pick.label(&right).to_string());
        let mut bridge = |s: Term, d: Term| art.add_bridge(Bridge::si(s, d, BridgeKind::Rule));
        let art_term = |t: &str| Term::qualified("transport", t);
        bridge(Term::qualified("left", &l), Term::qualified("elsewhere", "Ghost"));
        bridge(Term::qualified("elsewhere", "Ghost"), art_term(&class));
        bridge(Term::qualified("right", &r), Term::unqualified("Loose"));
        bridge(Term::unqualified("Loose"), art_term(&class));
        bridge(Term::qualified("left", &l), art_term("Unlisted"));
        bridge(Term::qualified("left", &r), art_term(&class));
    }

    let mut twin = None;
    if shapes & TWIN != 0 {
        let mut t = left.clone();
        for k in 0..6 {
            let parent = pick.label(&t).to_string();
            t.subclass(&format!("TwinOnly{k}"), &parent).unwrap();
        }
        let g = t.graph_mut();
        for _ in 0..3 {
            let ids: Vec<NodeId> = g.node_ids().collect();
            g.delete_node(ids[pick.below(ids.len())]).unwrap();
        }
        twin = Some(t);
    }
    if shapes & DELETES != 0 {
        // delete bridged terms first so bridges name dead labels
        for onto in [&mut left, &mut right] {
            let bridged: Vec<String> =
                art.bridged_terms(onto.name()).into_iter().map(String::from).collect();
            let g = onto.graph_mut();
            for _ in 0..(2 + g.node_count() / 10) {
                let id = if !bridged.is_empty() && pick.chance(60) {
                    g.node_by_label(&bridged[pick.below(bridged.len())])
                } else {
                    g.node_ids().nth(pick.below(g.node_count()))
                };
                if let Some(id) = id {
                    g.delete_node(id).unwrap();
                }
            }
        }
    }

    let mut sources = vec![left, right];
    if let Some(t) = twin {
        sources.insert(pick.below(3), t);
    }

    let art_labels: Vec<String> =
        art.ontology.graph().node_labels_sorted().into_iter().map(String::from).collect();
    let mut queries = random_queries(&art, "Price", 12, seed ^ 0x0e1e);
    for _ in 0..8 {
        let class = &art_labels[pick.below(art_labels.len())];
        let attr = &art_labels[pick.below(art_labels.len())];
        let q = Query::all(class).select(attr).select("Price");
        queries.push(match pick.below(3) {
            0 => q.filter(attr, CmpOp::Lt, Value::Num(500.0)),
            1 => q.filter("Price", CmpOp::Gt, Value::Num(100.0)).filter(
                attr,
                CmpOp::Ne,
                Value::Str("x".into()),
            ),
            _ => q,
        });
    }
    queries.push(Query::all("NoSuchClass").select("Price"));
    queries.push(Query::all("Unlisted"));

    let mut probes: HashSet<String> = art_labels.into_iter().collect();
    for b in &art.bridges {
        probes.insert(b.src.name.clone());
        probes.insert(b.dst.name.clone());
    }
    for s in &sources {
        probes.insert(pick.label(s).to_string());
    }
    probes.extend(["Price", "NoSuchTerm"].map(String::from));
    let mut probes: Vec<String> = probes.into_iter().collect();
    probes.sort();
    Case { art, sources, queries, probes }
}

/// Asserts the backward search agrees with the oracle on every probe
/// and query of `case`; returns how many (source, probe) pairs mapped
/// to at least one local class, so callers can check coverage.
fn check(case: &Case) -> Result<usize, TestCaseError> {
    let conv = ConversionRegistry::standard();
    let sources: Vec<&Ontology> = case.sources.iter().collect();
    let r = Reformulator::new(&case.art, sources.clone(), &conv);
    let oracle = Oracle::new(&case.art, &sources, &conv);
    let mut mapped = 0;
    for source in &sources {
        for probe in &case.probes {
            let got = r.local_classes(source, probe);
            prop_assert_eq!(&got, &oracle.local_classes(source, probe), "classes {}", probe);
            mapped += usize::from(!got.is_empty());
            prop_assert_eq!(
                r.local_attr(source, probe),
                oracle.local_attr(source, probe),
                "attr {}",
                probe
            );
        }
    }
    for q in &case.queries {
        prop_assert_eq!(r.reformulate(q), oracle.reformulate(&r, q), "query {}", q);
    }
    Ok(mapped)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Generated pairs from random truth subsets, each with a random
    /// mix of the irregular shapes (none of them in a quarter of cases).
    #[test]
    fn backward_search_matches_forward_oracle(
        seed in 0u64..1_000_000,
        concepts in 20usize..90,
        keep_percent in 20usize..100,
        shapes in 0u8..16,
    ) {
        let shapes = if seed % 4 == 0 { 0 } else { shapes };
        let mapped = check(&build_case(seed, concepts, keep_percent, shapes))?;
        prop_assert!(mapped > 0, "no probe mapped to a local class");
    }
}

fn check_fixed(seeds: &[u64], shapes: u8, precondition: impl Fn(&Case) -> bool) {
    for &seed in seeds {
        let case = build_case(seed, 60, 70, shapes);
        assert!(precondition(&case), "seed {seed}: the case lacks its shape");
        if let Err(e) = check(&case) {
            panic!("seed {seed}: {e:?}");
        }
    }
}

#[test]
fn reverse_bridges_closing_cycles_match() {
    check_fixed(&[3, 17, 40], CYCLES, |case| {
        let sources: Vec<&Ontology> = case.sources.iter().collect();
        Oracle::new(&case.art, &sources, &ConversionRegistry::standard()).has_cycle()
    });
}

#[test]
fn terms_absent_from_their_graph_match() {
    check_fixed(&[5, 29, 71], GHOSTS, |case| {
        let left = &case.sources[0];
        let conv = ConversionRegistry::standard();
        let r = Reformulator::new(&case.art, vec![left, &case.sources[1]], &conv);
        let ghost_bridged = case.art.bridges.iter().any(|b| b.src.name.starts_with("Ghost"));
        ghost_bridged && !left.defines("Ghost0") && !r.local_classes(left, "Unlisted").is_empty()
    });
}

#[test]
fn two_sources_with_one_name_match() {
    check_fixed(&[8, 33, 90], TWIN, |case| {
        let conv = ConversionRegistry::standard();
        let sources: Vec<&Ontology> = case.sources.iter().collect();
        let r = Reformulator::new(&case.art, sources.clone(), &conv);
        sources.iter().filter(|s| s.name() == "left").count() == 2
            && sources.iter().any(|s| {
                case.probes
                    .iter()
                    .any(|p| r.local_classes(s, p).iter().any(|c| c.starts_with("TwinOnly")))
            })
    });
}

#[test]
fn deleted_bridged_nodes_match() {
    check_fixed(&[2, 21, 64], DELETES, |case| {
        let left = &case.sources[0];
        case.art
            .bridged_terms("left")
            .iter()
            .any(|t| !left.defines(t) && left.graph().label_id(t).is_some())
    });
}

/// The paper's Fig. 2 articulation: conversions in both currencies,
/// conditions pushed down through their inverses.
#[test]
fn fig2_reformulations_match() {
    let (c, f) = (examples::carrier(), examples::factory());
    let art = ArticulationGenerator::new().generate(&examples::fig2_rules(), &[&c, &f]).unwrap();
    let conv = ConversionRegistry::standard();
    let sources = [&c, &f];
    let r = Reformulator::new(&art, sources.to_vec(), &conv);
    let oracle = Oracle::new(&art, &sources, &conv);
    for class in art.ontology.graph().node_labels_sorted() {
        let all = Query::all(class).select("Price").select("Owner");
        for q in [
            all.clone(),
            all.clone().filter("Price", CmpOp::Lt, Value::Num(5000.0)),
            all.filter("Owner", CmpOp::Eq, Value::Str("Mitra".into())).filter(
                "Price",
                CmpOp::Ge,
                Value::Num(10.0),
            ),
        ] {
            assert_eq!(r.reformulate(&q), oracle.reformulate(&r, &q), "{q}");
        }
        for s in sources {
            assert_eq!(r.local_classes(s, class), oracle.local_classes(s, class), "{class}");
            assert_eq!(r.local_attr(s, class), oracle.local_attr(s, class), "{class}");
        }
    }
    let priced = r.reformulate(&Query::parse("find Vehicle(Price) where Price < 1").unwrap());
    assert_eq!(priced.unwrap().iter().filter(|s| !s.conversions.is_empty()).count(), 2);
}
