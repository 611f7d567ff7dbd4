//! Rows that share the knowledge base's strings answer exactly as rows
//! that owned them.
//!
//! A result row holds `Arc` clones of its instance's id and class, one
//! source name per source query, and its projected attributes in a map
//! keyed by one shared name per selected attribute;
//! `KnowledgeBase::query` hands the rows' instances out in id order. The oracle below is a copy of the executor this layout
//! replaced: a full scan of the knowledge base in insertion order, owned
//! `String`s and one `BTreeMap` per row, then a stable sort by
//! (source, id).
//!
//! `execute_plan`, `OnionSystem::run_query` and `OnionSystem::run_batch`
//! (1 and 2 threads, cache on and off, each batch twice so the second
//! is served from the cache when there is one) must equal the oracle
//! row by row (id, source, local class, each attribute's name and value
//! bits, row order), and their `Display` and `to_table` text must be
//! byte-identical to the oracle's. Errors must match too.
//!
//! Inputs: generated pairs with `random_queries` plus selects that name
//! several attributes, repeat one, and project a string attribute; the
//! paper's Fig. 2 pair with its currency conversions; knowledge bases
//! with repeated ids, instances that lack the selected attributes or
//! hold a string where a number is converted, and classes no ontology
//! has; and every run repeated with one knowledge base missing.

use std::collections::{BTreeMap, HashSet};
use std::fmt;

use proptest::prelude::*;

use onion_core::exec::Executor;
use onion_core::ontology::examples::{carrier, factory, fig2_rules};
use onion_core::prelude::*;
use onion_core::query::exec::execute_plan;
use onion_core::query::{plan, Condition, QueryError, QueryPlan};
use onion_core::testkit::{overlap_pair, random_queries, OverlapSpec};
use onion_core::OnionSystem;

// ---------------------------------------------------------------------
// The oracle: the executor as it was, with owned strings and maps
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
struct OwnedRow {
    id: String,
    source: String,
    local_class: String,
    attrs: BTreeMap<String, Value>,
}

#[derive(Debug, Default)]
struct OwnedSet {
    rows: Vec<OwnedRow>,
}

/// `KnowledgeBase::query` before the class partition: every instance
/// probed, in insertion order.
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

/// `execute_plan` with owned rows: wrappers matched by name (a missing
/// one contributes nothing), every select-list entry converted in list
/// order into a map, rows sorted by (source, id) at the end.
fn owned_execute(
    plan: &QueryPlan,
    conversions: &ConversionRegistry,
    kbs: &[&KnowledgeBase],
) -> Result<OwnedSet, QueryError> {
    let mut rs = OwnedSet::default();
    for sq in &plan.source_queries {
        let Some(kb) = kbs.iter().find(|kb| kb.name() == sq.source) else { continue };
        for inst in full_scan(kb, &sq.classes, &sq.conditions) {
            let mut attrs = BTreeMap::new();
            for art_attr in &plan.query.select {
                let Some(local) = sq.attr_map.get(art_attr) else { continue };
                let Some(v) = inst.attrs.get(local) else { continue };
                let conv = sq.conversions.iter().find(|c| &c.local_attr == local);
                let converted = match (v, conv) {
                    (Value::Num(n), Some(conv)) => Value::Num(
                        conversions
                            .apply(&conv.to_articulation, *n)
                            .map_err(|e| QueryError::Conversion(e.to_string()))?,
                    ),
                    (v, _) => v.clone(),
                };
                attrs.insert(art_attr.clone(), converted);
            }
            rs.rows.push(OwnedRow {
                id: inst.id.to_string(),
                source: sq.source.clone(),
                local_class: inst.class.to_string(),
                attrs,
            });
        }
    }
    rs.rows.sort_by(|a, b| (&a.source, &a.id).cmp(&(&b.source, &b.id)));
    Ok(rs)
}

impl OwnedSet {
    /// The old `ResultSet::to_table`, verbatim.
    fn to_table(&self, columns: &[String]) -> String {
        let mut header: Vec<String> = vec!["id".into(), "source".into()];
        header.extend(columns.iter().cloned());
        let mut rows: Vec<Vec<String>> = vec![header];
        for r in &self.rows {
            let mut row = vec![r.id.clone(), r.source.clone()];
            for c in columns {
                row.push(r.attrs.get(c).map(|v| v.to_string()).unwrap_or_else(|| "-".into()));
            }
            rows.push(row);
        }
        let widths: Vec<usize> = (0..rows[0].len())
            .map(|i| rows.iter().map(|r| r[i].len()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for (ri, row) in rows.iter().enumerate() {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{cell:<width$}", width = widths[i]));
            }
            out.push('\n');
            if ri == 0 {
                out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
                out.push('\n');
            }
        }
        out
    }
}

/// The old `ResultSet` `Display`, verbatim.
impl fmt::Display for OwnedSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut columns: Vec<String> = Vec::new();
        for r in &self.rows {
            for k in r.attrs.keys() {
                if !columns.contains(k) {
                    columns.push(k.clone());
                }
            }
        }
        write!(f, "{}", self.to_table(&columns))
    }
}

// ---------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------

/// A value as its exact bits: numbers by `to_bits`, strings as text.
fn bits(v: &Value) -> String {
    match v {
        Value::Num(x) => format!("num {:016x}", x.to_bits()),
        Value::Str(s) => format!("str {s}"),
    }
}

/// `got` equals `want` row by row and in its rendered text.
fn same_rows(got: &ResultSet, want: &OwnedSet, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.rows.len(), want.rows.len(), "{}: row count", what);
    for (i, (g, w)) in got.rows.iter().zip(&want.rows).enumerate() {
        prop_assert_eq!(
            (&*g.id, &*g.source, &*g.local_class),
            (w.id.as_str(), w.source.as_str(), w.local_class.as_str()),
            "{}: row {}",
            what,
            i
        );
        let got_attrs: Vec<(&str, String)> = g.attrs.iter().map(|(k, v)| (&**k, bits(v))).collect();
        let want_attrs: Vec<(&str, String)> =
            w.attrs.iter().map(|(k, v)| (k.as_str(), bits(v))).collect();
        prop_assert_eq!(got_attrs, want_attrs, "{}: row {} attributes", what, i);
    }
    prop_assert_eq!(got.to_string(), want.to_string(), "{}: Display", what);
    let columns: Vec<String> = ["Price", "Owner", "Missing"].map(String::from).to_vec();
    prop_assert_eq!(got.to_table(&columns), want.to_table(&columns), "{}: to_table", what);
    Ok(())
}

/// Both results succeed and match, or both fail with the same text.
fn same_result(
    got: Result<&ResultSet, String>,
    want: &Result<OwnedSet, String>,
    what: &str,
) -> Result<(), TestCaseError> {
    match (got, want) {
        (Ok(g), Ok(w)) => same_rows(g, w, what),
        (Err(g), Err(w)) => {
            prop_assert_eq!(&g, w, "{}: error", what);
            Ok(())
        }
        (g, w) => {
            let g = g.map(|rs| rs.len());
            let w = w.as_ref().map(|rs| rs.rows.len());
            prop_assert!(false, "{}: got {:?}, want {:?}", what, g, w);
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

/// One generated instance: class pick, id pick, price kind, owner pick.
type Pick = (usize, usize, usize, usize);

fn picks() -> impl Strategy<Value = Vec<Pick>> {
    prop::collection::vec((0usize..1000, 0usize..40, 0usize..4, 0usize..3), 0..120)
}

/// A knowledge base over `classes` plus two classes no ontology has.
/// Ids repeat (40 per side); a price is missing, numeric or the string
/// `"n/a"` (a string where a number would be converted); an owner is
/// missing or one of two strings.
fn kb_from(name: &str, classes: &[String], picks: &[Pick]) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new(name);
    for &(class, id, price, owner) in picks {
        let class = match class % (classes.len() + 2) {
            c if c < classes.len() => classes[c].clone(),
            c => format!("Ghost{c}"),
        };
        let mut inst = Instance::new(&format!("{name}{id}"), &class);
        match price {
            0 => {}
            1 => inst = inst.with("Price", Value::Str("n/a".into())),
            p => inst = inst.with("Price", Value::Num(((id * 1237 + p) % 9000) as f64 + 0.25)),
        }
        if owner > 0 {
            inst = inst.with("Owner", Value::Str(format!("own{owner}")));
        }
        kb.add(inst);
    }
    kb
}

fn labels(onto: &Ontology) -> Vec<String> {
    onto.graph().nodes().map(|n| n.label.to_string()).collect()
}

/// `random_queries` plus selects with several attributes, a repeated
/// one, a string attribute, an attribute no source has, conditions on
/// both kinds, and an unknown class.
fn workload(art: &Articulation, seed: u64) -> Vec<Query> {
    let mut queries = random_queries(art, "Price", 8, seed);
    for (i, n) in art.ontology.graph().nodes().take(10).enumerate() {
        let q = Query::all(n.label);
        queries.push(match i % 5 {
            0 => q.select("Price").select("Owner").select("Price"),
            1 => q.select("Owner").select("Missing").select("Owner").filter(
                "Owner",
                CmpOp::Ne,
                Value::Str("own1".into()),
            ),
            2 => q.select("Missing").select("Price").filter("Price", CmpOp::Ge, Value::Num(500.0)),
            3 => q,
            _ => q.select("Owner").select("Price").filter(
                "Owner",
                CmpOp::Eq,
                Value::Str("own2".into()),
            ),
        });
    }
    queries.push(Query::all("NoSuchClass").select("Price"));
    queries
}

/// What the oracle's answers held, with every knowledge base present.
#[derive(Debug, Default)]
struct Coverage {
    rows: usize,
    /// Projected attribute values.
    values: usize,
    /// Adjacent rows with the same source and id.
    repeated_ids: usize,
}

/// Checks `execute_plan` and the facade against the oracle for every
/// query, with all knowledge bases and with each one left out.
fn check_all(fx: &Fixture) -> Result<Coverage, TestCaseError> {
    let (art, conversions, queries) = (&fx.art, &ConversionRegistry::standard(), &fx.queries);
    let sources: [&Ontology; 2] = [&fx.sources[0], &fx.sources[1]];
    let kbs = [&fx.kbs[0], &fx.kbs[1]];
    let mut coverage = Coverage::default();
    let subsets: [Vec<&KnowledgeBase>; 3] = [kbs.to_vec(), vec![kbs[0]], vec![kbs[1]]];
    for present in &subsets {
        let names: Vec<&str> = present.iter().map(|kb| kb.name()).collect();
        let wanted: Vec<Result<OwnedSet, String>> = queries
            .iter()
            .map(|q| {
                let p = plan(q, art, &sources, conversions).map_err(|e| e.to_string())?;
                owned_execute(&p, conversions, present).map_err(|e| e.to_string())
            })
            .collect();
        if present.len() == 2 {
            for rs in wanted.iter().flatten() {
                coverage.rows += rs.rows.len();
                coverage.values += rs.rows.iter().map(|r| r.attrs.len()).sum::<usize>();
                coverage.repeated_ids += rs
                    .rows
                    .windows(2)
                    .filter(|w| (&w[0].source, &w[0].id) == (&w[1].source, &w[1].id))
                    .count();
            }
        }

        // execute_plan on the plan itself
        let wrappers: Vec<InMemoryWrapper> =
            present.iter().map(|kb| InMemoryWrapper::new((*kb).clone())).collect();
        let wrappers: Vec<&dyn Wrapper> = wrappers.iter().map(|w| w as &dyn Wrapper).collect();
        for (i, (q, want)) in queries.iter().zip(&wanted).enumerate() {
            let got = plan(q, art, &sources, conversions)
                .and_then(|p| execute_plan(&p, art, &sources, conversions, &wrappers))
                .map_err(|e| e.to_string());
            same_result(
                got.as_ref().map_err(Clone::clone),
                want,
                &format!("{names:?} execute_plan #{i} {q}"),
            )?;
        }

        // the facade, with and without a cache (its errors print as the
        // query errors they wrap)
        for cache in [0, 64] {
            let mut sys = OnionSystem::new(Lexicon::new());
            for s in sources {
                sys.add_source(s.clone());
            }
            for kb in present {
                sys.add_knowledge_base((*kb).clone());
            }
            sys.set_conversions(conversions.clone());
            sys.set_articulation(art.clone());
            if cache > 0 {
                sys.set_query_cache(cache);
            }
            for (i, (q, want)) in queries.iter().zip(&wanted).enumerate() {
                let got = sys.run_query(q).map_err(|e| e.to_string());
                let what = format!("{names:?} cache={cache} run_query #{i} {q}");
                same_result(got.as_ref().map_err(Clone::clone), want, &what)?;
            }
            for threads in [1, 2] {
                let exec = Executor::new(threads);
                for pass in 0..2 {
                    let got = sys.run_batch(&exec, queries);
                    for (i, (g, want)) in got.iter().zip(&wanted).enumerate() {
                        let g = g.as_ref().map(|rs| rs.as_ref()).map_err(|e| e.to_string());
                        let what = format!(
                            "{names:?} cache={cache} run_batch threads={threads} pass={pass} #{i}"
                        );
                        same_result(g, want, &what)?;
                    }
                }
            }
        }
    }
    Ok(coverage)
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

/// An articulated pair, a knowledge base per side and the queries.
struct Fixture {
    art: Articulation,
    sources: [Ontology; 2],
    kbs: [KnowledgeBase; 2],
    queries: Vec<Query>,
}

/// A generated pair whose sources define `Price` and `Owner` when
/// `define` holds. Without them no row projects anything, as in the
/// `serve` benchmark, whose sources define neither.
fn generated(seed: u64, define: bool, left: &[Pick], right: &[Pick]) -> Fixture {
    let spec = OverlapSpec { seed, concepts: 30, overlap: 0.4, rename_prob: 0.5, max_children: 4 };
    let mut pair = overlap_pair(&spec);
    let kbs = [
        kb_from(pair.left.name(), &labels(&pair.left), left),
        kb_from(pair.right.name(), &labels(&pair.right), right),
    ];
    if define {
        for onto in [&mut pair.left, &mut pair.right] {
            let class = labels(onto)[0].clone();
            onto.attribute("Price", &class).unwrap();
            onto.attribute("Owner", &class).unwrap();
        }
    }
    let art = ArticulationGenerator::new()
        .generate(&truth_rules(&pair.truth), &[&pair.left, &pair.right])
        .unwrap();
    let queries = workload(&art, seed);
    Fixture { art, sources: [pair.left, pair.right], kbs, queries }
}

/// Fig. 2: carrier prices in guilders and factory prices in sterling,
/// converted to euro on the way out and on the way down.
fn fig2(carrier_picks: &[Pick], factory_picks: &[Pick]) -> Fixture {
    let (c, f) = (carrier(), factory());
    let art = ArticulationGenerator::new().generate(&fig2_rules(), &[&c, &f]).unwrap();
    let kbs = [
        kb_from("carrier", &labels(&c), carrier_picks),
        kb_from("factory", &labels(&f), factory_picks),
    ];
    let mut queries = workload(&art, 7);
    for text in [
        "find Vehicle(Price, Owner, Price)",
        "find Vehicle(Owner, Price) where Price < 3000",
        "find Vehicle(Price) where Price >= 1000 and Owner != \"own1\"",
        "find CargoCarrier(Price)",
        "find Vehicle where Owner = \"own2\"",
    ] {
        queries.push(Query::parse(text).unwrap());
    }
    Fixture { art, sources: [c, f], kbs, queries }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn generated_pairs_answer_as_the_owned_executor(
        seed in 0u64..1000,
        define in 0usize..2,
        left in picks(),
        right in picks(),
    ) {
        check_all(&generated(seed, define == 1, &left, &right))?;
    }

    #[test]
    fn fig2_answers_as_the_owned_executor(carrier_picks in picks(), factory_picks in picks()) {
        check_all(&fig2(&carrier_picks, &factory_picks))?;
    }
}

/// The fixtures reach what the properties claim to cover: rows, projected
/// values, repeated ids and, on Fig. 2, prices converted to euro.
#[test]
fn the_fixtures_cover_repeated_ids_projections_and_conversions() {
    let picks: Vec<Pick> = (0..120).map(|i| (i * 7, i % 40, i % 4, i % 3)).collect();
    for fx in [generated(3, true, &picks, &picks), fig2(&picks, &picks)] {
        let coverage = check_all(&fx).unwrap();
        assert!(coverage.rows > 100, "{coverage:?}");
        assert!(coverage.values > 50, "{coverage:?}");
        assert!(coverage.repeated_ids > 10, "{coverage:?}");
    }
    let bare = check_all(&generated(3, false, &picks, &picks)).unwrap();
    assert!(bare.rows > 100 && bare.values == 0, "{bare:?}");

    let (c, f) = (carrier(), factory());
    let art = ArticulationGenerator::new().generate(&fig2_rules(), &[&c, &f]).unwrap();
    let mut ckb = KnowledgeBase::new("carrier");
    ckb.add(Instance::new("car", "Cars").with("Price", Value::Num(2203.71)));
    let conversions = ConversionRegistry::standard();
    let p =
        plan(&Query::parse("find Vehicle(Price)").unwrap(), &art, &[&c, &f], &conversions).unwrap();
    let rs =
        execute_plan(&p, &art, &[&c, &f], &conversions, &[&InMemoryWrapper::new(ckb)]).unwrap();
    assert!((rs.rows[0].attrs["Price"].as_num().unwrap() - 1000.0).abs() < 1e-9);
}
