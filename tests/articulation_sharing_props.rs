//! What a clone of an articulation shares, and what the sharing must
//! not change.
//!
//! An `Articulation` is cheap to copy because it shares its contents:
//! terms, bridge labels and rule terms are `Arc<str>`, the articulation
//! ontology is an `Arc<Ontology>` made unique only when it is written,
//! and the bridge-support set keys each bridge by its own terms. A label
//! `Interner` keeps one `Arc<str>` per label, shared by its id vector and
//! its lookup map. Checks:
//!
//! * after `b = a.clone()`, every bridge term and label and every rule
//!   term of `b` is the same allocation as `a`'s (`Arc::ptr_eq`), and so
//!   is the ontology — on Fig. 2 (functional, conjunctive, disjunctive
//!   and intra-articulation rules) and on generated pairs with derived
//!   bridges;
//! * an `OntGraph` clone resolves every label to the same bytes as the
//!   graph it was cloned from;
//! * `apply_delta` on a clone equals `apply_delta` on the original in
//!   place (the report, `{:?}` with `graph_id` masked, and
//!   `persist::to_text`), leaves the original's `{:?}` as it was, and
//!   unshares the two ontologies exactly when it applies a rule — over
//!   generated pairs × `update_stream` scripts, with and without added
//!   labels the peer defines and a deleted bridged term;
//! * random `add_bridge` / `add_bridge_supported` / `drop_rule_support` /
//!   `remove_bridges_touching` scripts on dot-free names return and keep
//!   the same bridges as a copy, kept below, of the support map keyed by
//!   display strings that the term-keyed set replaced;
//! * two bridges whose terms print alike (`a.b` + `c` and `a` + `b.c`)
//!   keep separate support, where the display-keyed map merged them.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

use proptest::prelude::*;

use onion_core::articulate::maintain::apply_delta;
use onion_core::articulate::{persist, ExactLabelMatcher};
use onion_core::graph::ops::apply_all;
use onion_core::prelude::*;
use onion_core::testkit::{overlap_pair, update_stream, OverlapPair, OverlapSpec, UpdateSpec};

/// The bridge-support bookkeeping as it stood when it was keyed by
/// display strings: a map from the printed `(src, label, dst)` triple to
/// the rules supporting it, next to the bridge list.
#[derive(Debug, Default)]
struct DisplayKeyed {
    bridges: Vec<Bridge>,
    support: BTreeMap<(String, String, String), BTreeSet<String>>,
}

fn display_key(b: &Bridge) -> (String, String, String) {
    (b.src.to_string(), b.label.to_string(), b.dst.to_string())
}

impl DisplayKeyed {
    fn add_bridge(&mut self, bridge: Bridge) -> bool {
        if self
            .bridges
            .iter()
            .any(|b| b.src == bridge.src && b.label == bridge.label && b.dst == bridge.dst)
        {
            return false;
        }
        self.bridges.push(bridge);
        true
    }

    fn add_bridge_supported(&mut self, bridge: Bridge, rule_key: &str) -> bool {
        let key = display_key(&bridge);
        let added = self.add_bridge(bridge);
        self.support.entry(key).or_default().insert(rule_key.to_string());
        added
    }

    fn drop_rule_support(&mut self, rule_key: &str) -> usize {
        let mut dead: HashSet<(String, String, String)> = HashSet::new();
        for (key, rules) in self.support.iter_mut() {
            if rules.remove(rule_key) && rules.is_empty() {
                dead.insert(key.clone());
            }
        }
        if dead.is_empty() {
            return 0;
        }
        let before = self.bridges.len();
        self.bridges.retain(|b| !dead.contains(&display_key(b)));
        self.support.retain(|k, _| !dead.contains(k));
        before - self.bridges.len()
    }

    fn remove_bridges_touching(&mut self, ontology: &str, name: &str) -> usize {
        let before = self.bridges.len();
        let mut dead: HashSet<(String, String, String)> = HashSet::new();
        self.bridges.retain(|b| {
            if b.touches(ontology, name) {
                dead.insert(display_key(b));
                false
            } else {
                true
            }
        });
        self.support.retain(|k, _| !dead.contains(k));
        before - self.bridges.len()
    }
}

fn same_term(x: &Term, y: &Term) -> bool {
    let ontology = match (&x.ontology, &y.ontology) {
        (Some(p), Some(q)) => Arc::ptr_eq(p, q),
        (None, None) => true,
        _ => false,
    };
    ontology && Arc::ptr_eq(&x.name, &y.name)
}

/// Asserts that `b`, a clone of `a`, shares every string and the
/// ontology with it.
fn assert_shares(a: &Articulation, b: &Articulation) {
    assert!(Arc::ptr_eq(&a.ontology, &b.ontology), "the clone copied the ontology");
    assert_eq!(a.bridges.len(), b.bridges.len());
    for (x, y) in a.bridges.iter().zip(&b.bridges) {
        assert!(same_term(&x.src, &y.src), "bridge {x}: src copied");
        assert!(Arc::ptr_eq(&x.label, &y.label), "bridge {x}: label copied");
        assert!(same_term(&x.dst, &y.dst), "bridge {x}: dst copied");
    }
    assert_eq!(a.rules.len(), b.rules.len());
    for (x, y) in a.rules.iter().zip(b.rules.iter()) {
        let (xs, ys) = (x.terms(), y.terms());
        assert_eq!(xs.len(), ys.len());
        for (s, t) in xs.into_iter().zip(ys) {
            assert!(same_term(s, t), "rule {x}: term {s} copied");
        }
    }
}

fn pair(seed: u64, concepts: usize, overlap: f64) -> OverlapPair {
    overlap_pair(&OverlapSpec { seed, concepts, overlap, rename_prob: 0.5, max_children: 4 })
}

fn truth_rules<'a>(truth: impl IntoIterator<Item = &'a (String, String)>) -> RuleSet {
    let mut rs = RuleSet::new();
    for (l, r) in truth {
        let (lo, ln) = l.split_once('.').expect("qualified");
        let (ro, rn) = r.split_once('.').expect("qualified");
        rs.push(ArticulationRule::term_implies(Term::qualified(lo, ln), Term::qualified(ro, rn)));
    }
    rs
}

fn labels(o: &Ontology) -> Vec<String> {
    let mut v: Vec<String> = o.graph().nodes().map(|n| n.label.to_string()).collect();
    v.sort();
    v
}

/// Masks the process-global `graph_id` counter, which a copy-on-write
/// clone of the articulation ontology draws afresh.
fn mask_graph_id(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find("graph_id: ") {
        out.push_str(&rest[..i]);
        out.push_str("graph_id: _");
        let tail = &rest[i + "graph_id: ".len()..];
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

#[test]
fn a_clone_shares_every_string_and_the_ontology() {
    let (carrier, factory) = (examples::carrier(), examples::factory());
    let fig2 = ArticulationGenerator::new()
        .generate(&examples::fig2_rules(), &[&carrier, &factory])
        .unwrap();
    assert!(fig2.bridges.iter().any(|b| b.kind == BridgeKind::Functional));
    let copy = fig2.clone();
    assert_shares(&fig2, &copy);
    assert_shares(&fig2, &copy.clone());

    let p = pair(7, 120, 0.3);
    let config = GeneratorConfig { expand_with_inference: true, ..GeneratorConfig::default() };
    let (art, stats) = ArticulationGenerator::with_config(config)
        .generate_with_stats(&truth_rules(&p.truth), &[&p.left, &p.right])
        .unwrap();
    assert!(stats.derived_bridges > 0, "no derived bridge to share");
    assert_shares(&art, &art.clone());
}

#[test]
fn graph_clones_share_label_bytes() {
    let g = examples::carrier().graph().clone();
    let copy = g.clone();
    assert_eq!(copy.interner().len(), g.interner().len());
    for (id, label) in g.interner().iter() {
        assert!(std::ptr::eq(label, copy.interner().resolve(id)), "{label} copied by the clone");
    }
}

#[test]
fn bridges_whose_terms_print_alike_keep_separate_support() {
    let first = Term { ontology: Some("a.b".into()), name: "c".into() };
    let second = Term { ontology: Some("a".into()), name: "b.c".into() };
    assert_eq!(first.to_string(), second.to_string());
    let dst = Term::qualified("art", "X");
    let bridge = |src: &Term| Bridge::si(src.clone(), dst.clone(), BridgeKind::Rule);
    let mut art = Articulation::new("art");
    let mut old = DisplayKeyed::default();
    for (src, rule) in [(&first, "r1"), (&second, "r2")] {
        assert!(art.add_bridge_supported(bridge(src), rule));
        assert!(old.add_bridge_supported(bridge(src), rule));
    }
    assert_eq!(art.drop_rule_support("r1"), 1);
    assert_eq!(art.bridges, vec![bridge(&second)]);
    // the display-keyed map merged the two bridges' support under one
    // key, so dropping r1 retracted neither
    assert_eq!(old.drop_rule_support("r1"), 0);
    assert_eq!(old.bridges.len(), 2);
    assert_eq!(art.drop_rule_support("r2"), 1);
    assert!(art.bridges.is_empty());
}

/// How often a support script reached each interesting outcome.
#[derive(Debug, Default)]
struct Reach {
    /// Drops that retracted at least one bridge.
    retracting_drops: usize,
    /// Drops that left a bridge another rule still supports.
    surviving_bridges: usize,
    /// Removals by term that removed a supported bridge.
    removals: usize,
}

/// A xorshift generator for support scripts.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }
}

/// Runs one random support script, generated from `seed`, on an
/// articulation and on [`DisplayKeyed`], comparing every return value
/// and the bridge list after every step.
fn check_support_script(seed: u64) -> Result<Reach, String> {
    const ONTOLOGIES: [&str; 3] = ["left", "right", "art"];
    const NAMES: [&str; 3] = ["A", "B", "C"];
    const LABELS: [&str; 2] = [rel::SI_BRIDGE, "PSToEuroFn"];
    const RULES: [&str; 3] = ["r1", "r2", "r3"];
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut art = Articulation::new("art");
    let mut old = DisplayKeyed::default();
    let mut reach = Reach::default();
    let steps = 20 + rng.below(60);
    for step in 0..steps {
        let src = Term::qualified(rng.pick(&ONTOLOGIES), rng.pick(&NAMES));
        let dst = Term::qualified(rng.pick(&ONTOLOGIES), rng.pick(&NAMES));
        let label = rng.pick(&LABELS);
        let bridge = Bridge { src, label: label.into(), dst, kind: BridgeKind::Rule };
        let rule = rng.pick(&RULES);
        let (op, got, want) = match rng.below(6) {
            0 | 1 => {
                let got = art.add_bridge_supported(bridge.clone(), rule);
                let want = old.add_bridge_supported(bridge.clone(), rule);
                (format!("add {bridge} supported by {rule}"), usize::from(got), usize::from(want))
            }
            2 => {
                let got = art.add_bridge(bridge.clone());
                let want = old.add_bridge(bridge.clone());
                (format!("add {bridge} unsupported"), usize::from(got), usize::from(want))
            }
            3 | 4 => {
                // bridges `rule` supports along with another rule
                let shared: Vec<Bridge> = old
                    .bridges
                    .iter()
                    .filter(|b| {
                        old.support
                            .get(&display_key(b))
                            .is_some_and(|r| r.len() > 1 && r.contains(rule))
                    })
                    .cloned()
                    .collect();
                let got = art.drop_rule_support(rule);
                let want = old.drop_rule_support(rule);
                reach.retracting_drops += usize::from(want > 0);
                reach.surviving_bridges +=
                    shared.iter().filter(|b| old.bridges.contains(b)).count();
                (format!("drop {rule}"), got, want)
            }
            _ => {
                let (o, n) = (rng.pick(&ONTOLOGIES), rng.pick(&NAMES));
                let got = art.remove_bridges_touching(o, n);
                let want = old.remove_bridges_touching(o, n);
                reach.removals += usize::from(want > 0);
                (format!("remove bridges touching {o}.{n}"), got, want)
            }
        };
        if got != want {
            return Err(format!("seed {seed}, step {step} ({op}): returned {got}, want {want}"));
        }
        if format!("{:?}", art.bridges) != format!("{:?}", old.bridges) {
            return Err(format!(
                "seed {seed}, step {step} ({op}):\n got  {:?}\n want {:?}",
                art.bridges, old.bridges
            ));
        }
    }
    Ok(reach)
}

#[test]
fn support_scripts_reach_every_outcome() {
    let mut total = Reach::default();
    for seed in 0..64 {
        let reach = check_support_script(seed).unwrap();
        total.retracting_drops += reach.retracting_drops;
        total.surviving_bridges += reach.surviving_bridges;
        total.removals += reach.removals;
    }
    assert!(
        total.retracting_drops > 0 && total.surviving_bridges > 0 && total.removals > 0,
        "{total:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn support_set_behaves_like_the_display_keyed_map(seed in 0u64..1_000_000) {
        let res = check_support_script(seed);
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn apply_delta_on_a_clone_equals_apply_delta_in_place(
        seed in 0u64..10_000,
        concepts in 20usize..80,
        overlap in 10u32..60,
        peer_adds in 0usize..3,
        delete_bridged in 0u8..2,
    ) {
        let p = pair(seed, concepts, f64::from(overlap) / 100.0);
        let generator = ArticulationGenerator::new();
        let mut original =
            generator.generate(&truth_rules(p.truth.iter().step_by(2)), &[&p.left, &p.right]).unwrap();
        let spec = UpdateSpec { seed, ops: 12, bridged_fraction: 0.5, delete_fraction: 0.2 };
        let mut ops = update_stream(&p.left, &original, &spec);
        // labels only the peer defines, added under bridged terms, so the
        // exact matcher proposes rules for them
        let bridged: Vec<String> =
            original.bridged_terms("left").into_iter().map(str::to_string).collect();
        let peer_only: Vec<String> =
            labels(&p.right).into_iter().filter(|l| !p.left.defines(l)).collect();
        let planted = peer_adds.min(peer_only.len());
        if !bridged.is_empty() {
            for (i, l) in peer_only.iter().take(planted).enumerate() {
                let parent = bridged[i % bridged.len()].clone();
                ops.push(GraphOp::node_add_with(l.clone(), vec![("SubclassOf".into(), parent)], vec![]));
            }
            if delete_bridged == 1 {
                if let Some(b) = bridged.iter().rev().find(|b| *b != "Root") {
                    ops.push(GraphOp::node_delete(b.clone()));
                }
            }
        }
        let mut left = p.left.clone();
        apply_all(left.graph_mut(), &ops).unwrap();
        let sources = [&left, &p.right];
        let pipeline = MatcherPipeline::new().with(ExactLabelMatcher);

        let before = format!("{original:?}");
        let mut copy = original.clone();
        let on_copy = apply_delta(
            &mut copy, "left", &ops, &sources, &generator, Some((&pipeline, &mut AcceptAll)),
        ).unwrap();
        prop_assert_eq!(format!("{original:?}"), before, "the original changed");
        prop_assert_eq!(
            Arc::ptr_eq(&copy.ontology, &original.ontology),
            on_copy.rules_added == 0,
            "the ontologies must stop sharing exactly when a rule is applied ({:?})", on_copy
        );
        if planted > 0 && !bridged.is_empty() {
            prop_assert!(on_copy.rules_added > 0, "planted peer labels added no rule");
        }
        let in_place = apply_delta(
            &mut original, "left", &ops, &sources, &generator, Some((&pipeline, &mut AcceptAll)),
        ).unwrap();
        prop_assert_eq!(on_copy, in_place);
        prop_assert_eq!(
            mask_graph_id(&format!("{copy:?}")),
            mask_graph_id(&format!("{original:?}"))
        );
        prop_assert_eq!(persist::to_text(&copy), persist::to_text(&original));
    }
}
