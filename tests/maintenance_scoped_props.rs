//! Scoped re-proposal against the full proposal it replaced.
//!
//! After an edit, `apply_delta` asks each matcher only for candidates
//! that name a touched label of the changed source
//! (`RuleMatcher::propose_touching`, `MatcherPipeline::propose_touching`).
//! `ExactLabelMatcher` answers by normalising just those labels and
//! scanning the peer's labels once; the other matchers filter their full
//! proposal. Checks:
//!
//! * every matcher (exact, synonym, similarity, also with a `max_pairs`
//!   budget that binds, and structural) and two pipelines: the scoped
//!   list equals `propose`'s list filtered to candidates that name a
//!   touched `o1` label, compared by rule, confidence bits, provenance,
//!   evidence and order;
//! * `ExactLabelMatcher::propose`, which runs the same scan as its scoped
//!   entry, equals a copy, kept below, of the version that indexed the
//!   peer's labels and probed the index with the source's sorted labels;
//! * `SynonymMatcher::propose`, which reads the peer's normalised-label
//!   index, equals a copy, kept below, of the version that built a map of
//!   the peer's normalised labels on every call;
//! * `apply_delta` equals a copy, kept below, of the version that ran the
//!   whole pipeline and filtered afterwards: the same
//!   `MaintenanceReport`, the same expert calls in the same order and the
//!   same `{:?}` rendering of the maintained articulation (its
//!   `graph_id` masked), over generated
//!   pairs × `update_stream` scripts and scripts that add labels a peer
//!   defines;
//! * a peer `Ontology` kept alive across calls never answers from a
//!   stale `label_index`: after each edit through one of its `&mut` paths
//!   (node add and delete through `graph_mut`, `subclass`, `attribute`,
//!   `instance`, `relate`), the exact and synonym matchers answer as they
//!   do on a copy rebuilt from the peer's graph (which holds no index) and
//!   as the kept copies of the old scans do. Building the index leaves
//!   the peer's `{:?}` unchanged, a clone taken after the build shares the
//!   index, and editing the clone leaves the original's index alone.
//!
//! Peers carry normalised variants of the changed source's labels
//! (`Trucks`/`truck`, `CargoCarrier`/`cargo_carriers`), inserted out of
//! sorted order. Touched sets mix the source's labels, peer-only labels,
//! deleted labels and the empty set.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;

use onion_core::articulate::maintain::{apply_delta, triage};
use onion_core::articulate::{
    ExactLabelMatcher, RuleMatcher, SimilarityMatcher, StructuralMatcher, SynonymMatcher,
};
use onion_core::graph::ops::apply_all;
use onion_core::lexicon::normalize::normalize;
use onion_core::prelude::*;
use onion_core::testkit::{overlap_pair, update_stream, OverlapSpec, UpdateSpec};

/// `apply_delta` as it stood before scoped re-proposal: the whole
/// pipeline against each peer, then a filter to the touched labels.
mod full_then_filter {
    use std::collections::HashSet;

    use onion_core::articulate::maintain::{triage, MaintenanceReport};
    use onion_core::articulate::Result;
    use onion_core::prelude::*;

    fn rule_mentions(rule: &ArticulationRule, ontology: &str, name: &str) -> bool {
        rule.terms().iter().any(|t| t.in_ontology(ontology) && *t.name == *name)
    }

    pub fn apply_delta(
        art: &mut Articulation,
        source_name: &str,
        ops: &[GraphOp],
        sources_after: &[&Ontology],
        generator: &ArticulationGenerator,
        mut rearticulate: Option<(&MatcherPipeline, &mut dyn Expert)>,
    ) -> Result<MaintenanceReport> {
        let mut report = MaintenanceReport { ops_total: ops.len(), ..Default::default() };
        let (relevant, _irrelevant) = triage(art, source_name, ops);
        report.ops_relevant = relevant.len();
        if relevant.is_empty() {
            return Ok(report);
        }

        let mut touched_labels: HashSet<String> = HashSet::new();
        for op in &relevant {
            match op {
                GraphOp::NodeDelete { label, .. } => {
                    let dropped: Vec<String> = art
                        .rules
                        .rules
                        .iter()
                        .filter(|r| rule_mentions(r, source_name, label))
                        .map(|r| r.to_string())
                        .collect();
                    art.rules.rules.retain(|r| !rule_mentions(r, source_name, label));
                    for key in &dropped {
                        report.bridges_removed += art.drop_rule_support(key);
                        report.rules_dropped += 1;
                    }
                    report.bridges_removed += art.remove_bridges_touching(source_name, label);
                }
                GraphOp::EdgeDelete { edges } => {
                    for (s, _, d) in edges {
                        touched_labels.insert(s.clone());
                        touched_labels.insert(d.clone());
                    }
                }
                GraphOp::NodeAdd { label, out_edges, in_edges } => {
                    touched_labels.insert(label.clone());
                    touched_labels.extend(out_edges.iter().map(|(_, d)| d.clone()));
                    touched_labels.extend(in_edges.iter().map(|(s, _)| s.clone()));
                }
                GraphOp::EdgeAdd { edges } => {
                    for (s, _, d) in edges {
                        touched_labels.insert(s.clone());
                        touched_labels.insert(d.clone());
                    }
                }
            }
        }

        if let Some((pipeline, expert)) = rearticulate.as_mut() {
            if !touched_labels.is_empty() {
                let changed = sources_after.iter().copied().find(|o| o.name() == source_name);
                let others = sources_after.iter().copied().filter(|o| o.name() != source_name);
                if let Some(changed) = changed {
                    for other in others {
                        let candidates = pipeline.propose(changed, other, &art.rules);
                        for cand in candidates {
                            let touches = cand.rule.terms().iter().any(|t| {
                                t.in_ontology(source_name) && touched_labels.contains(&*t.name)
                            });
                            if !touches {
                                continue;
                            }
                            let accepted = match expert.review(&cand) {
                                Verdict::Accept => Some(cand.rule.clone()),
                                Verdict::Modify(rule) => Some(rule),
                                Verdict::Reject => None,
                            };
                            if let Some(rule) = accepted {
                                if art.rules.push(rule.clone()) {
                                    generator.apply_rule(&rule, sources_after, art)?;
                                    report.rules_added += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(report)
    }
}

/// `ExactLabelMatcher::propose` as it stood before it shared the scoped
/// scan: an index of `o2`'s normalised labels, probed with `o1`'s sorted
/// labels.
fn exact_by_index(o1: &Ontology, o2: &Ontology) -> Vec<CandidateRule> {
    let mut idx2: HashMap<String, Vec<String>> = HashMap::new();
    for l in labels(o2) {
        idx2.entry(normalize(&l)).or_default().push(l);
    }
    let mut out = Vec::new();
    for l1 in labels(o1) {
        for l2 in idx2.get(&normalize(&l1)).into_iter().flatten() {
            let conf = if &l1 == l2 { 1.0 } else { 0.95 };
            out.push(CandidateRule::new(
                ArticulationRule::term_implies(
                    Term::qualified(o1.name(), &l1),
                    Term::qualified(o2.name(), l2),
                ),
                conf,
                "exact-label",
                format!("label {l1:?} ~ {l2:?}"),
            ));
        }
    }
    out
}

/// `SynonymMatcher::propose` (hypernyms on) as it stood before it read the
/// peer's label index: a map of `o2`'s normalised labels built per call.
fn synonym_by_index(o1: &Ontology, o2: &Ontology, lexicon: &Lexicon) -> Vec<CandidateRule> {
    let mut idx2: HashMap<String, Vec<String>> = HashMap::new();
    for l in labels(o2) {
        idx2.entry(normalize(&l)).or_default().push(l);
    }
    let mut l2_known: Vec<&String> = idx2.keys().filter(|w| lexicon.contains(w)).collect();
    l2_known.sort_unstable();
    let rule = |l1: &str, l2: &str| {
        ArticulationRule::term_implies(
            Term::qualified(o1.name(), l1),
            Term::qualified(o2.name(), l2),
        )
    };
    let mut out = Vec::new();
    for l1 in labels(o1) {
        let n1 = normalize(&l1);
        if !lexicon.contains(&n1) {
            continue;
        }
        for syn in lexicon.synonyms_of(&n1) {
            for l2 in idx2.get(syn).into_iter().flatten() {
                let evidence = format!("{l1:?} synonym of {l2:?}");
                out.push(CandidateRule::new(rule(&l1, l2), 0.9, "synonym", evidence));
            }
        }
        for n2 in &l2_known {
            if lexicon.is_hypernym_of(n2, &n1) {
                for l2 in &idx2[n2.as_str()] {
                    let evidence = format!("{l2:?} hypernym of {l1:?}");
                    out.push(CandidateRule::new(rule(&l1, l2), 0.8, "synonym", evidence));
                }
            }
        }
    }
    out
}

/// What the comparisons look at: rule, confidence bits, provenance and
/// evidence, in order.
fn keyed(cands: &[CandidateRule]) -> Vec<(String, u64, String, String)> {
    cands
        .iter()
        .map(|c| {
            (
                format!("{:?}", c.rule),
                c.confidence.to_bits(),
                c.provenance.clone(),
                c.evidence.clone(),
            )
        })
        .collect()
}

/// The filter `apply_delta` ran over the full proposal.
fn touching(cands: Vec<CandidateRule>, o1: &str, touched: &HashSet<String>) -> Vec<CandidateRule> {
    cands
        .into_iter()
        .filter(|c| c.rule.terms().iter().any(|t| t.in_ontology(o1) && touched.contains(&*t.name)))
        .collect()
}

fn labels(o: &Ontology) -> Vec<String> {
    let mut v: Vec<String> = o.graph().nodes().map(|n| n.label.to_string()).collect();
    v.sort();
    v
}

fn set<'a>(labels: impl IntoIterator<Item = &'a String>) -> HashSet<String> {
    labels.into_iter().cloned().collect()
}

/// Counters that keep the checks from passing vacuously.
#[derive(Debug, Default)]
struct Reach {
    /// Scoped exact-label candidates at 0.95 (equal after normalisation).
    normalised: usize,
    /// Similarity budgets that cut the full scan short.
    budget_binds: usize,
}

/// Checks every matcher and pipeline on `o1` × `o2` for each touched set.
fn check_matchers(
    o1: &Ontology,
    o2: &Ontology,
    lexicon: &Lexicon,
    existing: &RuleSet,
    touched_sets: &[HashSet<String>],
    reach: &mut Reach,
) -> Result<(), String> {
    let exact = ExactLabelMatcher.propose(o1, o2, existing);
    let by_index = exact_by_index(o1, o2);
    if keyed(&exact) != keyed(&by_index) {
        return Err(format!(
            "exact propose on {} × {}:\n got  {:?}\n want {:?}",
            o1.name(),
            o2.name(),
            keyed(&exact),
            keyed(&by_index)
        ));
    }
    let synonym = SynonymMatcher::new(lexicon.clone()).propose(o1, o2, existing);
    let want = synonym_by_index(o1, o2, lexicon);
    if keyed(&synonym) != keyed(&want) {
        return Err(format!(
            "synonym propose on {} × {}:\n got  {:?}\n want {:?}",
            o1.name(),
            o2.name(),
            keyed(&synonym),
            keyed(&want)
        ));
    }
    // a budget that ends just short of the pair yielding the unlimited
    // scan's last candidate (pairs run in sorted-label order, o1 major);
    // at 0.6 every generated pair has candidates to cut
    let unlimited = SimilarityMatcher { threshold: 0.6, max_pairs: usize::MAX };
    let all = unlimited.propose(o1, o2, existing);
    let (l1s, l2s) = (labels(o1), labels(o2));
    let position = |c: &CandidateRule| {
        let terms = c.rule.terms();
        let row = l1s.iter().position(|l| *l == *terms[0].name).expect("o1 label");
        let col = l2s.iter().position(|l| *l == *terms[1].name).expect("o2 label");
        row * l2s.len() + col
    };
    let binding = SimilarityMatcher { max_pairs: all.last().map_or(0, position), ..unlimited };
    if binding.propose(o1, o2, existing).len() < all.len() {
        reach.budget_binds += 1;
    }
    let matchers: Vec<(&str, Box<dyn RuleMatcher>)> = vec![
        ("exact", Box::new(ExactLabelMatcher)),
        ("synonym", Box::new(SynonymMatcher::new(lexicon.clone()))),
        ("similarity", Box::new(SimilarityMatcher::default())),
        ("similarity, binding budget", Box::new(binding)),
        ("structural", Box::new(StructuralMatcher::default())),
    ];
    let pipelines = [
        ("standard pipeline", MatcherPipeline::standard(lexicon.clone())),
        (
            "pipeline, binding budget",
            MatcherPipeline::new()
                .with(ExactLabelMatcher)
                .with(SynonymMatcher::new(lexicon.clone()))
                .with(binding)
                .with(StructuralMatcher::default()),
        ),
    ];
    for touched in touched_sets {
        let mismatch = |what: &str, got: &[CandidateRule], want: &[CandidateRule]| {
            format!(
                "{what} on {} × {}, touched {touched:?}:\n got  {:?}\n want {:?}",
                o1.name(),
                o2.name(),
                keyed(got),
                keyed(want)
            )
        };
        for (what, m) in &matchers {
            let got = m.propose_touching(o1, o2, existing, touched);
            let want = touching(m.propose(o1, o2, existing), o1.name(), touched);
            if keyed(&got) != keyed(&want) {
                return Err(mismatch(what, &got, &want));
            }
            if *what == "exact" {
                reach.normalised += got.iter().filter(|c| c.confidence == 0.95).count();
            }
        }
        for (what, p) in &pipelines {
            let got = p.propose_touching(o1, o2, existing, touched);
            let want = touching(p.propose(o1, o2, existing), o1.name(), touched);
            if keyed(&got) != keyed(&want) {
                return Err(mismatch(what, &got, &want));
            }
        }
    }
    Ok(())
}

/// Variants of `label` that normalise like it: lowercase, plural and
/// all-caps.
fn variants(label: &str) -> [String; 3] {
    [label.to_lowercase(), format!("{label}s"), label.to_uppercase()]
}

/// A generated pair whose `right` also holds normalised variants of every
/// fifth `left` label, added lowercase first so that `right`'s insertion
/// order is not its sorted order; `planted` lists the varied labels.
struct Generated {
    left: Ontology,
    right: Ontology,
    truth: Vec<(String, String)>,
    lexicon: Lexicon,
    planted: Vec<String>,
}

fn generated(seed: u64, concepts: usize, overlap: f64) -> Generated {
    let p =
        overlap_pair(&OverlapSpec { seed, concepts, overlap, rename_prob: 0.5, max_children: 4 });
    let mut right = p.right;
    let planted: Vec<String> =
        labels(&p.left).into_iter().filter(|l| l != "Root").step_by(5).collect();
    for l in &planted {
        for v in variants(l) {
            if !right.defines(&v) {
                right.subclass(&v, "Root").unwrap();
            }
        }
    }
    Generated { left: p.left, right, truth: p.truth, lexicon: p.lexicon, planted }
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

/// Masks the process-global `graph_id` counter, which each clone of an
/// articulation draws afresh.
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

/// Reviews in order, accepting every `accept_every`-th candidate, and
/// records each candidate it saw.
struct Recorder {
    accept_every: usize,
    seen: Vec<String>,
    /// Candidates seen at 0.95 (labels equal after normalisation).
    normalised: usize,
}

impl Recorder {
    fn new(accept_every: usize) -> Self {
        Recorder { accept_every, seen: Vec::new(), normalised: 0 }
    }
}

impl Expert for Recorder {
    fn review(&mut self, candidate: &CandidateRule) -> Verdict {
        self.seen.push(format!("{candidate:?}"));
        self.normalised += usize::from(candidate.confidence == 0.95);
        if self.seen.len() % self.accept_every == 0 {
            Verdict::Accept
        } else {
            Verdict::Reject
        }
    }
}

/// Runs `ops` through `apply_delta` and the full-then-filter copy from
/// clones of `art`, for each pipeline and review policy, and compares
/// reports, expert calls and articulations. Returns the rules added and
/// the 0.95 candidates reviewed.
fn check_apply_delta(
    art: &Articulation,
    ops: &[GraphOp],
    left_before: &Ontology,
    peers: &[&Ontology],
    pipelines: &[MatcherPipeline],
) -> Result<(usize, usize), String> {
    let generator = ArticulationGenerator::new();
    let mut left = left_before.clone();
    apply_all(left.graph_mut(), ops).map_err(|e| e.to_string())?;
    let sources: Vec<&Ontology> = std::iter::once(&left).chain(peers.iter().copied()).collect();
    let (mut added, mut normalised) = (0, 0);
    for (i, pipeline) in pipelines.iter().enumerate() {
        for accept_every in [1, 2] {
            let (mut scoped, mut full) = (art.clone(), art.clone());
            let (mut e1, mut e2) = (Recorder::new(accept_every), Recorder::new(accept_every));
            let r1 = apply_delta(
                &mut scoped,
                "left",
                ops,
                &sources,
                &generator,
                Some((pipeline, &mut e1)),
            );
            let r2 = full_then_filter::apply_delta(
                &mut full,
                "left",
                ops,
                &sources,
                &generator,
                Some((pipeline, &mut e2)),
            );
            if format!("{r1:?}") != format!("{r2:?}") {
                return Err(format!("pipeline {i}, accept 1/{accept_every}: {r1:?} != {r2:?}"));
            }
            if e1.seen != e2.seen {
                return Err(format!(
                    "pipeline {i}, accept 1/{accept_every}: reviewed {:?}, want {:?}",
                    e1.seen, e2.seen
                ));
            }
            if mask_graph_id(&format!("{scoped:?}")) != mask_graph_id(&format!("{full:?}")) {
                return Err(format!("pipeline {i}, accept 1/{accept_every}: articulations differ"));
            }
            added += r1.map_or(0, |r| r.rules_added);
            normalised += e1.normalised;
        }
    }
    Ok((added, normalised))
}

/// Adds, under bridged parents, labels the peers define (exactly and as
/// normalised variants) and an edge from a bridged term to a `left` term
/// that has a peer counterpart, then deletes one bridged term.
fn peer_label_script(g: &Generated, art: &Articulation) -> Vec<GraphOp> {
    let bridged: Vec<String> = art.bridged_terms("left").into_iter().map(str::to_string).collect();
    let left_labels = set(&labels(&g.left));
    let peer_only: Vec<String> =
        labels(&g.right).into_iter().filter(|l| !left_labels.contains(l)).collect();
    let mut ops = Vec::new();
    let mut added = HashSet::new();
    let parent = |i: usize| bridged[i % bridged.len()].clone();
    for (i, l) in peer_only.iter().step_by(7).take(4).enumerate() {
        added.insert(l.clone());
        ops.push(GraphOp::node_add_with(l.clone(), vec![("SubclassOf".into(), parent(i))], vec![]));
    }
    for (i, l) in peer_only.iter().skip(3).step_by(9).take(3).enumerate() {
        let plural = format!("{l}s");
        if !left_labels.contains(&plural) && added.insert(plural.clone()) {
            ops.push(GraphOp::node_add_with(
                plural,
                vec![],
                vec![(parent(i + 1), "RelatedTo".into())],
            ));
        }
    }
    if let Some(shared) = g.truth.iter().rev().find_map(|(l, r)| {
        let (l, r) = (l.strip_prefix("left.")?, r.strip_prefix("right.")?);
        (l == r && !bridged.iter().any(|b| b == l)).then(|| l.to_string())
    }) {
        ops.push(GraphOp::edge_add(shared, "RelatedTo", parent(2)));
    }
    if let Some(b) = bridged.iter().find(|b| *b != "Root") {
        ops.push(GraphOp::node_delete(b.clone()));
    }
    ops
}

type Keyed = Vec<(String, u64, String, String)>;

/// What the matchers that read `peer`'s label index answer for `source` ×
/// `peer`: the exact matcher's `propose`, its `propose_touching` for each
/// touched set, and the synonym matcher's `propose`.
fn peer_answers(
    source: &Ontology,
    peer: &Ontology,
    lexicon: &Lexicon,
    touched_sets: &[HashSet<String>],
) -> Vec<Keyed> {
    let none = RuleSet::new();
    let mut out = vec![keyed(&ExactLabelMatcher.propose(source, peer, &none))];
    for touched in touched_sets {
        out.push(keyed(&ExactLabelMatcher.propose_touching(source, peer, &none, touched)));
    }
    out.push(keyed(&SynonymMatcher::new(lexicon.clone()).propose(source, peer, &none)));
    out
}

/// [`peer_answers`] from the kept copies of the old scans, which index
/// nothing between calls.
fn oracle_answers(
    source: &Ontology,
    peer: &Ontology,
    lexicon: &Lexicon,
    touched_sets: &[HashSet<String>],
) -> Vec<Keyed> {
    let exact = exact_by_index(source, peer);
    let mut out = vec![keyed(&exact)];
    for touched in touched_sets {
        out.push(keyed(&touching(exact.clone(), source.name(), touched)));
    }
    out.push(keyed(&synonym_by_index(source, peer, lexicon)));
    out
}

/// Checks that `peer` answers as a copy rebuilt from its graph, which
/// holds no index, and as the old scans; returns the answers.
fn check_peer(
    source: &Ontology,
    peer: &Ontology,
    lexicon: &Lexicon,
    touched_sets: &[HashSet<String>],
) -> Result<Vec<Keyed>, String> {
    let got = peer_answers(source, peer, lexicon, touched_sets);
    let unindexed = Ontology::from_graph(peer.graph().clone());
    if got != peer_answers(source, &unindexed, lexicon, touched_sets) {
        return Err("the kept peer and a copy rebuilt from its graph answer differently".into());
    }
    let want = oracle_answers(source, peer, lexicon, touched_sets);
    if got != want {
        return Err(format!("the kept peer answers\n {got:?}\n the old scans\n {want:?}"));
    }
    Ok(got)
}

/// An edit of the kept peer through one of `Ontology`'s `&mut` paths.
type PeerEdit = (String, Box<dyn Fn(&mut Ontology)>);

/// Edits of `peer` through every `&mut` path, each adding or deleting a
/// label that normalises like one of `fresh` (labels of the source that
/// `peer` and its variants lack): a lowercase variant, then a plural one
/// (two labels of one normalised form, the later one sorting first), an
/// upper-case attribute, an exact instance, a plural `relate` target, a
/// delete of one of the two alike labels and, given `shared`, a delete of
/// a label both sources define.
fn peer_edits(fresh: &[String], shared: Option<String>) -> Vec<PeerEdit> {
    let (a, b, c, d) = (&fresh[0], &fresh[1], &fresh[2], &fresh[3]);
    let lower = a.to_lowercase();
    let mut edits: Vec<PeerEdit> = vec![
        (format!("graph_mut node add {lower}"), {
            let l = lower.clone();
            Box::new(move |o: &mut Ontology| {
                o.graph_mut().ensure_node(&l).unwrap();
            })
        }),
        (format!("subclass {a}s"), {
            let l = format!("{a}s");
            Box::new(move |o: &mut Ontology| o.subclass(&l, "Root").unwrap())
        }),
        (format!("attribute {}", b.to_uppercase()), {
            let l = b.to_uppercase();
            Box::new(move |o: &mut Ontology| o.attribute(&l, "Root").unwrap())
        }),
        (format!("instance {c}"), {
            let l = c.clone();
            Box::new(move |o: &mut Ontology| o.instance(&l, "Root").unwrap())
        }),
        (format!("relate Root to {d}s"), {
            let l = format!("{d}s");
            Box::new(move |o: &mut Ontology| o.relate("Root", "RelatedTo", &l).unwrap())
        }),
        (format!("graph_mut node delete {lower}"), {
            Box::new(move |o: &mut Ontology| o.graph_mut().delete_node_by_label(&lower).unwrap())
        }),
    ];
    if let Some(l) = shared {
        edits.push((
            format!("graph_mut node delete {l}"),
            Box::new(move |o: &mut Ontology| o.graph_mut().delete_node_by_label(&l).unwrap()),
        ));
    }
    edits
}

/// Runs `edits` on one kept `peer`, checking the answers before and after
/// each edit, the index's sharing with a clone and its absence from
/// `{:?}`. Returns how many synonym candidates the peer met.
fn check_kept_peer(
    source: &Ontology,
    mut peer: Ontology,
    lexicon: &Lexicon,
    touched_sets: &[HashSet<String>],
    edits: &[PeerEdit],
) -> Result<usize, String> {
    let mut synonyms = 0;
    for (what, edit) in edits {
        // a fresh or just-edited peer has no index yet: building it is
        // invisible to `{:?}`
        let debug = format!("{peer:?}");
        let before = check_peer(source, &peer, lexicon, touched_sets)?;
        if format!("{peer:?}") != debug {
            return Err(format!("before {what}: building the index changed the Debug text"));
        }
        synonyms += before.last().map_or(0, Vec::len);
        let built = Arc::clone(peer.label_index());
        let mut clone = peer.clone();
        if !Arc::ptr_eq(clone.label_index(), &built) {
            return Err(format!("before {what}: a clone does not share the built index"));
        }
        edit(&mut clone);
        if !Arc::ptr_eq(peer.label_index(), &built) {
            return Err(format!("{what} on a clone replaced the original's index"));
        }
        if peer_answers(source, &peer, lexicon, touched_sets) != before {
            return Err(format!("{what} on a clone changed the original's answers"));
        }
        check_peer(source, &clone, lexicon, touched_sets)
            .map_err(|e| format!("clone, {what}: {e}"))?;

        edit(&mut peer);
        let after =
            check_peer(source, &peer, lexicon, touched_sets).map_err(|e| format!("{what}: {e}"))?;
        // so an index kept stale by the edit would have answered wrongly
        if after == before {
            return Err(format!("{what} did not change the answers"));
        }
    }
    Ok(synonyms)
}

#[test]
fn hand_built_variants_equal_the_filtered_proposal() {
    let a = OntologyBuilder::new("a")
        .class_under("Vehicle", "Transportation")
        .class_under("Trucks", "Vehicle")
        .class_under("CargoCarrier", "Vehicle")
        .class_under("Car", "Vehicle")
        .class_under("Lorry", "Vehicle")
        .class_under("Van", "Vehicle")
        .build()
        .unwrap();
    let mut a_deleted = a.clone();
    a_deleted.graph_mut().delete_node_by_label("Van").unwrap();
    // peer labels in a deliberately unsorted insertion order
    let mut b = OntologyBuilder::new("b");
    for l in [
        "truck",
        "Truck",
        "TRUCKS",
        "cargo_carriers",
        "Cargo Carrier",
        "CargoCarriers",
        "car",
        "Car",
        "Lorries",
        "vans",
        "Van",
        "Automobile",
        "Transportation",
    ] {
        b = b.class_under(l, "Thing");
    }
    let b = b.build().unwrap();
    let same_name = {
        let mut g = b.graph().clone();
        g.set_name("a");
        Ontology::from_graph(g)
    };
    let existing =
        onion_core::rules::parse_rules("a.Car => b.Car\na.Car => b.Automobile\n").unwrap();
    let touched_sets: Vec<HashSet<String>> = [
        &[][..],
        &["Trucks"],
        &["CargoCarrier", "Lorry"],
        &["truck", "cargo_carriers", "vans"], // peer-only
        &["Van"],                             // deleted from a_deleted
        &["Trucks", "Van", "Car", "Automobile", "Vehicle", "Transportation", "Missing"],
    ]
    .iter()
    .map(|ls| ls.iter().map(|l| l.to_string()).collect())
    .collect();
    let lexicon = transport_lexicon();
    let mut reach = Reach::default();
    for (o1, o2) in [(&a, &b), (&a_deleted, &b), (&b, &a), (&a, &same_name), (&same_name, &a)] {
        check_matchers(o1, o2, &lexicon, &existing, &touched_sets, &mut reach).unwrap();
    }
    assert!(reach.normalised >= 10, "{reach:?}");

    // the exact scoped list, spelled out: sorted by touched label, then
    // by peer label, 0.95 for variants
    let got: Vec<(String, f64)> = ExactLabelMatcher
        .propose_touching(&a, &b, &RuleSet::new(), &touched_sets[5])
        .into_iter()
        .map(|c| (c.rule.to_string(), c.confidence))
        .collect();
    let want = [
        ("a.Car => b.Car", 1.0),
        ("a.Car => b.car", 0.95),
        ("a.Transportation => b.Transportation", 1.0),
        ("a.Trucks => b.TRUCKS", 0.95),
        ("a.Trucks => b.Truck", 0.95),
        ("a.Trucks => b.truck", 0.95),
        ("a.Van => b.Van", 1.0),
        ("a.Van => b.vans", 0.95),
    ];
    let want: Vec<(String, f64)> = want.iter().map(|(r, c)| (r.to_string(), *c)).collect();
    assert_eq!(got, want);
}

#[test]
fn hand_built_maintenance_equals_full_then_filter() {
    let left = OntologyBuilder::new("left")
        .class_under("Vehicle", "Transportation")
        .class_under("Car", "Vehicle")
        .build()
        .unwrap();
    let mut right = OntologyBuilder::new("right");
    for l in ["truck", "Trucks", "cargo_carriers", "Vehicle", "Car", "Lorries"] {
        right = right.class_under(l, "Transportation");
    }
    let right = right.build().unwrap();
    let rules = onion_core::rules::parse_rules("left.Vehicle => right.Vehicle\n").unwrap();
    let art = ArticulationGenerator::new().generate(&rules, &[&left, &right]).unwrap();
    let ops = vec![
        GraphOp::node_add_with("Trucks", vec![("SubclassOf".into(), "Vehicle".into())], vec![]),
        GraphOp::node_add_with(
            "CargoCarrier",
            vec![],
            vec![("Vehicle".into(), "RelatedTo".into())],
        ),
        GraphOp::node_add_with("Lorry", vec![("SubclassOf".into(), "Vehicle".into())], vec![]),
        GraphOp::edge_add("Car", "SubclassOf", "Vehicle"),
    ];
    let pipelines = [
        MatcherPipeline::new().with(ExactLabelMatcher),
        MatcherPipeline::standard(transport_lexicon()),
    ];
    let (added, normalised) = check_apply_delta(&art, &ops, &left, &[&right], &pipelines).unwrap();
    assert!(added > 0 && normalised > 0, "{added} rules added, {normalised} at 0.95");
}

#[test]
fn hand_built_kept_peer_never_answers_from_a_stale_index() {
    let source = OntologyBuilder::new("a")
        .class_under("Vehicle", "Root")
        .class_under("Truck", "Vehicle")
        .class_under("Car", "Vehicle")
        .class_under("Van", "Vehicle")
        .class_under("Lorry", "Vehicle")
        .class_under("Automobile", "Vehicle")
        .build()
        .unwrap();
    let peer = OntologyBuilder::new("b")
        .class_under("Vehicle", "Root")
        .class_under("car", "Root")
        .build()
        .unwrap();
    // the peer gains `truck`, then `Trucks`
    let fresh = ["Truck", "Van", "Lorry", "Automobile"].map(String::from);
    let edits = peer_edits(&fresh, Some("Vehicle".into()));
    let touched_sets =
        vec![HashSet::new(), set(&fresh), set(&labels(&source)), set(&["trucks".to_string()])];
    let synonyms =
        check_kept_peer(&source, peer, &transport_lexicon(), &touched_sets, &edits).unwrap();
    assert!(synonyms > 0, "the transport lexicon met no peer label");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn kept_peer_never_answers_from_a_stale_index(
        seed in 0u64..10_000,
        concepts in 20usize..60,
        overlap in 10u32..60,
    ) {
        let g = generated(seed, concepts, f64::from(overlap) / 100.0);
        let defined = |l: &String| g.right.defines(l) || variants(l).iter().any(|v| g.right.defines(v));
        let fresh: Vec<String> =
            labels(&g.left).into_iter().filter(|l| l != "Root" && !defined(l)).collect();
        prop_assert!(fresh.len() >= 4, "seed {seed}: {fresh:?}");
        let shared = labels(&g.left).into_iter().find(|l| l != "Root" && g.right.defines(l));
        let edits = peer_edits(&fresh, shared);
        let touched_sets = vec![
            HashSet::new(),
            set(&fresh[..4]),
            set(labels(&g.left).iter().step_by(3)),
            set(&labels(&g.left)),
        ];
        let res = check_kept_peer(&g.left, g.right.clone(), &g.lexicon, &touched_sets, &edits);
        prop_assert!(res.is_ok(), "seed {seed}: {}", res.unwrap_err());
    }

    #[test]
    fn scoped_matchers_equal_the_filtered_proposal(
        seed in 0u64..10_000,
        concepts in 20usize..90,
        overlap in 10u32..60,
    ) {
        let g = generated(seed, concepts, f64::from(overlap) / 100.0);
        // delete every seventh label of `left` (from the fourth on)
        let mut left = g.left.clone();
        let all_left = labels(&g.left);
        let deleted: Vec<String> =
            all_left.iter().filter(|l| *l != "Root").skip(3).step_by(7).cloned().collect();
        for l in &deleted {
            left.graph_mut().delete_node_by_label(l).unwrap();
        }
        let kept = labels(&left);
        let peer_only: Vec<String> =
            labels(&g.right).into_iter().filter(|l| !g.left.defines(l)).collect();
        let mixed: HashSet<String> = set(kept.iter().step_by(4))
            .into_iter()
            .chain(set(peer_only.iter().step_by(3)))
            .chain(set(&deleted))
            .chain(set(&g.planted))
            .collect();
        let touched_sets = vec![
            HashSet::new(),
            set(kept.iter().step_by(3)),
            set(&g.planted),
            set(&peer_only),
            set(&deleted),
            mixed,
            set(&kept),
        ];
        let existing = truth_rules(g.truth.iter().step_by(2));
        let mut reach = Reach::default();
        for (o1, o2) in [(&left, &g.right), (&g.right, &left)] {
            let res = check_matchers(o1, o2, &g.lexicon, &existing, &touched_sets, &mut reach);
            prop_assert!(res.is_ok(), "seed {seed}: {}", res.unwrap_err());
        }
        prop_assert!(reach.normalised > 0, "seed {seed}: no normalised match reached");
        prop_assert!(reach.budget_binds > 0, "seed {seed}: the budget never binds");
    }

    #[test]
    fn apply_delta_equals_full_then_filter(
        seed in 0u64..10_000,
        concepts in 20usize..80,
        overlap in 10u32..60,
    ) {
        let g = generated(seed, concepts, f64::from(overlap) / 100.0);
        let third = {
            let mut graph = g.right.graph().clone();
            graph.set_name("third");
            Ontology::from_graph(graph)
        };
        let rules = truth_rules(g.truth.iter().step_by(2));
        let art =
            ArticulationGenerator::new().generate(&rules, &[&g.left, &g.right, &third]).unwrap();
        let pipelines = [
            MatcherPipeline::new().with(ExactLabelMatcher),
            MatcherPipeline::standard(g.lexicon.clone()),
        ];
        let mut scripts: Vec<Vec<GraphOp>> = [(0.25, 0.2), (0.75, 0.0), (1.0, 0.2)]
            .into_iter()
            .enumerate()
            .map(|(i, (bridged_fraction, delete_fraction))| {
                let spec =
                    UpdateSpec { seed: seed + i as u64, ops: 12, bridged_fraction, delete_fraction };
                update_stream(&g.left, &art, &spec)
            })
            .collect();
        let peer_script = peer_label_script(&g, &art);
        prop_assert!(!triage(&art, "left", &peer_script).0.is_empty());
        scripts.push(peer_script);
        let mut reached = Vec::new();
        for (i, ops) in scripts.iter().enumerate() {
            let res = check_apply_delta(&art, ops, &g.left, &[&g.right, &third], &pipelines);
            prop_assert!(res.is_ok(), "seed {seed}, script {i}: {}", res.unwrap_err());
            reached.push(res.unwrap());
        }
        let (added, normalised) = reached[3];
        prop_assert!(added > 0, "seed {seed}: the peer-label script added no rule");
        prop_assert!(normalised > 0, "seed {seed}: the peer-label script met no 0.95 match");
    }
}
