//! SKAT-style candidate rule matchers.
//!
//! "Onion is based on the SKAT (Semantic Knowledge Articulation Tool)
//! system … Articulation rules are proposed by SKAT using expert rules
//! and other external knowledge sources or semantic lexicons (e.g.,
//! Wordnet) and verified by the expert." (§2.4)
//!
//! Each [`RuleMatcher`] proposes [`CandidateRule`]s between two source
//! ontologies; the [`MatcherPipeline`] runs a configurable mix and merges
//! proposals. The mix is an ablation axis of experiment B2
//! (exact-only vs +synonym vs +similarity). Within one articulation run a
//! proposal session computes each matcher that ignores the confirmed
//! rules once and re-runs only the ones that read them.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use onion_lexicon::normalize::normalize;
use onion_lexicon::similarity::PreparedLabel;
use onion_lexicon::Lexicon;
use onion_ontology::Ontology;
use onion_rules::{ArticulationRule, RuleSet, Term};

use crate::candidate::{merge_unconfirmed, CandidateRule};

/// A candidate-rule proposer.
pub trait RuleMatcher {
    /// Matcher name (becomes candidate provenance).
    fn name(&self) -> &'static str;

    /// Proposes rules between `o1` and `o2`, given already-confirmed
    /// rules (structural matchers grow from them).
    fn propose(&self, o1: &Ontology, o2: &Ontology, existing: &RuleSet) -> Vec<CandidateRule>;

    /// Whether [`propose`](Self::propose) reads `existing`. One
    /// [`ArticulationEngine::run`](crate::ArticulationEngine::run)
    /// computes the list of a matcher that answers `false` once and shows
    /// it again every round; it re-runs a matcher that answers `true`
    /// every round.
    ///
    /// The default is `true`, so a matcher defined elsewhere keeps being
    /// asked every round. [`ExactLabelMatcher`], [`SynonymMatcher`] and
    /// [`SimilarityMatcher`] answer `false`: their lists depend only on
    /// the two sources. [`StructuralMatcher`] keeps the default.
    fn reads_confirmed_rules(&self) -> bool {
        true
    }

    /// The candidates of [`propose`](Self::propose) whose rule names a
    /// `touched` label as an `o1` term (qualified with `o1`'s name), in
    /// `propose`'s order — the scoped entry incremental maintenance
    /// calls after an edit ([`crate::maintain::apply_delta`]).
    ///
    /// The default runs `propose` and keeps those candidates, so every
    /// matcher answers it correctly. [`ExactLabelMatcher`] overrides it
    /// to visit only the touched labels. [`SynonymMatcher`],
    /// [`SimilarityMatcher`] and [`StructuralMatcher`] keep the default.
    /// In particular [`SimilarityMatcher::max_pairs`] still counts the
    /// full scan's pairs in sorted-label order, so the budget ends on the
    /// same pair as in `propose` and the scoped list is exactly
    /// `propose`'s list filtered; a scan over the touched labels alone
    /// would visit fewer pairs and could propose a pair the full scan
    /// cut off.
    fn propose_touching(
        &self,
        o1: &Ontology,
        o2: &Ontology,
        existing: &RuleSet,
        touched: &HashSet<String>,
    ) -> Vec<CandidateRule> {
        keep_touching(self.propose(o1, o2, existing), o1.name(), touched)
    }
}

/// The candidates whose rule names a `touched` label of `ontology`.
fn keep_touching(
    mut candidates: Vec<CandidateRule>,
    ontology: &str,
    touched: &HashSet<String>,
) -> Vec<CandidateRule> {
    candidates.retain(|c| {
        c.rule.terms().iter().any(|t| t.in_ontology(ontology) && touched.contains(&*t.name))
    });
    candidates
}

/// Sorted labels of an ontology's nodes.
fn labels(o: &Ontology) -> Vec<String> {
    let mut v: Vec<String> = o.graph().nodes().map(|n| n.label.to_string()).collect();
    v.sort();
    v
}

/// Sorted labels of an ontology's nodes, each with its prepared form.
fn prepared_labels(o: &Ontology) -> Vec<(PreparedLabel, String)> {
    labels(o).into_iter().map(|l| (PreparedLabel::new(&l), l)).collect()
}

/// `label`'s prepared form from `memo`, prepared on first use.
fn prepared<'m>(memo: &'m mut HashMap<String, PreparedLabel>, label: &str) -> &'m PreparedLabel {
    if !memo.contains_key(label) {
        memo.insert(label.to_string(), PreparedLabel::new(label));
    }
    &memo[label]
}

/// normalised label → original labels (an ontology may normalise two
/// labels identically, e.g. `Cars` and `Car`).
fn normalized_index(o: &Ontology) -> HashMap<String, Vec<String>> {
    let mut m: HashMap<String, Vec<String>> = HashMap::new();
    for l in labels(o) {
        m.entry(normalize(&l)).or_default().push(l);
    }
    m
}

fn simple(o1: &Ontology, a: &str, o2: &Ontology, b: &str) -> ArticulationRule {
    ArticulationRule::term_implies(Term::qualified(o1.name(), a), Term::qualified(o2.name(), b))
}

/// Proposes `o1.X ⇒ o2.X` when both ontologies use the same label:
/// exact match at confidence 1.0, equal after normalisation
/// (`Trucks`/`truck`) at 0.95.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactLabelMatcher;

impl ExactLabelMatcher {
    fn candidate(&self, o1: &Ontology, l1: &str, o2: &Ontology, l2: &str) -> CandidateRule {
        let conf = if l1 == l2 { 1.0 } else { 0.95 };
        CandidateRule::new(
            simple(o1, l1, o2, l2),
            conf,
            self.name(),
            format!("label {l1:?} ~ {l2:?}"),
        )
    }

    /// The candidates pairing each of `l1s` (labels of `o1`) with every
    /// label of `o2` that normalises alike, ordered by `o1` label, then
    /// `o2` label. Normalises each of `l1s` once and each of `o2`'s
    /// labels once, in one pass; builds no index of `o2`.
    fn scan(&self, o1: &Ontology, o2: &Ontology, mut l1s: Vec<&str>) -> Vec<CandidateRule> {
        if l1s.is_empty() {
            return Vec::new();
        }
        l1s.sort_unstable();
        // normalised label → positions in `l1s`
        let mut wanted: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, l1) in l1s.iter().enumerate() {
            wanted.entry(normalize(l1)).or_default().push(i);
        }
        let mut hits: Vec<(usize, &str)> = Vec::new();
        for n in o2.graph().nodes() {
            if let Some(is) = wanted.get(&normalize(n.label)) {
                hits.extend(is.iter().map(|&i| (i, n.label)));
            }
        }
        hits.sort_unstable();
        hits.into_iter().map(|(i, l2)| self.candidate(o1, l1s[i], o2, l2)).collect()
    }
}

impl RuleMatcher for ExactLabelMatcher {
    fn name(&self) -> &'static str {
        "exact-label"
    }

    fn reads_confirmed_rules(&self) -> bool {
        false
    }

    fn propose(&self, o1: &Ontology, o2: &Ontology, _existing: &RuleSet) -> Vec<CandidateRule> {
        self.scan(o1, o2, o1.graph().nodes().map(|n| n.label).collect())
    }

    /// The same scan as [`propose`](RuleMatcher::propose), over only the
    /// touched labels `o1` still defines: |touched| normalisations plus
    /// one pass over `o2`'s labels.
    fn propose_touching(
        &self,
        o1: &Ontology,
        o2: &Ontology,
        existing: &RuleSet,
        touched: &HashSet<String>,
    ) -> Vec<CandidateRule> {
        if o1.name() == o2.name() {
            // both sides qualify with one name, so the default also keeps
            // matches of a touched peer label
            return keep_touching(self.propose(o1, o2, existing), o1.name(), touched);
        }
        self.scan(o1, o2, touched.iter().map(String::as_str).filter(|l| o1.defines(l)).collect())
    }
}

/// Proposes rules from lexicon knowledge: synonyms become equivalence
/// candidates (0.9), hypernyms become directional implications (0.8) —
/// `o1.Car ⇒ o2.Vehicle` when the lexicon says a car is a kind of
/// vehicle.
#[derive(Debug, Clone)]
pub struct SynonymMatcher {
    lexicon: Lexicon,
    /// Also propose directional hypernym rules.
    pub hypernyms: bool,
}

impl SynonymMatcher {
    /// Matcher backed by `lexicon`, hypernym proposals enabled.
    pub fn new(lexicon: Lexicon) -> Self {
        SynonymMatcher { lexicon, hypernyms: true }
    }
}

impl RuleMatcher for SynonymMatcher {
    fn name(&self) -> &'static str {
        "synonym"
    }

    fn reads_confirmed_rules(&self) -> bool {
        false
    }

    fn propose(&self, o1: &Ontology, o2: &Ontology, _existing: &RuleSet) -> Vec<CandidateRule> {
        let idx2 = normalized_index(o2);
        let mut l2_known: Vec<&String> = idx2.keys().filter(|w| self.lexicon.contains(w)).collect();
        // hypernym candidates follow this order; a HashMap's differs per call
        l2_known.sort_unstable();
        let mut out = Vec::new();
        for l1 in labels(o1) {
            let n1 = normalize(&l1);
            if !self.lexicon.contains(&n1) {
                continue;
            }
            // synonym expansion through the lexicon index (cheap)
            for syn in self.lexicon.synonyms_of(&n1) {
                if let Some(matches) = idx2.get(syn) {
                    for l2 in matches {
                        out.push(CandidateRule::new(
                            simple(o1, &l1, o2, l2),
                            0.9,
                            self.name(),
                            format!("{l1:?} synonym of {l2:?}"),
                        ));
                    }
                }
            }
            if self.hypernyms {
                // directional: l1 ⇒ l2 when l2 is a hypernym of l1
                for n2 in &l2_known {
                    if self.lexicon.is_hypernym_of(n2, &n1) {
                        for l2 in &idx2[n2.as_str()] {
                            out.push(CandidateRule::new(
                                simple(o1, &l1, o2, l2),
                                0.8,
                                self.name(),
                                format!("{l2:?} hypernym of {l1:?}"),
                            ));
                        }
                    }
                }
            }
        }
        out
    }
}

/// Proposes pairs whose labels score at least `threshold` under the
/// combined lexical similarity (token overlap + Jaro-Winkler); the
/// fallback when the lexicon is silent. Confidence is the similarity
/// scaled into `[0, 0.85]` so lexicon knowledge outranks string luck.
///
/// The scan prepares each label once per `propose` ([`PreparedLabel`])
/// and runs Jaro-Winkler only on pairs a character-count bound cannot
/// rule out; scores are bit-identical to
/// [`label_sim`](onion_lexicon::similarity::label_sim).
#[derive(Debug, Clone, Copy)]
pub struct SimilarityMatcher {
    /// Minimum similarity to propose.
    pub threshold: f64,
    /// Pair-comparison budget; the matcher stops proposing past it
    /// (guards the O(n·m) scan on large inputs). Every visited pair
    /// counts, in sorted-label order: pairs left to the exact matcher
    /// and pairs the count bound skips use the budget too.
    pub max_pairs: usize,
}

impl Default for SimilarityMatcher {
    fn default() -> Self {
        SimilarityMatcher { threshold: 0.84, max_pairs: 4_000_000 }
    }
}

impl RuleMatcher for SimilarityMatcher {
    fn name(&self) -> &'static str {
        "similarity"
    }

    fn reads_confirmed_rules(&self) -> bool {
        false
    }

    fn propose(&self, o1: &Ontology, o2: &Ontology, _existing: &RuleSet) -> Vec<CandidateRule> {
        let l1s = prepared_labels(o1);
        let l2s = prepared_labels(o2);
        let mut out = Vec::new();
        let mut budget = self.max_pairs;
        'outer: for (p1, l1) in &l1s {
            for (p2, l2) in &l2s {
                if budget == 0 {
                    break 'outer;
                }
                budget -= 1;
                if p1.normalized() == p2.normalized() {
                    continue; // the exact matcher owns these
                }
                if let Some(sim) = p1.sim_at_least(p2, self.threshold) {
                    out.push(CandidateRule::new(
                        simple(o1, l1, o2, l2),
                        0.85 * sim,
                        self.name(),
                        format!("label_sim({l1:?}, {l2:?}) = {sim:.3}"),
                    ));
                }
            }
        }
        out
    }
}

/// Grows matches structurally from confirmed rules: if `o1.A ⇒ o2.B` is
/// confirmed, the superclasses (and subclasses) of `A` and `B` are
/// plausible matches — proposed when their labels are at least mildly
/// similar. Models SKAT's "expert rules" that exploit ontology structure.
#[derive(Debug, Clone, Copy)]
pub struct StructuralMatcher {
    /// Minimum label similarity for a structural proposal.
    pub min_sim: f64,
}

impl Default for StructuralMatcher {
    fn default() -> Self {
        StructuralMatcher { min_sim: 0.5 }
    }
}

impl RuleMatcher for StructuralMatcher {
    fn name(&self) -> &'static str {
        "structural"
    }

    fn propose(&self, o1: &Ontology, o2: &Ontology, existing: &RuleSet) -> Vec<CandidateRule> {
        let mut out = Vec::new();
        // neighbourhoods of different rules overlap: prepare each label once
        let (mut memo1, mut memo2) = (HashMap::new(), HashMap::new());
        for rule in existing.iter() {
            if !rule.is_simple_implication() {
                continue;
            }
            let terms = rule.terms();
            let (a, b) = (terms[0], terms[1]);
            // orient to (o1 term, o2 term) regardless of rule direction
            let (t1, t2) = if a.in_ontology(o1.name()) && b.in_ontology(o2.name()) {
                (&a.name, &b.name)
            } else if a.in_ontology(o2.name()) && b.in_ontology(o1.name()) {
                (&b.name, &a.name)
            } else {
                continue;
            };
            for (n1s, n2s, where_) in [
                (o1.superclasses(t1), o2.superclasses(t2), "superclasses"),
                (o1.subclasses(t1), o2.subclasses(t2), "subclasses"),
            ] {
                for n1 in &n1s {
                    let p1 = prepared(&mut memo1, n1);
                    for n2 in &n2s {
                        let p2 = prepared(&mut memo2, n2);
                        if let Some(sim) = p1.sim_at_least(p2, self.min_sim) {
                            out.push(CandidateRule::new(
                                simple(o1, n1, o2, n2),
                                (0.4 + 0.45 * sim).min(0.85),
                                self.name(),
                                format!("{where_} of confirmed {t1:?} ~ {t2:?}, sim {sim:.2}"),
                            ));
                        }
                    }
                }
            }
        }
        out
    }
}

/// A configurable matcher stack.
pub struct MatcherPipeline {
    matchers: Vec<Box<dyn RuleMatcher>>,
}

impl MatcherPipeline {
    /// Empty pipeline.
    pub fn new() -> Self {
        MatcherPipeline { matchers: Vec::new() }
    }

    /// The full default stack: exact → synonym (with the given lexicon) →
    /// similarity → structural.
    pub fn standard(lexicon: Lexicon) -> Self {
        Self::new()
            .with(ExactLabelMatcher)
            .with(SynonymMatcher::new(lexicon))
            .with(SimilarityMatcher::default())
            .with(StructuralMatcher::default())
    }

    /// Appends a matcher.
    pub fn with(mut self, m: impl RuleMatcher + 'static) -> Self {
        self.matchers.push(Box::new(m));
        self
    }

    /// Number of matchers.
    pub fn len(&self) -> usize {
        self.matchers.len()
    }

    /// True if no matchers.
    pub fn is_empty(&self) -> bool {
        self.matchers.is_empty()
    }

    /// Runs every matcher, merges duplicates (max confidence wins) and
    /// drops candidates whose rule is already confirmed: the one round of
    /// a fresh proposal session, the kind
    /// [`ArticulationEngine::run`](crate::ArticulationEngine::run) holds
    /// for all its rounds. The merge is [`CandidateRule::merge`]'s, so
    /// candidates come in descending confidence, ties by rule text, and
    /// rules with equal text in the order the matchers proposed them.
    pub fn propose(&self, o1: &Ontology, o2: &Ontology, existing: &RuleSet) -> Vec<CandidateRule> {
        self.session(o1, o2).propose(existing)
    }

    /// A proposal session between `o1` and `o2`: one per articulation
    /// run, which calls [`ProposalSession::propose`] once per round.
    pub(crate) fn session<'a>(&'a self, o1: &'a Ontology, o2: &'a Ontology) -> ProposalSession<'a> {
        ProposalSession { pipeline: self, o1, o2, lists: vec![None; self.matchers.len()] }
    }

    /// [`propose`](Self::propose) restricted to candidates that name a
    /// `touched` label as an `o1` term: every matcher's
    /// [`RuleMatcher::propose_touching`], then the same merge and
    /// confirmed-rule filter. Equal to `propose` filtered afterwards,
    /// because both steps keep or drop a rule's proposals together and
    /// the merge's sort is stable.
    pub fn propose_touching(
        &self,
        o1: &Ontology,
        o2: &Ontology,
        existing: &RuleSet,
        touched: &HashSet<String>,
    ) -> Vec<CandidateRule> {
        let all = self
            .matchers
            .iter()
            .flat_map(|m| m.propose_touching(o1, o2, existing, touched))
            .map(Cow::Owned)
            .collect();
        merge_unconfirmed(all, &existing.rules)
    }
}

/// The proposals of one articulation run between two sources (§2.4's
/// propose → confirm loop), round after round.
///
/// Each matcher that does not [read the confirmed
/// rules](RuleMatcher::reads_confirmed_rules) runs on the session's first
/// round and its list is kept; the others run every round against that
/// round's rules. Every round merges the lists in pipeline order,
/// exactly as [`MatcherPipeline::propose`] would from scratch, and clones
/// only the kept candidates that survive the merge.
pub(crate) struct ProposalSession<'a> {
    pipeline: &'a MatcherPipeline,
    o1: &'a Ontology,
    o2: &'a Ontology,
    /// Per matcher: its kept list, once computed.
    lists: Vec<Option<Vec<CandidateRule>>>,
}

impl ProposalSession<'_> {
    /// This round's candidates given the `existing` confirmed rules:
    /// merged, sorted and without confirmed rules, as
    /// [`MatcherPipeline::propose`] returns them.
    pub(crate) fn propose(&mut self, existing: &RuleSet) -> Vec<CandidateRule> {
        let (o1, o2) = (self.o1, self.o2);
        let mut all = Vec::new();
        for (m, kept) in self.pipeline.matchers.iter().zip(&mut self.lists) {
            if m.reads_confirmed_rules() {
                all.extend(m.propose(o1, o2, existing).into_iter().map(Cow::Owned));
            } else {
                let list = kept.get_or_insert_with(|| m.propose(o1, o2, existing));
                all.extend(list.iter().map(Cow::Borrowed));
            }
        }
        merge_unconfirmed(all, &existing.rules)
    }
}

impl Default for MatcherPipeline {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onion_lexicon::builtin::transport_lexicon;
    use onion_ontology::examples::{carrier, factory};
    use onion_ontology::OntologyBuilder;

    #[test]
    fn exact_matcher_finds_shared_labels() {
        let c = carrier();
        let f = factory();
        let cands = ExactLabelMatcher.propose(&c, &f, &RuleSet::new());
        let texts: Vec<String> = cands.iter().map(|c| c.rule.to_string()).collect();
        assert!(texts.contains(&"carrier.Transportation => factory.Transportation".to_string()));
        assert!(texts.contains(&"carrier.Price => factory.Price".to_string()));
        assert!(cands.iter().all(|c| c.confidence >= 0.95));
    }

    #[test]
    fn exact_matcher_normalised_variants() {
        let a = OntologyBuilder::new("a").class("Trucks").build().unwrap();
        let b = OntologyBuilder::new("b").class("truck").build().unwrap();
        let cands = ExactLabelMatcher.propose(&a, &b, &RuleSet::new());
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].confidence, 0.95);
    }

    #[test]
    fn synonym_matcher_uses_lexicon() {
        let a = OntologyBuilder::new("a").class("Automobile").build().unwrap();
        let b = OntologyBuilder::new("b").class("Car").build().unwrap();
        let m = SynonymMatcher::new(transport_lexicon());
        let cands = m.propose(&a, &b, &RuleSet::new());
        assert!(cands
            .iter()
            .any(|c| c.rule.to_string() == "a.Automobile => b.Car" && c.confidence == 0.9));
    }

    #[test]
    fn synonym_matcher_hypernym_direction() {
        let a = OntologyBuilder::new("a").class("Car").build().unwrap();
        let b = OntologyBuilder::new("b").class("Vehicle").build().unwrap();
        let m = SynonymMatcher::new(transport_lexicon());
        let cands = m.propose(&a, &b, &RuleSet::new());
        // car ⇒ vehicle proposed (vehicle hypernym of car), not reverse
        assert!(cands.iter().any(|c| c.rule.to_string() == "a.Car => b.Vehicle"));
        let rev = m.propose(&b, &a, &RuleSet::new());
        assert!(!rev.iter().any(|c| c.rule.to_string() == "b.Vehicle => a.Car"));
    }

    #[test]
    fn synonym_matcher_without_hypernyms() {
        let a = OntologyBuilder::new("a").class("Car").build().unwrap();
        let b = OntologyBuilder::new("b").class("Vehicle").build().unwrap();
        let mut m = SynonymMatcher::new(transport_lexicon());
        m.hypernyms = false;
        assert!(m.propose(&a, &b, &RuleSet::new()).is_empty());
    }

    #[test]
    fn similarity_matcher_catches_typos() {
        let a = OntologyBuilder::new("a").class("Vehicle").build().unwrap();
        let b = OntologyBuilder::new("b").class("Vehicles2").build().unwrap();
        let m = SimilarityMatcher { threshold: 0.8, max_pairs: 1000 };
        let cands = m.propose(&a, &b, &RuleSet::new());
        assert_eq!(cands.len(), 1);
        assert!(cands[0].confidence < 0.9, "similarity ranks below lexicon");
    }

    #[test]
    fn similarity_matcher_skips_exact_territory() {
        let a = OntologyBuilder::new("a").class("Trucks").build().unwrap();
        let b = OntologyBuilder::new("b").class("truck").build().unwrap();
        let m = SimilarityMatcher { threshold: 0.5, max_pairs: 1000 };
        assert!(m.propose(&a, &b, &RuleSet::new()).is_empty());
    }

    #[test]
    fn similarity_matcher_respects_budget() {
        let mut ab = OntologyBuilder::new("a");
        let mut bb = OntologyBuilder::new("b");
        for i in 0..20 {
            ab = ab.class(&format!("TermNumber{i}"));
            bb = bb.class(&format!("TermNumber{i}x"));
        }
        let a = ab.build().unwrap();
        let b = bb.build().unwrap();
        let unlimited = SimilarityMatcher { threshold: 0.9, max_pairs: 10_000 }.propose(
            &a,
            &b,
            &RuleSet::new(),
        );
        let limited =
            SimilarityMatcher { threshold: 0.9, max_pairs: 5 }.propose(&a, &b, &RuleSet::new());
        assert!(limited.len() < unlimited.len());
    }

    #[test]
    fn structural_matcher_grows_from_confirmed() {
        let c = carrier();
        let f = factory();
        let mut existing = RuleSet::new();
        existing.push(onion_rules::parser::parse_rule("carrier.Cars => factory.Vehicle").unwrap());
        let cands = StructuralMatcher::default().propose(&c, &f, &existing);
        // superclasses: carrier.Transportation ~ factory.Transportation
        assert!(
            cands
                .iter()
                .any(|c| c.rule.to_string() == "carrier.Transportation => factory.Transportation"),
            "{:?}",
            cands.iter().map(|c| c.rule.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn structural_matcher_needs_confirmed_rules() {
        let c = carrier();
        let f = factory();
        assert!(StructuralMatcher::default().propose(&c, &f, &RuleSet::new()).is_empty());
    }

    #[test]
    fn pipeline_merges_and_filters_existing() {
        let c = carrier();
        let f = factory();
        let pipeline = MatcherPipeline::standard(transport_lexicon());
        assert_eq!(pipeline.len(), 4);
        let mut existing = RuleSet::new();
        existing.push(
            onion_rules::parser::parse_rule("carrier.Transportation => factory.Transportation")
                .unwrap(),
        );
        let cands = pipeline.propose(&c, &f, &existing);
        // merged: no duplicates
        let mut texts: Vec<String> = cands.iter().map(|c| c.rule.to_string()).collect();
        let before = texts.len();
        texts.dedup();
        assert_eq!(before, texts.len());
        // filtered: the existing rule is not re-proposed
        assert!(!texts.contains(&"carrier.Transportation => factory.Transportation".to_string()));
        // sorted by confidence
        assert!(cands.windows(2).all(|w| w[0].confidence >= w[1].confidence));
    }

    #[test]
    fn pipeline_finds_the_fig2_key_bridges() {
        let c = carrier();
        let f = factory();
        let cands = MatcherPipeline::standard(transport_lexicon()).propose(&c, &f, &RuleSet::new());
        let texts: Vec<String> = cands.iter().map(|c| c.rule.to_string()).collect();
        // cars are vehicles (lexicon hypernym)
        assert!(texts.contains(&"carrier.Cars => factory.Vehicle".to_string()));
        // trucks match trucks (normalised label)
        assert!(texts.contains(&"carrier.Trucks => factory.Truck".to_string()));
    }
}
