//! SKAT's per-run proposal session against the loop it replaced.
//!
//! `ArticulationEngine::run` holds one `ProposalSession` for its whole
//! propose → confirm loop: the exact, synonym and similarity matchers,
//! which ignore the confirmed rules, run once per run, and only the
//! matchers that read the confirmed rules run every round. The merge
//! finds duplicates by hashing the rule. Checks:
//!
//! * `ArticulationEngine::run` equals a copy, kept below, of the loop
//!   that re-ran every matcher every round and merged with the old
//!   linear-scan merge: every candidate the expert reviewed (rule,
//!   confidence bits, provenance, evidence, order) with its verdict and
//!   the rules the expert supplied, the `EngineReport`, the confirmed
//!   rules and the `{:?}` of the articulation (`graph_id` masked);
//! * `MatcherPipeline::propose`, the session's one-round case, equals
//!   the old proposal given confirmed rules;
//! * a session asks each rule-independent matcher once per run and each
//!   rule-reading matcher once per round, and a matcher that keeps the
//!   default `reads_confirmed_rules` is asked every round.
//!
//! Inputs: generated pairs with oracle, accept-all, threshold and
//! scripted experts; Fig. 2 with the same experts and with its rules as
//! seeds. The scripted expert modifies and supplies rules, so runs last
//! three rounds or more. Pipelines: the standard one, one ordered
//! structural-first (so structural provenance leads the joined names),
//! and one with a matcher defined here that keeps the default.

use std::cell::Cell;
use std::rc::Rc;

use proptest::prelude::*;

use onion_core::articulate::{
    ExactLabelMatcher, Result, RuleMatcher, SimilarityMatcher, StructuralMatcher, SynonymMatcher,
};
use onion_core::ontology::examples::{carrier, factory, fig2_rules};
use onion_core::prelude::*;
use onion_core::testkit::{overlap_pair, OverlapPair, OverlapSpec};

/// The engine loop and merge as they stood before the session: every
/// matcher every round, duplicates found by linear scan, rule text
/// rendered inside every sort comparison.
mod before {
    use super::*;

    pub fn merge(candidates: Vec<CandidateRule>) -> Vec<CandidateRule> {
        let mut merged: Vec<CandidateRule> = Vec::new();
        for c in candidates {
            match merged.iter_mut().find(|m| m.rule == c.rule) {
                Some(m) => {
                    if !m.provenance.split('+').any(|p| p == c.provenance) {
                        m.provenance = format!("{}+{}", m.provenance, c.provenance);
                    }
                    if c.confidence > m.confidence {
                        m.confidence = c.confidence;
                        m.evidence = c.evidence;
                    }
                }
                None => merged.push(c),
            }
        }
        merged.sort_by(|a, b| {
            b.confidence
                .partial_cmp(&a.confidence)
                .expect("confidences are finite")
                .then_with(|| a.rule.to_string().cmp(&b.rule.to_string()))
        });
        merged
    }

    pub fn propose(
        matchers: &[Box<dyn RuleMatcher>],
        o1: &Ontology,
        o2: &Ontology,
        existing: &RuleSet,
    ) -> Vec<CandidateRule> {
        let all = matchers.iter().flat_map(|m| m.propose(o1, o2, existing)).collect();
        merge(all).into_iter().filter(|c| !existing.rules.contains(&c.rule)).collect()
    }

    pub fn run(
        matchers: &[Box<dyn RuleMatcher>],
        config: &EngineConfig,
        o1: &Ontology,
        o2: &Ontology,
        expert: &mut dyn Expert,
        seed_rules: RuleSet,
    ) -> Result<(Articulation, EngineReport)> {
        let mut rules = seed_rules;
        let mut report = EngineReport::default();
        for _ in 0..config.max_rounds {
            report.rounds += 1;
            let candidates = propose(matchers, o1, o2, &rules);
            let mut new_this_round = 0usize;
            for cand in candidates {
                report.proposed += 1;
                match expert.review(&cand) {
                    Verdict::Accept => {
                        if rules.push(cand.rule) {
                            report.accepted += 1;
                            new_this_round += 1;
                        }
                    }
                    Verdict::Reject => report.rejected += 1,
                    Verdict::Modify(rule) => {
                        if rules.push(rule) {
                            report.modified += 1;
                            new_this_round += 1;
                        }
                    }
                }
            }
            for rule in expert.supply_rules() {
                if rules.push(rule) {
                    report.supplied += 1;
                    new_this_round += 1;
                }
            }
            if new_this_round == 0 {
                break;
            }
        }
        let generator = ArticulationGenerator::with_config(config.generator.clone());
        let (articulation, gen_stats) = generator.generate_with_stats(&rules, &[o1, o2])?;
        report.generator = gen_stats;
        Ok((articulation, report))
    }
}

/// A matcher defined outside the crate: it ignores the confirmed rules
/// but keeps the default `reads_confirmed_rules`, so it runs every
/// round. Proposes `o1.X ⇒ o2.Y` at 0.6 when both labels share their
/// first three characters, which overlaps the other matchers' rules.
struct PrefixMatcher;

impl RuleMatcher for PrefixMatcher {
    fn name(&self) -> &'static str {
        "prefix"
    }

    fn propose(&self, o1: &Ontology, o2: &Ontology, _existing: &RuleSet) -> Vec<CandidateRule> {
        let prefix = |l: &str| l.chars().take(3).collect::<String>().to_lowercase();
        let l2s = labels(o2);
        let mut out = Vec::new();
        for a in labels(o1) {
            for b in l2s.iter().filter(|b| prefix(b) == prefix(&a)) {
                let rule = ArticulationRule::term_implies(
                    Term::qualified(o1.name(), &a),
                    Term::qualified(o2.name(), b),
                );
                out.push(CandidateRule::new(rule, 0.6, self.name(), format!("{a} ~ {b}")));
            }
        }
        out
    }
}

/// A shared call counter.
type CallCount = Rc<Cell<usize>>;

/// Counts a matcher's `propose` calls.
struct Counted {
    inner: Box<dyn RuleMatcher>,
    calls: CallCount,
}

impl RuleMatcher for Counted {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn propose(&self, o1: &Ontology, o2: &Ontology, existing: &RuleSet) -> Vec<CandidateRule> {
        self.calls.set(self.calls.get() + 1);
        self.inner.propose(o1, o2, existing)
    }

    fn reads_confirmed_rules(&self) -> bool {
        self.inner.reads_confirmed_rules()
    }
}

fn labels(o: &Ontology) -> Vec<String> {
    let mut v: Vec<String> = o.graph().nodes().map(|n| n.label.to_string()).collect();
    v.sort();
    v
}

#[derive(Debug, Clone, Copy)]
enum Stack {
    Standard,
    StructuralFirst,
    WithPrefix,
}

const STACKS: [Stack; 3] = [Stack::Standard, Stack::StructuralFirst, Stack::WithPrefix];

/// The stack's matchers, in pipeline order.
fn matchers(stack: Stack, lexicon: &Lexicon) -> Vec<Box<dyn RuleMatcher>> {
    let exact: Box<dyn RuleMatcher> = Box::new(ExactLabelMatcher);
    let synonym: Box<dyn RuleMatcher> = Box::new(SynonymMatcher::new(lexicon.clone()));
    let similarity: Box<dyn RuleMatcher> = Box::new(SimilarityMatcher::default());
    let structural: Box<dyn RuleMatcher> = Box::new(StructuralMatcher::default());
    match stack {
        Stack::Standard => vec![exact, synonym, similarity, structural],
        Stack::StructuralFirst => vec![structural, exact, synonym, similarity],
        Stack::WithPrefix => vec![exact, Box::new(PrefixMatcher), similarity, structural],
    }
}

/// The stack as the pipeline under test builds it.
fn pipeline(stack: Stack, lexicon: &Lexicon) -> MatcherPipeline {
    match stack {
        Stack::Standard => MatcherPipeline::standard(lexicon.clone()),
        Stack::StructuralFirst => MatcherPipeline::new()
            .with(StructuralMatcher::default())
            .with(ExactLabelMatcher)
            .with(SynonymMatcher::new(lexicon.clone()))
            .with(SimilarityMatcher::default()),
        Stack::WithPrefix => MatcherPipeline::new()
            .with(ExactLabelMatcher)
            .with(PrefixMatcher)
            .with(SimilarityMatcher::default())
            .with(StructuralMatcher::default()),
    }
}

/// Makes a fresh expert, so both loops start from the same state.
type ExpertFactory = Box<dyn Fn() -> Box<dyn Expert>>;

/// One call the engine made to the expert.
#[derive(Debug, PartialEq)]
enum Call {
    Review { rule: String, confidence: u64, provenance: String, evidence: String, verdict: String },
    Supply(Vec<ArticulationRule>),
}

/// Forwards to an expert and logs every candidate it reviews with the
/// verdict, and every batch of rules it supplies.
struct Recording<'e> {
    inner: &'e mut dyn Expert,
    log: Vec<Call>,
}

impl Expert for Recording<'_> {
    fn review(&mut self, c: &CandidateRule) -> Verdict {
        let verdict = self.inner.review(c);
        self.log.push(Call::Review {
            rule: format!("{:?}", c.rule),
            confidence: c.confidence.to_bits(),
            provenance: c.provenance.clone(),
            evidence: c.evidence.clone(),
            verdict: format!("{verdict:?}"),
        });
        verdict
    }

    fn supply_rules(&mut self) -> Vec<ArticulationRule> {
        let rules = self.inner.supply_rules();
        self.log.push(Call::Supply(rules.clone()));
        rules
    }
}

/// Masks the process-global `graph_id` counter, which each generated
/// graph draws afresh.
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

/// What the runs reached, so the checks cannot pass vacuously.
#[derive(Debug, Default)]
struct Reach {
    /// Most rounds of one run.
    rounds: usize,
    /// Reviewed candidates whose provenance joins two or more matchers.
    joined: usize,
    /// Reviewed candidates whose joined provenance starts `structural+`.
    structural_first: usize,
    /// Modified and supplied rules across runs.
    modified: usize,
    supplied: usize,
}

/// Runs the engine and the old loop from fresh experts and compares
/// everything the identity claim covers.
fn check_run(
    what: &str,
    o1: &Ontology,
    o2: &Ontology,
    lexicon: &Lexicon,
    expert: &dyn Fn() -> Box<dyn Expert>,
    seeds: &RuleSet,
    reach: &mut Reach,
) -> std::result::Result<(), String> {
    let config = EngineConfig::default();
    for stack in STACKS {
        let (mut e1, mut e2) = (expert(), expert());
        let mut got_log = Recording { inner: e1.as_mut(), log: Vec::new() };
        let mut want_log = Recording { inner: e2.as_mut(), log: Vec::new() };
        let got = ArticulationEngine::new(pipeline(stack, lexicon))
            .with_config(config.clone())
            .run(o1, o2, &mut got_log, seeds.clone());
        let want =
            before::run(&matchers(stack, lexicon), &config, o1, o2, &mut want_log, seeds.clone());
        let at = format!("{what}, {stack:?}");
        if let Some(i) = (0..got_log.log.len().max(want_log.log.len()))
            .find(|&i| got_log.log.get(i) != want_log.log.get(i))
        {
            return Err(format!(
                "{at}: expert call {i} differs\n got  {:?}\n want {:?}",
                got_log.log.get(i),
                want_log.log.get(i)
            ));
        }
        let ((got_art, got_report), (want_art, want_report)) = match (got, want) {
            (Ok(g), Ok(w)) => (g, w),
            (g, w) => return Err(format!("{at}: {:?} vs {:?}", g.err(), w.err())),
        };
        if got_report != want_report {
            return Err(format!("{at}: report {got_report:?}, want {want_report:?}"));
        }
        if got_art.rules != want_art.rules {
            return Err(format!("{at}: confirmed rules differ"));
        }
        if mask_graph_id(&format!("{got_art:?}")) != mask_graph_id(&format!("{want_art:?}")) {
            return Err(format!("{at}: articulations differ"));
        }
        reach.rounds = reach.rounds.max(got_report.rounds);
        reach.modified += got_report.modified;
        reach.supplied += got_report.supplied;
        for call in &got_log.log {
            if let Call::Review { provenance, .. } = call {
                reach.joined += usize::from(provenance.contains('+'));
                reach.structural_first += usize::from(provenance.starts_with("structural+"));
            }
        }
    }
    Ok(())
}

/// `MatcherPipeline::propose` against the old proposal, for every stack.
fn check_propose(
    o1: &Ontology,
    o2: &Ontology,
    lexicon: &Lexicon,
    existing: &RuleSet,
) -> std::result::Result<(), String> {
    for stack in STACKS {
        let got = pipeline(stack, lexicon).propose(o1, o2, existing);
        let want = before::propose(&matchers(stack, lexicon), o1, o2, existing);
        if got != want {
            return Err(format!(
                "propose, {stack:?}: {} candidates, want {}",
                got.len(),
                want.len()
            ));
        }
        let bits =
            |cs: &[CandidateRule]| cs.iter().map(|c| c.confidence.to_bits()).collect::<Vec<_>>();
        if bits(&got) != bits(&want) {
            return Err(format!("propose, {stack:?}: confidence bits differ"));
        }
    }
    Ok(())
}

fn qualified(s: &str) -> Term {
    let (o, n) = s.split_once('.').expect("qualified");
    Term::qualified(o, n)
}

fn truth_rules(truth: &[(String, String)]) -> RuleSet {
    let mut rs = RuleSet::new();
    for (l, r) in truth {
        rs.push(ArticulationRule::term_implies(qualified(l), qualified(r)));
    }
    rs
}

/// A scripted expert that accepts every third candidate, modifies every
/// eleventh into one of `replacements` (in turn) and volunteers
/// `supplied` after the first round; it rejects the rest.
fn scripted(replacements: &[ArticulationRule], supplied: Vec<ArticulationRule>) -> ScriptedExpert {
    let script = (0..2_000)
        .map(|i| {
            if i % 11 == 4 {
                Verdict::Modify(replacements[i / 11 % replacements.len()].clone())
            } else if i % 3 == 0 {
                Verdict::Accept
            } else {
                Verdict::Reject
            }
        })
        .collect();
    ScriptedExpert::new(script).with_supplied_rules(supplied)
}

/// Modifications for a generated pair: reversed truth pairs, a
/// conjunction and a rule into a new articulation term.
fn replacements_for(p: &OverlapPair) -> Vec<ArticulationRule> {
    let mut out: Vec<ArticulationRule> = p
        .truth
        .iter()
        .rev()
        .take(5)
        .map(|(l, r)| ArticulationRule::term_implies(qualified(r), qualified(l)))
        .collect();
    let left = labels(&p.left);
    let right = labels(&p.right);
    out.push(ArticulationRule::implies(
        RuleExpr::And(vec![
            RuleExpr::term(Term::qualified("left", &left[1])),
            RuleExpr::term(Term::qualified("left", &left[2])),
        ]),
        RuleExpr::term(Term::qualified("right", &right[1])),
    ));
    out.push(ArticulationRule::term_implies(
        Term::qualified("left", &left[left.len() / 2]),
        Term::qualified("transport", "Shared"),
    ));
    out
}

fn generated(seed: u64, concepts: usize, overlap: f64) -> OverlapPair {
    overlap_pair(&OverlapSpec { seed, concepts, overlap, rename_prob: 0.5, max_children: 5 })
}

fn fig2_oracle() -> OracleExpert {
    OracleExpert::new([
        ("carrier.Trucks".to_string(), "factory.Truck".to_string()),
        ("carrier.Transportation".to_string(), "factory.Transportation".to_string()),
        ("carrier.Cars".to_string(), "factory.Vehicle".to_string()),
        ("carrier.Price".to_string(), "factory.Price".to_string()),
    ])
}

#[test]
fn fig2_sessions_equal_the_old_loop() {
    let (c, f) = (carrier(), factory());
    let lexicon = transport_lexicon();
    let replacements = vec![
        ArticulationRule::term_implies(
            qualified("carrier.Cars"),
            qualified("transport.Automobiles"),
        ),
        ArticulationRule::term_implies(qualified("factory.Vehicle"), qualified("carrier.Cars")),
        ArticulationRule::term_implies(qualified("carrier.Trucks"), qualified("factory.Truck")),
    ];
    let supplied =
        parse_rules("PSToEuroFn(): factory.PoundSterling => transport.Euro\n").unwrap().rules;
    let experts: Vec<(&str, ExpertFactory)> = vec![
        ("accept-all", Box::new(|| -> Box<dyn Expert> { Box::new(AcceptAll) })),
        (
            "threshold 0.85",
            Box::new(|| -> Box<dyn Expert> { Box::new(ThresholdExpert::new(0.85)) }),
        ),
        ("oracle", Box::new(|| -> Box<dyn Expert> { Box::new(fig2_oracle()) })),
        (
            "scripted",
            Box::new(move || -> Box<dyn Expert> {
                Box::new(scripted(&replacements, supplied.clone()))
            }),
        ),
    ];
    let mut reach = Reach::default();
    for seeds in [RuleSet::new(), fig2_rules()] {
        for (name, expert) in &experts {
            let what = format!("Fig. 2, {name}, {} seed rules", seeds.len());
            check_run(&what, &c, &f, &lexicon, expert.as_ref(), &seeds, &mut reach).unwrap();
        }
        check_propose(&c, &f, &lexicon, &seeds).unwrap();
    }
    assert!(reach.rounds >= 3, "{reach:?}");
    assert!(reach.joined > 0 && reach.structural_first > 0, "{reach:?}");
    assert!(reach.modified > 0 && reach.supplied > 0, "{reach:?}");
}

#[test]
fn sessions_ask_label_matchers_once_and_rule_readers_every_round() {
    let (c, f) = (carrier(), factory());
    let lexicon = transport_lexicon();
    let counted: Vec<(Box<dyn RuleMatcher>, CallCount)> = matchers(Stack::WithPrefix, &lexicon)
        .into_iter()
        .chain(std::iter::once(
            Box::new(SynonymMatcher::new(lexicon.clone())) as Box<dyn RuleMatcher>
        ))
        .map(|m| (m, Rc::new(Cell::new(0))))
        .collect();
    let reads: Vec<bool> = counted.iter().map(|(m, _)| m.reads_confirmed_rules()).collect();
    assert_eq!(
        reads,
        [false, true, false, true, false],
        "exact, prefix, similarity, structural, synonym"
    );
    let calls: Vec<CallCount> = counted.iter().map(|(_, c)| Rc::clone(c)).collect();
    let pipeline = counted
        .into_iter()
        .fold(MatcherPipeline::new(), |p, (inner, calls)| p.with(Counted { inner, calls }));
    let (_, report) =
        ArticulationEngine::new(pipeline).run(&c, &f, &mut AcceptAll, RuleSet::new()).unwrap();
    assert!(report.rounds >= 2, "{report:?}");
    let per_matcher: Vec<usize> = calls.iter().map(|c| c.get()).collect();
    let want: Vec<usize> = reads.iter().map(|&r| if r { report.rounds } else { 1 }).collect();
    assert_eq!(per_matcher, want);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn generated_sessions_equal_the_old_loop(
        seed in 0u64..10_000,
        concepts in 20usize..64,
        overlap in 15u32..60,
    ) {
        let p = generated(seed, concepts, f64::from(overlap) / 100.0);
        prop_assert!(p.truth.len() >= 3, "seed {seed}: too little planted truth");
        let replacements = replacements_for(&p);
        // a truth rule the session may already hold, and one it cannot
        let mut supplied: Vec<ArticulationRule> = truth_rules(&p.truth[..1]).rules;
        supplied.push(ArticulationRule::term_implies(
            Term::qualified("left", &labels(&p.left)[3]),
            Term::qualified("transport", "Supplied"),
        ));
        let truth = p.truth.clone();
        let experts: Vec<(&str, ExpertFactory)> = vec![
            (
                "oracle",
                Box::new(move || -> Box<dyn Expert> {
                    Box::new(OracleExpert::new(truth.iter().cloned()))
                }),
            ),
            ("accept-all", Box::new(|| -> Box<dyn Expert> { Box::new(AcceptAll) })),
            (
                "threshold 0.8",
                Box::new(|| -> Box<dyn Expert> { Box::new(ThresholdExpert::new(0.8)) }),
            ),
            (
                "scripted",
                Box::new(move || -> Box<dyn Expert> {
                    Box::new(scripted(&replacements, supplied.clone()))
                }),
            ),
        ];
        let mut reach = Reach::default();
        for (name, expert) in &experts {
            let what = format!("seed {seed}, {name}");
            let res = check_run(
                &what,
                &p.left,
                &p.right,
                &p.lexicon,
                expert.as_ref(),
                &RuleSet::new(),
                &mut reach,
            );
            prop_assert!(res.is_ok(), "{}", res.unwrap_err());
        }
        let half = truth_rules(&p.truth[..p.truth.len() / 2]);
        for existing in [RuleSet::new(), half] {
            let res = check_propose(&p.left, &p.right, &p.lexicon, &existing);
            prop_assert!(res.is_ok(), "seed {seed}: {}", res.unwrap_err());
        }
        prop_assert!(reach.rounds >= 3, "seed {seed}: {reach:?}");
        prop_assert!(reach.joined > 0 && reach.structural_first > 0, "seed {seed}: {reach:?}");
        prop_assert!(reach.modified > 0 && reach.supplied > 0, "seed {seed}: {reach:?}");
    }
}
