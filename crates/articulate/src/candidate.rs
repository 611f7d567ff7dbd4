//! Candidate articulation rules, as proposed by SKAT matchers.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

use onion_rules::ArticulationRule;

/// A rule proposal with confidence and provenance, awaiting expert
/// review (§2.4: "Articulation rules are proposed by SKAT … and verified
/// by the expert").
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateRule {
    /// The proposed rule.
    pub rule: ArticulationRule,
    /// Matcher confidence in `[0, 1]`.
    pub confidence: f64,
    /// Which matcher produced it (e.g. `"exact-label"`, `"synonym"`).
    pub provenance: String,
    /// Short human-readable justification shown to the expert.
    pub evidence: String,
}

impl CandidateRule {
    /// Creates a candidate.
    pub fn new(
        rule: ArticulationRule,
        confidence: f64,
        provenance: &str,
        evidence: impl Into<String>,
    ) -> Self {
        CandidateRule {
            rule,
            confidence: confidence.clamp(0.0, 1.0),
            provenance: provenance.to_string(),
            evidence: evidence.into(),
        }
    }

    /// Deduplicates candidates by rule, keeping the highest-confidence
    /// proposal and concatenating provenance. Result is sorted by
    /// descending confidence, ties by rule text for determinism.
    ///
    /// A rule's first occurrence fixes its place among equal keys: the
    /// sort is stable, so two distinct rules that render to the same
    /// text keep their first-occurrence order. A later duplicate replaces
    /// the evidence only when its confidence is strictly higher, and
    /// appends its provenance (`+`-joined, first-seen order) unless that
    /// name is already there. Duplicates are found by hashing the rule
    /// and each survivor's text is rendered once, so the cost is linear
    /// in the candidates plus one sort of the survivors.
    pub fn merge(candidates: Vec<CandidateRule>) -> Vec<CandidateRule> {
        merge_unconfirmed(candidates.into_iter().map(Cow::Owned).collect(), &[])
    }
}

/// One merged rule: indices into the candidate list.
struct Group {
    /// The rule's first occurrence; its rule becomes the survivor's.
    first: usize,
    /// The occurrence whose confidence and evidence win.
    best: usize,
    /// The joined provenance, once a duplicate has added to it.
    provenance: Option<String>,
}

/// [`CandidateRule::merge`] over borrowed and owned candidates, dropping
/// every rule in `confirmed` before its text is rendered. Clones only the
/// borrowed candidates that survive.
pub(crate) fn merge_unconfirmed(
    candidates: Vec<Cow<'_, CandidateRule>>,
    confirmed: &[ArticulationRule],
) -> Vec<CandidateRule> {
    let mut groups: Vec<Group> = Vec::new();
    // rule → its group; confirmed rules map to `None`. Rules carry
    // source labels, so the map keeps the default (collision-resistant)
    // hasher.
    let mut index: HashMap<&ArticulationRule, Option<usize>> =
        HashMap::with_capacity(candidates.len() + confirmed.len());
    index.extend(confirmed.iter().map(|r| (r, None)));
    for (i, c) in candidates.iter().enumerate() {
        match index.entry(&c.rule) {
            Entry::Vacant(slot) => {
                slot.insert(Some(groups.len()));
                groups.push(Group { first: i, best: i, provenance: None });
            }
            Entry::Occupied(slot) => {
                let Some(g) = *slot.get() else { continue };
                let g = &mut groups[g];
                let joined = g.provenance.as_deref().unwrap_or(&candidates[g.first].provenance);
                if !joined.split('+').any(|p| p == c.provenance) {
                    g.provenance = Some(format!("{joined}+{}", c.provenance));
                }
                if c.confidence > candidates[g.best].confidence {
                    g.best = i;
                }
            }
        }
    }
    // in first-occurrence order, which the stable sort keeps on ties
    let mut keyed: Vec<(f64, String, Group)> = groups
        .into_iter()
        .map(|g| (candidates[g.best].confidence, candidates[g.first].rule.to_string(), g))
        .collect();
    keyed.sort_by(|(ca, ta, _), (cb, tb, _)| {
        cb.partial_cmp(ca).expect("confidences are finite").then_with(|| ta.cmp(tb))
    });
    let mut items: Vec<Option<Cow<'_, CandidateRule>>> = candidates.into_iter().map(Some).collect();
    keyed
        .into_iter()
        .map(|(confidence, _, g)| {
            let mut c = items[g.first].take().expect("one group per first occurrence").into_owned();
            if g.best != g.first {
                c.confidence = confidence;
                c.evidence = match items[g.best].take().expect("a later occurrence of one group") {
                    Cow::Owned(best) => best.evidence,
                    Cow::Borrowed(best) => best.evidence.clone(),
                };
            }
            if let Some(p) = g.provenance {
                c.provenance = p;
            }
            c
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use onion_rules::{RuleExpr, Term};
    use proptest::prelude::*;

    fn rule(a: &str, b: &str) -> ArticulationRule {
        ArticulationRule::term_implies(Term::qualified("o1", a), Term::qualified("o2", b))
    }

    /// `o1.A => o2.B` with the left term unqualified but named `o1.A`:
    /// a different rule that prints like `rule("A", "B")`.
    fn lookalike(a: &str, b: &str) -> ArticulationRule {
        ArticulationRule::term_implies(
            Term::unqualified(&format!("o1.{a}")),
            Term::qualified("o2", b),
        )
    }

    /// The merge as it stood before it hashed rules: a linear scan for
    /// each duplicate and a sort that renders both rules per comparison.
    fn quadratic_merge(candidates: Vec<CandidateRule>) -> Vec<CandidateRule> {
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

    /// Rule, confidence bits, provenance and evidence, in order.
    fn keyed(cands: &[CandidateRule]) -> Vec<(String, u64, String, String)> {
        cands
            .iter()
            .map(|c| {
                let rule = format!("{:?}", c.rule);
                (rule, c.confidence.to_bits(), c.provenance.clone(), c.evidence.clone())
            })
            .collect()
    }

    #[test]
    fn confidence_clamped() {
        let c = CandidateRule::new(rule("A", "B"), 1.5, "x", "");
        assert_eq!(c.confidence, 1.0);
        let c = CandidateRule::new(rule("A", "B"), -0.5, "x", "");
        assert_eq!(c.confidence, 0.0);
    }

    #[test]
    fn merge_keeps_max_confidence_and_joins_provenance() {
        let merged = CandidateRule::merge(vec![
            CandidateRule::new(rule("A", "B"), 0.5, "similarity", "sim=0.5"),
            CandidateRule::new(rule("A", "B"), 0.9, "synonym", "lexicon"),
            CandidateRule::new(rule("C", "D"), 0.7, "exact-label", ""),
        ]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].confidence, 0.9);
        assert_eq!(merged[0].provenance, "similarity+synonym");
        assert_eq!(merged[0].evidence, "lexicon");
        assert_eq!(merged[1].confidence, 0.7);
    }

    #[test]
    fn merge_sorts_by_confidence_then_text() {
        let merged = CandidateRule::merge(vec![
            CandidateRule::new(rule("Z", "Z"), 0.8, "a", ""),
            CandidateRule::new(rule("A", "A"), 0.8, "a", ""),
            CandidateRule::new(rule("M", "M"), 0.9, "a", ""),
        ]);
        assert_eq!(merged[0].rule, rule("M", "M"));
        assert_eq!(merged[1].rule, rule("A", "A"));
        assert_eq!(merged[2].rule, rule("Z", "Z"));
    }

    #[test]
    fn merge_does_not_duplicate_provenance() {
        let merged = CandidateRule::merge(vec![
            CandidateRule::new(rule("A", "B"), 0.5, "synonym", ""),
            CandidateRule::new(rule("A", "B"), 0.6, "synonym", ""),
        ]);
        assert_eq!(merged[0].provenance, "synonym");
    }

    #[test]
    fn merge_keeps_equal_text_rules_apart_in_first_occurrence_order() {
        assert_eq!(rule("A", "B").to_string(), lookalike("A", "B").to_string());
        for (first, second) in
            [(rule("A", "B"), lookalike("A", "B")), (lookalike("A", "B"), rule("A", "B"))]
        {
            let merged = CandidateRule::merge(vec![
                CandidateRule::new(first.clone(), 0.8, "a", "1"),
                CandidateRule::new(rule("C", "D"), 0.9, "a", "2"),
                CandidateRule::new(second.clone(), 0.8, "b", "3"),
                CandidateRule::new(first.clone(), 0.8, "c", "4"),
            ]);
            let rules: Vec<&ArticulationRule> = merged.iter().map(|c| &c.rule).collect();
            assert_eq!(rules, [&rule("C", "D"), &first, &second]);
            assert_eq!(merged[1].provenance, "a+c");
            assert_eq!(merged[2].provenance, "b");
        }
    }

    #[test]
    fn merge_equal_confidence_duplicate_keeps_first_evidence() {
        let merged = CandidateRule::merge(vec![
            CandidateRule::new(rule("A", "B"), 0.8, "synonym", "first"),
            CandidateRule::new(rule("A", "B"), 0.8, "structural", "second"),
        ]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].evidence, "first");
        assert_eq!(merged[0].confidence, 0.8);
    }

    #[test]
    fn merge_strictly_higher_duplicate_replaces_evidence() {
        let merged = CandidateRule::merge(vec![
            CandidateRule::new(rule("A", "B"), 0.8, "synonym", "first"),
            CandidateRule::new(rule("A", "B"), 0.81, "structural", "second"),
            CandidateRule::new(rule("A", "B"), 0.81, "similarity", "third"),
        ]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].evidence, "second");
        assert_eq!(merged[0].confidence, 0.81);
    }

    #[test]
    fn merge_joins_provenance_in_first_seen_order_once() {
        let merged = CandidateRule::merge(
            ["b", "a", "b", "c", "a", "c"]
                .into_iter()
                .map(|p| CandidateRule::new(rule("A", "B"), 0.5, p, ""))
                .collect(),
        );
        assert_eq!(merged[0].provenance, "b+a+c");
    }

    /// Rules the merge property draws from: enough that a list holds more
    /// distinct rules than the standard sorts handle by insertion (where
    /// even an unstable sort keeps ties in order).
    const POOL: usize = 50;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The hashed merge equals the quadratic one on random lists; so
        /// does dropping confirmed rules during the merge, over owned and
        /// borrowed candidates, against merging first and filtering after.
        #[test]
        fn merge_equals_the_quadratic_merge(
            picks in prop::collection::vec((0usize..POOL, 0u8..5, 0usize..6), 0..150),
            confirmed_mask in 0u64..(1 << POOL),
        ) {
            // pairs of distinct rules that print alike, then two shapes
            let mut pool: Vec<ArticulationRule> = (0..(POOL - 2) / 2)
                .flat_map(|k| {
                    let (a, b) = (format!("A{}", k % 7), format!("B{}", k / 7));
                    [rule(&a, &b), lookalike(&a, &b)]
                })
                .collect();
            pool.push(ArticulationRule::Functional {
                function: "F".into(),
                from: Term::qualified("o1", "A0"),
                to: Term::qualified("o2", "B0"),
            });
            pool.push(ArticulationRule::implies(
                RuleExpr::And(vec![
                    RuleExpr::Term(Term::qualified("o1", "A0")),
                    RuleExpr::Term(Term::qualified("o1", "A1")),
                ]),
                RuleExpr::Term(Term::qualified("o2", "B0")),
            ));
            let provenances = ["exact-label", "synonym", "similarity", "structural", "a+b", "a"];
            let candidates: Vec<CandidateRule> = picks
                .iter()
                .enumerate()
                .map(|(i, &(r, c, p))| CandidateRule {
                    rule: pool[r].clone(),
                    confidence: f64::from(c) / 4.0,
                    provenance: provenances[p].to_string(),
                    evidence: format!("e{i}"),
                })
                .collect();
            let want = quadratic_merge(candidates.clone());
            prop_assert_eq!(keyed(&CandidateRule::merge(candidates.clone())), keyed(&want));

            let confirmed: Vec<ArticulationRule> = pool
                .iter()
                .enumerate()
                .filter(|(i, _)| confirmed_mask & (1 << i) != 0)
                .map(|(_, r)| r.clone())
                .collect();
            let mixed: Vec<Cow<'_, CandidateRule>> = candidates
                .iter()
                .enumerate()
                .map(|(i, c)| if i % 2 == 0 { Cow::Borrowed(c) } else { Cow::Owned(c.clone()) })
                .collect();
            let filtered: Vec<CandidateRule> =
                want.into_iter().filter(|c| !confirmed.contains(&c.rule)).collect();
            prop_assert_eq!(keyed(&merge_unconfirmed(mixed, &confirmed)), keyed(&filtered));
        }
    }
}
