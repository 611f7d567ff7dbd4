//! Differential check of SKAT's prepared-label similarity against the
//! per-pair string functions it replaced.
//!
//! `PreparedLabel` normalises each label once per scan, and
//! `sim_at_least` runs Jaro-Winkler only when a character-count bound
//! says a pair can still reach the threshold. The oracle below is a
//! verbatim copy of `label_sim`, `token_sim`, `jaro` and `jaro_winkler`
//! as they stood before that change, normalising on every call. Checks:
//!
//! * every score is bit-equal (`f64::to_bits`) to the oracle's, through
//!   `label_sim`, `PreparedLabel::sim` and the public metrics;
//! * `sim_at_least(t)` answers `(old >= t).then_some(old)` at the
//!   matchers' thresholds, at each pair's own score and just above it;
//! * `SimilarityMatcher` and `StructuralMatcher` propose exactly the
//!   oracle scans' candidate lists (rule, confidence bits, evidence and
//!   order), including `max_pairs` budgets that end inside a row.
//!
//! Labels come from generated overlap pairs, the Fig. 2 ontologies, the
//! transport lexicon's vocabulary, random strings sharing a prefix, and
//! edge cases: empty, separators only, acronyms, digits and non-ASCII.

use proptest::prelude::*;

use onion_core::articulate::{RuleMatcher, SimilarityMatcher, StructuralMatcher};
use onion_core::lexicon::normalize::normalize;
use onion_core::lexicon::similarity::{jaro, jaro_winkler, label_sim, token_sim, PreparedLabel};
use onion_core::prelude::*;
use onion_core::testkit::{overlap_pair, OverlapPair, OverlapSpec};

/// The string functions before prepared labels, copied verbatim.
mod oracle {
    use onion_core::lexicon::normalize::normalize;

    /// Jaro similarity.
    pub fn jaro(a: &str, b: &str) -> f64 {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let mut b_used = vec![false; b.len()];
        let mut matches_a = Vec::new();
        for (i, &ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for j in lo..hi {
                if !b_used[j] && b[j] == ca {
                    b_used[j] = true;
                    matches_a.push((i, j));
                    break;
                }
            }
        }
        if matches_a.is_empty() {
            return 0.0;
        }
        let m = matches_a.len() as f64;
        // transpositions: compare matched characters in order
        let b_matched: Vec<char> = {
            let mut idx: Vec<usize> = matches_a.iter().map(|&(_, j)| j).collect();
            idx.sort_unstable();
            idx.into_iter().map(|j| b[j]).collect()
        };
        let t = matches_a
            .iter()
            .map(|&(i, _)| a[i])
            .zip(b_matched.iter())
            .filter(|(x, y)| x != *y)
            .count() as f64
            / 2.0;
        (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
    }

    /// Jaro-Winkler similarity with the standard 0.1 prefix scale capped at 4.
    pub fn jaro_winkler(a: &str, b: &str) -> f64 {
        let j = jaro(a, b);
        let prefix = a.chars().zip(b.chars()).take(4).take_while(|(x, y)| x == y).count() as f64;
        j + prefix * 0.1 * (1.0 - j)
    }

    /// Token-set similarity after [`normalize`]: Dice coefficient over the
    /// normalised word multisets. `CargoCarrier` vs `cargo_carriers` → 1.0.
    pub fn token_sim(a: &str, b: &str) -> f64 {
        let na = normalize(a);
        let nb = normalize(b);
        if na.is_empty() && nb.is_empty() {
            return 1.0;
        }
        let sa: Vec<&str> = na.split(' ').filter(|s| !s.is_empty()).collect();
        let sb: Vec<&str> = nb.split(' ').filter(|s| !s.is_empty()).collect();
        if sa.is_empty() || sb.is_empty() {
            return 0.0;
        }
        let mut pool = sb.clone();
        let mut overlap = 0usize;
        for t in &sa {
            if let Some(pos) = pool.iter().position(|x| x == t) {
                pool.swap_remove(pos);
                overlap += 1;
            }
        }
        2.0 * overlap as f64 / (sa.len() + sb.len()) as f64
    }

    /// The combined label similarity used by the SKAT similarity matcher:
    /// the maximum of token similarity and Jaro-Winkler over normalised
    /// strings. Robust to both compounding and small typos.
    pub fn label_sim(a: &str, b: &str) -> f64 {
        let t = token_sim(a, b);
        let jw = jaro_winkler(&normalize(a), &normalize(b));
        t.max(jw)
    }
}

/// The thresholds the matchers and benches use, plus the structural
/// matcher's floor.
const THRESHOLDS: [f64; 4] = [0.5, 0.8, 0.84, 0.9];

/// Labels no generator builds: empty, separators only, acronyms,
/// separator styles, digits, plurals, non-ASCII case folding and CJK.
const EDGE_LABELS: &[&str] = &[
    "",
    "___",
    " ",
    "-.-",
    "a",
    "A",
    "ab",
    "ba",
    "SUV",
    "suv",
    "XMLParser",
    "XmlParser",
    "PSToEuroFn",
    "passenger_car",
    "passenger-cars",
    "semi-trailer",
    "a.b",
    "  spaced   out ",
    "price2000",
    "Price2001",
    "3D",
    "Car2Go",
    "buses",
    "classes",
    "chassis",
    "Über",
    "über",
    "Ueber",
    "naïve_Café",
    "NaiveCafe",
    "İstanbul",
    "ß",
    "東京駅",
    "東京",
    "データベース",
    "abcdefghij",
    "abcdefghxy",
    "cargo cargo carrier",
    "carrier cargo",
];

/// Raw words of the built-in transport lexicon's synsets.
const TRANSPORT_WORDS: &[&str] = &[
    "transportation",
    "transport",
    "conveyance",
    "vehicle",
    "car",
    "automobile",
    "auto",
    "passenger car",
    "motorcar",
    "truck",
    "lorry",
    "goods vehicle",
    "suv",
    "sport utility vehicle",
    "carrier",
    "cargo carrier",
    "hauler",
    "goods",
    "cargo",
    "freight",
    "merchandise",
    "factory",
    "plant",
    "manufactory",
    "works",
    "organization",
    "organisation",
    "person",
    "individual",
    "human",
    "owner",
    "possessor",
    "proprietor",
    "driver",
    "chauffeur",
    "operator",
    "buyer",
    "purchaser",
    "customer",
    "client",
    "price",
    "cost",
    "monetary value",
    "money",
    "currency",
    "euro",
    "dutch guilder",
    "guilder",
    "gulden",
    "nlg",
    "pound sterling",
    "sterling",
    "gbp",
    "ps",
    "weight",
    "mass",
    "model",
    "make",
];

fn node_labels(o: &Ontology) -> Vec<String> {
    o.graph().nodes().map(|n| n.label.to_string()).collect()
}

/// Fig. 2, the transport vocabulary and the edge cases.
fn fixed_vocabulary() -> Vec<String> {
    let lexicon = transport_lexicon();
    let mut v: Vec<String> = node_labels(&examples::carrier());
    v.extend(node_labels(&examples::factory()));
    for w in TRANSPORT_WORDS {
        assert!(lexicon.contains(&normalize(w)), "{w:?} is not in the transport lexicon");
        v.push(w.to_string());
    }
    v.extend(EDGE_LABELS.iter().map(|s| s.to_string()));
    v
}

fn pair(seed: u64, concepts: usize, overlap: f64) -> OverlapPair {
    overlap_pair(&OverlapSpec { seed, concepts, overlap, rename_prob: 0.5, max_children: 5 })
}

/// The next float above a non-negative score.
fn just_above(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

/// Checks every score and threshold answer for one ordered pair.
fn check_pair(a: &str, b: &str, pa: &PreparedLabel, pb: &PreparedLabel) -> Result<(), String> {
    let old = oracle::label_sim(a, b);
    let got = [("label_sim", label_sim(a, b)), ("PreparedLabel::sim", pa.sim(pb))];
    for (what, new) in got {
        if new.to_bits() != old.to_bits() {
            return Err(format!("{what}({a:?}, {b:?}) = {new:?}, oracle {old:?}"));
        }
    }
    for t in THRESHOLDS.into_iter().chain([old, just_above(old)]) {
        let want = (old >= t).then_some(old.to_bits());
        let new = pa.sim_at_least(pb, t).map(f64::to_bits);
        if new != want {
            return Err(format!("sim_at_least({a:?}, {b:?}, {t:?}) = {new:?}, want {want:?}"));
        }
    }
    Ok(())
}

/// Checks every ordered pair of `left × right`, preparing each label once.
fn check_all_pairs(left: &[String], right: &[String]) -> Result<usize, String> {
    let pr: Vec<PreparedLabel> = right.iter().map(|l| PreparedLabel::new(l)).collect();
    for a in left {
        let pa = PreparedLabel::new(a);
        for (b, pb) in right.iter().zip(&pr) {
            check_pair(a, b, &pa, pb)?;
        }
    }
    Ok(left.len() * right.len())
}

/// A string metric.
type Metric = fn(&str, &str) -> f64;

/// The public metrics over raw (unnormalised) strings.
fn check_metrics(a: &str, b: &str) -> Result<(), String> {
    let metrics: [(&str, Metric, Metric); 3] = [
        ("jaro", jaro, oracle::jaro),
        ("jaro_winkler", jaro_winkler, oracle::jaro_winkler),
        ("token_sim", token_sim, oracle::token_sim),
    ];
    for (name, new, old) in metrics {
        let (new, old) = (new(a, b), old(a, b));
        if new.to_bits() != old.to_bits() {
            return Err(format!("{name}({a:?}, {b:?}) = {new:?}, oracle {old:?}"));
        }
    }
    Ok(())
}

fn rule(o1: &Ontology, a: &str, o2: &Ontology, b: &str) -> ArticulationRule {
    ArticulationRule::term_implies(Term::qualified(o1.name(), a), Term::qualified(o2.name(), b))
}

fn sorted_labels(o: &Ontology) -> Vec<String> {
    let mut v = node_labels(o);
    v.sort();
    v
}

/// The similarity scan before prepared labels, over the whole sorted
/// label product: each candidate with the index of the pair that
/// produced it. A budget of `max_pairs` keeps the candidates whose
/// index is below it.
fn oracle_similarity(threshold: f64, o1: &Ontology, o2: &Ontology) -> Vec<(usize, CandidateRule)> {
    let l2s = sorted_labels(o2);
    let mut out = Vec::new();
    for (i, l1) in sorted_labels(o1).iter().enumerate() {
        for (j, l2) in l2s.iter().enumerate() {
            if normalize(l1) == normalize(l2) {
                continue; // the exact matcher owns these
            }
            let sim = oracle::label_sim(l1, l2);
            if sim >= threshold {
                out.push((
                    i * l2s.len() + j,
                    CandidateRule::new(
                        rule(o1, l1, o2, l2),
                        0.85 * sim,
                        "similarity",
                        format!("label_sim({l1:?}, {l2:?}) = {sim:.3}"),
                    ),
                ));
            }
        }
    }
    out
}

/// The structural matcher before prepared labels.
fn oracle_structural(
    min_sim: f64,
    o1: &Ontology,
    o2: &Ontology,
    existing: &RuleSet,
) -> Vec<CandidateRule> {
    let mut out = Vec::new();
    for rule_ in existing.iter() {
        if !rule_.is_simple_implication() {
            continue;
        }
        let terms = rule_.terms();
        let (a, b) = (terms[0], terms[1]);
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
                for n2 in &n2s {
                    let sim = oracle::label_sim(n1, n2);
                    if sim >= min_sim {
                        out.push(CandidateRule::new(
                            rule(o1, n1, o2, n2),
                            (0.4 + 0.45 * sim).min(0.85),
                            "structural",
                            format!("{where_} of confirmed {t1:?} ~ {t2:?}, sim {sim:.2}"),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// A candidate list with confidences as bits, for exact comparison.
fn keyed(cands: &[CandidateRule]) -> Vec<(String, u64, String, String)> {
    cands
        .iter()
        .map(|c| {
            (c.rule.to_string(), c.confidence.to_bits(), c.provenance.clone(), c.evidence.clone())
        })
        .collect()
}

/// `SimilarityMatcher` against the oracle scan at `threshold`: with the
/// default budget, and with budgets that end just before and just after
/// each of a few candidates (mostly inside a row).
fn check_similarity_matcher(threshold: f64, o1: &Ontology, o2: &Ontology) -> Result<(), String> {
    let full = oracle_similarity(threshold, o1, o2);
    let default_budget = SimilarityMatcher::default().max_pairs;
    let cuts = full.iter().step_by(full.len() / 4 + 1).flat_map(|(i, _)| [*i, i + 1]);
    for max_pairs in std::iter::once(default_budget).chain(cuts) {
        let want: Vec<CandidateRule> =
            full.iter().filter(|(i, _)| *i < max_pairs).map(|(_, c)| c.clone()).collect();
        let got = SimilarityMatcher { threshold, max_pairs }.propose(o1, o2, &RuleSet::new());
        if keyed(&got) != keyed(&want) {
            return Err(format!(
                "similarity at {threshold} / max_pairs {max_pairs} on {} × {}: got {:?}, want {:?}",
                o1.name(),
                o2.name(),
                keyed(&got),
                keyed(&want)
            ));
        }
    }
    Ok(())
}

fn truth_rules(p: &OverlapPair) -> RuleSet {
    let mut rs = RuleSet::new();
    for (l, r) in &p.truth {
        let (lo, ln) = l.split_once('.').expect("qualified");
        let (ro, rn) = r.split_once('.').expect("qualified");
        rs.push(ArticulationRule::term_implies(Term::qualified(lo, ln), Term::qualified(ro, rn)));
    }
    rs
}

fn check_structural_matcher(
    o1: &Ontology,
    o2: &Ontology,
    existing: &RuleSet,
) -> Result<(), String> {
    let m = StructuralMatcher::default();
    let got = m.propose(o1, o2, existing);
    let want = oracle_structural(m.min_sim, o1, o2, existing);
    if keyed(&got) != keyed(&want) {
        return Err(format!("structural: got {:?}, want {:?}", keyed(&got), keyed(&want)));
    }
    Ok(())
}

#[test]
fn fixed_vocabulary_scores_bit_equal() {
    let vocab = fixed_vocabulary();
    let checked = check_all_pairs(&vocab, &vocab).unwrap();
    assert!(checked > 10_000, "only {checked} pairs");
    for a in &vocab {
        for b in &vocab {
            check_metrics(a, b).unwrap();
        }
    }
}

#[test]
fn generated_labels_against_fixed_vocabulary() {
    let p = pair(1, 100, 0.25);
    let vocab = fixed_vocabulary();
    let left = node_labels(&p.left);
    check_all_pairs(&left, &vocab).unwrap();
    check_all_pairs(&vocab, &node_labels(&p.right)).unwrap();
}

#[test]
fn fig2_matchers_equal_the_oracle() {
    let (c, f) = (examples::carrier(), examples::factory());
    for threshold in THRESHOLDS {
        check_similarity_matcher(threshold, &c, &f).unwrap();
        check_similarity_matcher(threshold, &f, &c).unwrap();
    }
    let rules = examples::fig2_rules();
    check_structural_matcher(&c, &f, &rules).unwrap();
    check_structural_matcher(&f, &c, &rules).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn generated_pairs_score_bit_equal(
        seed in 0u64..10_000,
        concepts in 20usize..140,
        overlap in 0u32..60,
    ) {
        let p = pair(seed, concepts, f64::from(overlap) / 100.0);
        let checked = check_all_pairs(&node_labels(&p.left), &node_labels(&p.right));
        prop_assert!(checked.is_ok(), "seed {seed}: {}", checked.unwrap_err());
    }

    #[test]
    fn shared_prefix_strings_score_bit_equal(
        prefix in "[abcA_ é]{0,5}",
        s1 in "[abcdeAB0-9_ .é東]{0,9}",
        s2 in "[abcdeAB0-9_ .é東]{0,9}",
    ) {
        let (a, b) = (format!("{prefix}{s1}"), format!("{prefix}{s2}"));
        let (pa, pb) = (PreparedLabel::new(&a), PreparedLabel::new(&b));
        for (x, y, px, py) in [(&a, &b, &pa, &pb), (&b, &a, &pb, &pa), (&a, &a, &pa, &pa)] {
            let res = check_pair(x, y, px, py).and_then(|()| check_metrics(x, y));
            prop_assert!(res.is_ok(), "{}", res.unwrap_err());
        }
    }

    #[test]
    fn similarity_matcher_equals_the_oracle_scan(
        seed in 0u64..10_000,
        concepts in 20usize..120,
        overlap in 5u32..50,
    ) {
        let p = pair(seed, concepts, f64::from(overlap) / 100.0);
        for threshold in [SimilarityMatcher::default().threshold, 0.9] {
            let res = check_similarity_matcher(threshold, &p.left, &p.right);
            prop_assert!(res.is_ok(), "seed {seed}: {}", res.unwrap_err());
        }
    }

    #[test]
    fn structural_matcher_equals_the_oracle(
        seed in 0u64..10_000,
        concepts in 20usize..160,
        overlap in 5u32..60,
    ) {
        let p = pair(seed, concepts, f64::from(overlap) / 100.0);
        let truth = truth_rules(&p);
        let res = check_structural_matcher(&p.left, &p.right, &truth)
            .and_then(|()| check_structural_matcher(&p.right, &p.left, &truth));
        prop_assert!(res.is_ok(), "seed {seed}: {}", res.unwrap_err());
    }
}
