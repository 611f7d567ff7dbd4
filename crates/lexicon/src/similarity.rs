//! String similarity metrics for candidate bridge generation.
//!
//! When the lexicon has no entry for a pair of labels, SKAT-style
//! matchers fall back to lexical similarity. All metrics return a score
//! in `[0, 1]`, 1 meaning identical. Scans that compare every label of
//! one ontology with every label of another use [`PreparedLabel`].

use std::cmp::Ordering;

use crate::normalize::normalize;

/// Jaro similarity.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_chars(&a, &b)
}

/// Jaro similarity over chars: the one implementation behind [`jaro`],
/// [`jaro_winkler`] and [`PreparedLabel`].
fn jaro_chars(a: &[char], b: &[char]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut a_matched = Vec::new();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == ca {
                b_used[j] = true;
                a_matched.push(ca);
                break;
            }
        }
    }
    if a_matched.is_empty() {
        return 0.0;
    }
    let m = a_matched.len() as f64;
    // transpositions: compare the two sides' matched characters in order
    let b_matched = b.iter().zip(&b_used).filter(|&(_, &used)| used).map(|(c, _)| c);
    let t = a_matched.iter().zip(b_matched).filter(|(x, y)| x != y).count() as f64 / 2.0;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro-Winkler similarity with the standard 0.1 prefix scale capped at 4.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    winkler(jaro_chars(&a, &b), common_prefix(&a, &b))
}

/// Length of the common prefix, capped at Winkler's 4.
fn common_prefix(a: &[char], b: &[char]) -> usize {
    a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count()
}

/// Winkler's boost of the Jaro score `j` for a common prefix of
/// `prefix` chars; increasing in `j` for every prefix up to 4.
fn winkler(j: f64, prefix: usize) -> f64 {
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// Token-set similarity after [`normalize`]: Dice coefficient over the
/// normalised word multisets. `CargoCarrier` vs `cargo_carriers` → 1.0.
pub fn token_sim(a: &str, b: &str) -> f64 {
    token_dice(&normalize(a), &normalize(b))
}

/// The words of a normalised label.
fn words(norm: &str) -> impl Iterator<Item = &str> {
    norm.split(' ').filter(|w| !w.is_empty())
}

/// Dice coefficient over the word multisets of two normalised labels:
/// the one implementation behind [`token_sim`] and [`PreparedLabel`].
fn token_dice(na: &str, nb: &str) -> f64 {
    if na.is_empty() && nb.is_empty() {
        return 1.0;
    }
    let (la, lb) = (words(na).count(), words(nb).count());
    if la == 0 || lb == 0 {
        return 0.0;
    }
    // multiset overlap: the k-th copy of a word of `na` counts when `nb`
    // holds more than k copies of it
    let overlap = words(na)
        .enumerate()
        .filter(|&(i, w)| {
            words(na).take(i).filter(|&v| v == w).count() < words(nb).filter(|&v| v == w).count()
        })
        .count();
    2.0 * overlap as f64 / (la + lb) as f64
}

/// Size of the multiset intersection of two sorted char lists.
fn common_count(a: &[char], b: &[char]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while let (Some(x), Some(y)) = (a.get(i), b.get(j)) {
        match x.cmp(y) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// How far below the threshold a bound must fall before
/// [`PreparedLabel::sim_at_least`] skips a pair, so float rounding in
/// the bound can never skip a pair that reaches the threshold.
const SKIP_MARGIN: f64 = 1e-9;

/// A label prepared for many [`label_sim`] comparisons: its normalised
/// text, that text's chars, and the same chars sorted.
///
/// A similarity scan builds one per label and compares the prepared
/// forms, so each label is normalised once per scan rather than once per
/// pair. [`PreparedLabel::sim`] is the only implementation of the
/// combined score; [`label_sim`] prepares its two arguments and calls it.
#[derive(Debug, Clone)]
pub struct PreparedLabel {
    norm: String,
    chars: Vec<char>,
    sorted: Vec<char>,
}

impl PreparedLabel {
    /// Normalises `label` (see [`normalize`]) and collects the result's
    /// chars, in order and sorted.
    pub fn new(label: &str) -> Self {
        let norm = normalize(label);
        let chars: Vec<char> = norm.chars().collect();
        let mut sorted = chars.clone();
        sorted.sort_unstable();
        PreparedLabel { norm, chars, sorted }
    }

    /// The normalised text. Two labels fall in the exact matcher's
    /// territory when their normalised texts are equal.
    pub fn normalized(&self) -> &str {
        &self.norm
    }

    /// The combined similarity: the larger of the token Dice coefficient
    /// over the normalised words and Jaro-Winkler over the normalised
    /// chars. `label_sim(a, b)` is
    /// `PreparedLabel::new(a).sim(&PreparedLabel::new(b))`.
    pub fn sim(&self, other: &PreparedLabel) -> f64 {
        let jw = winkler(
            jaro_chars(&self.chars, &other.chars),
            common_prefix(&self.chars, &other.chars),
        );
        token_dice(&self.norm, &other.norm).max(jw)
    }

    /// `Some(self.sim(other))` when that score is at least `threshold`,
    /// `None` otherwise — the same answer as testing [`sim`](Self::sim),
    /// but Jaro runs only on pairs a character-count bound cannot rule
    /// out (Gravano et al., "Approximate String Joins in a Database
    /// (Almost) for Free", VLDB 2001):
    ///
    /// * Jaro matches pair equal chars, so the match count m is at most
    ///   Σ_c min(count_a(c), count_b(c)), counted by merging the sorted
    ///   chars;
    /// * the transposition term (m − t)/m is at most 1, so
    ///   J ≤ (m/|a| + m/|b| + 1)/3;
    /// * Winkler's J + p·0.1·(1 − J) grows with J, so that bound with the
    ///   pair's actual common prefix p bounds Jaro-Winkler.
    ///
    /// The pair is skipped only when both the token Dice coefficient and
    /// this bound fall more than 1e-9 below `threshold`.
    pub fn sim_at_least(&self, other: &PreparedLabel, threshold: f64) -> Option<f64> {
        if self.cannot_reach(other, threshold) {
            return None;
        }
        let sim = self.sim(other);
        (sim >= threshold).then_some(sim)
    }

    /// True when the bounds of [`sim_at_least`](Self::sim_at_least) put
    /// the pair's score below `threshold`.
    fn cannot_reach(&self, other: &PreparedLabel, threshold: f64) -> bool {
        let (la, lb) = (self.chars.len(), other.chars.len());
        if la == 0 || lb == 0 {
            return false; // Jaro's empty cases are exact and cheap
        }
        let m = common_count(&self.sorted, &other.sorted) as f64;
        let j = (m / la as f64 + m / lb as f64 + 1.0) / 3.0;
        winkler(j, common_prefix(&self.chars, &other.chars)) + SKIP_MARGIN < threshold
            && token_dice(&self.norm, &other.norm) + SKIP_MARGIN < threshold
    }
}

/// The combined label similarity used by the SKAT matchers: the maximum
/// of token similarity and Jaro-Winkler over normalised strings. Robust
/// to both compounding and small typos.
///
/// Normalises both labels on every call. A scan that compares each label
/// with many others should build one [`PreparedLabel`] per label and
/// call [`PreparedLabel::sim`] or [`PreparedLabel::sim_at_least`], which
/// return the same scores bit for bit.
pub fn label_sim(a: &str, b: &str) -> f64 {
    PreparedLabel::new(a).sim(&PreparedLabel::new(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaro_known_values() {
        assert!((jaro("MARTHA", "MARHTA") - 0.944444).abs() < 1e-4);
        assert!((jaro("DIXON", "DICKSONX") - 0.766667).abs() < 1e-4);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_boosts_prefix() {
        let j = jaro("prefixAB", "prefixBA");
        let jw = jaro_winkler("prefixAB", "prefixBA");
        assert!(jw > j);
        assert!(jw <= 1.0);
        assert_eq!(jaro_winkler("same", "same"), 1.0);
    }

    #[test]
    fn token_sim_handles_compounds() {
        assert_eq!(token_sim("CargoCarrier", "cargo_carriers"), 1.0);
        assert_eq!(token_sim("GoodsVehicle", "VehicleGoods"), 1.0); // set semantics
        assert!(token_sim("CargoCarrier", "Carrier") > 0.6);
        assert_eq!(token_sim("Car", "Truck"), 0.0);
    }

    #[test]
    fn label_sim_combines_metrics() {
        // plural/compound handled via tokens
        assert_eq!(label_sim("Trucks", "truck"), 1.0);
        // typo handled via jaro-winkler
        assert!(label_sim("Vehicle", "Vehcile") > 0.9);
        // unrelated labels score below the typo band (Jaro floors near 0.7
        // for same-alphabet words, so "low" means below ~0.8 here)
        assert!(label_sim("Price", "Driver") < 0.8);
        assert!(label_sim("Price", "Driver") < label_sim("Vehicle", "Vehcile"));
    }

    #[test]
    fn all_metrics_bounded() {
        let pairs = [
            ("Car", "Automobile"),
            ("", "x"),
            ("CargoCarrier", "carrier of cargo"),
            ("SUV", "suv"),
        ];
        for (a, b) in pairs {
            for f in [jaro, jaro_winkler, token_sim, label_sim] {
                let s = f(a, b);
                assert!((0.0..=1.0).contains(&s), "{a:?} vs {b:?} gave {s}");
            }
        }
    }
}
