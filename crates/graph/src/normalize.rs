//! Label normalisation for lexical matching.
//!
//! Ontology labels arrive as `CargoCarrier`, `passenger_car`, `Trucks` or
//! `"Goods Vehicle"`; WordNet keys are lowercase lemmas. This module
//! bridges the two: compound splitting (CamelCase, snake_case,
//! whitespace), case folding, and a light plural stemmer sufficient for
//! noun-phrase ontology terms (the paper's node labels are noun phrases,
//! §3).
//!
//! The module sits in the data layer so that an ontology can index its
//! own labels by normalised form; `onion_lexicon::normalize` re-exports
//! it.

/// Splits a label into lowercase word tokens.
///
/// Boundaries: whitespace, `_`, `-`, `.`, and lower→upper CamelCase
/// transitions. Runs of uppercase are kept together until a lowercase
/// letter follows (`XMLParser` → `xml`, `parser`).
pub fn tokenize(label: &str) -> Vec<String> {
    // lowercasing never yields a space, so the joined tokens split back
    fold(label, false).split(' ').filter(|t| !t.is_empty()).map(str::to_string).collect()
}

/// Reduces a lowercase token to a singular-ish stem.
///
/// Handles the regular English plural patterns that dominate ontology
/// vocabularies: `-ies`→`y`, `-sses`→`ss`, `-xes`/`-ches`/`-shes` drop
/// `es`, otherwise a trailing `-s` (but not `-ss`/`-us`) is dropped.
pub fn stem(token: &str) -> String {
    let mut out = token.to_string();
    stem_tail(&mut out, 0);
    out
}

/// Full normalisation: tokenize, stem each token, join with spaces.
///
/// `Trucks` → `truck`; `CargoCarrier` → `cargo carrier`;
/// `passenger_cars` → `passenger car`.
///
/// One pass over `label` into one `String`: each token is lowercased
/// straight into the output and stemmed in place when it ends, so no
/// char buffer, token list or join is built. The result equals
/// [`tokenize`], then [`stem`] on each token, then a space-join.
pub fn normalize(label: &str) -> String {
    fold(label, true)
}

/// `label`'s lowercase tokens joined by single spaces, each stemmed as
/// it ends when `stem` is set — the one scanner behind [`tokenize`] and
/// [`normalize`].
fn fold(label: &str, stem: bool) -> String {
    let mut out = String::with_capacity(label.len());
    // byte offset of the open token in `out`
    let mut start = 0;
    // the open token's last input char; `None` between tokens
    let mut prev: Option<char> = None;
    let end_token = |out: &mut String, start: usize| {
        if stem {
            stem_tail(out, start);
        }
    };
    let mut chars = label.chars().peekable();
    while let Some(c) = chars.next() {
        if c.is_whitespace() || c == '_' || c == '-' || c == '.' {
            if prev.take().is_some() {
                end_token(&mut out, start);
            }
            continue;
        }
        let opens = match prev {
            None => true,
            Some(p) => {
                c.is_uppercase()
                    && (p.is_lowercase()
                        || p.is_numeric()
                        || (p.is_uppercase() && chars.peek().is_some_and(|n| n.is_lowercase())))
            }
        };
        if opens {
            if prev.is_some() {
                end_token(&mut out, start);
            }
            if !out.is_empty() {
                out.push(' ');
            }
            start = out.len();
        }
        out.extend(c.to_lowercase());
        prev = Some(c);
    }
    if prev.is_some() {
        end_token(&mut out, start);
    }
    out
}

/// Stems the lowercase token that starts at byte `start` of `out`, in
/// place: the plural rules of [`stem`].
fn stem_tail(out: &mut String, start: usize) {
    let t = &out[start..];
    let (drop, add) = if t.len() > 3 && t.ends_with("ies") {
        (3, "y")
    } else if (t.len() > 4 && t.ends_with("sses"))
        || (t.len() > 3
            && (t.ends_with("xes")
                || t.ends_with("ches")
                || t.ends_with("shes")
                || t.ends_with("zes")))
    {
        (2, "")
    } else if t.len() > 2
        && t.ends_with('s')
        && !t.ends_with("ss")
        && !t.ends_with("us")
        && !t.ends_with("is")
    {
        (1, "")
    } else {
        (0, "")
    };
    out.truncate(out.len() - drop);
    out.push_str(add);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_camel_case() {
        assert_eq!(tokenize("CargoCarrier"), vec!["cargo", "carrier"]);
        assert_eq!(tokenize("PassengerCar"), vec!["passenger", "car"]);
        assert_eq!(tokenize("car"), vec!["car"]);
    }

    #[test]
    fn tokenize_acronym_runs() {
        assert_eq!(tokenize("XMLParser"), vec!["xml", "parser"]);
        assert_eq!(tokenize("SUV"), vec!["suv"]);
        assert_eq!(tokenize("PSToEuroFn"), vec!["ps", "to", "euro", "fn"]);
    }

    #[test]
    fn tokenize_separators() {
        assert_eq!(tokenize("passenger_car"), vec!["passenger", "car"]);
        assert_eq!(tokenize("goods vehicle"), vec!["goods", "vehicle"]);
        assert_eq!(tokenize("semi-trailer"), vec!["semi", "trailer"]);
        assert_eq!(tokenize("a.b"), vec!["a", "b"]);
        assert_eq!(tokenize("  spaced   out "), vec!["spaced", "out"]);
    }

    #[test]
    fn tokenize_empty_and_symbols() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("___").is_empty());
        assert_eq!(tokenize("price2000"), vec!["price2000"]);
    }

    #[test]
    fn stem_plurals() {
        assert_eq!(stem("cars"), "car");
        assert_eq!(stem("trucks"), "truck");
        assert_eq!(stem("lorries"), "lorry");
        assert_eq!(stem("boxes"), "box");
        assert_eq!(stem("branches"), "branch");
        assert_eq!(stem("classes"), "class");
        assert_eq!(stem("buses"), "buse"); // imperfect but stable
    }

    #[test]
    fn stem_leaves_non_plurals() {
        assert_eq!(stem("class"), "class");
        assert_eq!(stem("bus"), "bus");
        assert_eq!(stem("chassis"), "chassis");
        assert_eq!(stem("is"), "is");
        assert_eq!(stem("price"), "price");
    }

    #[test]
    fn normalize_combines() {
        assert_eq!(normalize("Trucks"), "truck");
        assert_eq!(normalize("CargoCarriers"), "cargo carrier");
        assert_eq!(normalize("passenger_cars"), "passenger car");
        assert_eq!(normalize("GoodsVehicle"), "good vehicle"); // goods→good: acceptable fold
    }

    /// `tokenize`, `stem` and `normalize` as they stood before the
    /// single-pass scanner (a `Vec<char>`, one `String` per token and a
    /// join), copied verbatim as the oracle.
    mod oracle {
        pub fn tokenize(label: &str) -> Vec<String> {
            let mut tokens = Vec::new();
            let mut cur = String::new();
            let chars: Vec<char> = label.chars().collect();
            for (i, &c) in chars.iter().enumerate() {
                if c.is_whitespace() || c == '_' || c == '-' || c == '.' {
                    if !cur.is_empty() {
                        tokens.push(std::mem::take(&mut cur));
                    }
                    continue;
                }
                if c.is_uppercase() && !cur.is_empty() {
                    let prev = chars[i - 1];
                    let next_lower = chars.get(i + 1).map(|n| n.is_lowercase()).unwrap_or(false);
                    if prev.is_lowercase()
                        || prev.is_numeric()
                        || (prev.is_uppercase() && next_lower)
                    {
                        tokens.push(std::mem::take(&mut cur));
                    }
                }
                cur.extend(c.to_lowercase());
            }
            if !cur.is_empty() {
                tokens.push(cur);
            }
            tokens
        }

        pub fn stem(token: &str) -> String {
            let t = token;
            if t.len() > 3 && t.ends_with("ies") {
                return format!("{}y", &t[..t.len() - 3]);
            }
            if t.len() > 4 && t.ends_with("sses") {
                return t[..t.len() - 2].to_string();
            }
            if t.len() > 3
                && (t.ends_with("xes")
                    || t.ends_with("ches")
                    || t.ends_with("shes")
                    || t.ends_with("zes"))
            {
                return t[..t.len() - 2].to_string();
            }
            if t.len() > 2
                && t.ends_with('s')
                && !t.ends_with("ss")
                && !t.ends_with("us")
                && !t.ends_with("is")
            {
                return t[..t.len() - 1].to_string();
            }
            t.to_string()
        }

        pub fn normalize(label: &str) -> String {
            let toks: Vec<String> = tokenize(label).into_iter().map(|t| stem(&t)).collect();
            toks.join(" ")
        }
    }

    /// Labels built from separators, case runs, digits, plural tails and
    /// non-ASCII case: `É`/`é`, `Σ`/`σ`/`ς`, and `İ`, whose lowercase is
    /// two chars.
    fn generated_labels() -> Vec<String> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const PIECES: &[&str] = &[
            " ",
            "\t",
            "_",
            "-",
            ".",
            "  ",
            "\u{a0}",
            "XML",
            "Parser",
            "XMLParser",
            "SUV",
            "Car",
            "cars",
            "Cars",
            "lorries",
            "ies",
            "Ies",
            "classes",
            "sses",
            "boxes",
            "xes",
            "branches",
            "ches",
            "bushes",
            "quizzes",
            "bus",
            "us",
            "chassis",
            "is",
            "s",
            "S",
            "ss",
            "2000",
            "7",
            "x1Y",
            "aB",
            "É",
            "École",
            "ÉCOLES",
            "é",
            "Σ",
            "ΣΑΣ",
            "σς",
            "İ",
            "İstanbul",
            "Wİes",
            "ß",
            "ǅ",
            "A",
            "a",
        ];
        const CHARS: &[char] = &[
            'a', 'B', 's', 'e', 'i', 'x', 'h', 'c', 'z', 'u', 'S', 'I', '1', ' ', '_', '-', '.',
            '\t', 'É', 'é', 'Σ', 'σ', 'ς', 'İ', 'ß',
        ];
        let mut rng = StdRng::seed_from_u64(7);
        let mut labels = vec![String::new()];
        for _ in 0..4000 {
            let mut l = String::new();
            for _ in 0..rng.gen_range(1..7) {
                if rng.gen_bool(0.7) {
                    l.push_str(PIECES[rng.gen_range(0..PIECES.len())]);
                } else {
                    l.push(CHARS[rng.gen_range(0..CHARS.len())]);
                }
            }
            labels.push(l);
        }
        labels
    }

    #[test]
    fn normalize_matches_the_token_stem_join_oracle() {
        let labels = generated_labels();
        let mut multi_token = 0;
        for l in &labels {
            assert_eq!(normalize(l), oracle::normalize(l), "normalize({l:?})");
            let toks = tokenize(l);
            assert_eq!(toks, oracle::tokenize(l), "tokenize({l:?})");
            for t in &toks {
                assert_eq!(stem(t), oracle::stem(t), "stem({t:?})");
            }
            multi_token += usize::from(toks.len() > 1);
        }
        // the generator reaches the cases it is built for
        let stemmed =
            labels.iter().filter(|l| oracle::tokenize(l).iter().any(|t| oracle::stem(t) != *t));
        assert!(stemmed.count() > 500);
        assert!(multi_token > 1000);
        assert!(labels.iter().any(|l| l.contains('İ')));
    }

    #[test]
    fn normalize_is_idempotent() {
        for l in ["Trucks", "CargoCarrier", "passenger_cars", "SUV", "My Car"] {
            let once = normalize(l);
            assert_eq!(normalize(&once), once, "normalize({l:?}) not idempotent");
        }
    }
}
