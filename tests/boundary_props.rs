//! Readers of outside text never panic.
//!
//! `import::from_text`, `import::from_xml`, `import::from_idl` and
//! `persist::from_text` read files an ontology author or an earlier run
//! wrote; `parse_rules`, `HornProgram::parse`, `Query::parse`,
//! `Pattern::parse` and `pattern_query::compile_scoped` read the rules,
//! programs, queries and patterns an expert or a user types. Whatever
//! the bytes, each returns `Ok` or `Err`. The properties feed every
//! reader the same inputs: token soup built from the formats' pieces
//! (keywords, quotes, XML markup and entities, braces, rule and pattern
//! arrows, clause necks, comparison operators, dots, tabs, line breaks,
//! NUL and non-ASCII labels), that soup arranged in keyword-led lines so
//! it reaches each line parser, and arbitrary strings.

use proptest::prelude::*;

use onion_core::articulate::persist;
use onion_core::graph::Pattern;
use onion_core::ontology::import::{self, IdlOptions};
use onion_core::query::{pattern_query, Query};
use onion_core::rules::{parse_rules, HornProgram};

/// The words that start a line or an element in one of the formats.
const KEYWORDS: [&str; 10] = [
    "ontology",
    "node",
    "edge",
    "bridge",
    "rule",
    "support",
    "articulation",
    "interface",
    "attribute",
    "find",
];

/// Punctuation, whitespace, entities and characters none of the formats
/// expects.
const PUNCTUATION: [&str; 39] = [
    " ", "\t", "\n", "\r\n", "\r", "\0", "\"", "'", "\\", "<", ">", "/>", "</", "<!--", "-->", "=",
    "&amp;", "&#x", "&#", "&", ";", "{", "}", "};", ":", ",", "=>", ".", "Über", "日本", "é", "7",
    ":-", "%", "(", ")", "<=", "!=", "->",
];

/// Names, bridge kinds, query words and whole XML markup, so some soup
/// parses.
const WORDS: [&str; 20] = [
    "label",
    "from",
    "to",
    "name",
    "rel",
    "Car",
    "carrier.Car",
    "SIBridge",
    "derived",
    "functional",
    "<?xml version=\"1.0\"?>",
    "<ontology name=\"o\">",
    "</ontology>",
    "<node label=\"",
    "</node>",
    "<edge from=\"",
    "\" label=\"",
    "\" to=\"",
    "where",
    "and",
];

/// How many pieces [`piece`] indexes.
const PIECES: usize = KEYWORDS.len() + PUNCTUATION.len() + WORDS.len();

fn piece(i: usize) -> &'static str {
    KEYWORDS.iter().chain(&PUNCTUATION).chain(&WORDS).nth(i).expect("index below PIECES")
}

fn soup(ix: &[usize]) -> String {
    ix.iter().map(|&i| piece(i)).collect()
}

/// Every reader on one input; each must return rather than panic.
fn read_all(text: &str) {
    let _ = import::from_text(text);
    let _ = import::from_xml(text);
    let _ = import::from_idl(text, &IdlOptions::default());
    let _ = import::from_idl(text, &IdlOptions { name: "idl.v2".into(), keep_types: true });
    let _ = persist::from_text(text);
    let _ = parse_rules(text);
    let _ = HornProgram::parse(text);
    let _ = Query::parse(text);
    let _ = Pattern::parse(text);
    let _ = pattern_query::compile_scoped(text);
}

proptest! {
    /// Token soup, with or without a leading keyword.
    #[test]
    fn readers_never_panic_on_token_soup(
        lead in 0usize..KEYWORDS.len() + 1,
        ix in prop::collection::vec(0..PIECES, 0..48),
    ) {
        let body = soup(&ix);
        read_all(&body);
        if let Some(k) = KEYWORDS.get(lead) {
            read_all(&format!("{k} {body}"));
        }
    }

    /// Lines that each start with a format keyword, then soup; the
    /// lines end in LF or CRLF, so each line parser sees them.
    #[test]
    fn readers_never_panic_on_keyword_lines(
        lines in prop::collection::vec(
            (0..KEYWORDS.len(), prop::collection::vec(0..PIECES, 0..12), 0..2usize),
            0..8,
        ),
    ) {
        let text: String = lines
            .iter()
            .map(|(k, ix, crlf)| format!("{} {}{}", KEYWORDS[*k], soup(ix), ["\n", "\r\n"][*crlf]))
            .collect();
        read_all(&text);
    }

    /// Arbitrary strings: ASCII only, or any Unicode scalar values.
    #[test]
    fn readers_never_panic_on_arbitrary_strings(
        chars in prop_oneof![
            prop::collection::vec(0u32..0x80, 0..96),
            prop::collection::vec(0u32..0x11_0000, 0..96),
        ],
    ) {
        let text: String = chars.into_iter().filter_map(char::from_u32).collect();
        read_all(&text);
    }
}
