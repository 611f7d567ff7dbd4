//! Query representation and textual syntax.
//!
//! Queries are phrased in the articulation ontology's vocabulary, in a
//! small form that matches the paper's attribute-pattern notation:
//!
//! ```text
//! find Vehicle(Price, Owner) where Price < 10000 and Owner = "Ann"
//! ```
//!
//! * `Vehicle` — a class of the articulation ontology;
//! * the parenthesised list — attributes to return (empty means "id
//!   only");
//! * `where` — conjunctive comparisons on attribute values. Numbers are
//!   interpreted in the articulation's metric space (e.g. Euro) and
//!   converted per source by the reformulator. String values are
//!   double-quoted, with `\"` and `\\` as the only escapes; quoted
//!   text may hold anything else, operators and ` and ` included.
//! * a class, attribute or condition name may be double-quoted the same
//!   way: `find "Cars (used)"("list price") where "list price" < 9`.
//!   `Display` quotes a name unless it is plain: non-empty, without
//!   whitespace and without any of `( ) , " < > = !`.
//!
//! [`Query`]'s `Display` writes this syntax, and [`Query::parse`] reads
//! it back to an equal query (for any names and any numbers but NaN).
//! Two different queries therefore never print alike, so the display
//! form can key query deduplication and the result cache.

use std::fmt::{self, Write as _};

use crate::{QueryError, Result};

/// An attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Numeric (all numerics are f64; ontology instance data is small).
    Num(f64),
    /// String.
    Str(String),
}

impl Value {
    /// Numeric accessor.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::Str(_) => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Str(s) => write_quoted(f, s),
        }
    }
}

/// Writes `s` double-quoted, with a backslash before each `"` and `\`.
fn write_quoted(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        if matches!(c, '"' | '\\') {
            f.write_char('\\')?;
        }
        f.write_char(c)?;
    }
    f.write_char('"')
}

/// Can `name` stand unquoted in a query? It must be non-empty and hold
/// no whitespace and none of `( ) , " < > = !`.
fn is_plain(name: &str) -> bool {
    !name.is_empty()
        && !name.chars().any(|c| {
            c.is_whitespace() || matches!(c, '(' | ')' | ',' | '"' | '<' | '>' | '=' | '!')
        })
}

/// Writes a class or attribute name: as it is if plain, else quoted.
fn write_name(f: &mut fmt::Formatter<'_>, name: &str) -> fmt::Result {
    if is_plain(name) {
        f.write_str(name)
    } else {
        write_quoted(f, name)
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

impl CmpOp {
    /// Evaluates `left op right`. Mixed types compare unequal (and
    /// order-compare false).
    pub fn eval(self, left: &Value, right: &Value) -> bool {
        match (left, right) {
            (Value::Num(a), Value::Num(b)) => match self {
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                CmpOp::Ge => a >= b,
                CmpOp::Gt => a > b,
            },
            (Value::Str(a), Value::Str(b)) => match self {
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                CmpOp::Ge => a >= b,
                CmpOp::Gt => a > b,
            },
            _ => self == CmpOp::Ne,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
        };
        write!(f, "{s}")
    }
}

/// One conjunctive condition `attr op value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Condition {
    /// Attribute name (articulation vocabulary).
    pub attr: String,
    /// Operator.
    pub op: CmpOp,
    /// Comparison value (articulation metric space).
    pub value: Value,
}

impl Condition {
    /// Builds a condition.
    pub fn new(attr: &str, op: CmpOp, value: Value) -> Self {
        Condition { attr: attr.to_string(), op, value }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_name(f, &self.attr)?;
        write!(f, " {} {}", self.op, self.value)
    }
}

/// A query against the articulation ontology.
///
/// ```
/// use onion_query::{CmpOp, Query, Value};
///
/// let q = Query::parse("find Vehicle(Price) where Price < 10000").unwrap();
/// assert_eq!(q.class, "Vehicle");
/// assert_eq!(q.select, vec!["Price"]);
/// assert_eq!(q.conditions[0].op, CmpOp::Lt);
/// assert_eq!(q.conditions[0].value, Value::Num(10000.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Class (articulation vocabulary, unqualified).
    pub class: String,
    /// Attributes to project (articulation vocabulary).
    pub select: Vec<String>,
    /// Conjunctive conditions.
    pub conditions: Vec<Condition>,
}

impl Query {
    /// Query for all instances of `class`.
    pub fn all(class: &str) -> Self {
        Query { class: class.to_string(), select: Vec::new(), conditions: Vec::new() }
    }

    /// Adds a projected attribute.
    pub fn select(mut self, attr: &str) -> Self {
        self.select.push(attr.to_string());
        self
    }

    /// Adds a condition.
    pub fn filter(mut self, attr: &str, op: CmpOp, value: Value) -> Self {
        self.conditions.push(Condition::new(attr, op, value));
        self
    }

    /// Parses the textual form (see module docs).
    pub fn parse(input: &str) -> Result<Query> {
        let s = input.trim();
        let rest = s
            .strip_prefix("find ")
            .ok_or_else(|| QueryError::Parse("query must start with 'find'".into()))?;
        let (head, where_part) = match find_unquoted(rest, " where ") {
            Some(i) => (&rest[..i], Some(&rest[i + " where ".len()..])),
            None => (rest, None),
        };
        let head = head.trim();
        let (class, select) = match find_unquoted(head, "(") {
            Some(i) => {
                let args = head[i..]
                    .strip_prefix('(')
                    .and_then(|a| a.strip_suffix(')'))
                    .ok_or_else(|| QueryError::Parse("unbalanced parentheses".into()))?;
                let select = split_unquoted(args, ",")
                    .into_iter()
                    .map(str::trim)
                    .filter(|a| !a.is_empty())
                    .map(parse_name)
                    .collect::<Result<Vec<String>>>()?;
                (head[..i].trim(), select)
            }
            None => (head, Vec::new()),
        };
        let class = if class.starts_with('"') {
            unquote(class)?
        } else if class.is_empty() || class.contains(char::is_whitespace) {
            return Err(QueryError::Parse(format!("bad class name {class:?}")));
        } else {
            class.to_string()
        };
        let mut q = Query { class, select, conditions: Vec::new() };
        if let Some(w) = where_part {
            for c in split_unquoted(w, " and ") {
                q.conditions.push(parse_condition(c.trim())?);
            }
        }
        Ok(q)
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("find ")?;
        write_name(f, &self.class)?;
        if !self.select.is_empty() {
            f.write_char('(')?;
            for (i, attr) in self.select.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write_name(f, attr)?;
            }
            f.write_char(')')?;
        }
        for (i, c) in self.conditions.iter().enumerate() {
            write!(f, " {} {c}", if i == 0 { "where" } else { "and" })?;
        }
        Ok(())
    }
}

/// Byte offsets of the characters of `s` outside double-quoted text
/// (the quotes themselves excluded). Inside quotes a backslash escapes
/// the next character, so `\"` does not close the string.
fn unquoted_offsets(s: &str) -> impl Iterator<Item = usize> + '_ {
    let (mut quoted, mut escaped) = (false, false);
    s.char_indices().filter_map(move |(i, c)| {
        if quoted {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => quoted = false,
                _ => {}
            }
            None
        } else if c == '"' {
            quoted = true;
            None
        } else {
            Some(i)
        }
    })
}

/// Byte offset of the first occurrence of `pat` outside quoted text.
fn find_unquoted(s: &str, pat: &str) -> Option<usize> {
    unquoted_offsets(s).find(|&i| s[i..].starts_with(pat))
}

/// `s` cut at every occurrence of `sep` outside quoted text. Each cut
/// lies outside quotes and `sep` holds none, so the scan restarts
/// after it in the same state.
fn split_unquoted<'s>(mut s: &'s str, sep: &str) -> Vec<&'s str> {
    let mut parts = Vec::new();
    while let Some(i) = find_unquoted(s, sep) {
        parts.push(&s[..i]);
        s = &s[i + sep.len()..];
    }
    parts.push(s);
    parts
}

/// A select or condition name: double-quoted text unescaped, anything
/// else as it stands.
fn parse_name(token: &str) -> Result<String> {
    if token.starts_with('"') {
        unquote(token)
    } else {
        Ok(token.to_string())
    }
}

/// The operator the leftmost unquoted operator character starts; at
/// one position the two-character operators win over their prefixes.
fn find_operator(s: &str) -> Option<(usize, &'static str, CmpOp)> {
    const OPS: [(&str, CmpOp); 6] = [
        ("<=", CmpOp::Le),
        (">=", CmpOp::Ge),
        ("!=", CmpOp::Ne),
        ("<", CmpOp::Lt),
        (">", CmpOp::Gt),
        ("=", CmpOp::Eq),
    ];
    unquoted_offsets(s).find_map(|i| {
        OPS.iter().find(|(tok, _)| s[i..].starts_with(tok)).map(|&(tok, op)| (i, tok, op))
    })
}

/// Reads a double-quoted string that makes up all of `val`, undoing the
/// `\"` and `\\` escapes.
fn unquote(val: &str) -> Result<String> {
    let mut out = String::new();
    let mut chars = val.strip_prefix('"').unwrap_or(val).chars();
    while let Some(c) = chars.next() {
        match c {
            '"' if chars.as_str().is_empty() => return Ok(out),
            '"' => return Err(QueryError::Parse(format!("text after closing quote in {val:?}"))),
            '\\' => match chars.next() {
                Some(e @ ('"' | '\\')) => out.push(e),
                _ => return Err(QueryError::Parse(format!("bad escape in {val:?}"))),
            },
            c => out.push(c),
        }
    }
    Err(QueryError::Parse(format!("unterminated string {val:?}")))
}

fn parse_condition(s: &str) -> Result<Condition> {
    let (i, tok, op) = find_operator(s)
        .ok_or_else(|| QueryError::Parse(format!("no operator in condition {s:?}")))?;
    let attr = s[..i].trim();
    let val = s[i + tok.len()..].trim();
    if attr.is_empty() || val.is_empty() {
        return Err(QueryError::Parse(format!("bad condition {s:?}")));
    }
    let value = if val.starts_with('"') {
        Value::Str(unquote(val)?)
    } else if let Ok(n) = val.parse::<f64>() {
        Value::Num(n)
    } else {
        Value::Str(val.to_string())
    };
    Ok(Condition { attr: parse_name(attr)?, op, value })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_full_query() {
        let q = Query::parse("find Vehicle(Price, Owner) where Price < 10000 and Owner = \"Ann\"")
            .unwrap();
        assert_eq!(q.class, "Vehicle");
        assert_eq!(q.select, vec!["Price", "Owner"]);
        assert_eq!(q.conditions.len(), 2);
        assert_eq!(q.conditions[0], Condition::new("Price", CmpOp::Lt, Value::Num(10000.0)));
        assert_eq!(q.conditions[1], Condition::new("Owner", CmpOp::Eq, Value::Str("Ann".into())));
    }

    #[test]
    fn parse_minimal_query() {
        let q = Query::parse("find Vehicle").unwrap();
        assert_eq!(q.class, "Vehicle");
        assert!(q.select.is_empty());
        assert!(q.conditions.is_empty());
    }

    #[test]
    fn parse_empty_projection() {
        let q = Query::parse("find Vehicle()").unwrap();
        assert!(q.select.is_empty());
    }

    #[test]
    fn parse_operators() {
        for (src, op) in [
            ("find C where A < 1", CmpOp::Lt),
            ("find C where A <= 1", CmpOp::Le),
            ("find C where A = 1", CmpOp::Eq),
            ("find C where A != 1", CmpOp::Ne),
            ("find C where A >= 1", CmpOp::Ge),
            ("find C where A > 1", CmpOp::Gt),
        ] {
            assert_eq!(Query::parse(src).unwrap().conditions[0].op, op, "{src}");
        }
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "Vehicle",
            "find ",
            "find V(a",
            "find V where",
            "find V where Price",
            "find V where Price < ",
            "find V where O = \"open",
        ] {
            assert!(Query::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn display_parse_roundtrip() {
        for src in [
            "find Vehicle",
            "find Vehicle(Price)",
            "find Vehicle(Price, Owner) where Price < 10000",
            "find Vehicle where Owner = \"Ann\" and Price >= 2",
        ] {
            let q = Query::parse(src).unwrap();
            let q2 = Query::parse(&q.to_string()).unwrap();
            assert_eq!(q, q2, "roundtrip failed for {src}");
        }
    }

    #[test]
    fn cmp_eval_numbers_and_strings() {
        assert!(CmpOp::Lt.eval(&Value::Num(1.0), &Value::Num(2.0)));
        assert!(!CmpOp::Lt.eval(&Value::Num(2.0), &Value::Num(2.0)));
        assert!(CmpOp::Le.eval(&Value::Num(2.0), &Value::Num(2.0)));
        assert!(CmpOp::Eq.eval(&Value::Str("a".into()), &Value::Str("a".into())));
        assert!(CmpOp::Gt.eval(&Value::Str("b".into()), &Value::Str("a".into())));
        // mixed types: only != holds
        assert!(CmpOp::Ne.eval(&Value::Num(1.0), &Value::Str("1".into())));
        assert!(!CmpOp::Eq.eval(&Value::Num(1.0), &Value::Str("1".into())));
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::Num(2000.0).to_string(), "2000");
        assert_eq!(Value::Num(2.5).to_string(), "2.5");
        assert_eq!(Value::Str("x".into()).to_string(), "\"x\"");
    }

    #[test]
    fn builder_api() {
        let q = Query::all("Vehicle").select("Price").filter("Price", CmpOp::Lt, Value::Num(5.0));
        assert_eq!(q.to_string(), "find Vehicle(Price) where Price < 5");
    }

    #[test]
    fn names_that_are_not_plain_are_quoted() {
        // these two used to print alike
        assert_eq!(Query::all("Vehicle(Price)").to_string(), r#"find "Vehicle(Price)""#);
        assert_eq!(Query::all("Vehicle").select("Price").to_string(), "find Vehicle(Price)");
        let q = Query::all("Cars (used)").select("list price").select("a,b").select("").filter(
            "x<y",
            CmpOp::Lt,
            Value::Num(9.0),
        );
        let text = r#"find "Cars (used)"("list price", "a,b", "") where "x<y" < 9"#;
        assert_eq!(q.to_string(), text);
        assert_eq!(Query::parse(text), Ok(q));
        let q = Query::all(r#"say "hi" \ bye"#).filter("where and", CmpOp::Ne, Value::Num(1.0));
        assert_eq!(q.to_string(), r#"find "say \"hi\" \\ bye" where "where and" != 1"#);
        assert_eq!(Query::parse(&q.to_string()), Ok(q));
        // plain names, non-ASCII ones included, print as they are
        let q = Query::all("Über").select("Prix_€").filter("a.b", CmpOp::Eq, Value::Num(1.0));
        assert_eq!(q.to_string(), "find Über(Prix_€) where a.b = 1");
        for bad in [r#"find "V"x"#, r#"find V("a"b)"#, r#"find V where "a"b < 1"#, r#"find "V"#] {
            assert!(Query::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    fn owner_is(value: &str) -> Vec<Condition> {
        vec![Condition::new("Owner", CmpOp::Eq, Value::Str(value.into()))]
    }

    #[test]
    fn operators_inside_quotes_are_text() {
        for value in ["a<b", "x!=y", "p>=q", "=", "<="] {
            let src = format!("find Vehicle(Owner) where Owner = \"{value}\"");
            assert_eq!(Query::parse(&src).unwrap().conditions, owner_is(value), "{src}");
        }
        // the leftmost operator wins, and the longest one at its offset
        let q = Query::parse("find V where A <= \"<\" and B != \"=\"").unwrap();
        assert_eq!(q.conditions[0], Condition::new("A", CmpOp::Le, Value::Str("<".into())));
        assert_eq!(q.conditions[1], Condition::new("B", CmpOp::Ne, Value::Str("=".into())));
    }

    #[test]
    fn and_inside_quotes_is_text() {
        let q = Query::parse("find Vehicle(Owner) where Owner = \"Smith and Sons\"").unwrap();
        assert_eq!(q.conditions, owner_is("Smith and Sons"));
        let q = Query::parse("find V where Owner = \" and \" and Price < 3").unwrap();
        assert_eq!(q.conditions.len(), 2);
        assert_eq!(q.conditions[0], owner_is(" and ")[0]);
        assert_eq!(q.conditions[1], Condition::new("Price", CmpOp::Lt, Value::Num(3.0)));
    }

    #[test]
    fn quoted_values_unescape() {
        let q = Query::parse(r#"find V where Owner = "say \"hi\" \\ bye""#).unwrap();
        assert_eq!(q.conditions, owner_is(r#"say "hi" \ bye"#));
        for bad in [
            r#"find V where Owner = "a\nb""#,
            r#"find V where Owner = "a" b"#,
            r#"find V where Owner = "a\""#,
        ] {
            assert!(Query::parse(bad).is_err(), "{bad:?} should fail");
        }
        // the escapes Display writes are exactly the ones the parser reads
        assert_eq!(Value::Str(r#"a"b\c"#.into()).to_string(), r#""a\"b\\c""#);
        assert_eq!(Value::Str("x\ny Ü".into()).to_string(), "\"x\ny Ü\"");
    }

    /// String fragments that trip a naive parser: quotes, backslashes,
    /// keywords, every operator, newlines and non-ASCII text.
    const FRAGMENTS: [&str; 22] = [
        "\"",
        "\\",
        " and ",
        " where ",
        "and",
        "<",
        "<=",
        "=",
        "!=",
        ">=",
        ">",
        "!",
        "\n",
        " ",
        "find ",
        "(",
        ")",
        ",",
        "Smith",
        "Ünïcødé",
        "日本",
        "\\\"",
    ];

    fn ident() -> impl Strategy<Value = String> {
        "[A-Za-z][A-Za-z0-9_]{0,7}"
    }

    fn value() -> impl Strategy<Value = Value> {
        prop_oneof![
            (-1_000_000i64..1_000_000).prop_map(|n| Value::Num(n as f64)),
            (-1.0e6..1.0e6f64).prop_map(Value::Num),
            (-1.0..1.0f64, 0i32..60).prop_map(|(m, e)| Value::Num(m * 10f64.powi(e - 30))),
            prop::collection::vec(0..FRAGMENTS.len(), 0..7)
                .prop_map(|ix| Value::Str(ix.into_iter().map(|i| FRAGMENTS[i]).collect())),
        ]
    }

    fn query() -> impl Strategy<Value = Query> {
        let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ne, CmpOp::Ge, CmpOp::Gt];
        (
            ident(),
            prop::collection::vec(ident(), 0..4),
            prop::collection::vec((ident(), 0..ops.len(), value()), 0..4),
        )
            .prop_map(move |(class, select, conds)| Query {
                class,
                select,
                conditions: conds
                    .into_iter()
                    .map(|(attr, op, value)| Condition { attr, op: ops[op], value })
                    .collect(),
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Display writes the syntax the parser reads: every generated
        /// query parses back from its text to an equal query.
        #[test]
        fn display_round_trips_through_parse(q in query()) {
            let text = q.to_string();
            prop_assert_eq!(Query::parse(&text), Ok(q.clone()), "text: {}", text);
        }

        /// `Query::parse` never panics on token soup made of the
        /// syntax's pieces and the characters a plain name may not
        /// hold, and whatever it accepts prints back to itself.
        #[test]
        fn parse_never_panics_on_token_soup(
            find in 0..3usize,
            ix in prop::collection::vec(0..SOUP.len(), 0..24),
        ) {
            let soup: String = ix.into_iter().map(|i| SOUP[i]).collect();
            let text = if find > 0 { format!("find {soup}") } else { soup };
            if let Ok(q) = Query::parse(&text) {
                let shown = q.to_string();
                prop_assert_eq!(Query::parse(&shown), Ok(q.clone()), "{:?} -> {:?}", text, shown);
            }
        }
    }

    /// Pieces of query text: keywords, every operator and delimiter,
    /// quotes, escapes, whitespace, numbers and non-ASCII names.
    const SOUP: [&str; 28] = [
        "find ", " where ", " and ", "where", "and", "(", ")", ",", "\"", "\\", "<", "<=", "=",
        "!=", ">=", ">", "!", " ", "\n", "\t", "Vehicle", "Price", "Ünï", "日本", "1", "2.5", "-",
        "e9",
    ];
}
