//! Property-based round-trips for the interchange formats (§2.1): text,
//! XML, rule syntax, Horn syntax, query syntax and the persisted
//! articulation format all print-then-parse to the same value.

use std::sync::Arc;

use proptest::prelude::*;

use onion_core::articulate::persist;
use onion_core::graph::{text, xml};
use onion_core::prelude::*;
use onion_core::rules::horn::HornProgram;
use onion_core::rules::parser::parse_rule;

/// Labels exercising quoting: plain words, spaces, quotes, XML entities,
/// backslashes and tabs.
fn gnarly_label() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z][a-zA-Z0-9_]{0,8}",
        Just("has space".to_string()),
        Just("quo\"te".to_string()),
        Just("amp&lt".to_string()),
        Just("tick'mark".to_string()),
        Just("<angled>".to_string()),
        Just("back\\slash two".to_string()),
        Just("tab\there".to_string()),
    ]
}

/// Query class and attribute names: plain words, and names built from
/// non-ASCII letters, spaces, parentheses, commas, quotes, backslashes,
/// operators and the keywords `where` and `and` (the empty name too).
fn query_name() -> impl Strategy<Value = String> {
    const PIECES: [&str; 21] = [
        "Vehicle", "Über", "日本", " ", "(", ")", ",", "\"", "\\", "<", "<=", "=", "!=", ">", ">=",
        "!", " where ", " and ", "where", "and", "find ",
    ];
    prop_oneof![
        "[A-Z][a-z]{1,8}",
        prop::collection::vec(0..PIECES.len(), 0..5)
            .prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect::<String>()),
    ]
}

fn edge_list() -> impl Strategy<Value = Vec<(String, String, String)>> {
    prop::collection::vec((gnarly_label(), "[a-z]{1,6}", gnarly_label()), 0..20)
}

/// Lowercase ontology names avoiding the rule grammar's reserved words
/// (`and` / `or` must be quoted when used as identifiers).
fn ontology_name() -> impl Strategy<Value = String> {
    "[a-z]{1,6}".prop_map(|s| if s == "or" || s == "and" { format!("{s}x") } else { s })
}

fn build(edges: &[(String, String, String)]) -> OntGraph {
    let mut g = OntGraph::new("roundtrip");
    for (a, l, b) in edges {
        if a != b {
            let _ = g.ensure_edge_by_labels(a, l, b);
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn text_roundtrip(edges in edge_list()) {
        let g = build(&edges);
        let serialized = text::to_text(&g);
        let parsed = text::from_text(&serialized).unwrap();
        prop_assert!(g.same_shape(&parsed));
        prop_assert_eq!(g.name(), parsed.name());
    }

    #[test]
    fn xml_roundtrip(edges in edge_list()) {
        let g = build(&edges);
        let serialized = xml::to_xml(&g);
        let parsed = xml::from_xml(&serialized).unwrap();
        prop_assert!(g.same_shape(&parsed));
    }

    #[test]
    fn rule_roundtrip(
        o1 in ontology_name(), t1 in "[A-Z][a-z]{1,6}",
        o2 in ontology_name(), t2 in "[A-Z][a-z]{1,6}",
        t3 in "[A-Z][a-z]{1,6}",
        shape in 0u8..5,
    ) {
        let src = match shape {
            0 => format!("{o1}.{t1} => {o2}.{t2}"),
            1 => format!("{o1}.{t1} => transport.{t3} => {o2}.{t2}"),
            2 => format!("({o1}.{t1} & {o1}.{t3}) => {o2}.{t2}"),
            3 => format!("{o1}.{t1} => ({o2}.{t2} | {o2}.{t3})"),
            _ => format!("ConvFn(): {o1}.{t1} => {o2}.{t2}"),
        };
        let rule = parse_rule(&src).unwrap();
        let reparsed = parse_rule(&rule.to_string()).unwrap();
        prop_assert_eq!(rule, reparsed);
    }

    /// Constants mix what `Display` must quote — uppercase and
    /// non-ASCII initials, comment starters, the `:-` neck, commas,
    /// parentheses, spaces and dots — with plain lowercase text. A `"`
    /// is left out: the reader has no escape syntax for it.
    #[test]
    fn horn_roundtrip(
        consts in prop::collection::vec(
            "[a-zA-ZéÉ][a-zé#%,() ]{0,4}(:-[a-z]{0,2})?(\\.[A-Z][a-z]{1,4})?",
            1..6,
        )
    ) {
        let mut src = String::from("p(X, Z) :- p(X, Y), p(Y, Z).\n");
        for c in &consts {
            src.push_str(&format!("p(\"{c}\", \"{c}x\").\n"));
        }
        let prog = HornProgram::parse(&src).unwrap();
        let printed: String =
            prog.clauses.iter().map(|c| format!("{c}\n")).collect();
        let reparsed = HornProgram::parse(&printed).unwrap();
        prop_assert_eq!(prog, reparsed);
    }

    /// Queries print and parse back whatever their class, select and
    /// condition names hold (see `query_name`).
    #[test]
    fn query_roundtrip(
        class in query_name(),
        attrs in prop::collection::vec(query_name(), 0..3),
        bound in 0.0f64..100000.0,
    ) {
        let mut q = Query::all(&class);
        for a in &attrs {
            q = q.select(a);
        }
        if let Some(a) = attrs.first() {
            q = q.filter(a, CmpOp::Lt, Value::Num(bound.round()));
        }
        let reparsed = Query::parse(&q.to_string()).unwrap();
        prop_assert_eq!(q, reparsed);
    }

    /// The persisted articulation format (`persist`) restores names,
    /// nodes, edges, bridges and rule support whatever their labels
    /// hold: dropping any rule's support (or a key no rule has) retracts
    /// the same bridges from the original and from the reloaded copy.
    #[test]
    fn articulation_roundtrip(
        name in gnarly_label(),
        nodes in prop::collection::vec(gnarly_label(), 0..4),
        edges in edge_list(),
        bridges in prop::collection::vec(
            (gnarly_label(), gnarly_label(), gnarly_label(), gnarly_label(), 0u8..4),
            0..8,
        ),
        rule in (ontology_name(), "[A-Z][a-z]{1,6}"),
        support in prop::collection::vec((0usize..8, 0u8..2, gnarly_label()), 0..12),
    ) {
        let mut art = Articulation::new(&name);
        let g = Arc::make_mut(&mut art.ontology).graph_mut();
        for n in &nodes {
            g.ensure_node(n).unwrap();
        }
        for (a, l, b) in &edges {
            if a != b {
                let _ = g.ensure_edge_by_labels(a, l, b);
            }
        }
        let kinds =
            [BridgeKind::Rule, BridgeKind::Equivalence, BridgeKind::Derived, BridgeKind::Functional];
        for (source, src, label, dst, kind) in &bridges {
            art.add_bridge(Bridge {
                src: Term::qualified(source, src),
                label: label.as_str().into(),
                dst: Term::qualified(&name, dst),
                kind: kinds[usize::from(*kind)],
            });
        }
        art.rules.push(parse_rule(&format!("{}.{} => transport.{}", rule.0, rule.1, rule.1)).unwrap());
        // each pick supports one bridge by the rule's key or a gnarly one
        let rule_key = art.rules.rules[0].to_string();
        let mut keys = vec![rule_key.clone(), "absent => key".to_string()];
        if !art.bridges.is_empty() {
            for (i, by_rule, gnarly) in &support {
                let key = if *by_rule == 0 { rule_key.clone() } else { gnarly.clone() };
                let b = art.bridges[i % art.bridges.len()].clone();
                art.add_bridge_supported(b, key.as_str());
                keys.push(key);
            }
        }

        let back = persist::from_text(&persist::to_text(&art)).unwrap();
        prop_assert_eq!(back.name(), art.name());
        prop_assert!(back.ontology.graph().same_shape(art.ontology.graph()));
        prop_assert_eq!(back.ontology.graph().node_count(), art.ontology.graph().node_count());
        prop_assert_eq!(&back.bridges, &art.bridges);
        prop_assert_eq!(&back.rules, &art.rules);
        for key in &keys {
            let (mut a, mut b) = (art.clone(), back.clone());
            prop_assert_eq!(b.drop_rule_support(key), a.drop_rule_support(key), "{}", key);
            prop_assert_eq!(&b.bridges, &a.bridges, "{}", key);
        }
    }

    /// Importing the same graph through text and XML yields the same shape.
    #[test]
    fn formats_agree(edges in edge_list()) {
        let g = build(&edges);
        let via_text = text::from_text(&text::to_text(&g)).unwrap();
        let via_xml = xml::from_xml(&xml::to_xml(&g)).unwrap();
        prop_assert!(via_text.same_shape(&via_xml));
    }
}
