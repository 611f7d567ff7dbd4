//! Failure injection: every layer must degrade loudly and cleanly, not
//! silently — flaky wrappers, inconsistent sources, diverging
//! articulations, malformed inputs.

use onion_core::prelude::*;
use onion_core::query::{execute, Condition};
use onion_core::OnionSystem;

/// A wrapper that fails every `period`-th fetch.
struct FlakyWrapper {
    inner: InMemoryWrapper,
    period: usize,
    calls: std::cell::Cell<usize>,
}

impl Wrapper for FlakyWrapper {
    fn source(&self) -> &str {
        self.inner.source()
    }

    fn fetch(
        &self,
        classes: &[String],
        conditions: &[Condition],
        visit: &mut dyn FnMut(&Instance) -> onion_core::query::Result<()>,
    ) -> onion_core::query::Result<()> {
        let n = self.calls.get() + 1;
        self.calls.set(n);
        if n % self.period == 0 {
            return Err(onion_core::query::QueryError::Source(format!(
                "{} is temporarily unavailable",
                self.source()
            )));
        }
        self.inner.fetch(classes, conditions, visit)
    }
}

fn fig2_setup() -> (Ontology, Ontology, Articulation) {
    let c = examples::carrier();
    let f = examples::factory();
    let art = ArticulationGenerator::new().generate(&examples::fig2_rules(), &[&c, &f]).unwrap();
    (c, f, art)
}

#[test]
fn failing_wrapper_surfaces_source_error() {
    let (c, f, art) = fig2_setup();
    let mut kb = KnowledgeBase::new("carrier");
    kb.add(Instance::new("x", "Cars").with("Price", Value::Num(1.0)));
    let flaky = FlakyWrapper {
        inner: InMemoryWrapper::new(kb),
        period: 1, // fail immediately
        calls: std::cell::Cell::new(0),
    };
    let conversions = ConversionRegistry::standard();
    let q = Query::parse("find Vehicle(Price)").unwrap();
    let err = execute(&q, &art, &[&c, &f], &conversions, &[&flaky]).unwrap_err();
    match err {
        onion_core::query::QueryError::Source(msg) => {
            assert!(msg.contains("carrier"), "{msg}")
        }
        other => panic!("expected Source error, got {other:?}"),
    }
}

#[test]
fn missing_conversion_function_fails_condition_pushdown() {
    // articulation whose functional rule names an unregistered function:
    // generation succeeds (forward bridge only), but pushing a numeric
    // condition down needs the inverse and must fail loudly
    let c = examples::carrier();
    let f = examples::factory();
    let rules = parse_rules(
        "carrier.Cars => transport.Vehicle\n\
         carrier.Price => transport.Price\n\
         MysteryFn(): carrier.DutchGuilders => transport.Euro\n",
    )
    .unwrap();
    let generator = ArticulationGenerator::with_config(GeneratorConfig {
        conversions: {
            let mut r = ConversionRegistry::new();
            // forward registered, no inverse
            r.register(onion_core::rules::Converter::new("MysteryFn", None, |x| x));
            r
        },
        ..Default::default()
    });
    let art = generator.generate(&rules, &[&c, &f]).unwrap();
    let conversions = generator.config().conversions.clone();
    let q = Query::parse("find Vehicle(Price) where Price < 10").unwrap();
    let err = onion_core::query::plan(&q, &art, &[&c, &f], &conversions).unwrap_err();
    assert!(matches!(err, onion_core::query::QueryError::Conversion(_)), "{err:?}");
}

#[test]
fn inconsistent_source_is_detectable_before_articulation() {
    let broken =
        OntologyBuilder::new("broken").class_under("A", "B").class_under("B", "A").build().unwrap();
    assert!(!onion_core::ontology::consistency::is_consistent(&broken));
    // the engine itself still runs (the paper leaves enforcement to the
    // expert), but the consistency report names the cycle
    let issues = onion_core::ontology::consistency::check(&broken);
    assert!(issues.iter().any(|i| i.message.contains("A") && i.message.contains("B")));
}

#[test]
fn dangling_bridge_reported_at_unification() {
    let (c, f, mut art) = fig2_setup();
    art.add_bridge(Bridge::si(
        Term::qualified("carrier", "Vanished"),
        Term::qualified("transport", "Vehicle"),
        BridgeKind::Rule,
    ));
    let err = art.unified(&[&c, &f]).unwrap_err();
    assert!(err.to_string().contains("carrier.Vanished"));
}

#[test]
fn facade_reports_each_missing_piece() {
    let mut s = OnionSystem::with_transport_lexicon();
    // no sources
    assert!(s.articulate("carrier", "factory", &mut AcceptAll).is_err());
    s.add_source(examples::carrier());
    // one source missing
    assert!(s.articulate("carrier", "factory", &mut AcceptAll).is_err());
    s.add_source(examples::factory());
    // no articulation yet
    assert!(s.query("find Vehicle").is_err());
    assert!(s.explain("find Vehicle").is_err());
    assert!(s.difference("carrier", "factory").is_err());
    // bad query text after articulating
    s.add_rules(examples::fig2_rules_text()).unwrap();
    s.articulate_from_rules("carrier", "factory").unwrap();
    assert!(s.query("SELECT * FROM vehicles").is_err());
    assert!(s.query("find NoSuchClass").is_err());
}

#[test]
fn rule_budget_prevents_runaway_inference() {
    use onion_core::rules::horn::HornProgram;
    use onion_core::rules::infer::{FactBase, InferenceEngine};
    use onion_core::rules::AtomTable;
    // pair-doubling program grows quadratically; the budget must stop it
    let prog = HornProgram::parse("p(X, Z) :- p(X, Y), p(Y, Z).").unwrap();
    let mut atoms = AtomTable::new();
    let mut fb = FactBase::new();
    for i in 0..200 {
        fb.add(&mut atoms, "p", &[&format!("n{i}"), &format!("n{}", i + 1)]);
    }
    let err = InferenceEngine::new(prog).with_budget(500, 0).run(&mut atoms, &mut fb).unwrap_err();
    assert!(matches!(err, onion_core::rules::RuleError::BudgetExceeded { .. }));
}

#[test]
fn malformed_imports_never_panic() {
    let garbage = [
        "\u{0}\u{1}\u{2}",
        "ontology \"",
        "<ontology><node label=",
        "interface { attribute",
        "node\nedge\nbridge",
    ];
    for g in garbage {
        let _ = onion_core::ontology::import::from_text(g);
        let _ = onion_core::ontology::import::from_xml(g);
        let _ = onion_core::ontology::import::from_idl(g, &Default::default());
        let _ = onion_core::articulate::persist::from_text(g);
        let _ = parse_rules(g);
        let _ = Pattern::parse(g);
        let _ = Query::parse(g);
    }
}

#[test]
fn expert_rejecting_everything_yields_empty_articulation() {
    let c = examples::carrier();
    let f = examples::factory();
    let engine = ArticulationEngine::new(MatcherPipeline::standard(transport_lexicon()));
    let mut naysayer = ScriptedExpert::new(vec![]); // rejects all (empty script)
    let (art, report) = engine.run(&c, &f, &mut naysayer, RuleSet::new()).unwrap();
    assert_eq!(report.accepted, 0);
    assert!(report.rejected > 0);
    assert!(art.bridges.is_empty());
    assert_eq!(art.ontology.term_count(), 0);
    // and the empty articulation still unifies (plain juxtaposition)
    let u = art.unified(&[&c, &f]).unwrap();
    assert_eq!(u.node_count(), c.term_count() + f.term_count());
}
