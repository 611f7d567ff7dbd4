//! Incremental maintenance (§5.3) as an integration property: source
//! deltas in the independent region never change the articulation;
//! deltas in the bridged region are repaired with bounded work and the
//! repaired articulation matches a from-scratch rebuild where one is
//! defined.

use onion_core::articulate::maintain::{apply_delta, rebuild, triage};
use onion_core::prelude::*;
use onion_core::testkit::{update_stream, UpdateSpec};

fn setup() -> (Ontology, Ontology, Articulation, ArticulationGenerator) {
    let c = examples::carrier();
    let f = examples::factory();
    let generator = ArticulationGenerator::new();
    let art = generator.generate(&examples::fig2_rules(), &[&c, &f]).unwrap();
    (c, f, art, generator)
}

#[test]
fn independent_updates_cost_nothing() {
    let (mut c, f, mut art, generator) = setup();
    let spec = UpdateSpec { bridged_fraction: 0.0, ops: 100, ..Default::default() };
    let ops = update_stream(&c, &art, &spec);
    // actually apply the delta to the source
    let mut g = c.graph().clone();
    onion_core::graph::ops::apply_all(&mut g, &ops).unwrap();
    c = Ontology::from_graph(g);

    let before = art.bridges.clone();
    let report = apply_delta(&mut art, "carrier", &ops, &[&c, &f], &generator, None).unwrap();
    assert_eq!(report.ops_relevant, 0);
    assert_eq!(report.bridges_removed, 0);
    assert_eq!(art.bridges, before, "articulation untouched by independent evolution");
    // and the union still materialises over the evolved source
    assert!(art.unified(&[&c, &f]).is_ok());
}

#[test]
fn triage_fraction_tracks_locality_knob() {
    let (c, _, art, _) = setup();
    let mut fractions = Vec::new();
    for bridged in [0.0, 0.5, 1.0] {
        let spec =
            UpdateSpec { bridged_fraction: bridged, delete_fraction: 0.0, ops: 200, seed: 5 };
        let ops = update_stream(&c, &art, &spec);
        let (relevant, _) = triage(&art, "carrier", &ops);
        fractions.push(relevant.len() as f64 / ops.len() as f64);
    }
    assert_eq!(fractions[0], 0.0);
    assert!(fractions[1] > 0.3 && fractions[1] < 0.7, "got {}", fractions[1]);
    assert_eq!(fractions[2], 1.0);
}

#[test]
fn bridged_deletion_then_rebuild_consistency() {
    let (mut c, f, mut art, generator) = setup();
    // delete a bridged term from the source
    c.graph_mut().enable_journal();
    c.graph_mut().delete_node_by_label("Cars").unwrap();
    let ops = c.graph_mut().take_journal();

    let report = apply_delta(&mut art, "carrier", &ops, &[&c, &f], &generator, None).unwrap();
    assert!(report.bridges_removed > 0);
    assert!(report.rules_dropped > 0);

    // the incrementally repaired articulation equals regenerating from
    // the retained rules
    let fresh = rebuild(&art, &[&c, &f], &generator).unwrap();
    let mut incremental: Vec<String> = art.bridges.iter().map(|b| b.to_string()).collect();
    let mut regenerated: Vec<String> = fresh.bridges.iter().map(|b| b.to_string()).collect();
    incremental.sort();
    regenerated.sort();
    assert_eq!(incremental, regenerated);
    // no dangling bridges: the unified graph materialises
    assert!(art.unified(&[&c, &f]).is_ok());
}

#[test]
fn scoped_rearticulation_picks_up_new_shared_terms() {
    let (mut c, mut f, mut art, generator) = setup();
    let bridges_before = art.bridges.len();
    c.graph_mut().enable_journal();
    c.subclass("Ambulance", "Cars").unwrap();
    let ops = c.graph_mut().take_journal();
    f.subclass("Ambulance", "Vehicle").unwrap();

    let pipeline = MatcherPipeline::new().with(onion_core::articulate::ExactLabelMatcher);
    let mut expert = AcceptAll;
    let report = apply_delta(
        &mut art,
        "carrier",
        &ops,
        &[&c, &f],
        &generator,
        Some((&pipeline, &mut expert)),
    )
    .unwrap();
    assert_eq!(report.rules_added, 1);
    assert!(art.bridges.len() > bridges_before);
    assert!(art.is_relevant("carrier", "Ambulance"));
    assert!(art.unified(&[&c, &f]).is_ok());
}

#[test]
fn repeated_deltas_remain_consistent() {
    let (mut c, f, mut art, generator) = setup();
    for round in 0..5 {
        let spec = UpdateSpec { seed: round, ops: 30, bridged_fraction: 0.3, delete_fraction: 0.2 };
        let ops = update_stream(&c, &art, &spec);
        let mut g = c.graph().clone();
        onion_core::graph::ops::apply_all(&mut g, &ops).unwrap();
        c = Ontology::from_graph(g);
        apply_delta(&mut art, "carrier", &ops, &[&c, &f], &generator, None).unwrap();
        assert!(
            art.unified(&[&c, &f]).is_ok(),
            "articulation must stay consistent after round {round}"
        );
    }
}
