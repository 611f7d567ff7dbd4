//! Experiment E1: the Fig. 2 articulation, asserted node by node and
//! edge by edge against the canonical reconstruction (the
//! `onion_ontology::examples` docs).

use std::collections::HashSet;

use onion_core::prelude::*;

fn articulation() -> Articulation {
    let carrier = examples::carrier();
    let factory = examples::factory();
    ArticulationGenerator::new()
        .generate(&examples::fig2_rules(), &[&carrier, &factory])
        .expect("fig2 articulation generates")
}

#[test]
fn articulation_ontology_term_inventory() {
    let art = articulation();
    let mut terms: Vec<&str> = art.ontology.graph().nodes().map(|n| n.label).collect();
    terms.sort_unstable();
    assert_eq!(
        terms,
        vec![
            "CargoCarrier",
            "CargoCarrierVehicle",
            "CarsTrucks",
            "Euro",
            "Owner",
            "Person",
            "Transportation",
            "Vehicle",
        ],
        "the Fig. 2 articulation vocabulary"
    );
}

#[test]
fn articulation_internal_structure() {
    let art = articulation();
    let g = art.ontology.graph();
    // intra-articulation rules became SubclassOf edges (§4.1)
    assert!(g.has_edge("Owner", "SubclassOf", "Person"));
    assert!(g.has_edge("Vehicle", "SubclassOf", "Transportation"));
    assert!(g.has_edge("CargoCarrier", "SubclassOf", "Transportation"));
}

#[test]
fn every_expected_bridge_present() {
    let art = articulation();
    let have: HashSet<String> = art.bridges.iter().map(|b| b.to_string()).collect();
    let expected = [
        // equivalent roots (simple rule: carrier.Transportation => factory.Transportation)
        "carrier.Transportation -[SIBridge]-> transport.Transportation",
        "factory.Transportation -[SIBridge]-> transport.Transportation",
        "transport.Transportation -[SIBridge]-> factory.Transportation",
        // cars
        "carrier.Cars -[SIBridge]-> transport.Vehicle",
        "factory.Vehicle -[SIBridge]-> transport.Vehicle",
        "transport.Vehicle -[SIBridge]-> factory.Vehicle",
        "factory.PassengerCar -[SIBridge]-> transport.Vehicle",
        // §4.1 conjunction: CargoCarrierVehicle
        "transport.CargoCarrierVehicle -[SIBridge]-> factory.CargoCarrier",
        "transport.CargoCarrierVehicle -[SIBridge]-> factory.Vehicle",
        "transport.CargoCarrierVehicle -[SIBridge]-> carrier.Trucks",
        "factory.GoodsVehicle -[SIBridge]-> transport.CargoCarrierVehicle",
        "factory.Truck -[SIBridge]-> transport.CargoCarrierVehicle",
        "carrier.Trucks -[SIBridge]-> transport.CargoCarrierVehicle",
        // cargo carriers
        "factory.CargoCarrier -[SIBridge]-> transport.CargoCarrier",
        // §4.1 disjunction: CarsTrucks
        "carrier.Cars -[SIBridge]-> transport.CarsTrucks",
        "carrier.Trucks -[SIBridge]-> transport.CarsTrucks",
        "factory.Vehicle -[SIBridge]-> transport.CarsTrucks",
        // §4.1 functional rules (Fig. 2 conversion edges, both directions)
        "carrier.DutchGuilders -[DGToEuroFn]-> transport.Euro",
        "transport.Euro -[EuroToDGFn]-> carrier.DutchGuilders",
        "factory.PoundSterling -[PSToEuroFn]-> transport.Euro",
        "transport.Euro -[EuroToPSFn]-> factory.PoundSterling",
    ];
    for e in expected {
        assert!(have.contains(e), "missing bridge: {e}\nhave: {have:#?}");
    }
}

#[test]
fn bridge_count_is_exact() {
    // beyond the named expectations: no surprise bridges appear
    let art = articulation();
    // exactly the 21 bridges enumerated in every_expected_bridge_present
    // — pinning the count catches any surprise extras
    assert_eq!(art.bridges.len(), 21, "{:#?}", bridge_list(&art));
}

fn bridge_list(art: &Articulation) -> Vec<String> {
    let mut v: Vec<String> = art.bridges.iter().map(|b| b.to_string()).collect();
    v.sort();
    v
}

#[test]
fn structure_inheritance_applied() {
    // §4.2: articulation structure follows the anchored source structure;
    // Vehicle sits under Transportation both via the explicit rule and
    // the factory anchor
    let art = articulation();
    assert!(art.ontology.is_subclass("Vehicle", "Transportation"));
}

#[test]
fn unified_graph_dimensions() {
    let carrier = examples::carrier();
    let factory = examples::factory();
    let art = articulation();
    let u = art.unified(&[&carrier, &factory]).unwrap();
    let expected_nodes = carrier.term_count() + factory.term_count() + art.ontology.term_count();
    let expected_edges = carrier.graph().edge_count()
        + factory.graph().edge_count()
        + art.ontology.graph().edge_count()
        + art.bridges.len();
    assert_eq!(u.node_count(), expected_nodes);
    assert_eq!(u.edge_count(), expected_edges);
}

#[test]
fn intersection_of_fig2_is_the_transport_ontology() {
    // §5.2: "The intersection of the carrier and factory ontologies is
    // the transportation ontology."
    let carrier = examples::carrier();
    let factory = examples::factory();
    let i = intersect(&carrier, &factory, &examples::fig2_rules(), &ArticulationGenerator::new())
        .unwrap();
    assert_eq!(i.name(), "transport");
    assert!(i.defines("Vehicle") && i.defines("CargoCarrier") && i.defines("Euro"));
}

#[test]
fn generation_is_reproducible() {
    let a = articulation();
    let b = articulation();
    assert_eq!(bridge_list(&a), bridge_list(&b));
    assert!(a.ontology.graph().same_shape(b.ontology.graph()));
}
