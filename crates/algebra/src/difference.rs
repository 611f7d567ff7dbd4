//! The `Difference` binary operator (§5.3).
//!
//! "The Difference of two ontologies (O1 − O2) is defined as the terms
//! and relationships of the first ontology that have not been determined
//! to exist in the second. This operation allows a local ontology
//! maintainer to determine the extent of one's ontology that remains
//! independent of the articulation with other domain ontologies."
//!
//! Formal condition (§5.3): `n ∈ N` only if `n ∈ N1`, `n ∉ N2`
//! (semantically, via the articulation), **and** there is no path from
//! `n` to any `n′ ∈ N2`. The worked example adds the conservative
//! garbage-collection step: after removing the determined node (`Car`),
//! also remove "all nodes that can be reached by a path from Car, but
//! not by a path from any other node".
//!
//! **Directionality.** The bridges encode *directed subset*
//! relationships (§4.1: `P ⇒ Q` is "a directed subset relationship").
//! `carrier.Car ⇒ factory.Vehicle` determines `Car` to exist in
//! `factory` (every car is a vehicle there), but does **not** determine
//! `Vehicle` to exist in `carrier`: "there is no way to distinguish the
//! cars from the other vehicles … the articulation generator takes the
//! more conservative option of retaining all vehicles". A term of `O1`
//! is therefore *determined* exactly when a **directed** semantic-
//! implication path leads from it into `O2`.
//!
//! **Which edges imply.** The paths run over the articulation's
//! [`ImplicationIndex`], the edges query reformulation follows too:
//! `SIBridge` bridges, articulation `SubclassOf` edges and the sources'
//! `SubclassOf`/`InstanceOf` edges. Conversion bridges are not
//! implications: `carrier.DutchGuilders -[DGToEuroFn]-> transport.Euro`
//! converts prices between currencies, so a path through it determines
//! nothing, and on Fig. 2 `DutchGuilders` and `PoundSterling` stay in
//! their differences.

use std::collections::HashSet;

use onion_articulate::{Articulation, ImplicationIndex};
use onion_graph::rel;
use onion_graph::traverse::{reachable_from_all, Direction, EdgeFilter};
use onion_graph::{NodeId, OntGraph};
use onion_ontology::Ontology;

use crate::Result;

/// What the difference removed and why — returned alongside the graph
/// so maintainers can see their ontology's independent extent (§5.3).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DifferenceReport {
    /// Terms determined (via the articulation) to exist in the other
    /// ontology.
    pub determined: Vec<String>,
    /// Terms removed because a semantic path leads from them to a
    /// determined term (formal condition 2).
    pub reaches_determined: Vec<String>,
    /// Terms removed as orphans of the removal (the prose GC step).
    pub orphaned: Vec<String>,
}

impl DifferenceReport {
    /// Total removed terms.
    pub fn removed(&self) -> usize {
        self.determined.len() + self.reaches_determined.len() + self.orphaned.len()
    }
}

/// Computes `o1 − o2` under `articulation`.
pub fn difference(
    o1: &Ontology,
    o2: &Ontology,
    articulation: &Articulation,
) -> Result<(OntGraph, DifferenceReport)> {
    let g = o1.graph();
    // bridged terms of o1 with an implication path into o2, sorted
    let sources = [o1, o2];
    let determined: Vec<String> = ImplicationIndex::new(articulation, &sources)
        .determined_in(
            articulation,
            &sources,
            o1.name(),
            o2.name(),
            articulation.bridged_terms(o1.name()),
        )
        .into_iter()
        .map(str::to_string)
        .collect();
    let det_nodes: Vec<NodeId> = determined.iter().filter_map(|l| g.node_by_label(l)).collect();

    // condition 2: anything with a directed semantic path *to* a
    // determined node is a specialisation of a shared concept — not
    // independent. Semantic edges only; attribute attachment stays local.
    let semantic = EdgeFilter::Labels(vec![
        rel::SUBCLASS_OF.into(),
        rel::INSTANCE_OF.into(),
        rel::SEMANTIC_IMPLICATION.into(),
    ]);
    let upstream = reachable_from_all(g, &det_nodes, Direction::Backward, &semantic);
    let mut removed: HashSet<NodeId> = det_nodes.iter().copied().collect();
    let mut reaches: Vec<String> = Vec::new();
    for n in upstream {
        if removed.insert(n) {
            reaches.push(g.node_label(n).expect("live").to_string());
        }
    }

    // prose GC: delete nodes reachable from the removed set whose every
    // in-edge comes from removed nodes (fixpoint).
    let mut orphaned: Vec<String> = Vec::new();
    let downstream = reachable_from_all(
        g,
        &removed.iter().copied().collect::<Vec<_>>(),
        Direction::Forward,
        &EdgeFilter::All,
    );
    loop {
        let mut grew = false;
        for &n in &downstream {
            if removed.contains(&n) {
                continue;
            }
            let mut has_in = false;
            let mut all_in_removed = true;
            // id-layer iteration: only the in-neighbour id is needed
            for (_, _, src) in g.in_edge_entries(n) {
                has_in = true;
                if !removed.contains(&src) {
                    all_in_removed = false;
                    break;
                }
            }
            if has_in && all_in_removed {
                removed.insert(n);
                orphaned.push(g.node_label(n).expect("live").to_string());
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }

    // build the surviving graph
    let mut out = OntGraph::new(format!("{} - {}", o1.name(), o2.name()));
    for n in g.nodes() {
        if !removed.contains(&n.id) {
            out.ensure_node(n.label)?;
        }
    }
    for e in g.edges() {
        if !removed.contains(&e.src) && !removed.contains(&e.dst) {
            out.ensure_edge_by_labels(
                g.node_label(e.src).expect("live"),
                e.label,
                g.node_label(e.dst).expect("live"),
            )?;
        }
    }
    reaches.sort();
    orphaned.sort();
    Ok((out, DifferenceReport { determined, reaches_determined: reaches, orphaned }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use onion_articulate::{ArticulationGenerator, Bridge, BridgeKind};
    use onion_ontology::{examples, OntologyBuilder};
    use onion_rules::Term;

    /// The §5.3 worked example: carrier has Car; factory has Vehicle;
    /// the only rule is carrier.Car => factory.Vehicle.
    fn paper_example() -> (Ontology, Ontology, Articulation) {
        let carrier = OntologyBuilder::new("carrier")
            .class_under("Car", "Transportation")
            .attr("CarStereo", "Car") // upstream of Car (edge points in)
            .class("Depot") // fully independent
            .build()
            .unwrap();
        let factory = OntologyBuilder::new("factory")
            .class_under("Vehicle", "Transportation")
            .class_under("Bus", "Vehicle")
            .build()
            .unwrap();
        let rules = onion_rules::parse_rules("carrier.Car => factory.Vehicle\n").unwrap();
        let art = ArticulationGenerator::new().generate(&rules, &[&carrier, &factory]).unwrap();
        (carrier, factory, art)
    }

    #[test]
    fn carrier_minus_factory_drops_car() {
        let (c, f, art) = paper_example();
        let (d, report) = difference(&c, &f, &art).unwrap();
        // "Since a Car is a Vehicle, carrier should not contain Car."
        assert!(!d.contains_label("Car"));
        assert_eq!(report.determined, vec!["Car"]);
        // "all nodes that can be reached by a path from Car, but not by a
        // path from any other node" go too: Transportation was only
        // reachable from Car
        assert!(!d.contains_label("Transportation"));
        assert_eq!(report.orphaned, vec!["Transportation"]);
        // upstream attribute and independent term survive
        assert!(d.contains_label("CarStereo"));
        assert!(d.contains_label("Depot"));
    }

    #[test]
    fn factory_minus_carrier_keeps_vehicle() {
        let (c, f, art) = paper_example();
        let (d, report) = difference(&f, &c, &art).unwrap();
        // "the node Vehicle is not deleted": the rule is a directed
        // subset (cars ⊆ vehicles); nothing determines factory vehicles
        // to exist in carrier
        assert!(d.contains_label("Vehicle"));
        assert!(d.contains_label("Bus"));
        assert!(d.contains_label("Transportation"));
        assert_eq!(report.removed(), 0);
        assert!(report.determined.is_empty());
    }

    #[test]
    fn equivalence_bridges_determine_both_ways() {
        // with an explicit two-way rule pair the concept is determined in
        // both differences
        let a = OntologyBuilder::new("a").class("Thing").build().unwrap();
        let b = OntologyBuilder::new("b").class("Item").build().unwrap();
        let rules = onion_rules::parse_rules("a.Thing => b.Item\nb.Item => a.Thing\n").unwrap();
        let art = ArticulationGenerator::new().generate(&rules, &[&a, &b]).unwrap();
        let (da, ra) = difference(&a, &b, &art).unwrap();
        let (db, rb) = difference(&b, &a, &art).unwrap();
        assert!(!da.contains_label("Thing"));
        assert!(!db.contains_label("Item"));
        assert_eq!(ra.determined, vec!["Thing"]);
        assert_eq!(rb.determined, vec!["Item"]);
    }

    #[test]
    fn difference_with_empty_articulation_is_identity() {
        let (c, _, _) = paper_example();
        let f2 = OntologyBuilder::new("elsewhere").class("X").build().unwrap();
        let empty = Articulation::new("art");
        let (d, report) = difference(&c, &f2, &empty).unwrap();
        assert!(d.same_shape(c.graph()));
        assert_eq!(report.removed(), 0);
    }

    #[test]
    fn subclasses_of_determined_terms_are_removed() {
        // SUV -S-> Car: SUV has a semantic path to the determined Car —
        // every SUV is semantically a factory vehicle too
        let carrier = OntologyBuilder::new("carrier")
            .class_under("Car", "Transportation")
            .class_under("SUV", "Car")
            .class_under("Boat", "Transportation") // sibling: survives
            .build()
            .unwrap();
        let factory = OntologyBuilder::new("factory").class("Vehicle").build().unwrap();
        let rules = onion_rules::parse_rules("carrier.Car => factory.Vehicle\n").unwrap();
        let art = ArticulationGenerator::new().generate(&rules, &[&carrier, &factory]).unwrap();
        let (d, report) = difference(&carrier, &factory, &art).unwrap();
        assert!(!d.contains_label("SUV"));
        assert!(report.reaches_determined.contains(&"SUV".to_string()));
        assert!(d.contains_label("Boat"));
        assert!(d.contains_label("Transportation"), "Transportation reachable from surviving Boat");
    }

    #[test]
    fn attributes_of_shared_classes_survive() {
        let carrier =
            OntologyBuilder::new("carrier").class("Car").attr("Price", "Car").build().unwrap();
        let factory = OntologyBuilder::new("factory").class("Vehicle").build().unwrap();
        let rules = onion_rules::parse_rules("carrier.Car => factory.Vehicle\n").unwrap();
        let art = ArticulationGenerator::new().generate(&rules, &[&carrier, &factory]).unwrap();
        let (d, _) = difference(&carrier, &factory, &art).unwrap();
        // Price points INTO Car (upstream); the local price modelling is
        // independent even though Car is shared
        assert!(d.contains_label("Price"));
        assert_eq!(d.edge_count(), 0, "its edge to the removed Car is gone");
    }

    #[test]
    fn report_counts_are_consistent() {
        let (c, f, art) = paper_example();
        let (d, report) = difference(&c, &f, &art).unwrap();
        assert_eq!(c.term_count() - d.node_count(), report.removed());
    }

    #[test]
    fn instance_of_shared_class_is_removed() {
        let carrier =
            OntologyBuilder::new("carrier").class("Car").instance("MyCar", "Car").build().unwrap();
        let factory = OntologyBuilder::new("factory").class("Vehicle").build().unwrap();
        let rules = onion_rules::parse_rules("carrier.Car => factory.Vehicle\n").unwrap();
        let art = ArticulationGenerator::new().generate(&rules, &[&carrier, &factory]).unwrap();
        let (d, report) = difference(&carrier, &factory, &art).unwrap();
        // MyCar InstanceOf Car: semantically a vehicle, not independent
        assert!(!d.contains_label("MyCar"));
        assert!(report.reaches_determined.contains(&"MyCar".to_string()));
    }

    /// Fig. 2 with the paper's rules, as the generator builds it.
    fn fig2() -> (Ontology, Ontology, Articulation) {
        let (c, f) = (examples::carrier(), examples::factory());
        let art =
            ArticulationGenerator::new().generate(&examples::fig2_rules(), &[&c, &f]).unwrap();
        (c, f, art)
    }

    #[test]
    fn conversion_bridges_determine_nothing_carrier_side() {
        // DutchGuilders -[DGToEuroFn]-> Euro -[EuroToPSFn]-> PoundSterling
        // converts prices; it does not put guilders into factory
        let (c, f, art) = fig2();
        let (d, report) = difference(&c, &f, &art).unwrap();
        assert!(d.contains_label("DutchGuilders"));
        assert_eq!(report.determined, vec!["Cars", "Transportation", "Trucks"]);
    }

    #[test]
    fn conversion_bridges_determine_nothing_factory_side() {
        let (c, f, art) = fig2();
        let (d, report) = difference(&f, &c, &art).unwrap();
        assert!(d.contains_label("PoundSterling"));
        assert_eq!(report.determined, vec!["GoodsVehicle", "Truck"]);
    }

    #[test]
    fn source_subclass_edges_determine() {
        // o1.X ⇒ art.W ⇒ o1.W (the equivalence leg of o2.Z ⇒ o1.W),
        // o1.W SubclassOf o1.Y, and o1.Y ⇒ art.V ⇒ o2.V: X and W reach
        // o2 only through o1's own subclass edge
        let o1 = OntologyBuilder::new("o1").class("X").class_under("W", "Y").build().unwrap();
        let o2 = OntologyBuilder::new("o2").class("Z").class("V").build().unwrap();
        let mut art = Articulation::new("art");
        for label in ["W", "V"] {
            Arc::make_mut(&mut art.ontology).graph_mut().ensure_node(label).unwrap();
        }
        let t = Term::qualified;
        for (src, dst, kind) in [
            (t("o1", "X"), t("art", "W"), BridgeKind::Rule),
            (t("o2", "Z"), t("art", "W"), BridgeKind::Rule),
            (t("o1", "W"), t("art", "W"), BridgeKind::Rule),
            (t("art", "W"), t("o1", "W"), BridgeKind::Equivalence),
            (t("o1", "Y"), t("art", "V"), BridgeKind::Rule),
            (t("o2", "V"), t("art", "V"), BridgeKind::Rule),
            (t("art", "V"), t("o2", "V"), BridgeKind::Equivalence),
        ] {
            art.add_bridge(Bridge::si(src, dst, kind));
        }
        let (d, report) = difference(&o1, &o2, &art).unwrap();
        assert_eq!(report.determined, vec!["W", "X", "Y"]);
        assert!(!d.contains_label("X"));
        // o2 − o1: Z ⇒ art.W ⇒ o1.W; V's bridges stay in o2 and art
        let (_, back) = difference(&o2, &o1, &art).unwrap();
        assert_eq!(back.determined, vec!["Z"]);
    }
}
