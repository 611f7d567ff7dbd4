//! The `Intersection` binary operator (§5.2).
//!
//! "The Intersection operator takes two ontology graphs, a set of
//! articulation rules and produces the articulation ontology graph. …
//! the edges that are between nodes in the articulation ontology graph
//! and nodes in the source ontology graphs are not included … The
//! intersection, therefore, produces an ontology that can be further
//! composed with other ontologies. This operation is central to our
//! scalable articulation concepts."
//!
//! Intersection delegates wholesale to the articulation generator, so
//! its traversal cost (structure inheritance's one walk per anchored
//! source node, common-subclass lookups) rides on the graph's
//! label-filtered adjacency rather than doing any matching of its own.

use std::sync::Arc;

use onion_articulate::ArticulationGenerator;
use onion_ontology::Ontology;
use onion_rules::RuleSet;

use crate::Result;

/// Computes `o1 ∩_rules o2`: the articulation ontology (only its
/// internal nodes and edges; bridges to the sources are excluded, making
/// the result a self-contained, composable ontology).
pub fn intersect(
    o1: &Ontology,
    o2: &Ontology,
    rules: &RuleSet,
    generator: &ArticulationGenerator,
) -> Result<Ontology> {
    let articulation = generator.generate(rules, &[o1, o2])?;
    // a fresh articulation holds its ontology alone: no copy
    Ok(Arc::try_unwrap(articulation.ontology).unwrap_or_else(|shared| (*shared).clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use onion_ontology::examples::{carrier, factory, fig2_rules};

    #[test]
    fn intersection_is_the_articulation_ontology() {
        let c = carrier();
        let f = factory();
        let gen = ArticulationGenerator::new();
        let i = intersect(&c, &f, &fig2_rules(), &gen).unwrap();
        assert_eq!(i.name(), "transport");
        // of the Fig. 2 example: "The intersection of the carrier and
        // factory ontologies is the transportation ontology."
        assert!(i.defines("Vehicle"));
        assert!(i.defines("CargoCarrier"));
        assert!(i.defines("Euro"));
    }

    #[test]
    fn intersection_excludes_source_terms() {
        let c = carrier();
        let f = factory();
        let i = intersect(&c, &f, &fig2_rules(), &ArticulationGenerator::new()).unwrap();
        // source-only terms do not leak in
        assert!(!i.defines("MyCar"));
        assert!(!i.defines("GoodsVehicle"));
        assert!(!i.defines("DutchGuilders"));
    }

    #[test]
    fn intersection_is_composable() {
        // the §5.2 point: the result is an ordinary ontology usable as a
        // source for a further articulation
        let c = carrier();
        let f = factory();
        let gen = ArticulationGenerator::new();
        let i = intersect(&c, &f, &fig2_rules(), &gen).unwrap();
        let third = onion_ontology::OntologyBuilder::new("retail")
            .class_under("Vehicle", "Inventory")
            .build()
            .unwrap();
        let rules = onion_rules::parse_rules("transport.Vehicle => retail.Vehicle\n").unwrap();
        let cfg =
            onion_articulate::GeneratorConfig { art_name: "art2".into(), ..Default::default() };
        let second = ArticulationGenerator::with_config(cfg).generate(&rules, &[&i, &third]);
        assert!(second.is_ok());
        assert!(second.unwrap().ontology.defines("Vehicle"));
    }

    #[test]
    fn empty_rules_intersection_is_empty() {
        let c = carrier();
        let f = factory();
        let i = intersect(&c, &f, &RuleSet::new(), &ArticulationGenerator::new()).unwrap();
        assert_eq!(i.term_count(), 0);
    }

    #[test]
    fn intersection_subset_of_union() {
        let c = carrier();
        let f = factory();
        let gen = ArticulationGenerator::new();
        let i = intersect(&c, &f, &fig2_rules(), &gen).unwrap();
        let u = crate::union::union(&c, &f, &fig2_rules(), &gen).unwrap();
        for n in i.graph().nodes() {
            let qualified = format!("{}.{}", i.name(), n.label);
            assert!(u.graph.contains_label(&qualified), "{qualified} missing from union");
        }
    }
}
