//! Query planning: which sources to consult, with what local queries.
//!
//! §2.3: the engine "derives an execution plan against the sources
//! involved". The plan records, per contributing source, the local
//! classes, rewritten conditions and attribute mappings; sources whose
//! vocabularies the bridges cannot reach are pruned (their wrapper is
//! never called — asserted by the executor tests).

use onion_articulate::{Articulation, ImplicationIndex};
use onion_ontology::Ontology;
use onion_rules::ConversionRegistry;

use crate::ast::Query;
use crate::reformulate::{Reformulator, SourceReformulation};
use crate::Result;

/// One source's part of the plan.
pub type SourceQuery = SourceReformulation;

/// A full query plan.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// The original query (articulation vocabulary).
    pub query: Query,
    /// Per-source reformulated queries (only contributing sources).
    pub source_queries: Vec<SourceQuery>,
}

impl QueryPlan {
    /// Names of the sources this plan consults.
    pub fn sources(&self) -> Vec<&str> {
        self.source_queries.iter().map(|s| s.source.as_str()).collect()
    }

    /// Human-readable plan rendering (for the viewer / examples).
    pub fn explain(&self) -> String {
        let mut out = format!("plan for: {}\n", self.query);
        if self.source_queries.is_empty() {
            out.push_str("  (no source can answer)\n");
        }
        for sq in &self.source_queries {
            out.push_str(&format!("  source {}: classes [{}]", sq.source, sq.classes.join(", ")));
            if !sq.conditions.is_empty() {
                let conds: Vec<String> = sq.conditions.iter().map(|c| c.to_string()).collect();
                out.push_str(&format!(" where {}", conds.join(" and ")));
            }
            if !sq.conversions.is_empty() {
                let convs: Vec<String> = sq
                    .conversions
                    .iter()
                    .map(|c| format!("{} via {}", c.local_attr, c.to_articulation))
                    .collect();
                out.push_str(&format!(" converting [{}]", convs.join(", ")));
            }
            out.push('\n');
        }
        out
    }
}

/// Plans `query` over the articulation and sources, building a fresh
/// [`ImplicationIndex`] for the call (see [`plan_indexed`]).
pub fn plan(
    query: &Query,
    articulation: &Articulation,
    sources: &[&Ontology],
    conversions: &ConversionRegistry,
) -> Result<QueryPlan> {
    let index = ImplicationIndex::new(articulation, sources);
    plan_indexed(query, &index, articulation, sources, conversions)
}

/// [`plan()`] with a prebuilt `index`, which must come from this
/// articulation and these sources, unchanged and in this order. A
/// caller that plans many queries against one state builds the index
/// once and pays per query only for its own reformulation; the plans
/// are identical to [`plan()`]'s.
pub fn plan_indexed(
    query: &Query,
    index: &ImplicationIndex,
    articulation: &Articulation,
    sources: &[&Ontology],
    conversions: &ConversionRegistry,
) -> Result<QueryPlan> {
    let reformulator = Reformulator::with_index(index, articulation, sources.to_vec(), conversions);
    let source_queries = reformulator.reformulate(query)?;
    Ok(QueryPlan { query: query.clone(), source_queries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use onion_articulate::ArticulationGenerator;
    use onion_ontology::examples::{carrier, factory, fig2_rules};

    #[test]
    fn plan_consults_both_fig2_sources_for_vehicles() {
        let c = carrier();
        let f = factory();
        let art = ArticulationGenerator::new().generate(&fig2_rules(), &[&c, &f]).unwrap();
        let conv = ConversionRegistry::standard();
        let q = Query::parse("find Vehicle(Price) where Price < 5000").unwrap();
        let p = plan(&q, &art, &[&c, &f], &conv).unwrap();
        let mut sources = p.sources();
        sources.sort_unstable();
        assert_eq!(sources, vec!["carrier", "factory"]);
        let text = p.explain();
        assert!(text.contains("source carrier"), "{text}");
        assert!(text.contains("DGToEuroFn"), "{text}");
    }

    #[test]
    fn plan_prunes_unreachable_sources() {
        let c = carrier();
        let f = factory();
        // a single rule that gives carrier no path into the queried class
        let rules =
            onion_rules::parse_rules("factory.CargoCarrier => transport.CargoCarrier\n").unwrap();
        let art = ArticulationGenerator::new().generate(&rules, &[&c, &f]).unwrap();
        let conv = ConversionRegistry::standard();
        let q = Query::all("CargoCarrier");
        let p = plan(&q, &art, &[&c, &f], &conv).unwrap();
        assert_eq!(p.sources(), vec!["factory"]);
    }

    #[test]
    fn fig2_trucks_are_cargo_carriers_via_conjunction() {
        // with the full Fig. 2 rules, carrier.Trucks ⇒ CargoCarrierVehicle
        // ⇒ factory.CargoCarrier ⇒ transport.CargoCarrier — both sources
        // legitimately answer a CargoCarrier query
        let c = carrier();
        let f = factory();
        let art = ArticulationGenerator::new().generate(&fig2_rules(), &[&c, &f]).unwrap();
        let conv = ConversionRegistry::standard();
        let p = plan(&Query::all("CargoCarrier"), &art, &[&c, &f], &conv).unwrap();
        let mut sources = p.sources();
        sources.sort_unstable();
        assert_eq!(sources, vec!["carrier", "factory"]);
    }

    #[test]
    fn plan_explain_handles_empty() {
        let c = carrier();
        let f = factory();
        let art = ArticulationGenerator::new().generate(&fig2_rules(), &[&c, &f]).unwrap();
        let conv = ConversionRegistry::standard();
        // Euro is an articulation term no source class implies… except
        // currency terms; if they do map, accept a non-empty plan. Use a
        // synthesized-only term instead: Person (intra-articulation).
        let q = Query::all("Person");
        let p = plan(&q, &art, &[&c, &f], &conv).unwrap();
        let _ = p.explain(); // must not panic either way
    }
}
