//! Plan execution: fetch per source, convert, merge.

use std::collections::BTreeMap;

use onion_articulate::Articulation;
use onion_ontology::Ontology;
use onion_rules::ConversionRegistry;

use crate::ast::Query;
use crate::plan::QueryPlan;
use crate::result::{ResultRow, ResultSet};
use crate::wrapper::Wrapper;
use crate::Result;

/// Executes a plan against the wrappers (matched to plan sources by
/// name; missing wrappers contribute nothing, mirroring an offline
/// source). Values are converted into articulation metric space and
/// attribute names into articulation vocabulary.
///
/// Execution needs only the plan and `conversions`: each
/// [`SourceQuery`](crate::plan::SourceQuery) already carries its local
/// classes, pushed-down conditions, attribute map and conversions, so
/// nothing is reformulated here. `_articulation` and `_sources` are
/// unused; they stay so that the signature matches [`plan`](crate::plan())
/// and existing callers (the traced batch scheduler in `perfbench`)
/// keep compiling.
pub fn execute_plan(
    plan: &QueryPlan,
    _articulation: &Articulation,
    _sources: &[&Ontology],
    conversions: &ConversionRegistry,
    wrappers: &[&dyn Wrapper],
) -> Result<ResultSet> {
    let mut rs = ResultSet::default();
    for sq in &plan.source_queries {
        let Some(wrapper) = wrappers.iter().find(|w| w.source() == sq.source) else {
            continue;
        };
        let fetched = wrapper.fetch(&sq.classes, &sq.conditions)?;
        for inst in fetched {
            let mut attrs = BTreeMap::new();
            for art_attr in &plan.query.select {
                if let Some(local) = sq.attr_map.get(art_attr) {
                    if let Some(v) = inst.attrs.get(local) {
                        let converted = sq.to_articulation_space(conversions, local, v)?;
                        attrs.insert(art_attr.clone(), converted);
                    }
                }
            }
            rs.rows.push(ResultRow {
                id: inst.id,
                source: sq.source.clone(),
                local_class: inst.class,
                attrs,
            });
        }
    }
    rs.normalise();
    Ok(rs)
}

/// Convenience: plan + execute in one call.
pub fn execute(
    query: &Query,
    articulation: &Articulation,
    sources: &[&Ontology],
    conversions: &ConversionRegistry,
    wrappers: &[&dyn Wrapper],
) -> Result<ResultSet> {
    let plan = crate::plan::plan(query, articulation, sources, conversions)?;
    execute_plan(&plan, articulation, sources, conversions, wrappers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Value;
    use crate::kb::{Instance, KnowledgeBase};
    use crate::wrapper::InMemoryWrapper;
    use onion_articulate::ArticulationGenerator;
    use onion_ontology::examples::{carrier, factory, fig2_rules};

    /// Fig. 2 instance data: carrier prices in Dutch Guilders, factory
    /// prices in Pound Sterling.
    fn setup() -> (Ontology, Ontology, Articulation, InMemoryWrapper, InMemoryWrapper) {
        let c = carrier();
        let f = factory();
        let art = ArticulationGenerator::new().generate(&fig2_rules(), &[&c, &f]).unwrap();

        let mut ckb = KnowledgeBase::new("carrier");
        // 2203.71 NLG = 1000 EUR
        ckb.add(
            Instance::new("MyCar", "Cars")
                .with("Price", Value::Num(2203.71))
                .with("Owner", Value::Str("Mitra".into())),
        );
        ckb.add(Instance::new("suv1", "SUV").with("Price", Value::Num(22037.1))); // 10k EUR
        ckb.add(Instance::new("bike1", "Bicycles").with("Price", Value::Num(100.0))); // unmapped class

        let mut fkb = KnowledgeBase::new("factory");
        // 653.3 GBP = 1000 EUR
        fkb.add(Instance::new("pc7", "PassengerCar").with("Price", Value::Num(653.3)));
        fkb.add(Instance::new("truck9", "Truck").with("Price", Value::Num(6533.0))); // 10k EUR
        (c, f, art, InMemoryWrapper::new(ckb), InMemoryWrapper::new(fkb))
    }

    #[test]
    fn cross_source_query_with_currency_normalisation() {
        let (c, f, art, cw, fw) = setup();
        let conv = ConversionRegistry::standard();
        let q = Query::parse("find Vehicle(Price)").unwrap();
        let rs = execute(&q, &art, &[&c, &f], &conv, &[&cw, &fw]).unwrap();
        // MyCar, suv1, pc7, truck9 — bike1's class is unmapped
        assert_eq!(rs.len(), 4, "{rs}");
        let eur: BTreeMap<&str, f64> =
            rs.rows.iter().map(|r| (r.id.as_str(), r.attrs["Price"].as_num().unwrap())).collect();
        assert!((eur["MyCar"] - 1000.0).abs() < 1e-6, "guilders normalised to euro");
        assert!((eur["pc7"] - 1000.0).abs() < 1e-6, "sterling normalised to euro");
        assert!((eur["suv1"] - 10000.0).abs() < 1e-6);
        assert!((eur["truck9"] - 10000.0).abs() < 1e-6);
    }

    #[test]
    fn conditions_filter_across_metric_spaces() {
        let (c, f, art, cw, fw) = setup();
        let conv = ConversionRegistry::standard();
        // under 5000 EUR: MyCar (1000) and pc7 (1000) qualify
        let q = Query::parse("find Vehicle(Price) where Price < 5000").unwrap();
        let rs = execute(&q, &art, &[&c, &f], &conv, &[&cw, &fw]).unwrap();
        let ids: Vec<&str> = rs.rows.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, vec!["MyCar", "pc7"]);
    }

    #[test]
    fn pruned_sources_not_consulted() {
        let (c, f, _, cw, fw) = setup();
        // narrow articulation: only factory knows cargo carriers
        let rules =
            onion_rules::parse_rules("factory.CargoCarrier => transport.CargoCarrier\n").unwrap();
        let art = ArticulationGenerator::new().generate(&rules, &[&c, &f]).unwrap();
        let conv = ConversionRegistry::standard();
        let q = Query::all("CargoCarrier");
        let _ = execute(&q, &art, &[&c, &f], &conv, &[&cw, &fw]).unwrap();
        assert_eq!(cw.calls(), 0, "carrier wrapper untouched");
        assert_eq!(fw.calls(), 1);
    }

    #[test]
    fn string_attributes_pass_through() {
        let (c, f, art, cw, fw) = setup();
        let conv = ConversionRegistry::standard();
        let q = Query::parse("find Vehicle(Owner) where Owner = \"Mitra\"").unwrap();
        let rs = execute(&q, &art, &[&c, &f], &conv, &[&cw, &fw]).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0].attrs["Owner"], Value::Str("Mitra".into()));
    }

    #[test]
    fn missing_wrapper_is_tolerated() {
        let (c, f, art, cw, _) = setup();
        let conv = ConversionRegistry::standard();
        let q = Query::parse("find Vehicle(Price)").unwrap();
        let rs = execute(&q, &art, &[&c, &f], &conv, &[&cw]).unwrap();
        // only carrier rows (factory offline)
        assert!(rs.rows.iter().all(|r| r.source == "carrier"));
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn result_table_renders() {
        let (c, f, art, cw, fw) = setup();
        let conv = ConversionRegistry::standard();
        let q = Query::parse("find Vehicle(Price)").unwrap();
        let rs = execute(&q, &art, &[&c, &f], &conv, &[&cw, &fw]).unwrap();
        let table = rs.to_table(&["Price".to_string()]);
        assert!(table.contains("MyCar"));
        assert!(table.contains("1000"));
    }
}
