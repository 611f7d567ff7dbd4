//! Plan execution: fetch per source, convert, merge.

use std::collections::BTreeMap;
use std::sync::Arc;

use onion_articulate::Articulation;
use onion_ontology::Ontology;
use onion_rules::ConversionRegistry;

use crate::ast::Query;
use crate::plan::QueryPlan;
use crate::reformulate::convert_to_articulation;
use crate::result::{ResultRow, ResultSet};
use crate::wrapper::Wrapper;
use crate::Result;

/// Executes a plan against the wrappers (matched to plan sources by
/// name; missing wrappers contribute nothing, mirroring an offline
/// source). Values are converted into articulation metric space and
/// attribute names into articulation vocabulary. The first error, from
/// a wrapper or a conversion, stops execution and is returned.
///
/// Each row is built from the instance its wrapper lends
/// ([`Wrapper::fetch`]) and shares its strings ([`ResultRow`]): the
/// instance's id and class, one source name per source query, and one
/// name per selected attribute. Each selected attribute's local name
/// and conversion are resolved once per source query, so a row without
/// projected attributes allocates nothing. The rows are then put in
/// (source, id) order ([`ResultSet::normalise`]).
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
    let names: Vec<Arc<str>> = plan.query.select.iter().map(|a| Arc::from(a.as_str())).collect();
    let mut rs = ResultSet::default();
    for sq in &plan.source_queries {
        let Some(wrapper) = wrappers.iter().find(|w| w.source() == sq.source) else {
            continue;
        };
        let source: Arc<str> = Arc::from(sq.source.as_str());
        // (articulation name, local attribute, conversion), in select-list order
        let columns: Vec<_> = plan
            .query
            .select
            .iter()
            .zip(&names)
            .filter_map(|(art, name)| {
                let local = sq.attr_map.get(art)?;
                Some((name, local.as_str(), sq.conversion_of(local)))
            })
            .collect();
        wrapper.fetch(&sq.classes, &sq.conditions, &mut |inst| {
            let mut attrs = BTreeMap::new();
            for &(name, local, conversion) in &columns {
                if let Some(v) = inst.attrs.get(local) {
                    let converted = convert_to_articulation(conversions, conversion, v)?;
                    attrs.insert(Arc::clone(name), converted);
                }
            }
            rs.rows.push(ResultRow {
                id: Arc::clone(&inst.id),
                source: Arc::clone(&source),
                local_class: Arc::clone(&inst.class),
                attrs,
            });
            Ok(())
        })?;
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
    use crate::ast::{CmpOp, Condition, Value};
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
            rs.rows.iter().map(|r| (&*r.id, r.attrs["Price"].as_num().unwrap())).collect();
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
        let ids: Vec<&str> = rs.rows.iter().map(|r| &*r.id).collect();
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

    /// A condition on an attribute that no local attribute maps to is
    /// pushed down under its raw name and value: it holds on instances
    /// that carry an attribute of that name (unconverted) and, for
    /// `!=`, on those without one. The attribute is not projected.
    #[test]
    fn unmapped_condition_filters_on_the_raw_attribute() {
        let (c, f, art, _, _) = setup();
        assert!(!c.defines("Mileage") && !f.defines("Mileage"));
        let mut ckb = KnowledgeBase::new("carrier");
        ckb.add(Instance::new("light", "Cars").with("Mileage", Value::Num(900.0)));
        ckb.add(Instance::new("heavy", "Cars").with("Mileage", Value::Num(2500.0)));
        ckb.add(Instance::new("unweighed", "Cars"));
        let cw = InMemoryWrapper::new(ckb);
        let conv = ConversionRegistry::standard();
        let run = |text: &str| {
            let q = Query::parse(text).unwrap();
            execute(&q, &art, &[&c, &f], &conv, &[&cw]).unwrap()
        };
        let ids = |rs: &ResultSet| rs.rows.iter().map(|r| r.id.to_string()).collect::<Vec<_>>();
        assert_eq!(ids(&run("find Vehicle(Mileage)")), ["heavy", "light", "unweighed"]);
        let light = run("find Vehicle(Mileage) where Mileage < 1000");
        assert_eq!(ids(&light), ["light"]);
        assert!(light.rows.iter().all(|r| r.attrs.is_empty()), "Mileage is not projected");
        assert_eq!(ids(&run("find Vehicle where Mileage != 900")), ["heavy", "unweighed"]);
        let p = crate::plan(
            &Query::parse("find Vehicle where Mileage < 1000").unwrap(),
            &art,
            &[&c, &f],
            &conv,
        )
        .unwrap();
        for sq in &p.source_queries {
            assert_eq!(sq.conditions, [Condition::new("Mileage", CmpOp::Lt, Value::Num(1000.0))]);
        }
    }

    /// When several selected attributes of a row fail to convert, the
    /// error is the first one in select-list order, not name order.
    #[test]
    fn conversion_error_follows_the_select_list() {
        use crate::plan::SourceQuery;
        use crate::reformulate::AttrConversion;
        let mut kb = KnowledgeBase::new("s");
        kb.add(Instance::new("i", "C").with("A", Value::Num(1.0)).with("B", Value::Num(2.0)));
        let w = InMemoryWrapper::new(kb);
        let failing = |attr: &str, f: &str| AttrConversion {
            local_attr: attr.into(),
            to_articulation: f.into(),
            to_local: None,
        };
        let conv = ConversionRegistry::standard();
        for (select, first_fn) in [(["B", "A"], "NoSuchB"), (["A", "B"], "NoSuchA")] {
            let sq = SourceQuery {
                source: "s".into(),
                classes: vec!["C".into()],
                attr_map: ["A", "B"].map(|a| (a.to_string(), a.to_string())).into(),
                conversions: vec![failing("A", "NoSuchA"), failing("B", "NoSuchB")],
                conditions: Vec::new(),
            };
            let query = Query::all("X").select(select[0]).select(select[1]);
            let plan = QueryPlan { query, source_queries: vec![sq] };
            let err = execute_plan(&plan, &Articulation::new("x"), &[], &conv, &[&w]).unwrap_err();
            let want = conv.apply(first_fn, 0.0).unwrap_err().to_string();
            assert_eq!(err, crate::QueryError::Conversion(want), "select {select:?}");
        }
    }

    #[test]
    fn missing_wrapper_is_tolerated() {
        let (c, f, art, cw, _) = setup();
        let conv = ConversionRegistry::standard();
        let q = Query::parse("find Vehicle(Price)").unwrap();
        let rs = execute(&q, &art, &[&c, &f], &conv, &[&cw]).unwrap();
        // only carrier rows (factory offline)
        assert!(rs.rows.iter().all(|r| &*r.source == "carrier"));
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
