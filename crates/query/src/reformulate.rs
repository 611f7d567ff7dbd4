//! Query reformulation across the semantic bridges.
//!
//! A query names an articulation class (`transport.Vehicle`); each
//! source knows it by different local classes (`carrier.Cars`,
//! `factory.PassengerCar`, …). The reformulator follows the **directed**
//! implication edges to find, per source, every local class whose
//! instances are semantically instances of the queried class, plus the
//! attribute renamings and metric conversions the bridges record.
//!
//! The edges come from an [`ImplicationIndex`], the one place that
//! decides what implies what (`SIBridge` bridges, articulation
//! `SubclassOf`, source `SubclassOf`/`InstanceOf`). Finding the local
//! terms that imply a target is one backward search there
//! ([`ImplicationIndex::implying_labels`]), which visits only the terms
//! that imply it, then one label probe per implying term in the source's
//! namespace, however many nodes the source has. The index owns its
//! keys, so a caller that holds the state still (the facade, per state
//! epoch) builds it once and plans through
//! [`plan_indexed`](crate::plan::plan_indexed); [`Reformulator::new`]
//! builds a fresh one. `tests/reformulation_props.rs` checks the results
//! against a forward BFS from every source node. Reformulation fixes
//! each source's conversions, so converting fetched values back
//! ([`SourceReformulation::to_articulation_space`]) needs only the plan
//! and the [`ConversionRegistry`].

use std::borrow::Cow;
use std::collections::HashMap;

use onion_articulate::{Articulation, ImplicationIndex};
use onion_ontology::Ontology;
use onion_rules::ConversionRegistry;

use crate::ast::{Condition, Query, Value};
use crate::{QueryError, Result};

/// A numeric conversion between a source metric space and the
/// articulation's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrConversion {
    /// Attribute (local vocabulary) the conversion applies to.
    pub local_attr: String,
    /// Function name: local → articulation space.
    pub to_articulation: String,
    /// Function name: articulation → local space (for condition
    /// pushdown), if registered.
    pub to_local: Option<String>,
}

/// The per-source reformulation of one query.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceReformulation {
    /// Source ontology name.
    pub source: String,
    /// Local classes whose instances answer the query.
    pub classes: Vec<String>,
    /// articulation attribute → local attribute.
    pub attr_map: HashMap<String, String>,
    /// Conversions for numeric attributes.
    pub conversions: Vec<AttrConversion>,
    /// Conditions rewritten into local vocabulary and metric space.
    pub conditions: Vec<Condition>,
}

impl SourceReformulation {
    /// Converts a value fetched for `local_attr` into articulation
    /// space with this source's conversion for it, if any; values
    /// without one pass through unchanged.
    pub fn to_articulation_space(
        &self,
        conversions: &ConversionRegistry,
        local_attr: &str,
        value: &Value,
    ) -> Result<Value> {
        convert_to_articulation(conversions, self.conversion_of(local_attr), value)
    }

    /// This source's conversion for `local_attr`, if its values need one.
    pub(crate) fn conversion_of(&self, local_attr: &str) -> Option<&AttrConversion> {
        self.conversions.iter().find(|c| c.local_attr == local_attr)
    }
}

/// Converts a fetched value into articulation space: a number goes
/// through `conv`'s function when there is a conversion; anything else
/// passes through unchanged.
pub(crate) fn convert_to_articulation(
    conversions: &ConversionRegistry,
    conv: Option<&AttrConversion>,
    value: &Value,
) -> Result<Value> {
    match (value, conv) {
        (Value::Num(n), Some(conv)) => {
            let converted = conversions
                .apply(&conv.to_articulation, *n)
                .map_err(|e| QueryError::Conversion(e.to_string()))?;
            Ok(Value::Num(converted))
        }
        (v, _) => Ok(v.clone()),
    }
}

/// Reformulates articulation-vocabulary queries for each source.
pub struct Reformulator<'a> {
    articulation: &'a Articulation,
    sources: Vec<&'a Ontology>,
    conversions: &'a ConversionRegistry,
    index: Cow<'a, ImplicationIndex>,
}

impl<'a> Reformulator<'a> {
    /// Builds a reformulator over an articulation and its sources,
    /// with a fresh [`ImplicationIndex`].
    pub fn new(
        articulation: &'a Articulation,
        sources: Vec<&'a Ontology>,
        conversions: &'a ConversionRegistry,
    ) -> Self {
        let index = ImplicationIndex::new(articulation, &sources);
        Reformulator { articulation, sources, conversions, index: Cow::Owned(index) }
    }

    /// A reformulator that reuses `index`, which must have been built
    /// from this articulation and these sources, in this order (see
    /// [`ImplicationIndex`]).
    pub(crate) fn with_index(
        index: &'a ImplicationIndex,
        articulation: &'a Articulation,
        sources: Vec<&'a Ontology>,
        conversions: &'a ConversionRegistry,
    ) -> Self {
        Reformulator { articulation, sources, conversions, index: Cow::Borrowed(index) }
    }

    /// Source labels whose term implies the articulation term `term`,
    /// sorted: the shared kernel of [`Reformulator::local_classes`] and
    /// [`Reformulator::local_attr`].
    fn implying_labels(&self, source: &Ontology, term: &str) -> Vec<String> {
        self.index.implying_labels(self.articulation, &self.sources, source, term)
    }

    /// Local classes of `source` whose instances belong to the
    /// articulation class `class`.
    pub fn local_classes(&self, source: &Ontology, class: &str) -> Vec<String> {
        self.implying_labels(source, class)
    }

    /// The local attribute of `source` corresponding to the articulation
    /// attribute `attr`: a local attribute term that implies (or is
    /// label-identical to) `transport.attr`.
    pub fn local_attr(&self, source: &Ontology, attr: &str) -> Option<String> {
        // prefer an explicit bridge
        if let Some(b) = self.implying_labels(source, attr).into_iter().next() {
            return Some(b);
        }
        // fall back to identical labels (the common case: both call it Price)
        if source.defines(attr) {
            return Some(attr.to_string());
        }
        None
    }

    /// The metric conversion for `local_attr` in `source`, if its value
    /// space is bridged by a functional rule: the source records
    /// `attr -expressedIn-> Currency` and the articulation holds a
    /// functional bridge `source.Currency -[Fn]-> art.X`.
    pub fn conversion_for(&self, source: &Ontology, local_attr: &str) -> Option<AttrConversion> {
        let g = source.graph();
        let attr_node = g.node_by_label(local_attr)?;
        for metric in g.out_neighbors(attr_node, "expressedIn") {
            let metric_label = g.node_label(metric).expect("live");
            for b in &self.articulation.bridges {
                if b.kind == onion_articulate::BridgeKind::Functional
                    && b.src.in_ontology(source.name())
                    && *b.src.name == *metric_label
                {
                    let to_local = self
                        .conversions
                        .get(&b.label)
                        .and_then(|c| c.inverse_name())
                        .map(str::to_string);
                    return Some(AttrConversion {
                        local_attr: local_attr.to_string(),
                        to_articulation: b.label.to_string(),
                        to_local,
                    });
                }
            }
        }
        None
    }

    /// Reformulates `query` for every source; sources without a mapped
    /// class are omitted (they cannot contribute answers).
    ///
    /// Each selected or conditioned attribute maps to the local
    /// attribute that implies it, or else to a same-named attribute the
    /// source defines ([`Reformulator::local_attr`]). A condition on an
    /// attribute that maps to neither is still pushed down, under its
    /// raw articulation name and value, unconverted: the wrapper keeps
    /// the instances that carry an attribute of that name and satisfy
    /// the comparison (for `!=`, also those without one). Such an
    /// attribute is never projected, so its rows carry no value for it.
    pub fn reformulate(&self, query: &Query) -> Result<Vec<SourceReformulation>> {
        if !self.articulation.ontology.defines(&query.class) {
            return Err(QueryError::UnknownClass(query.class.clone()));
        }
        let mut out = Vec::new();
        for source in &self.sources {
            let classes = self.local_classes(source, &query.class);
            if classes.is_empty() {
                continue;
            }
            let mut attr_map = HashMap::new();
            let mut conversions = Vec::new();
            let mut wanted: Vec<&str> = query.select.iter().map(String::as_str).collect();
            for c in &query.conditions {
                if !wanted.contains(&c.attr.as_str()) {
                    wanted.push(&c.attr);
                }
            }
            for attr in wanted {
                if let Some(local) = self.local_attr(source, attr) {
                    if let Some(conv) = self.conversion_for(source, &local) {
                        conversions.push(conv);
                    }
                    attr_map.insert(attr.to_string(), local);
                }
            }
            // rewrite conditions into local vocabulary + metric space
            let mut conditions = Vec::new();
            for c in &query.conditions {
                let Some(local) = attr_map.get(&c.attr) else {
                    // no local attribute maps to it: push the condition
                    // down under the raw name, value unconverted. It holds
                    // on instances carrying an attribute of that name that
                    // satisfies it (and, for !=, on those without one).
                    conditions.push(Condition::new(&c.attr, c.op, c.value.clone()));
                    continue;
                };
                let value = match (&c.value, self.conversion_value(&conversions, local)) {
                    (Value::Num(n), Some(conv)) => {
                        let fn_name = conv.to_local.as_deref().ok_or_else(|| {
                            QueryError::Conversion(format!(
                                "no inverse registered for {}",
                                conv.to_articulation
                            ))
                        })?;
                        let converted = self
                            .conversions
                            .apply(fn_name, *n)
                            .map_err(|e| QueryError::Conversion(e.to_string()))?;
                        Value::Num(converted)
                    }
                    (v, _) => v.clone(),
                };
                conditions.push(Condition::new(local, c.op, value));
            }
            out.push(SourceReformulation {
                source: source.name().to_string(),
                classes,
                attr_map,
                conversions,
                conditions,
            });
        }
        Ok(out)
    }

    fn conversion_value<'c>(
        &self,
        conversions: &'c [AttrConversion],
        local_attr: &str,
    ) -> Option<&'c AttrConversion> {
        conversions.iter().find(|c| c.local_attr == local_attr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onion_articulate::ArticulationGenerator;
    use onion_ontology::examples::{carrier, factory, fig2_rules};

    fn setup() -> (Ontology, Ontology, Articulation, ConversionRegistry) {
        let c = carrier();
        let f = factory();
        let art = ArticulationGenerator::new().generate(&fig2_rules(), &[&c, &f]).unwrap();
        (c, f, art, ConversionRegistry::standard())
    }

    #[test]
    fn local_classes_follow_bridges_and_subclasses() {
        let (c, f, art, conv) = setup();
        let r = Reformulator::new(&art, vec![&c, &f], &conv);
        // transport.Vehicle: carrier.Cars bridged; carrier.SUV via local
        // subclass; carrier.MyCar via InstanceOf
        let lc = r.local_classes(&c, "Vehicle");
        assert!(lc.contains(&"Cars".to_string()), "{lc:?}");
        assert!(lc.contains(&"SUV".to_string()), "{lc:?}");
        // factory side: Vehicle equivalent, PassengerCar bridged, Truck via
        // subclass chain
        let lf = r.local_classes(&f, "Vehicle");
        assert!(lf.contains(&"Vehicle".to_string()), "{lf:?}");
        assert!(lf.contains(&"PassengerCar".to_string()), "{lf:?}");
        assert!(lf.contains(&"Truck".to_string()), "{lf:?}");
    }

    #[test]
    fn unknown_class_is_error() {
        let (c, f, art, conv) = setup();
        let r = Reformulator::new(&art, vec![&c, &f], &conv);
        let q = Query::all("Spaceship");
        assert!(matches!(r.reformulate(&q), Err(QueryError::UnknownClass(_))));
    }

    #[test]
    fn attribute_falls_back_to_identical_label() {
        let (c, f, art, conv) = setup();
        let r = Reformulator::new(&art, vec![&c, &f], &conv);
        assert_eq!(r.local_attr(&c, "Price"), Some("Price".to_string()));
        assert_eq!(r.local_attr(&c, "NoSuchAttr"), None);
    }

    #[test]
    fn conversion_found_for_priced_attributes() {
        let (c, f, art, conv) = setup();
        let r = Reformulator::new(&art, vec![&c, &f], &conv);
        let cc = r.conversion_for(&c, "Price").expect("carrier price in guilders");
        assert_eq!(cc.to_articulation, "DGToEuroFn");
        assert_eq!(cc.to_local.as_deref(), Some("EuroToDGFn"));
        let cf = r.conversion_for(&f, "Price").expect("factory price in sterling");
        assert_eq!(cf.to_articulation, "PSToEuroFn");
    }

    #[test]
    fn conditions_pushed_down_in_local_metric() {
        let (c, f, art, conv) = setup();
        let r = Reformulator::new(&art, vec![&c, &f], &conv);
        let q = Query::parse("find Vehicle(Price) where Price < 1000").unwrap();
        let reforms = r.reformulate(&q).unwrap();
        let carrier_side = reforms.iter().find(|x| x.source == "carrier").unwrap();
        // 1000 EUR pushed down in guilders: 1000 * 2.20371
        let pushed = carrier_side.conditions[0].value.as_num().unwrap();
        assert!((pushed - 2203.71).abs() < 1e-9, "pushed value {pushed}");
        let factory_side = reforms.iter().find(|x| x.source == "factory").unwrap();
        let pushed_f = factory_side.conditions[0].value.as_num().unwrap();
        assert!((pushed_f - 653.3).abs() < 1e-9, "pushed value {pushed_f}");
    }

    #[test]
    fn to_articulation_space_roundtrip() {
        let (c, f, art, conv) = setup();
        let r = Reformulator::new(&art, vec![&c, &f], &conv);
        let q = Query::parse("find Vehicle(Price)").unwrap();
        let reforms = r.reformulate(&q).unwrap();
        let carrier_side = reforms.iter().find(|x| x.source == "carrier").unwrap();
        let eur = carrier_side.to_articulation_space(&conv, "Price", &Value::Num(2203.71)).unwrap();
        assert!((eur.as_num().unwrap() - 1000.0).abs() < 1e-9);
        // strings pass through
        let s =
            carrier_side.to_articulation_space(&conv, "Owner", &Value::Str("Ann".into())).unwrap();
        assert_eq!(s, Value::Str("Ann".into()));
    }

    #[test]
    fn sources_without_mapped_class_are_skipped() {
        let (c, f, art, conv) = setup();
        let r = Reformulator::new(&art, vec![&c, &f], &conv);
        // transport.Euro is an articulation term with no class instances
        // mapped in carrier (DutchGuilders implies Euro though!)
        let q = Query::all("CargoCarrier");
        let reforms = r.reformulate(&q).unwrap();
        // factory.CargoCarrier equivalent; carrier has Trucks =>
        // CargoCarrierVehicle but not CargoCarrier… depends on rules: the
        // conjunction bridged transport.CargoCarrierVehicle -> factory.*
        // but carrier.Trucks -> transport.CargoCarrierVehicle (not
        // CargoCarrier). So only factory contributes.
        assert!(reforms.iter().any(|x| x.source == "factory"));
    }
}
