//! In-memory knowledge bases — the reproduction's stand-in for the
//! external sources behind ONION's wrappers (KB1–KB3 in Fig. 1; see
//! ARCHITECTURE.md, "Query system").

use std::collections::BTreeMap;

use crate::ast::{Condition, Value};

/// One individual with typed attribute values.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Identifier, unique within the knowledge base.
    pub id: String,
    /// Local class name (source-ontology vocabulary).
    pub class: String,
    /// Attribute values, keyed by local attribute name.
    pub attrs: BTreeMap<String, Value>,
}

impl Instance {
    /// Builds an instance.
    pub fn new(id: &str, class: &str) -> Self {
        Instance { id: id.to_string(), class: class.to_string(), attrs: BTreeMap::new() }
    }

    /// Adds an attribute value.
    pub fn with(mut self, attr: &str, value: Value) -> Self {
        self.attrs.insert(attr.to_string(), value);
        self
    }

    /// Does this instance satisfy `cond` (in local vocabulary)? Missing
    /// attributes fail every condition except `!=`.
    pub fn satisfies(&self, cond: &Condition) -> bool {
        match self.attrs.get(&cond.attr) {
            Some(v) => cond.op.eval(v, &cond.value),
            None => cond.op == crate::ast::CmpOp::Ne,
        }
    }
}

/// A per-source instance store.
#[derive(Debug, Clone, Default)]
pub struct KnowledgeBase {
    name: String,
    instances: Vec<Instance>,
}

impl KnowledgeBase {
    /// Empty KB for the source ontology `name`.
    pub fn new(name: &str) -> Self {
        KnowledgeBase { name: name.to_string(), instances: Vec::new() }
    }

    /// The source ontology this KB instantiates.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds an instance.
    pub fn add(&mut self, instance: Instance) {
        self.instances.push(instance);
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// All instances (read-only).
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Instances whose class is in `classes` and which satisfy every
    /// condition (local vocabulary).
    pub fn query(&self, classes: &[String], conditions: &[Condition]) -> Vec<&Instance> {
        self.instances
            .iter()
            .filter(|i| classes.iter().any(|c| c == &i.class))
            .filter(|i| conditions.iter().all(|c| i.satisfies(c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;

    fn kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new("carrier");
        kb.add(
            Instance::new("car1", "Cars")
                .with("Price", Value::Num(4000.0))
                .with("Owner", Value::Str("Ann".into())),
        );
        kb.add(Instance::new("car2", "Cars").with("Price", Value::Num(9000.0)));
        kb.add(Instance::new("suv1", "SUV").with("Price", Value::Num(15000.0)));
        kb
    }

    #[test]
    fn query_filters_by_class_and_condition() {
        let kb = kb();
        let cheap = kb.query(
            &["Cars".to_string()],
            &[Condition::new("Price", CmpOp::Lt, Value::Num(5000.0))],
        );
        assert_eq!(cheap.len(), 1);
        assert_eq!(cheap[0].id, "car1");
    }

    #[test]
    fn query_multiple_classes() {
        let kb = kb();
        let all = kb.query(&["Cars".to_string(), "SUV".to_string()], &[]);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn missing_attribute_fails_conditions_except_ne() {
        let i = Instance::new("x", "C");
        assert!(!i.satisfies(&Condition::new("Price", CmpOp::Eq, Value::Num(1.0))));
        assert!(!i.satisfies(&Condition::new("Price", CmpOp::Lt, Value::Num(1.0))));
        assert!(i.satisfies(&Condition::new("Price", CmpOp::Ne, Value::Num(1.0))));
    }

    #[test]
    fn string_conditions() {
        let kb = kb();
        let anns = kb.query(
            &["Cars".to_string()],
            &[Condition::new("Owner", CmpOp::Eq, Value::Str("Ann".into()))],
        );
        assert_eq!(anns.len(), 1);
    }

    #[test]
    fn empty_class_list_matches_nothing() {
        let kb = kb();
        assert!(kb.query(&[], &[]).is_empty());
    }
}
