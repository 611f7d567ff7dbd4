//! In-memory knowledge bases — the reproduction's stand-in for the
//! external sources behind ONION's wrappers (KB1–KB3 in Fig. 1; see
//! ARCHITECTURE.md, "Query system").

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

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

/// A per-source instance store, partitioned by class: next to the
/// instances it keeps each class's instance positions, so a query
/// visits only the instances of the classes it names.
#[derive(Debug, Clone, Default)]
pub struct KnowledgeBase {
    name: String,
    instances: Vec<Instance>,
    /// class → ascending positions in `instances` (an inverted index's
    /// posting lists, `u32` to keep them small). Clones share the map
    /// until one of them adds an instance (`Arc::make_mut`), so cloning
    /// a KB copies its instances and nothing more.
    by_class: Arc<HashMap<String, Vec<u32>>>,
}

impl KnowledgeBase {
    /// Empty KB for the source ontology `name`.
    pub fn new(name: &str) -> Self {
        KnowledgeBase { name: name.to_string(), ..Self::default() }
    }

    /// The source ontology this KB instantiates.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds an instance.
    pub fn add(&mut self, instance: Instance) {
        let pos = u32::try_from(self.instances.len()).expect("fewer than 2^32 instances");
        let by_class = Arc::make_mut(&mut self.by_class);
        match by_class.get_mut(&instance.class) {
            Some(positions) => positions.push(pos),
            None => {
                by_class.insert(instance.class.clone(), vec![pos]);
            }
        }
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
    /// condition (local vocabulary), in insertion order. Duplicate and
    /// unknown class names add nothing.
    ///
    /// Only the named classes' instances are visited: their position
    /// lists are concatenated, sorted back into insertion order (a
    /// repeated name repeats positions, which the sort makes adjacent
    /// and `dedup` drops), and the conditions run on those instances
    /// alone. The cost is one hash probe per named class plus the
    /// matching classes' instances, not a probe per instance in the KB.
    pub fn query(&self, classes: &[String], conditions: &[Condition]) -> Vec<&Instance> {
        let mut positions: Vec<u32> =
            classes.iter().filter_map(|c| self.by_class.get(c)).flatten().copied().collect();
        positions.sort_unstable();
        positions.dedup();
        positions
            .into_iter()
            .map(|p| &self.instances[p as usize])
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
        // duplicate and unknown names neither repeat nor add instances
        let names = ["SUV", "Cars", "Bicycles", "Cars", "SUV"].map(String::from);
        let ids: Vec<&str> = kb.query(&names, &[]).iter().map(|i| i.id.as_str()).collect();
        assert_eq!(ids, vec!["car1", "car2", "suv1"]);
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
    fn clones_share_the_partition_until_one_adds() {
        let kb = kb();
        let mut grown = kb.clone();
        assert!(Arc::ptr_eq(&kb.by_class, &grown.by_class));
        grown.add(Instance::new("car3", "Cars"));
        let ids = |k: &KnowledgeBase| -> Vec<String> {
            k.query(&["Cars".to_string()], &[]).iter().map(|i| i.id.clone()).collect()
        };
        assert_eq!(ids(&kb), vec!["car1", "car2"]);
        assert_eq!(ids(&grown), vec!["car1", "car2", "car3"]);
    }

    #[test]
    fn empty_class_list_matches_nothing() {
        let kb = kb();
        assert!(kb.query(&[], &[]).is_empty());
    }
}
