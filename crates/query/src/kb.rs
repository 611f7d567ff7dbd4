//! In-memory knowledge bases — the reproduction's stand-in for the
//! external sources behind ONION's wrappers (KB1–KB3 in Fig. 1; see
//! ARCHITECTURE.md, "Query system").

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

use crate::ast::{Condition, Value};

/// One individual with typed attribute values.
///
/// `id` and `class` are shared strings: a [`ResultRow`](crate::ResultRow)
/// answering from this instance takes `Arc` clones of them, and a
/// [`KnowledgeBase`] makes every instance of one class share one class
/// string.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Identifier, unique within the knowledge base.
    pub id: Arc<str>,
    /// Local class name (source-ontology vocabulary).
    pub class: Arc<str>,
    /// Attribute values, keyed by local attribute name.
    pub attrs: BTreeMap<String, Value>,
}

impl Instance {
    /// Builds an instance.
    pub fn new(id: &str, class: &str) -> Self {
        Instance { id: id.into(), class: class.into(), attrs: BTreeMap::new() }
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
    /// posting lists, `u32` to keep them small). The key is the class
    /// string every instance of the class shares. Clones share the map
    /// until one of them adds an instance (`Arc::make_mut`), so cloning
    /// a KB copies its instances and nothing more.
    by_class: Arc<HashMap<Arc<str>, Vec<u32>>>,
    /// position → rank of the instance in (id, insertion) order. Built
    /// at the first query after an `add`, which drops it; clones share
    /// it.
    id_rank: OnceLock<Arc<[u32]>>,
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

    /// Adds an instance. If the KB already holds an instance of its
    /// class, the new instance takes that instance's class string.
    pub fn add(&mut self, mut instance: Instance) {
        let pos = u32::try_from(self.instances.len()).expect("fewer than 2^32 instances");
        match Arc::make_mut(&mut self.by_class).entry(Arc::clone(&instance.class)) {
            Entry::Occupied(mut e) => {
                instance.class = Arc::clone(e.key());
                e.get_mut().push(pos);
            }
            Entry::Vacant(e) => {
                e.insert(vec![pos]);
            }
        }
        self.instances.push(instance);
        self.id_rank = OnceLock::new();
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// All instances (read-only), in insertion order.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Instances whose class is in `classes` and which satisfy every
    /// condition (local vocabulary), in (id, insertion) order: sorted by
    /// id, and instances that share an id in the order they were added.
    /// Duplicate and unknown class names add nothing.
    ///
    /// Only the named classes' instances are visited: their position
    /// lists are concatenated and sorted by the KB's id rank (a repeated
    /// name repeats positions, which the sort makes adjacent and `dedup`
    /// drops), and the conditions run on those instances alone. The
    /// cost is one hash probe per named class plus the matching
    /// classes' instances, not a probe per instance in the KB; the first
    /// query after an `add` also ranks every instance by id once.
    pub fn query(&self, classes: &[String], conditions: &[Condition]) -> Vec<&Instance> {
        let mut positions: Vec<u32> = classes
            .iter()
            .filter_map(|c| self.by_class.get(c.as_str()))
            .flatten()
            .copied()
            .collect();
        let rank = self.id_rank();
        positions.sort_unstable_by_key(|&p| rank[p as usize]);
        positions.dedup();
        positions
            .into_iter()
            .map(|p| &self.instances[p as usize])
            .filter(|i| conditions.iter().all(|c| i.satisfies(c)))
            .collect()
    }

    /// The id rank of every position, built on first use.
    fn id_rank(&self) -> &[u32] {
        self.id_rank.get_or_init(|| {
            let mut order: Vec<u32> = (0..self.instances.len() as u32).collect();
            // stable: instances that share an id keep insertion order
            order.sort_by(|&a, &b| {
                self.instances[a as usize].id.cmp(&self.instances[b as usize].id)
            });
            let mut rank = vec![0u32; order.len()];
            for (r, &p) in order.iter().enumerate() {
                rank[p as usize] = r as u32;
            }
            rank.into()
        })
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
        assert_eq!(&*cheap[0].id, "car1");
    }

    #[test]
    fn query_multiple_classes() {
        let kb = kb();
        let all = kb.query(&["Cars".to_string(), "SUV".to_string()], &[]);
        assert_eq!(all.len(), 3);
        // duplicate and unknown names neither repeat nor add instances
        let names = ["SUV", "Cars", "Bicycles", "Cars", "SUV"].map(String::from);
        let ids: Vec<&str> = kb.query(&names, &[]).iter().map(|i| &*i.id).collect();
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
            k.query(&["Cars".to_string()], &[]).iter().map(|i| i.id.to_string()).collect()
        };
        assert_eq!(ids(&kb), vec!["car1", "car2"]);
        assert_eq!(ids(&grown), vec!["car1", "car2", "car3"]);
    }

    #[test]
    fn query_returns_id_order_with_ties_in_insertion_order() {
        let mut kb = KnowledgeBase::new("s");
        for (id, class, n) in [("b", "C", 0.0), ("a", "D", 1.0), ("b", "D", 2.0), ("a", "C", 3.0)] {
            kb.add(Instance::new(id, class).with("N", Value::Num(n)));
        }
        let got: Vec<(&str, f64)> = kb
            .query(&["D".to_string(), "C".to_string()], &[])
            .iter()
            .map(|i| (&*i.id, i.attrs["N"].as_num().unwrap()))
            .collect();
        assert_eq!(got, vec![("a", 1.0), ("a", 3.0), ("b", 0.0), ("b", 2.0)]);
        // insertion order is still what `instances` shows
        let ids: Vec<&str> = kb.instances().iter().map(|i| &*i.id).collect();
        assert_eq!(ids, vec!["b", "a", "b", "a"]);
    }

    #[test]
    fn clones_carry_the_rank_and_add_drops_it() {
        let kb = kb();
        kb.query(&["Cars".to_string()], &[]);
        let mut grown = kb.clone();
        let shared = |k: &KnowledgeBase| k.id_rank.get().map(|r| r.as_ptr());
        assert!(shared(&grown).is_some());
        assert_eq!(shared(&grown), shared(&kb));
        grown.add(Instance::new("a0", "Cars"));
        assert!(grown.id_rank.get().is_none());
        let ids: Vec<&str> =
            grown.query(&["Cars".to_string()], &[]).iter().map(|i| &*i.id).collect();
        assert_eq!(ids, vec!["a0", "car1", "car2"]);
    }

    #[test]
    fn instances_of_a_class_share_its_string() {
        let kb = kb();
        let cars: Vec<&Instance> = kb.instances().iter().filter(|i| &*i.class == "Cars").collect();
        assert_eq!(cars.len(), 2);
        assert!(Arc::ptr_eq(&cars[0].class, &cars[1].class));
        assert!(Arc::ptr_eq(&cars[0].class, kb.by_class.get_key_value("Cars").unwrap().0));
    }

    #[test]
    fn empty_class_list_matches_nothing() {
        let kb = kb();
        assert!(kb.query(&[], &[]).is_empty());
    }
}
