//! Relation-property declarations.
//!
//! §2.5: "The ontologies are expected to have rules that define the
//! properties of each relationship, e.g., we will have rules that
//! indicate the transitive nature of the `SubclassOf` relationship.
//! These rules are used by the articulation generator and the inference
//! engine while generating the articulation and also while answering
//! end-user queries."

use std::collections::BTreeMap;

/// Logical properties of one relationship (edge label).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelationProperties {
    /// `r(a,b) ∧ r(b,c) → r(a,c)`.
    pub transitive: bool,
    /// `r(a,b) → r(b,a)`.
    pub symmetric: bool,
    /// `r(a,a)` for every term (informational; engines skip reflexive
    /// loops as they carry no information).
    pub reflexive: bool,
    /// Name of the inverse relationship, if declared (`AttributeOf` /
    /// `HasAttribute`).
    pub inverse_of: Option<String>,
    /// Whether an `r` edge entails a `SemanticImplication` edge — true
    /// for `SubclassOf` and `InstanceOf` in ONION's semantics.
    pub implies_semantic: bool,
}

impl RelationProperties {
    /// A plain relation with no special properties.
    pub fn none() -> Self {
        Self::default()
    }

    /// Marks transitive.
    pub fn transitive(mut self) -> Self {
        self.transitive = true;
        self
    }

    /// Marks symmetric.
    pub fn symmetric(mut self) -> Self {
        self.symmetric = true;
        self
    }

    /// Marks reflexive.
    pub fn reflexive(mut self) -> Self {
        self.reflexive = true;
        self
    }

    /// Declares the inverse relation name.
    pub fn inverse(mut self, name: &str) -> Self {
        self.inverse_of = Some(name.to_string());
        self
    }

    /// Declares that the relation entails semantic implication.
    pub fn semantic(mut self) -> Self {
        self.implies_semantic = true;
        self
    }
}

/// A registry of relation labels and their properties.
///
/// Stored in a `BTreeMap` so iteration (and therefore generated Horn
/// programs) is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelationRegistry {
    relations: BTreeMap<String, RelationProperties>,
}

impl RelationRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The ONION defaults for the paper's four canonical relationships:
    ///
    /// * `SubclassOf` — transitive, semantic;
    /// * `InstanceOf` — semantic (not transitive: an instance of a class
    ///   is not an instance of instances);
    /// * `AttributeOf` — no closure properties;
    /// * `SI` (semantic implication) — transitive.
    pub fn onion_default() -> Self {
        let mut r = Self::new();
        r.declare("SubclassOf", RelationProperties::none().transitive().semantic());
        r.declare("InstanceOf", RelationProperties::none().semantic());
        r.declare("AttributeOf", RelationProperties::none());
        r.declare("SI", RelationProperties::none().transitive());
        r
    }

    /// Declares (or replaces) a relation.
    pub fn declare(&mut self, name: &str, props: RelationProperties) {
        self.relations.insert(name.to_string(), props);
    }

    /// Looks up a relation's properties.
    pub fn get(&self, name: &str) -> Option<&RelationProperties> {
        self.relations.get(name)
    }

    /// True if the relation is declared transitive.
    pub fn is_transitive(&self, name: &str) -> bool {
        self.get(name).map(|p| p.transitive).unwrap_or(false)
    }

    /// Number of declared relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True if no relations are declared.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Iterates `(name, properties)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &RelationProperties)> {
        self.relations.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let p = RelationProperties::none()
            .transitive()
            .symmetric()
            .reflexive()
            .inverse("inv")
            .semantic();
        assert!(p.transitive && p.symmetric && p.reflexive && p.implies_semantic);
        assert_eq!(p.inverse_of.as_deref(), Some("inv"));
    }

    #[test]
    fn onion_defaults() {
        let r = RelationRegistry::onion_default();
        assert!(r.is_transitive("SubclassOf"));
        assert!(!r.is_transitive("AttributeOf"));
        assert!(r.get("InstanceOf").unwrap().implies_semantic);
        assert!(!r.get("InstanceOf").unwrap().transitive);
        assert!(r.is_transitive("SI"));
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn unknown_relations_default_to_plain() {
        let r = RelationRegistry::onion_default();
        assert!(!r.is_transitive("drives"));
        assert!(r.get("drives").is_none());
    }

    #[test]
    fn declare_replaces() {
        let mut r = RelationRegistry::new();
        r.declare("rel", RelationProperties::none());
        r.declare("rel", RelationProperties::none().transitive());
        assert!(r.is_transitive("rel"));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut r = RelationRegistry::new();
        r.declare("zeta", RelationProperties::none());
        r.declare("alpha", RelationProperties::none());
        let names: Vec<&str> = r.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
