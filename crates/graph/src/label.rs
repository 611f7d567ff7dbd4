//! String interning for node and edge labels.
//!
//! The paper's label functions `λ` (nodes) and `δ` (edges) map into "the
//! set of strings (from all lexicons)" (§3). Labels recur heavily — every
//! `SubclassOf` edge shares one label — so each [`crate::OntGraph`] interns
//! its labels and stores compact [`LabelId`]s. Hot paths (pattern matching,
//! closure computation) compare `u32` ids; strings are resolved only at API
//! boundaries.

use std::fmt;
use std::sync::Arc;

use crate::hash::FxHashMap;

/// Compact identifier for an interned label within one [`Interner`].
///
/// Ids are dense, starting at zero, and valid only for the interner that
/// produced them. Cross-graph operations translate through the string form.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelId(pub(crate) u32);

impl LabelId {
    /// The raw index value.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for LabelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// An append-only string interner.
///
/// Each label is stored once, as one `Arc<str>` shared by the id vector
/// and the lookup map, so cloning an interner (a graph clone) copies two
/// tables of pointers and shares every label's bytes. The interner
/// never removes entries: label churn in ontologies is low and
/// tombstoned graph elements may still reference their labels for
/// journal replay.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    strings: Vec<Arc<str>>,
    ids: FxHashMap<Arc<str>, LabelId>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning the existing id if present.
    pub fn intern(&mut self, s: &str) -> LabelId {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = LabelId(self.strings.len() as u32);
        let shared: Arc<str> = s.into();
        self.strings.push(Arc::clone(&shared));
        self.ids.insert(shared, id);
        id
    }

    /// Looks up `s` without inserting.
    pub fn get(&self, s: &str) -> Option<LabelId> {
        self.ids.get(s).copied()
    }

    /// Resolves an id back to its string.
    ///
    /// # Panics
    /// Panics if `id` was produced by a different interner and is out of
    /// range; ids are never invalidated by this interner itself.
    pub fn resolve(&self, id: LabelId) -> &str {
        &self.strings[id.index()]
    }

    /// The id whose [`LabelId::index`] is `index`, if this interner has
    /// handed it out: the checked way back from a raw index that a
    /// caller stored in place of the id.
    pub fn id_at(&self, index: usize) -> Option<LabelId> {
        (index < self.strings.len()).then_some(LabelId(index as u32))
    }

    /// Number of distinct labels interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterates `(id, label)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (LabelId, &str)> {
        self.strings.iter().enumerate().map(|(i, s)| (LabelId(i as u32), s.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("Car");
        let b = i.intern("Car");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_ids() {
        let mut i = Interner::new();
        let a = i.intern("Car");
        let b = i.intern("car");
        assert_ne!(a, b, "interning is case-sensitive");
        assert_eq!(i.resolve(a), "Car");
        assert_eq!(i.resolve(b), "car");
    }

    #[test]
    fn get_does_not_insert() {
        let mut i = Interner::new();
        assert!(i.get("Vehicle").is_none());
        i.intern("Vehicle");
        assert!(i.get("Vehicle").is_some());
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn iter_preserves_insertion_order() {
        let mut i = Interner::new();
        i.intern("a");
        i.intern("b");
        i.intern("c");
        let labels: Vec<&str> = i.iter().map(|(_, s)| s).collect();
        assert_eq!(labels, vec!["a", "b", "c"]);
    }

    #[test]
    fn ids_are_dense_from_zero() {
        let mut i = Interner::new();
        assert_eq!(i.intern("x").index(), 0);
        assert_eq!(i.intern("y").index(), 1);
        assert_eq!(i.intern("x").index(), 0);
    }

    #[test]
    fn id_at_checks_the_range() {
        let mut i = Interner::new();
        assert_eq!(i.id_at(0), None);
        let y = i.intern("y");
        assert_eq!(i.id_at(y.index()), Some(y));
        assert_eq!(i.id_at(1), None);
    }

    #[test]
    fn empty_and_len() {
        let mut i = Interner::new();
        assert!(i.is_empty());
        i.intern("q");
        assert!(!i.is_empty());
        assert_eq!(i.len(), 1);
    }
}
