//! Fact-base helpers for inference tests and bench B12.
//!
//! * [`deep_chain_ontology`] builds the saturation-adversarial deep
//!   hierarchy;
//! * [`seed_subclass_facts_strings`] replays the pre-refactor string
//!   seeding path (`format!("{onto}.{label}")` per endpoint) into the
//!   frozen [`mod@reference`] fact base. Its interned counterpart is the
//!   one walk the articulation generator runs,
//!   [`onion_rules::infer::seed_subclass_facts`]; both load one
//!   `subclassof(src, dst)` fact per live `SubclassOf` edge, endpoints
//!   qualified by the ontology name.
//!
//! `interned_and_string_seeding_agree` below asserts the two fact sets
//! are identical; B12 records their build-time gap.

use onion_graph::rel;
use onion_ontology::{Ontology, OntologyBuilder};
use onion_rules::reference;

/// A deep-hierarchy ontology: `chains` disjoint `SubclassOf` chains,
/// each `depth` classes deep, hanging off one shared root —
/// `chains × depth + 1` classes in total, class `c{i}_{j}` being the
/// `j`-th link of chain `i`.
///
/// This is the adversarial shape for saturation: transitive closure
/// over a depth-`d` chain derives `Θ(d²)` facts, and a naive engine
/// re-derives all of them every round while semi-naive's per-round
/// delta shrinks to the frontier. The `seminaive_props` regression
/// test and bench B12's deep tier both build on this, pinning round
/// counts and per-round deltas via [`InferenceStats`]
/// (semi-naive doubles the reachable path length each round, so the
/// fixpoint lands in `O(log depth)` rounds).
///
/// [`InferenceStats`]: onion_rules::InferenceStats
pub fn deep_chain_ontology(name: &str, chains: usize, depth: usize) -> Ontology {
    let mut builder = OntologyBuilder::new(name).class("Root");
    for c in 0..chains {
        let mut parent = "Root".to_string();
        for j in 0..depth {
            let label = format!("c{c}_{j}");
            builder = builder.class_under(&label, &parent);
            parent = label;
        }
    }
    builder.build().expect("deep-chain ontology is consistent by construction")
}

/// Seeds the string-keyed reference fact base the pre-refactor way;
/// returns how many facts were added.
pub fn seed_subclass_facts_strings(onto: &Ontology, fb: &mut reference::FactBase) -> usize {
    let g = onto.graph();
    let Some(sub) = g.label_id(rel::SUBCLASS_OF) else { return 0 };
    let mut added = 0;
    for (_, src, lid, dst) in g.edge_entries() {
        if lid != sub {
            continue;
        }
        let (Some(sl), Some(dl)) = (g.node_label(src), g.node_label(dst)) else { continue };
        let s = format!("{}.{}", g.name(), sl);
        let d = format!("{}.{}", g.name(), dl);
        if fb.add("subclassof", &[&s, &d]) {
            added += 1;
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_ontology, OntologySpec};
    use onion_rules::infer::{seed_subclass_facts, FactBase};
    use onion_rules::AtomTable;

    #[test]
    fn deep_chain_seeds_one_edge_per_class() {
        let onto = deep_chain_ontology("deep", 3, 5);
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        let n = seed_subclass_facts(onto.graph(), &mut atoms, &mut fb);
        assert_eq!(n, 3 * 5, "every non-root class contributes exactly one subclass edge");
    }

    #[test]
    fn interned_and_string_seeding_agree() {
        let onto = generate_ontology(&OntologySpec::sized("seedcheck", 7, 80));
        let mut atoms = AtomTable::new();
        let mut fb = FactBase::new();
        let n1 = seed_subclass_facts(onto.graph(), &mut atoms, &mut fb);
        let mut sref = reference::FactBase::new();
        let n2 = seed_subclass_facts_strings(&onto, &mut sref);
        assert_eq!(n1, n2);
        assert_eq!(fb.len(), sref.len());
        let mut a: Vec<(String, String)> = fb
            .query2(&atoms, "subclassof", None, None)
            .into_iter()
            .map(|(x, y)| (x.to_string(), y.to_string()))
            .collect();
        let mut b: Vec<(String, String)> = sref
            .query2("subclassof", None, None)
            .into_iter()
            .map(|(x, y)| (x.to_string(), y.to_string()))
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "both paths seed the identical fact set");
    }
}
