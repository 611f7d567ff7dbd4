//! Update streams and query workloads.

use onion_articulate::Articulation;
use onion_graph::ops::GraphOp;
use onion_lexicon::generator::pseudo_word;
use onion_ontology::Ontology;
use onion_query::{CmpOp, Query, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for an update stream against one source ontology.
#[derive(Debug, Clone)]
pub struct UpdateSpec {
    /// RNG seed.
    pub seed: u64,
    /// Number of ops to emit.
    pub ops: usize,
    /// Fraction of ops targeting articulation-bridged terms (the
    /// "locality" knob of experiments B1/B8). 0.0 = all updates land in
    /// the ontology's independent region; 1.0 = every update touches the
    /// articulation.
    pub bridged_fraction: f64,
    /// Fraction of ops that are deletions (rest are additions).
    pub delete_fraction: f64,
}

impl Default for UpdateSpec {
    fn default() -> Self {
        UpdateSpec { seed: 42, ops: 100, bridged_fraction: 0.1, delete_fraction: 0.2 }
    }
}

/// Generates a stream of ops against `source`, splitting targets between
/// articulation-bridged terms and independent terms per
/// `spec.bridged_fraction`.
///
/// Additions attach fresh leaf classes under an existing target class;
/// deletions remove previously-added leaves (so the stream is always
/// applicable in order). The ops are **label-addressed** [`GraphOp`]s
/// replayable via `onion_graph::ops::apply_all`.
pub fn update_stream(
    source: &Ontology,
    articulation: &Articulation,
    spec: &UpdateSpec,
) -> Vec<GraphOp> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let bridged: Vec<String> =
        articulation.bridged_terms(source.name()).into_iter().map(str::to_string).collect();
    let all: Vec<String> = source.graph().nodes().map(|n| n.label.to_string()).collect();
    let independent: Vec<String> = all.iter().filter(|l| !bridged.contains(l)).cloned().collect();

    let mut ops = Vec::with_capacity(spec.ops);
    let mut added: Vec<String> = Vec::new();
    for i in 0..spec.ops {
        let delete = !added.is_empty() && rng.gen_bool(spec.delete_fraction.clamp(0.0, 1.0));
        if delete {
            let idx = rng.gen_range(0..added.len());
            let label = added.swap_remove(idx);
            ops.push(GraphOp::node_delete(label));
            continue;
        }
        let target_bridged =
            !bridged.is_empty() && rng.gen_bool(spec.bridged_fraction.clamp(0.0, 1.0));
        let pool = if target_bridged { &bridged } else { &independent };
        let parent = if pool.is_empty() {
            all[rng.gen_range(0..all.len())].clone()
        } else {
            pool[rng.gen_range(0..pool.len())].clone()
        };
        let label = format!("New{}{}", pseudo_word(&mut rng), i);
        ops.push(GraphOp::node_add_with(
            label.clone(),
            vec![("SubclassOf".to_string(), parent)],
            vec![],
        ));
        added.push(label);
    }
    ops
}

/// Generates random queries over the articulation's classes: each picks
/// a class uniformly and optionally adds a numeric condition on a
/// uniform attribute name.
pub fn random_queries(
    articulation: &Articulation,
    attr: &str,
    count: usize,
    seed: u64,
) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let classes: Vec<String> =
        articulation.ontology.graph().nodes().map(|n| n.label.to_string()).collect();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        if classes.is_empty() {
            break;
        }
        let class = &classes[rng.gen_range(0..classes.len())];
        let mut q = Query::all(class).select(attr);
        if rng.gen_bool(0.5) {
            let bound = rng.gen_range(100.0..50_000.0_f64).round();
            q = q.filter(attr, CmpOp::Lt, Value::Num(bound));
        }
        out.push(q);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use onion_articulate::ArticulationGenerator;
    use onion_graph::ops::apply_all;
    use onion_ontology::examples::{carrier, factory, fig2_rules};

    fn setup() -> (Ontology, Articulation) {
        let c = carrier();
        let f = factory();
        let art = ArticulationGenerator::new().generate(&fig2_rules(), &[&c, &f]).unwrap();
        (c, art)
    }

    #[test]
    fn stream_is_deterministic_and_applicable() {
        let (c, art) = setup();
        let spec = UpdateSpec::default();
        let s1 = update_stream(&c, &art, &spec);
        let s2 = update_stream(&c, &art, &spec);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), spec.ops);
        // replays cleanly onto a copy of the source
        let mut g = c.graph().clone();
        apply_all(&mut g, &s1).unwrap();
    }

    #[test]
    fn bridged_fraction_zero_avoids_articulation() {
        let (c, art) = setup();
        let spec = UpdateSpec { bridged_fraction: 0.0, ops: 200, ..Default::default() };
        let ops = update_stream(&c, &art, &spec);
        let (relevant, _) = onion_articulate::maintain::triage(&art, "carrier", &ops);
        assert!(relevant.is_empty(), "{} relevant ops", relevant.len());
    }

    #[test]
    fn bridged_fraction_one_targets_articulation() {
        let (c, art) = setup();
        let spec = UpdateSpec {
            bridged_fraction: 1.0,
            delete_fraction: 0.0,
            ops: 50,
            ..Default::default()
        };
        let ops = update_stream(&c, &art, &spec);
        let (relevant, _) = onion_articulate::maintain::triage(&art, "carrier", &ops);
        assert_eq!(relevant.len(), 50);
    }

    #[test]
    fn deletions_only_remove_added_nodes() {
        let (c, art) = setup();
        let spec = UpdateSpec { delete_fraction: 0.5, ops: 100, ..Default::default() };
        let ops = update_stream(&c, &art, &spec);
        for op in &ops {
            if let GraphOp::NodeDelete { label, .. } = op {
                assert!(label.starts_with("New"), "deletes only touch generated nodes");
            }
        }
    }

    #[test]
    fn queries_target_articulation_classes() {
        let (_, art) = setup();
        let qs = random_queries(&art, "Price", 20, 7);
        assert_eq!(qs.len(), 20);
        for q in &qs {
            assert!(art.ontology.defines(&q.class));
            assert_eq!(q.select, vec!["Price"]);
        }
        // deterministic
        assert_eq!(qs, random_queries(&art, "Price", 20, 7));
    }
}
