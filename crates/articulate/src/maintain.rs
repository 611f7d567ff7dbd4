//! Incremental articulation maintenance under source evolution.
//!
//! The paper's scalability argument (§1, §5.3, §6): sources "can be
//! developed and maintained independently. Changes to portions of an
//! ontology that are not articulated with portions of another ontology
//! can be made without effecting the rest of the system." The Difference
//! operator identifies exactly the independent region; here we implement
//! the maintenance procedure that exploits it:
//!
//! 1. **triage** — partition a source's op journal into *relevant* ops
//!    (touching articulation-bridged terms) and *irrelevant* ops; the
//!    irrelevant ones cost `O(#bridged-terms)` set probes and nothing
//!    else;
//! 2. **repair** — for relevant deletions, drop the bridges and rules
//!    that mention deleted terms; for relevant additions, optionally
//!    re-propose candidates scoped to the touched labels.
//!
//! Re-proposal asks each matcher only for candidates that name a touched
//! label ([`MatcherPipeline::propose_touching`]), so with the exact-label
//! matcher a pass costs the triage, a normalisation of the |touched|
//! labels the source still defines and one probe each of the peer's
//! normalised-label index ([`Ontology::label_index`]) — not a proposal
//! over every label of both sources. A peer builds that index once and
//! keeps it while it is unchanged; the edited source's own index is
//! dropped by the edit and never rebuilt here. Matchers without a scoped
//! scan (synonym, similarity, structural) still run their full proposal
//! and filter it
//! ([`RuleMatcher::propose_touching`](crate::skat::RuleMatcher::propose_touching)).
//!
//! Experiment B1 measures this path against the global-merge baseline's
//! full rebuild; experiment B8 sweeps the relevant fraction.

use std::collections::HashSet;

use onion_graph::hash::FxHashSet;
use onion_graph::ops::GraphOp;
use onion_ontology::Ontology;
use onion_rules::{ArticulationRule, RuleSet};

use crate::articulation::Articulation;
use crate::expert::{Expert, Verdict};
use crate::generator::ArticulationGenerator;
use crate::skat::MatcherPipeline;
use crate::Result;

/// Counters for one maintenance pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Ops in the delta.
    pub ops_total: usize,
    /// Ops that touched articulation-relevant terms.
    pub ops_relevant: usize,
    /// Bridges removed by repairs.
    pub bridges_removed: usize,
    /// Rules dropped because their terms disappeared.
    pub rules_dropped: usize,
    /// New rules accepted during scoped re-proposal.
    pub rules_added: usize,
}

/// Partitions `ops` into (relevant, irrelevant) w.r.t. the articulation.
///
/// An op is relevant iff any label it touches is a bridged term of
/// `source_name` — the §5.3 criterion: "If a change to a source
/// ontology … occurs in the difference of O1 with other ontologies, no
/// change needs to occur in any of the articulation ontologies." The
/// probe set is hashed straight from the bridge endpoints, without
/// sorting them as [`Articulation::bridged_terms`] does.
pub fn triage<'o>(
    art: &Articulation,
    source_name: &str,
    ops: &'o [GraphOp],
) -> (Vec<&'o GraphOp>, Vec<&'o GraphOp>) {
    // sized for one endpoint per bridge, so building it never rehashes
    // in the common case of a bridge from the source to another ontology
    let mut bridged: FxHashSet<&str> =
        FxHashSet::with_capacity_and_hasher(art.bridges.len(), Default::default());
    bridged.extend(
        art.bridges
            .iter()
            .flat_map(|b| [&b.src, &b.dst])
            .filter(|t| t.in_ontology(source_name))
            .map(|t| &*t.name),
    );
    ops.iter().partition(|op| op.touched_labels().iter().any(|l| bridged.contains(l)))
}

fn rule_mentions(rule: &ArticulationRule, ontology: &str, name: &str) -> bool {
    rule.terms().iter().any(|t| t.in_ontology(ontology) && *t.name == *name)
}

/// Applies a source delta to the articulation.
///
/// * Irrelevant ops are skipped after triage (the cheap path).
/// * Relevant **deletions** remove bridges touching the deleted term and
///   drop rules mentioning it.
/// * Relevant **additions** (new edges under bridged classes) are
///   handled by `rearticulate`: when a pipeline and expert are given,
///   [`MatcherPipeline::propose_touching`] proposes, against every other
///   source, the candidates that name a touched label of `source_name`;
///   the expert reviews them in order and accepted rules are applied
///   through `generator.apply_rule`. The candidates and their order, and
///   so the expert's calls, equal those of running the whole pipeline
///   and keeping the candidates that name a touched label.
pub fn apply_delta(
    art: &mut Articulation,
    source_name: &str,
    ops: &[GraphOp],
    sources_after: &[&Ontology],
    generator: &ArticulationGenerator,
    mut rearticulate: Option<(&MatcherPipeline, &mut dyn Expert)>,
) -> Result<MaintenanceReport> {
    let mut report = MaintenanceReport { ops_total: ops.len(), ..Default::default() };
    let (relevant, _irrelevant) = triage(art, source_name, ops);
    report.ops_relevant = relevant.len();
    if relevant.is_empty() {
        return Ok(report);
    }

    // --- deletions: retract bridges and rules --------------------------
    let mut touched_labels: HashSet<String> = HashSet::new();
    for op in &relevant {
        match op {
            GraphOp::NodeDelete { label, .. } => {
                // 1. drop every rule mentioning the deleted term, and
                //    retract the bridges only those rules supported
                let dropped: Vec<String> = art
                    .rules
                    .rules
                    .iter()
                    .filter(|r| rule_mentions(r, source_name, label))
                    .map(|r| r.to_string())
                    .collect();
                art.rules.rules.retain(|r| !rule_mentions(r, source_name, label));
                for key in &dropped {
                    report.bridges_removed += art.drop_rule_support(key);
                    report.rules_dropped += 1;
                }
                // 2. bridges touching the term through other rules (e.g.
                //    a conjunction's common-subclass bridge) must go too
                report.bridges_removed += art.remove_bridges_touching(source_name, label);
            }
            GraphOp::EdgeDelete { edges } => {
                // Structural change under bridged terms: inherited
                // articulation structure may be stale. Record labels for
                // scoped re-articulation; bridges themselves key on terms,
                // not edges, so nothing is retracted here.
                for (s, _, d) in edges {
                    touched_labels.insert(s.clone());
                    touched_labels.insert(d.clone());
                }
            }
            GraphOp::NodeAdd { label, out_edges, in_edges } => {
                touched_labels.insert(label.clone());
                touched_labels.extend(out_edges.iter().map(|(_, d)| d.clone()));
                touched_labels.extend(in_edges.iter().map(|(s, _)| s.clone()));
            }
            GraphOp::EdgeAdd { edges } => {
                for (s, _, d) in edges {
                    touched_labels.insert(s.clone());
                    touched_labels.insert(d.clone());
                }
            }
        }
    }

    // --- additions: scoped re-proposal ---------------------------------
    //
    // The changed source must be re-proposed against *every* other
    // source: a >2-source composition (examples/multi_source_compose.rs)
    // can gain a correspondence between the changed source and any of
    // its peers, not just between the first two in `sources_after`.
    if let Some((pipeline, expert)) = rearticulate.as_mut() {
        if !touched_labels.is_empty() {
            let changed = sources_after.iter().copied().find(|o| o.name() == source_name);
            let others = sources_after.iter().copied().filter(|o| o.name() != source_name);
            if let Some(changed) = changed {
                for other in others {
                    let candidates =
                        pipeline.propose_touching(changed, other, &art.rules, &touched_labels);
                    for cand in candidates {
                        let accepted = match expert.review(&cand) {
                            Verdict::Accept => Some(cand.rule.clone()),
                            Verdict::Modify(rule) => Some(rule),
                            Verdict::Reject => None,
                        };
                        if let Some(rule) = accepted {
                            // RuleSet::push dedups, so a candidate seen
                            // against several peers is applied once
                            if art.rules.push(rule.clone()) {
                                generator.apply_rule(&rule, sources_after, art)?;
                                report.rules_added += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(report)
}

/// Full rebuild from retained rules — the expensive fallback an
/// implementation without triage would run on every update (and what the
/// global-merge baseline must do). Used by benches for the contrast.
pub fn rebuild(
    art: &Articulation,
    sources_after: &[&Ontology],
    generator: &ArticulationGenerator,
) -> Result<Articulation> {
    let rules: RuleSet = art.rules.clone();
    generator.generate(&rules, sources_after)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expert::AcceptAll;
    use crate::skat::ExactLabelMatcher;
    use onion_ontology::examples::{carrier, factory};
    use onion_rules::parse_rules;

    fn articulated() -> (Ontology, Ontology, Articulation, ArticulationGenerator) {
        let c = carrier();
        let f = factory();
        let generator = ArticulationGenerator::new();
        let art = generator.generate(&onion_ontology::examples::fig2_rules(), &[&c, &f]).unwrap();
        (c, f, art, generator)
    }

    #[test]
    fn triage_separates_relevant_ops() {
        let (_, _, art, _) = articulated();
        let ops = vec![
            GraphOp::node_add("CompletelyNewThing"),
            GraphOp::edge_add("Cars", "SubclassOf", "Transportation"), // bridged terms
            GraphOp::node_delete("UnrelatedTerm"),
        ];
        let (relevant, irrelevant) = triage(&art, "carrier", &ops);
        assert_eq!(relevant.len(), 1);
        assert_eq!(irrelevant.len(), 2);
    }

    #[test]
    fn irrelevant_delta_is_a_noop() {
        let (mut c, f, mut art, generator) = articulated();
        // grow carrier somewhere unbridged
        c.graph_mut().enable_journal();
        c.subclass("Bicycles", "UnbridgedStuff").unwrap();
        let ops = c.graph_mut().take_journal();
        let before = art.bridges.clone();
        let report = apply_delta(&mut art, "carrier", &ops, &[&c, &f], &generator, None).unwrap();
        assert_eq!(report.ops_relevant, 0);
        assert_eq!(art.bridges, before);
    }

    #[test]
    fn deleting_bridged_term_retracts_bridges_and_rules() {
        let (mut c, f, mut art, generator) = articulated();
        let bridges_before = art.bridges.len();
        let rules_before = art.rules.len();
        assert!(art.is_relevant("carrier", "Trucks"));

        c.graph_mut().enable_journal();
        c.graph_mut().delete_node_by_label("Trucks").unwrap();
        let ops = c.graph_mut().take_journal();
        let report = apply_delta(&mut art, "carrier", &ops, &[&c, &f], &generator, None).unwrap();
        assert!(report.ops_relevant > 0);
        assert!(report.bridges_removed > 0);
        assert!(report.rules_dropped > 0);
        assert!(!art.is_relevant("carrier", "Trucks"));
        assert!(art.bridges.len() < bridges_before);
        assert!(art.rules.len() < rules_before);
        // the repaired articulation still materialises
        assert!(art.unified(&[&c, &f]).is_ok());
    }

    #[test]
    fn addition_near_bridge_triggers_scoped_rearticulation() {
        let (mut c, mut f, mut art, generator) = articulated();
        // both sources gain an identically-labeled term under bridged roots
        c.graph_mut().enable_journal();
        c.subclass("Motorcycle", "Transportation").unwrap();
        let ops_c = c.graph_mut().take_journal();
        f.subclass("Motorcycle", "Vehicle").unwrap();

        let pipeline = MatcherPipeline::new().with(ExactLabelMatcher);
        let mut expert = AcceptAll;
        let report = apply_delta(
            &mut art,
            "carrier",
            &ops_c,
            &[&c, &f],
            &generator,
            Some((&pipeline, &mut expert)),
        )
        .unwrap();
        assert!(report.ops_relevant > 0, "edge to bridged Transportation");
        assert_eq!(report.rules_added, 1);
        assert!(art.is_relevant("carrier", "Motorcycle"));
    }

    #[test]
    fn rearticulation_pairs_changed_source_with_every_other_source() {
        // regression: apply_delta used to re-propose only
        // sources_after[0] against sources_after[1], so in a >2-source
        // composition a change matching a term of the THIRD source was
        // silently ignored
        use onion_ontology::OntologyBuilder;
        let mut a = OntologyBuilder::new("a").class_under("Car", "Root").build().unwrap();
        let b = OntologyBuilder::new("b").class_under("Auto", "Root").build().unwrap();
        let c = OntologyBuilder::new("c").class_under("Lorry", "Root").build().unwrap();
        let rules = parse_rules("a.Car => b.Auto\n").unwrap();
        let generator = ArticulationGenerator::new();
        let mut art = generator.generate(&rules, &[&a, &b, &c]).unwrap();

        // `a` gains Lorry under the bridged Car — a relevant addition
        // whose only exact-label match lives in `c`
        a.graph_mut().enable_journal();
        a.subclass("Lorry", "Car").unwrap();
        let ops = a.graph_mut().take_journal();

        let pipeline = MatcherPipeline::new().with(ExactLabelMatcher);
        let mut expert = AcceptAll;
        let report = apply_delta(
            &mut art,
            "a",
            &ops,
            &[&a, &b, &c],
            &generator,
            Some((&pipeline, &mut expert)),
        )
        .unwrap();
        assert!(report.ops_relevant > 0, "edge to bridged Car is relevant");
        assert_eq!(report.rules_added, 1, "a.Lorry => c.Lorry found against the third source");
        assert!(art.is_relevant("a", "Lorry"));
        assert!(art.is_relevant("c", "Lorry"));
    }

    #[test]
    fn rearticulation_dedups_rules_seen_against_several_peers() {
        // the same candidate proposed against two peers is applied once
        use onion_ontology::OntologyBuilder;
        let mut a = OntologyBuilder::new("a").class_under("Car", "Root").build().unwrap();
        let b = OntologyBuilder::new("b").class_under("Van", "Root").build().unwrap();
        let c = OntologyBuilder::new("c").class_under("Van", "Root").build().unwrap();
        let rules = parse_rules("a.Car => b.Van\na.Car => c.Van\n").unwrap();
        let generator = ArticulationGenerator::new();
        let mut art = generator.generate(&rules, &[&a, &b, &c]).unwrap();

        a.graph_mut().enable_journal();
        a.subclass("Van", "Car").unwrap(); // matches Van in BOTH b and c
        let ops = a.graph_mut().take_journal();

        let pipeline = MatcherPipeline::new().with(ExactLabelMatcher);
        let mut expert = AcceptAll;
        let report = apply_delta(
            &mut art,
            "a",
            &ops,
            &[&a, &b, &c],
            &generator,
            Some((&pipeline, &mut expert)),
        )
        .unwrap();
        // one rule per distinct peer term (a.Van => b.Van, a.Van => c.Van),
        // each applied exactly once
        assert_eq!(report.rules_added, 2);
        let texts: Vec<String> = art.rules.rules.iter().map(|r| r.to_string()).collect();
        let dups = texts.iter().filter(|t| t.contains("a.Van")).count();
        assert_eq!(dups, 2, "{texts:?}");
    }

    #[test]
    fn rebuild_matches_fresh_generation() {
        let (mut c, f, art, generator) = articulated();
        c.subclass("Vans", "Transportation").unwrap();
        let rebuilt = rebuild(&art, &[&c, &f], &generator).unwrap();
        let fresh = generator.generate(&onion_ontology::examples::fig2_rules(), &[&c, &f]).unwrap();
        assert_eq!(rebuilt.bridges, fresh.bridges);
    }

    #[test]
    fn maintenance_report_counts_total_ops() {
        let (c, f, mut art, generator) = articulated();
        let ops = vec![GraphOp::node_add("X"), GraphOp::node_add("Y")];
        let report = apply_delta(&mut art, "carrier", &ops, &[&c, &f], &generator, None).unwrap();
        assert_eq!(report.ops_total, 2);
        let rules_parse_ok = parse_rules("a.X => b.Y").is_ok();
        assert!(rules_parse_ok); // keep parse_rules import exercised
    }
}
