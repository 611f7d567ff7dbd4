//! The iterative articulation engine (Fig. 1, §2.4).
//!
//! "The articulation generator takes the articulation rules and
//! generates the articulation … which is then forwarded to the expert
//! for confirmation. … If the expert suggests modifications or new
//! rules, they are forwarded to SKAT for further generation of new
//! articulation rules. This process is iteratively repeated until the
//! expert is satisfied with the generated articulation."

use onion_ontology::Ontology;
use onion_rules::RuleSet;

use crate::articulation::Articulation;
use crate::expert::{Expert, Verdict};
use crate::generator::{ArticulationGenerator, GeneratorConfig, GeneratorStats};
use crate::skat::MatcherPipeline;
use crate::Result;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Maximum propose/confirm rounds (the expert can stop earlier by
    /// rejecting everything new).
    pub max_rounds: usize,
    /// Generator settings.
    pub generator: GeneratorConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { max_rounds: 4, generator: GeneratorConfig::default() }
    }
}

/// Outcome counters for one engine run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineReport {
    /// Propose/confirm rounds executed.
    pub rounds: usize,
    /// Candidates shown to the expert (across rounds).
    pub proposed: usize,
    /// Accepted as-is.
    pub accepted: usize,
    /// Rejected.
    pub rejected: usize,
    /// Accepted after expert modification.
    pub modified: usize,
    /// Rules volunteered by the expert.
    pub supplied: usize,
    /// Counters of the final generation pass (inference expansion work,
    /// skipped dead nodes, derived bridges).
    pub generator: GeneratorStats,
}

/// The propose → confirm → generate loop.
pub struct ArticulationEngine {
    pipeline: MatcherPipeline,
    config: EngineConfig,
}

impl ArticulationEngine {
    /// Engine over a matcher pipeline with default config.
    pub fn new(pipeline: MatcherPipeline) -> Self {
        ArticulationEngine { pipeline, config: EngineConfig::default() }
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs the loop between two sources, starting from `seed_rules`
    /// (expert rules supplied up front; may be empty). Returns the final
    /// articulation and a report.
    ///
    /// One proposal session serves every round: matchers that ignore the
    /// confirmed rules (see
    /// [`RuleMatcher::reads_confirmed_rules`](crate::RuleMatcher::reads_confirmed_rules))
    /// run once, the others once per round. Each round's proposal and
    /// merge record one `skat_propose` span.
    pub fn run(
        &self,
        o1: &Ontology,
        o2: &Ontology,
        expert: &mut dyn Expert,
        seed_rules: RuleSet,
    ) -> Result<(Articulation, EngineReport)> {
        let mut rules = seed_rules;
        let mut report = EngineReport::default();
        let mut session = self.pipeline.session(o1, o2);

        for _ in 0..self.config.max_rounds {
            report.rounds += 1;
            let candidates = {
                let _span = onion_obs::span!("skat_propose");
                session.propose(&rules)
            };
            let mut new_this_round = 0usize;
            for cand in candidates {
                report.proposed += 1;
                match expert.review(&cand) {
                    Verdict::Accept => {
                        if rules.push(cand.rule) {
                            report.accepted += 1;
                            new_this_round += 1;
                        }
                    }
                    Verdict::Reject => report.rejected += 1,
                    Verdict::Modify(rule) => {
                        if rules.push(rule) {
                            report.modified += 1;
                            new_this_round += 1;
                        }
                    }
                }
            }
            for rule in expert.supply_rules() {
                if rules.push(rule) {
                    report.supplied += 1;
                    new_this_round += 1;
                }
            }
            if new_this_round == 0 {
                break; // fixpoint: the expert is satisfied
            }
        }

        let generator = ArticulationGenerator::with_config(self.config.generator.clone());
        let (articulation, gen_stats) = generator.generate_with_stats(&rules, &[o1, o2])?;
        report.generator = gen_stats;
        Ok((articulation, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expert::{AcceptAll, OracleExpert, ScriptedExpert, ThresholdExpert};
    use crate::skat::{ExactLabelMatcher, StructuralMatcher};
    use onion_lexicon::builtin::transport_lexicon;
    use onion_ontology::examples::{carrier, factory};
    use onion_rules::{parse_rules, ArticulationRule, Term};

    fn engine() -> ArticulationEngine {
        ArticulationEngine::new(MatcherPipeline::standard(transport_lexicon()))
    }

    #[test]
    fn accept_all_reaches_fixpoint() {
        let c = carrier();
        let f = factory();
        let (art, report) = engine().run(&c, &f, &mut AcceptAll, RuleSet::new()).unwrap();
        assert!(report.accepted > 0);
        assert!(report.rounds >= 2, "second round confirms fixpoint");
        assert!(art.bridges.len() >= report.accepted, "every rule yields bridges");
        assert_eq!(report.modified, 0);
    }

    #[test]
    fn threshold_expert_accepts_fewer_than_accept_all() {
        let c = carrier();
        let f = factory();
        let (_, all) = engine().run(&c, &f, &mut AcceptAll, RuleSet::new()).unwrap();
        let (_, picky) =
            engine().run(&c, &f, &mut ThresholdExpert::new(0.95), RuleSet::new()).unwrap();
        assert!(picky.accepted < all.accepted);
        assert!(picky.rejected > 0);
    }

    #[test]
    fn structural_matcher_needs_second_round() {
        // pipeline of exact + structural only: structural finds nothing in
        // round 1, grows from round-1 acceptances in round 2
        let c = carrier();
        let f = factory();
        let pipeline =
            MatcherPipeline::new().with(ExactLabelMatcher).with(StructuralMatcher::default());
        let eng = ArticulationEngine::new(pipeline);
        let mut seed = RuleSet::new();
        seed.push(onion_rules::parser::parse_rule("carrier.Cars => factory.Vehicle").unwrap());
        let (_, report) = eng.run(&c, &f, &mut AcceptAll, seed).unwrap();
        assert!(report.rounds >= 2);
        assert!(report.accepted > 0);
    }

    #[test]
    fn scripted_expert_modification_lands_in_rules() {
        let c = carrier();
        let f = factory();
        let replacement = ArticulationRule::term_implies(
            Term::qualified("carrier", "Cars"),
            Term::qualified("transport", "Automobiles"),
        );
        let mut expert = ScriptedExpert::new(vec![Verdict::Modify(replacement.clone())]);
        let (art, report) = engine().run(&c, &f, &mut expert, RuleSet::new()).unwrap();
        assert_eq!(report.modified, 1);
        assert!(art.rules.rules.contains(&replacement));
        assert!(art.ontology.defines("Automobiles"));
    }

    #[test]
    fn expert_supplied_rules_included() {
        let c = carrier();
        let f = factory();
        let supplied =
            parse_rules("PSToEuroFn(): factory.PoundSterling => transport.Euro\n").unwrap().rules;
        let mut expert = ScriptedExpert::new(vec![]).with_supplied_rules(supplied);
        let (art, report) = engine().run(&c, &f, &mut expert, RuleSet::new()).unwrap();
        assert_eq!(report.supplied, 1);
        assert!(art.ontology.defines("Euro"));
    }

    #[test]
    fn oracle_expert_gives_exact_truth() {
        let c = carrier();
        let f = factory();
        let mut oracle = OracleExpert::new([
            ("carrier.Trucks".to_string(), "factory.Truck".to_string()),
            ("carrier.Transportation".to_string(), "factory.Transportation".to_string()),
        ]);
        let (art, report) = engine().run(&c, &f, &mut oracle, RuleSet::new()).unwrap();
        assert_eq!(report.accepted, 2, "exactly the planted truth accepted");
        assert!(art.rules.len() == 2);
    }

    #[test]
    fn max_rounds_caps_iteration() {
        let c = carrier();
        let f = factory();
        let cfg = EngineConfig { max_rounds: 1, ..Default::default() };
        let (_, report) =
            engine().with_config(cfg).run(&c, &f, &mut AcceptAll, RuleSet::new()).unwrap();
        assert_eq!(report.rounds, 1);
    }

    #[test]
    fn seed_rules_survive_into_articulation() {
        let c = carrier();
        let f = factory();
        let seed = onion_ontology::examples::fig2_rules();
        let seed_len = seed.len();
        let (art, _) = engine().run(&c, &f, &mut ThresholdExpert::new(2.0), seed).unwrap();
        // impossible threshold: nothing new accepted, seeds still there
        assert_eq!(art.rules.len(), seed_len);
    }
}
