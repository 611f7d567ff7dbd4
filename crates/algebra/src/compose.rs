//! n-way composition by articulating articulations (§4.2).
//!
//! "The articulation ontology of two ontologies can be composed with
//! another source ontology to create a second articulation that spans
//! over all three source ontologies. This implies that with the addition
//! of new sources, we do not need to restructure existing ontologies or
//! articulations but can reuse them and create a new articulation with
//! minimal effort."
//!
//! [`compose_all`] folds a source list left to right: articulate the
//! first two, then articulate each further source against the previous
//! articulation ontology. Experiment B7 compares the cost of adding the
//! k-th source this way against re-merging everything globally.

use onion_articulate::{
    Articulation, ArticulationEngine, EngineConfig, EngineReport, Expert, GeneratorConfig,
    MatcherPipeline,
};
use onion_lexicon::Lexicon;
use onion_ontology::Ontology;
use onion_rules::RuleSet;

use crate::Result;

/// The ladder of articulations spanning all composed sources.
#[derive(Debug)]
pub struct Composition {
    /// Articulations, innermost first: `steps[0]` spans sources 0 and 1;
    /// `steps[i]` spans `steps[i-1]`'s ontology and source `i+1`.
    pub steps: Vec<Articulation>,
    /// Per-step engine reports.
    pub reports: Vec<EngineReport>,
}

impl Composition {
    /// The outermost articulation (spans every source).
    pub fn top(&self) -> &Articulation {
        self.steps.last().expect("composition has at least one step")
    }
}

/// Articulates `sources` pairwise left to right with a fresh engine per
/// step (each step gets its own articulation namespace `artN`).
///
/// Requires at least two sources.
pub fn compose_all(
    sources: &[&Ontology],
    lexicon: &Lexicon,
    expert: &mut dyn Expert,
) -> Result<Composition> {
    assert!(sources.len() >= 2, "composition needs at least two sources");
    let mut steps: Vec<Articulation> = Vec::new();
    let mut reports = Vec::new();

    for source in sources.iter().skip(1) {
        let engine = step_engine(steps.len(), lexicon);
        let left_owned;
        let left: &Ontology = if let Some(prev) = steps.last() {
            left_owned = prev.ontology.clone();
            &left_owned
        } else {
            sources[0]
        };
        let (art, report) = engine.run(left, source, expert, RuleSet::new())?;
        steps.push(art);
        reports.push(report);
    }
    Ok(Composition { steps, reports })
}

/// Adds one more source to an existing composition (the incremental
/// path B7 measures): only a single new articulation step is built.
pub fn add_source(
    composition: &mut Composition,
    source: &Ontology,
    lexicon: &Lexicon,
    expert: &mut dyn Expert,
) -> Result<EngineReport> {
    let engine = step_engine(composition.steps.len(), lexicon);
    let left = composition.top().ontology.clone();
    let (art, report) = engine.run(&left, source, expert, RuleSet::new())?;
    composition.steps.push(art);
    composition.reports.push(report.clone());
    Ok(report)
}

fn step_engine(step: usize, lexicon: &Lexicon) -> ArticulationEngine {
    // each step gets its own namespace so qualified terms stay unambiguous
    let generator = GeneratorConfig { art_name: format!("art{}", step + 1), ..Default::default() };
    let config = EngineConfig { max_rounds: 3, generator };
    ArticulationEngine::new(MatcherPipeline::standard(lexicon.clone())).with_config(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use onion_articulate::AcceptAll;
    use onion_lexicon::builtin::transport_lexicon;
    use onion_ontology::examples::{carrier, factory};
    use onion_ontology::OntologyBuilder;

    fn retailer() -> Ontology {
        OntologyBuilder::new("retailer")
            .class_under("Vehicle", "Inventory")
            .class_under("Truck", "Vehicle")
            .attr("Price", "Vehicle")
            .build()
            .unwrap()
    }

    #[test]
    fn compose_three_sources() {
        let c = carrier();
        let f = factory();
        let r = retailer();
        let lex = transport_lexicon();
        let comp = compose_all(&[&c, &f, &r], &lex, &mut AcceptAll).unwrap();
        assert_eq!(comp.steps.len(), 2);
        // namespaces are distinct per step
        assert_eq!(comp.steps[0].name(), "art1");
        assert_eq!(comp.steps[1].name(), "art2");
        // the second step bridges art1 terms to retailer terms
        assert!(comp
            .top()
            .bridges
            .iter()
            .any(|b| b.src.in_ontology("art1") || b.dst.in_ontology("art1")));
        assert!(comp
            .top()
            .bridges
            .iter()
            .any(|b| b.src.in_ontology("retailer") || b.dst.in_ontology("retailer")));
    }

    #[test]
    fn existing_steps_untouched_by_add_source() {
        let c = carrier();
        let f = factory();
        let r = retailer();
        let lex = transport_lexicon();
        let mut comp = compose_all(&[&c, &f], &lex, &mut AcceptAll).unwrap();
        let first = comp.steps[0].bridges.clone();
        let report = add_source(&mut comp, &r, &lex, &mut AcceptAll).unwrap();
        assert!(report.accepted > 0);
        assert_eq!(comp.steps[0].bridges, first, "reuse without restructuring (§4.2)");
        assert_eq!(comp.steps.len(), 2, "one step per added source");
    }

    #[test]
    #[should_panic(expected = "at least two sources")]
    fn compose_needs_two() {
        let c = carrier();
        let lex = transport_lexicon();
        let _ = compose_all(&[&c], &lex, &mut AcceptAll);
    }

    #[test]
    fn semantic_path_spans_all_sources() {
        // carrier.Trucks should connect through art1 and art2 to
        // retailer.Truck in the composed bridge graph
        let c = carrier();
        let f = factory();
        let r = retailer();
        let lex = transport_lexicon();
        let comp = compose_all(&[&c, &f, &r], &lex, &mut AcceptAll).unwrap();
        // build a directed reachability over all bridges
        let mut adj: std::collections::HashMap<String, Vec<String>> = Default::default();
        for art in &comp.steps {
            for b in &art.bridges {
                adj.entry(b.src.to_string()).or_default().push(b.dst.to_string());
                // equivalences give reverse legs already; subclass edges in
                // art ontologies connect the namespaces
            }
            let g = art.ontology.graph();
            for e in g.edges() {
                let s = format!("{}.{}", art.name(), g.node_label(e.src).unwrap());
                let d = format!("{}.{}", art.name(), g.node_label(e.dst).unwrap());
                adj.entry(s).or_default().push(d);
            }
        }
        let mut seen = std::collections::HashSet::new();
        let mut q = std::collections::VecDeque::new();
        q.push_back("carrier.Trucks".to_string());
        let mut reached_retailer = false;
        while let Some(cur) = q.pop_front() {
            if cur.starts_with("retailer.") {
                reached_retailer = true;
                break;
            }
            if let Some(ns) = adj.get(&cur) {
                for n in ns {
                    if seen.insert(n.clone()) {
                        q.push_back(n.clone());
                    }
                }
            }
        }
        assert!(reached_retailer, "carrier.Trucks should reach retailer.* via the ladder");
    }
}
