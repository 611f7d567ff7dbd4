//! An ontology's labels grouped by normalised form.
//!
//! The lexical matchers pair labels that [`normalize`] alike (`Trucks`
//! with `truck`). Without an index each proposal re-normalises every
//! label of the peer ontology; with one, a proposal normalises only its
//! own labels and probes the peer's index — build once, probe per lookup,
//! as an inverted index does. [`Ontology::label_index`] builds it on
//! first use and keeps it until the graph changes.
//!
//! [`Ontology::label_index`]: crate::Ontology::label_index

use onion_graph::normalize::normalize;
use onion_graph::OntGraph;

/// The live node labels of a graph, grouped by [`normalize`]d form.
///
/// Forms are kept in sorted order and each form's labels in label order,
/// so iterating the index is deterministic and a lookup is a binary
/// search over the distinct forms.
#[derive(Debug)]
pub struct LabelIndex {
    /// The distinct normalised forms, sorted, each with the end of its
    /// group in `labels` (the group starts where the previous one ends).
    forms: Vec<(Box<str>, usize)>,
    /// Every live label, grouped by form; each group in label order.
    labels: Vec<Box<str>>,
}

impl LabelIndex {
    /// Indexes the live node labels of `graph`: one [`normalize`] per
    /// label and one sort.
    pub(crate) fn build(graph: &OntGraph) -> Self {
        let mut pairs: Vec<(String, &str)> =
            graph.nodes().map(|n| (normalize(n.label), n.label)).collect();
        pairs.sort_unstable();
        let mut forms: Vec<(Box<str>, usize)> = Vec::new();
        let mut labels = Vec::with_capacity(pairs.len());
        for (form, label) in pairs {
            labels.push(Box::from(label));
            match forms.last_mut() {
                Some((last, end)) if **last == *form => *end = labels.len(),
                _ => forms.push((form.into_boxed_str(), labels.len())),
            }
        }
        LabelIndex { forms, labels }
    }

    /// The labels that normalise to `form`, in label order; empty if none
    /// does. `form` must itself be normalised.
    pub fn labels(&self, form: &str) -> &[Box<str>] {
        match self.forms.binary_search_by(|(f, _)| (**f).cmp(form)) {
            Ok(i) => self.group(i),
            Err(_) => &[],
        }
    }

    /// Each distinct normalised form with its labels, in form order.
    pub fn groups(&self) -> impl Iterator<Item = (&str, &[Box<str>])> + '_ {
        self.forms.iter().enumerate().map(|(i, (form, _))| (&**form, self.group(i)))
    }

    /// The labels of the `i`-th form.
    fn group(&self, i: usize) -> &[Box<str>] {
        let start = if i == 0 { 0 } else { self.forms[i - 1].1 };
        &self.labels[start..self.forms[i].1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(labels: &[&str]) -> OntGraph {
        let mut g = OntGraph::new("g");
        for l in labels {
            g.ensure_node(l).unwrap();
        }
        g
    }

    fn strs(group: &[Box<str>]) -> Vec<&str> {
        group.iter().map(|l| &**l).collect()
    }

    #[test]
    fn groups_variants_in_label_order() {
        let idx = LabelIndex::build(&graph(&["truck", "Trucks", "Car", "TRUCKS", "cars", "Van"]));
        assert_eq!(strs(idx.labels("truck")), vec!["TRUCKS", "Trucks", "truck"]);
        assert_eq!(strs(idx.labels("car")), vec!["Car", "cars"]);
        assert_eq!(strs(idx.labels("van")), vec!["Van"]);
        assert!(idx.labels("Truck").is_empty(), "lookups take normalised forms");
        assert!(idx.labels("lorry").is_empty());
        let forms: Vec<&str> = idx.groups().map(|(f, _)| f).collect();
        assert_eq!(forms, vec!["car", "truck", "van"]);
    }

    #[test]
    fn skips_deleted_nodes() {
        let mut g = graph(&["Car", "cars"]);
        g.delete_node_by_label("cars").unwrap();
        let idx = LabelIndex::build(&g);
        assert_eq!(strs(idx.labels("car")), vec!["Car"]);
        assert_eq!(LabelIndex::build(&OntGraph::new("empty")).groups().count(), 0);
    }
}
