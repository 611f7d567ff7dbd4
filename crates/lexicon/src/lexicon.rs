//! The lexicon: synsets plus hypernym links, with WordNet-style queries.

use std::collections::{HashMap, HashSet, VecDeque};

use onion_graph::LabelEquiv;

use crate::normalize::normalize;
use crate::synset::{Synset, SynsetId};

/// A semantic lexicon: synonym sets connected by hypernym ("is a kind
/// of") links, queried through normalised words.
///
/// This is the reproduction's WordNet stand-in (see crate docs). The API
/// surface is exactly what SKAT-style matchers need:
///
/// * [`Lexicon::are_synonyms`] — share a synset?
/// * [`Lexicon::is_hypernym_of`] — transitive hypernymy between words;
/// * [`Lexicon::synonyms_of`] — expansion for candidate generation.
#[derive(Debug, Default, Clone)]
pub struct Lexicon {
    synsets: Vec<Synset>,
    /// normalised word → synsets containing it
    index: HashMap<String, Vec<SynsetId>>,
    /// hyponym synset → hypernym synsets (direct)
    hypernyms: HashMap<SynsetId, Vec<SynsetId>>,
}

impl Lexicon {
    /// Creates an empty lexicon.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of synsets.
    pub fn synset_count(&self) -> usize {
        self.synsets.len()
    }

    /// Number of distinct indexed words.
    pub fn word_count(&self) -> usize {
        self.index.len()
    }

    /// Adds a synset from raw (unnormalised) words; returns its id.
    /// Duplicate words within the synset are deduplicated after
    /// normalisation; empty normalisations are dropped.
    pub fn add_synset<I, S>(&mut self, words: I, gloss: Option<&str>) -> SynsetId
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut norm: Vec<String> =
            words.into_iter().map(|w| normalize(w.as_ref())).filter(|w| !w.is_empty()).collect();
        norm.sort();
        norm.dedup();
        let id = SynsetId(self.synsets.len() as u32);
        for w in &norm {
            self.index.entry(w.clone()).or_default().push(id);
        }
        self.synsets.push(Synset::new(norm, gloss.map(str::to_string)));
        id
    }

    /// Declares `hypo`'s meaning to be a kind of `hyper`'s meaning.
    pub fn add_hypernym(&mut self, hypo: SynsetId, hyper: SynsetId) {
        let entry = self.hypernyms.entry(hypo).or_default();
        if !entry.contains(&hyper) {
            entry.push(hyper);
        }
    }

    /// The synset ids containing the normalised form of `word`.
    pub fn synsets_of(&self, word: &str) -> &[SynsetId] {
        self.index.get(&normalize(word)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The synset value for an id.
    pub fn synset(&self, id: SynsetId) -> &Synset {
        &self.synsets[id.index()]
    }

    /// True if the lexicon knows the word at all.
    pub fn contains(&self, word: &str) -> bool {
        !self.synsets_of(word).is_empty()
    }

    /// All synonyms of `word` (members of any synset containing it,
    /// excluding the normalised word itself), deduplicated and sorted.
    pub fn synonyms_of(&self, word: &str) -> Vec<&str> {
        let me = normalize(word);
        let mut out: Vec<&str> = self
            .synsets_of(word)
            .iter()
            .flat_map(|&s| self.synset(s).words.iter())
            .map(String::as_str)
            .filter(|w| *w != me)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Do two raw labels share a synset (after normalisation)?
    /// Identical normalised forms count as synonymous.
    pub fn are_synonyms(&self, a: &str, b: &str) -> bool {
        let na = normalize(a);
        let nb = normalize(b);
        if na == nb && !na.is_empty() {
            return true;
        }
        let sa = self.synsets_of(a);
        if sa.is_empty() {
            return false;
        }
        let sb: HashSet<SynsetId> = self.synsets_of(b).iter().copied().collect();
        sa.iter().any(|s| sb.contains(s))
    }

    /// Direct hypernym synsets of `s`.
    pub fn direct_hypernyms(&self, s: SynsetId) -> &[SynsetId] {
        self.hypernyms.get(&s).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All hypernym synsets of `s`, transitively (excluding `s` unless
    /// the hierarchy is cyclic).
    pub fn all_hypernyms(&self, s: SynsetId) -> HashSet<SynsetId> {
        let mut seen = HashSet::new();
        let mut q = VecDeque::new();
        q.push_back(s);
        while let Some(cur) = q.pop_front() {
            for &h in self.direct_hypernyms(cur) {
                if seen.insert(h) {
                    q.push_back(h);
                }
            }
        }
        seen
    }

    /// Is some meaning of `hyper` a (transitive) hypernym of some meaning
    /// of `hypo`? E.g. `is_hypernym_of("vehicle", "car")`.
    pub fn is_hypernym_of(&self, hyper: &str, hypo: &str) -> bool {
        let hyper_sets: HashSet<SynsetId> = self.synsets_of(hyper).iter().copied().collect();
        if hyper_sets.is_empty() {
            return false;
        }
        self.synsets_of(hypo)
            .iter()
            .any(|&s| self.all_hypernyms(s).iter().any(|h| hyper_sets.contains(h)))
    }

    /// Shortest hypernym-path length between any meanings of two words
    /// in the (undirected) hypernym graph; `None` if unconnected or
    /// unknown. Used as a semantic-distance signal by matchers.
    pub fn hypernym_distance(&self, a: &str, b: &str) -> Option<usize> {
        let sa = self.synsets_of(a);
        let sb: HashSet<SynsetId> = self.synsets_of(b).iter().copied().collect();
        if sa.is_empty() || sb.is_empty() {
            return None;
        }
        if sa.iter().any(|s| sb.contains(s)) {
            return Some(0);
        }
        // undirected BFS over hypernym links
        let mut up: HashMap<SynsetId, Vec<SynsetId>> = HashMap::new();
        for (&hypo, hypers) in &self.hypernyms {
            for &h in hypers {
                up.entry(hypo).or_default().push(h);
                up.entry(h).or_default().push(hypo);
            }
        }
        let mut dist: HashMap<SynsetId, usize> = HashMap::new();
        let mut q = VecDeque::new();
        for &s in sa {
            dist.insert(s, 0);
            q.push_back(s);
        }
        while let Some(cur) = q.pop_front() {
            let d = dist[&cur];
            if let Some(ns) = up.get(&cur) {
                for &n in ns {
                    if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(n) {
                        if sb.contains(&n) {
                            return Some(d + 1);
                        }
                        e.insert(d + 1);
                        q.push_back(n);
                    }
                }
            }
        }
        None
    }
}

/// [`LabelEquiv`] adapter: node labels match when they are synonyms in
/// the lexicon — the §3 fuzzy-matching relaxation. Edge labels stay
/// strict.
#[derive(Debug, Clone)]
pub struct SynonymEquiv<'l> {
    lexicon: &'l Lexicon,
}

impl<'l> SynonymEquiv<'l> {
    /// Wraps a lexicon for use in the pattern matcher.
    pub fn new(lexicon: &'l Lexicon) -> Self {
        SynonymEquiv { lexicon }
    }
}

impl LabelEquiv for SynonymEquiv<'_> {
    fn node_equiv(&self, pattern_label: &str, graph_label: &str) -> bool {
        pattern_label == graph_label || self.lexicon.are_synonyms(pattern_label, graph_label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini() -> Lexicon {
        let mut l = Lexicon::new();
        let car = l.add_synset(["car", "automobile", "auto"], Some("a motor vehicle"));
        let vehicle = l.add_synset(["vehicle", "conveyance"], None);
        let truck = l.add_synset(["truck", "lorry"], None);
        l.add_hypernym(car, vehicle);
        l.add_hypernym(truck, vehicle);
        l
    }

    #[test]
    fn synonyms_share_synset() {
        let l = mini();
        assert!(l.are_synonyms("car", "automobile"));
        assert!(l.are_synonyms("Truck", "lorry"), "normalisation applies");
        assert!(!l.are_synonyms("car", "truck"));
        assert!(!l.are_synonyms("car", "unknown"));
    }

    #[test]
    fn identical_normalised_labels_are_synonyms() {
        let l = Lexicon::new();
        assert!(l.are_synonyms("Trucks", "truck"));
        assert!(!l.are_synonyms("", ""));
    }

    #[test]
    fn synonym_seeding_finds_renamed_nodes_through_the_index() {
        // no node is labelled "car": the seed's exact-label lookup is
        // empty and the node scan finds the synonym
        let l = mini();
        let mut g = onion_graph::OntGraph::new("t");
        g.ensure_edge_by_labels("Automobile", "SubclassOf", "Conveyance").unwrap();
        let mut p = onion_graph::Pattern::new();
        let a = p.node("car");
        let v = p.node("vehicle");
        p.edge(a, "SubclassOf", v);
        let ms = onion_graph::Matcher::with_equiv(&g, SynonymEquiv::new(&l)).find_all(&p).unwrap();
        assert_eq!(ms.len(), 1);
        assert_eq!(g.node_label(ms[0].nodes[0]), Some("Automobile"));
    }

    #[test]
    fn synonyms_of_excludes_self() {
        let l = mini();
        let syns = l.synonyms_of("car");
        assert_eq!(syns, vec!["auto", "automobile"]);
        assert!(l.synonyms_of("unknown").is_empty());
    }

    #[test]
    fn hypernym_queries() {
        let l = mini();
        assert!(l.is_hypernym_of("vehicle", "car"));
        assert!(l.is_hypernym_of("conveyance", "lorry"), "via synonyms both ends");
        assert!(!l.is_hypernym_of("car", "vehicle"), "direction matters");
        assert!(!l.is_hypernym_of("car", "truck"));
    }

    #[test]
    fn transitive_hypernyms() {
        let mut l = Lexicon::new();
        let suv = l.add_synset(["suv"], None);
        let car = l.add_synset(["car"], None);
        let vehicle = l.add_synset(["vehicle"], None);
        l.add_hypernym(suv, car);
        l.add_hypernym(car, vehicle);
        assert!(l.is_hypernym_of("vehicle", "suv"));
        assert_eq!(l.all_hypernyms(suv).len(), 2);
    }

    #[test]
    fn hypernym_distance_levels() {
        let l = mini();
        assert_eq!(l.hypernym_distance("car", "automobile"), Some(0));
        assert_eq!(l.hypernym_distance("car", "vehicle"), Some(1));
        assert_eq!(l.hypernym_distance("car", "truck"), Some(2), "siblings via parent");
        assert_eq!(l.hypernym_distance("car", "zebra"), None);
    }

    #[test]
    fn add_synset_dedups_and_normalises() {
        let mut l = Lexicon::new();
        let id = l.add_synset(["Cars", "car", "CAR", ""], None);
        assert_eq!(l.synset(id).words, vec!["car"]);
        assert_eq!(l.word_count(), 1);
    }

    #[test]
    fn duplicate_hypernym_ignored() {
        let mut l = Lexicon::new();
        let a = l.add_synset(["a"], None);
        let b = l.add_synset(["b"], None);
        l.add_hypernym(a, b);
        l.add_hypernym(a, b);
        assert_eq!(l.direct_hypernyms(a).len(), 1);
    }

    #[test]
    fn synonym_equiv_plugs_into_matcher() {
        use onion_graph::{Matcher, OntGraph, Pattern};
        let l = mini();
        let mut g = OntGraph::new("t");
        g.ensure_edge_by_labels("Car", "SubclassOf", "Transportation").unwrap();
        let mut p = Pattern::new();
        let a = p.node("Automobile"); // synonym of Car
        let b = p.node("Transportation");
        p.edge(a, "SubclassOf", b);
        let m = Matcher::with_equiv(&g, SynonymEquiv::new(&l));
        assert!(m.matches(&p).unwrap());
    }

    #[test]
    fn polysemy_multiple_synsets() {
        let mut l = Lexicon::new();
        l.add_synset(["bank", "riverbank"], None);
        l.add_synset(["bank", "financial institution"], None);
        assert_eq!(l.synsets_of("bank").len(), 2);
        assert!(l.are_synonyms("bank", "riverbank"));
        assert!(l.are_synonyms("bank", "financial institution"));
        // but the two meanings are not each other's synonyms
        assert!(!l.are_synonyms("riverbank", "financial institution"));
    }
}
