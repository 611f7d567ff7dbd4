//! Conversion (normalisation) functions for functional rules.
//!
//! §4.1 "Functional Rules": "Different ontologies often contain terms
//! that represent the same concept, but are expressed in a different
//! metric space. Normalization functions, that take in a set of input
//! parameters and perform the desired conversion are written in a
//! standard programming language and provided by the expert." The paper's
//! example converts car prices between Dutch Guilders, Pound Sterling and
//! the Euro (`DGToEuroFn`, `PSToEuroFn`, `EuroToPSFn`).
//!
//! [`ConversionRegistry`] holds named converters with optional declared
//! inverses; the query processor uses them "to transform terms to and
//! from the articulation ontology in order to answer queries involving
//! the prices of vehicles".

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::{Result, RuleError};

/// A named scalar conversion function.
#[derive(Clone)]
pub struct Converter {
    name: String,
    inverse_name: Option<String>,
    f: Arc<dyn Fn(f64) -> f64 + Send + Sync>,
}

impl Converter {
    /// Creates a converter.
    pub fn new(
        name: &str,
        inverse_name: Option<&str>,
        f: impl Fn(f64) -> f64 + Send + Sync + 'static,
    ) -> Self {
        Converter {
            name: name.to_string(),
            inverse_name: inverse_name.map(str::to_string),
            f: Arc::new(f),
        }
    }

    /// The converter's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared inverse function name, if any.
    pub fn inverse_name(&self) -> Option<&str> {
        self.inverse_name.as_deref()
    }

    /// Applies the conversion.
    pub fn apply(&self, x: f64) -> f64 {
        (self.f)(x)
    }
}

impl fmt::Debug for Converter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Converter({})", self.name)
    }
}

/// Registry of conversion functions, keyed by name.
///
/// ```
/// let registry = onion_rules::ConversionRegistry::standard();
/// // 2.20371 Dutch Guilders were fixed at exactly 1 Euro
/// let eur = registry.apply("DGToEuroFn", 2.20371).unwrap();
/// assert!((eur - 1.0).abs() < 1e-12);
/// let back = registry.apply_inverse("DGToEuroFn", eur).unwrap();
/// assert!((back - 2.20371).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ConversionRegistry {
    converters: BTreeMap<String, Converter>,
}

impl ConversionRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry used by the paper's running example and the
    /// reproduction's benchmarks: the **fixed euro conversion rates**
    /// (the paper predates floating rates against the euro — the Dutch
    /// guilder was irrevocably fixed at 2.20371 NLG/EUR in 1999) plus a
    /// period-plausible sterling rate and common unit conversions.
    pub fn standard() -> Self {
        let mut r = Self::new();
        // currencies (per 1 EUR)
        const NLG_PER_EUR: f64 = 2.20371;
        const GBP_PER_EUR: f64 = 0.6533; // ~1999 market rate
        r.register_pair("DGToEuroFn", "EuroToDGFn", NLG_PER_EUR);
        r.register_pair("PSToEuroFn", "EuroToPSFn", GBP_PER_EUR);
        // units
        r.register_pair("LbToKgFn", "KgToLbFn", 1.0 / 0.45359237);
        r.register_pair("MiToKmFn", "KmToMiFn", 1.0 / 1.609344);
        r
    }

    /// Registers a converter (replacing any existing one of that name).
    pub fn register(&mut self, c: Converter) {
        self.converters.insert(c.name().to_string(), c);
    }

    /// Registers a linear pair `forward(x) = x / units_per_target` and
    /// its inverse, wired to each other by name.
    ///
    /// `units_per_target` is how many source units one target unit is
    /// worth (e.g. 2.20371 guilders per euro ⇒ `DGToEuroFn(x) = x /
    /// 2.20371`).
    pub fn register_pair(&mut self, forward: &str, backward: &str, units_per_target: f64) {
        let k = units_per_target;
        self.register(Converter::new(forward, Some(backward), move |x| x / k));
        self.register(Converter::new(backward, Some(forward), move |x| x * k));
    }

    /// Looks up a converter.
    pub fn get(&self, name: &str) -> Option<&Converter> {
        self.converters.get(name)
    }

    /// Applies `name` to `x`, erroring if unregistered.
    pub fn apply(&self, name: &str, x: f64) -> Result<f64> {
        self.get(name)
            .map(|c| c.apply(x))
            .ok_or_else(|| RuleError::UnknownFunction(name.to_string()))
    }

    /// Applies the registered inverse of `name` to `x`.
    pub fn apply_inverse(&self, name: &str, x: f64) -> Result<f64> {
        let c = self.get(name).ok_or_else(|| RuleError::UnknownFunction(name.to_string()))?;
        let inv = c
            .inverse_name()
            .ok_or_else(|| RuleError::UnknownFunction(format!("inverse of {name}")))?;
        self.apply(inv, x)
    }

    /// Registered converter names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.converters.keys().map(String::as_str).collect()
    }

    /// Number of converters.
    pub fn len(&self) -> usize {
        self.converters.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.converters.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guilder_euro_fixed_rate() {
        let r = ConversionRegistry::standard();
        let eur = r.apply("DGToEuroFn", 2.20371).unwrap();
        assert!((eur - 1.0).abs() < 1e-12);
        let nlg = r.apply("EuroToDGFn", 1.0).unwrap();
        assert!((nlg - 2.20371).abs() < 1e-12);
    }

    #[test]
    fn sterling_roundtrip() {
        let r = ConversionRegistry::standard();
        let x = 12345.67;
        let eur = r.apply("PSToEuroFn", x).unwrap();
        let back = r.apply("EuroToPSFn", eur).unwrap();
        assert!((back - x).abs() / x < 1e-12);
    }

    #[test]
    fn apply_inverse_uses_declared_pair() {
        let r = ConversionRegistry::standard();
        let eur = r.apply("DGToEuroFn", 100.0).unwrap();
        let back = r.apply_inverse("DGToEuroFn", eur).unwrap();
        assert!((back - 100.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_function_errors() {
        let r = ConversionRegistry::standard();
        assert!(matches!(r.apply("NoSuchFn", 1.0), Err(RuleError::UnknownFunction(_))));
        assert!(r.apply_inverse("NoSuchFn", 1.0).is_err());
    }

    #[test]
    fn converter_without_inverse() {
        let mut r = ConversionRegistry::new();
        r.register(Converter::new("CelsiusToKelvinFn", None, |c| c + 273.15));
        assert_eq!(r.apply("CelsiusToKelvinFn", 0.0).unwrap(), 273.15);
        assert!(r.apply_inverse("CelsiusToKelvinFn", 0.0).is_err());
    }

    #[test]
    fn names_sorted() {
        let r = ConversionRegistry::standard();
        let names = r.names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert_eq!(names.len(), r.len());
    }

    #[test]
    fn registry_replaces_on_same_name() {
        let mut r = ConversionRegistry::new();
        r.register(Converter::new("f", None, |x| x + 1.0));
        r.register(Converter::new("f", None, |x| x + 2.0));
        assert_eq!(r.len(), 1);
        assert_eq!(r.apply("f", 0.0).unwrap(), 2.0);
    }
}
