//! Query results in articulation vocabulary.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::ast::Value;

/// One answer row. It shares its strings instead of owning them: `id`
/// and `local_class` are the answering knowledge base's own `Arc`s
/// (see [`Instance`](crate::kb::Instance)), the rows of one source
/// query share one `source`, and the rows of one query share each
/// attribute name. Building a row bumps three reference counts and
/// allocates only the map of its projected attributes, when it has any.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// Instance id (as known by its source).
    pub id: Arc<str>,
    /// Which source answered.
    pub source: Arc<str>,
    /// Local class the instance belongs to.
    pub local_class: Arc<str>,
    /// Projected attributes, in articulation vocabulary and metric space.
    pub attrs: BTreeMap<Arc<str>, Value>,
}

/// A merged result set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultSet {
    /// The rows, ordered by (source, id).
    pub rows: Vec<ResultRow>,
}

impl ResultSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Sorts rows by (source, id) for deterministic output. The sort is
    /// stable, so rows that tie keep their order; rows that arrive in
    /// runs already sorted (each source's, from a wrapper that fetches
    /// in id order) are only walked.
    pub fn normalise(&mut self) {
        self.rows.sort_by(|a, b| (&*a.source, &*a.id).cmp(&(&*b.source, &*b.id)));
    }

    /// Renders an aligned text table with the given attribute columns.
    pub fn to_table(&self, columns: &[String]) -> String {
        let mut header: Vec<String> = vec!["id".into(), "source".into()];
        header.extend(columns.iter().cloned());
        let mut rows: Vec<Vec<String>> = vec![header];
        for r in &self.rows {
            let mut row = vec![r.id.to_string(), r.source.to_string()];
            for c in columns {
                row.push(
                    r.attrs.get(c.as_str()).map(|v| v.to_string()).unwrap_or_else(|| "-".into()),
                );
            }
            rows.push(row);
        }
        let widths: Vec<usize> = (0..rows[0].len())
            .map(|i| rows.iter().map(|r| r[i].len()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for (ri, row) in rows.iter().enumerate() {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&format!("{cell:<width$}", width = widths[i]));
            }
            out.push('\n');
            if ri == 0 {
                out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
                out.push('\n');
            }
        }
        out
    }
}

impl fmt::Display for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut columns: Vec<String> = Vec::new();
        for r in &self.rows {
            for k in r.attrs.keys() {
                if !columns.iter().any(|c| **c == **k) {
                    columns.push(k.to_string());
                }
            }
        }
        write!(f, "{}", self.to_table(&columns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: &str, source: &str, price: f64) -> ResultRow {
        let attrs = BTreeMap::from([("Price".into(), Value::Num(price))]);
        ResultRow { id: id.into(), source: source.into(), local_class: "Cars".into(), attrs }
    }

    #[test]
    fn normalise_orders_rows() {
        let mut rs = ResultSet {
            rows: vec![
                row("b", "factory", 1.0),
                row("a", "carrier", 2.0),
                row("a", "factory", 3.0),
            ],
        };
        rs.normalise();
        let order: Vec<(&str, &str)> = rs.rows.iter().map(|r| (&*r.source, &*r.id)).collect();
        assert_eq!(order, vec![("carrier", "a"), ("factory", "a"), ("factory", "b")]);
    }

    #[test]
    fn table_renders_aligned() {
        let rs = ResultSet { rows: vec![row("car1", "carrier", 4000.0)] };
        let t = rs.to_table(&["Price".to_string()]);
        assert!(t.contains("id"));
        assert!(t.contains("car1"));
        assert!(t.contains("4000"));
        assert!(t.lines().count() >= 3);
    }

    #[test]
    fn table_shows_dash_for_missing() {
        let rs = ResultSet { rows: vec![row("car1", "carrier", 4000.0)] };
        let t = rs.to_table(&["Owner".to_string()]);
        assert!(t.contains('-'));
    }
}
