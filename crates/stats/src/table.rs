//! Figure/table assembly: labeled series over a shared x-axis, rendered as
//! aligned ASCII (what the harness prints) or CSV (what it writes to disk).

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

/// One labeled data series, e.g. "RT-SADS" hit ratios over processor counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    label: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// The series label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Appends an `(x, y)` point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The points in insertion order.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Whether y is non-decreasing in x (scalability check helper).
    ///
    /// `tolerance` allows small dips (e.g. 0.02 = two percentage points).
    #[must_use]
    pub fn is_non_decreasing(&self, tolerance: f64) -> bool {
        self.points.windows(2).all(|w| w[1].1 >= w[0].1 - tolerance)
    }
}

/// A table of series sharing an x-axis — one paper figure.
///
/// # Example
///
/// ```
/// use rt_stats::{Series, Table};
///
/// let mut sads = Series::new("RT-SADS");
/// sads.push(2.0, 0.30);
/// sads.push(4.0, 0.45);
/// let mut cols = Series::new("D-COLS");
/// cols.push(2.0, 0.28);
/// cols.push(4.0, 0.31);
/// let table = Table::new("Fig 5", "processors", vec![sads, cols]);
/// let text = table.render_ascii();
/// assert!(text.contains("RT-SADS"));
/// let csv = table.to_csv();
/// assert!(csv.starts_with("processors,RT-SADS,D-COLS"));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    title: String,
    x_label: String,
    series: Vec<Series>,
}

impl Table {
    /// Builds a table from series.
    ///
    /// # Panics
    ///
    /// Panics if `series` is empty or the series disagree on their x-axes.
    #[must_use]
    pub fn new(title: impl Into<String>, x_label: impl Into<String>, series: Vec<Series>) -> Self {
        assert!(!series.is_empty(), "a table needs at least one series");
        let xs: Vec<f64> = series[0].points.iter().map(|(x, _)| *x).collect();
        for s in &series[1..] {
            let other: Vec<f64> = s.points.iter().map(|(x, _)| *x).collect();
            assert_eq!(
                xs, other,
                "series '{}' has a different x-axis than '{}'",
                s.label, series[0].label
            );
        }
        Table {
            title: title.into(),
            x_label: x_label.into(),
            series,
        }
    }

    /// The table title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The shared x values.
    #[must_use]
    pub fn xs(&self) -> Vec<f64> {
        self.series[0].points.iter().map(|(x, _)| *x).collect()
    }

    /// The contained series.
    #[must_use]
    pub fn series(&self) -> &[Series] {
        &self.series
    }

    /// A series by label.
    #[must_use]
    pub fn series_by_label(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Renders an aligned ASCII table, e.g.
    ///
    /// ```text
    /// Fig 5
    /// processors   RT-SADS    D-COLS
    ///          2    0.3000    0.2800
    /// ```
    #[must_use]
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let width = self
            .series
            .iter()
            .map(|s| s.label.len())
            .chain([self.x_label.len(), 10])
            .max()
            .unwrap_or(10)
            + 2;
        let _ = write!(out, "{:>w$}", self.x_label, w = width);
        for s in &self.series {
            let _ = write!(out, "{:>w$}", s.label, w = width);
        }
        let _ = writeln!(out);
        for (i, x) in self.xs().iter().enumerate() {
            let _ = write!(out, "{:>w$}", trim_num(*x), w = width);
            for s in &self.series {
                let _ = write!(out, "{:>w$.4}", s.points[i].1, w = width);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Serializes to CSV with a header row (`x_label,series...`).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.x_label);
        for s in &self.series {
            let _ = write!(out, ",{}", s.label);
        }
        let _ = writeln!(out);
        for (i, x) in self.xs().iter().enumerate() {
            let _ = write!(out, "{}", trim_num(*x));
            for s in &self.series {
                let _ = write!(out, ",{}", s.points[i].1);
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Formats an x value without a trailing `.0` when it is integral.
fn trim_num(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut a = Series::new("A");
        a.push(1.0, 0.5);
        a.push(2.0, 0.75);
        let mut b = Series::new("B");
        b.push(1.0, 0.4);
        b.push(2.0, 0.35);
        Table::new("demo", "x", vec![a, b])
    }

    #[test]
    fn series_basics() {
        let mut s = Series::new("s");
        assert_eq!(s.label(), "s");
        s.push(1.0, 2.0);
        s.push(3.0, 4.0);
        assert_eq!(s.points(), &[(1.0, 2.0), (3.0, 4.0)]);
    }

    #[test]
    fn non_decreasing_check() {
        let mut s = Series::new("s");
        for (x, y) in [(1.0, 0.1), (2.0, 0.3), (3.0, 0.29), (4.0, 0.5)] {
            s.push(x, y);
        }
        assert!(s.is_non_decreasing(0.02), "dip of 0.01 within tolerance");
        assert!(!s.is_non_decreasing(0.0));
    }

    #[test]
    fn table_accessors() {
        let t = sample_table();
        assert_eq!(t.title(), "demo");
        assert_eq!(t.xs(), vec![1.0, 2.0]);
        assert_eq!(t.series().len(), 2);
        assert_eq!(
            t.series_by_label("B").unwrap().points(),
            &[(1.0, 0.4), (2.0, 0.35)]
        );
        assert!(t.series_by_label("C").is_none());
    }

    #[test]
    fn ascii_rendering_contains_all_cells() {
        let text = sample_table().render_ascii();
        for needle in ["demo", "A", "B", "0.5000", "0.3500", "1", "2"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn csv_round_trip_shape() {
        let csv = sample_table().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,A,B");
        assert_eq!(lines[1], "1,0.5,0.4");
        assert_eq!(lines[2], "2,0.75,0.35");
    }

    #[test]
    #[should_panic(expected = "different x-axis")]
    fn mismatched_axes_panic() {
        let mut a = Series::new("A");
        a.push(1.0, 0.0);
        let mut b = Series::new("B");
        b.push(2.0, 0.0);
        let _ = Table::new("bad", "x", vec![a, b]);
    }

    #[test]
    #[should_panic(expected = "at least one series")]
    fn empty_table_panics() {
        let _ = Table::new("bad", "x", vec![]);
    }

    #[test]
    fn trim_num_formats() {
        assert_eq!(trim_num(2.0), "2");
        assert_eq!(trim_num(0.3), "0.3");
    }
}
