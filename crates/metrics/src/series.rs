//! Named data series — the unit a "figure" is made of.

use serde::Serialize;

/// A named sequence of `(x, y)` points, e.g. "YARN execution time vs
/// failure-injection progress".
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Series {
    pub name: String,
    /// Axis labels for rendering ("progress (%)", "time (s)").
    pub x_label: String,
    pub y_label: String,
    pub points: Vec<(f64, f64)>,
}

impl Series {
    pub fn new(name: impl Into<String>, x_label: impl Into<String>, y_label: impl Into<String>) -> Series {
        Series { name: name.into(), x_label: x_label.into(), y_label: y_label.into(), points: Vec::new() }
    }

    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The y value at a given x, if a point with exactly that x exists.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|(px, _)| *px == x).map(|(_, y)| *y)
    }

    pub fn max_y(&self) -> Option<f64> {
        self.points.iter().map(|&(_, y)| y).fold(None, |acc, y| Some(acc.map_or(y, |m: f64| m.max(y))))
    }

    pub fn min_y(&self) -> Option<f64> {
        self.points.iter().map(|&(_, y)| y).fold(None, |acc, y| Some(acc.map_or(y, |m: f64| m.min(y))))
    }

    /// Render as aligned two-column text.
    pub fn render_text(&self) -> String {
        let mut out = format!("# {}  [{} vs {}]\n", self.name, self.y_label, self.x_label);
        for (x, y) in &self.points {
            out.push_str(&format!("{x:>12.3}  {y:>12.3}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s() -> Series {
        let mut s = Series::new("yarn", "progress", "seconds");
        s.push(10.0, 100.0);
        s.push(50.0, 130.0);
        s.push(90.0, 160.0);
        s
    }

    #[test]
    fn accessors() {
        let s = s();
        assert_eq!(s.len(), 3);
        assert_eq!(s.y_at(50.0), Some(130.0));
        assert_eq!(s.y_at(51.0), None);
        assert_eq!(s.max_y(), Some(160.0));
        assert_eq!(s.min_y(), Some(100.0));
    }

    #[test]
    fn empty_series() {
        let s = Series::new("e", "x", "y");
        assert!(s.is_empty());
        assert_eq!(s.max_y(), None);
    }

    #[test]
    fn text_rendering_contains_points() {
        let txt = s().render_text();
        assert!(txt.contains("yarn"));
        assert!(txt.contains("100.000"));
        assert_eq!(txt.lines().count(), 4);
    }
}
