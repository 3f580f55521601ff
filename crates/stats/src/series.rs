//! Plain-text rendering of figure data.
//!
//! The benchmark binaries regenerate each paper figure as aligned text: one
//! [`Series`] per curve, combined into a [`Table`] whose first column is the
//! shared x-axis. Output is stable and diff-friendly so EXPERIMENTS.md can
//! quote it directly.

/// One named curve: `(x, y)` points in x order.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label, e.g. `"CMAP"` or `"CS, acks"`.
    pub name: String,
    /// Points in ascending x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Construct from a name and points.
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Series {
        Series {
            name: name.into(),
            points,
        }
    }

    /// Linear interpolation of y at `x`; clamps outside the domain.
    pub fn interpolate(&self, x: f64) -> f64 {
        assert!(!self.points.is_empty());
        let pts = &self.points;
        if x <= pts[0].0 {
            return pts[0].1;
        }
        if x >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        let i = pts.partition_point(|&(px, _)| px <= x);
        let (x0, y0) = pts[i - 1];
        let (x1, y1) = pts[i];
        // Duplicate-x guard: the points carry *identical* stored values when
        // a series repeats an x, so bit equality is the intended test (and
        // avoids an arbitrary epsilon on an arbitrary scale).
        if x1.to_bits() == x0.to_bits() {
            y0
        } else {
            y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        }
    }
}

/// A multi-curve table sharing one x grid.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Label of the x axis.
    pub x_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Table {
    /// Start a table with the given x-axis label.
    pub fn new(x_label: impl Into<String>) -> Table {
        Table {
            x_label: x_label.into(),
            series: Vec::new(),
        }
    }

    /// Add a curve.
    pub fn push(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Render as aligned text over a shared x grid of `bins` points from
    /// `lo` to `hi`, interpolating each curve.
    pub fn render_grid(&self, lo: f64, hi: f64, bins: usize) -> String {
        assert!(bins >= 2 && hi > lo);
        let mut out = String::new();
        out.push_str(&format!("{:>12}", self.x_label));
        for s in &self.series {
            out.push_str(&format!(" {:>14}", truncate(&s.name, 14)));
        }
        out.push('\n');
        for i in 0..bins {
            let x = lo + (hi - lo) * i as f64 / (bins - 1) as f64;
            out.push_str(&format!("{x:>12.3}"));
            for s in &self.series {
                out.push_str(&format!(" {:>14.4}", s.interpolate(x)));
            }
            out.push('\n');
        }
        out
    }
}

fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        s
    } else {
        &s[..n]
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "exact IEEE boundaries are under test")]
mod tests {
    use super::*;

    #[test]
    fn interpolation() {
        let s = Series::new("a", vec![(0.0, 0.0), (10.0, 1.0)]);
        assert_eq!(s.interpolate(-5.0), 0.0);
        assert_eq!(s.interpolate(15.0), 1.0);
        assert!((s.interpolate(5.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicate_x_does_not_divide_by_zero() {
        let s = Series::new("a", vec![(1.0, 2.0), (1.0, 3.0), (2.0, 4.0)]);
        let y = s.interpolate(1.0);
        assert!(y == 2.0 || y == 3.0);
    }

    #[test]
    fn grid_render_shape() {
        let mut t = Table::new("x");
        t.push(Series::new("up", vec![(0.0, 0.0), (1.0, 1.0)]));
        t.push(Series::new("down", vec![(0.0, 1.0), (1.0, 0.0)]));
        let text = t.render_grid(0.0, 1.0, 3);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // header + 3 rows
        assert!(lines[0].contains("up") && lines[0].contains("down"));
        // Middle row: x=0.5, both curves at 0.5.
        assert!(lines[2].matches("0.5000").count() == 2, "{}", lines[2]);
    }
}
