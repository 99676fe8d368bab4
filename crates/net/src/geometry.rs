//! Plane geometry for unit-disk topologies.

use std::collections::HashMap;

/// A point in the plane, in units of the radio range unless stated
/// otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point2 {
    /// The origin.
    pub const ORIGIN: Point2 = Point2 { x: 0.0, y: 0.0 };

    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Point2 {
        Point2 { x, y }
    }

    /// Creates the point at `radius` from the origin at `angle` radians.
    pub fn polar(radius: f64, angle: f64) -> Point2 {
        Point2 {
            x: radius * angle.cos(),
            y: radius * angle.sin(),
        }
    }

    /// Euclidean distance to `other`.
    pub fn distance(self, other: Point2) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (cheaper for comparisons).
    pub fn distance_squared(self, other: Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

impl std::fmt::Display for Point2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

/// Visits every unordered pair `(i, j)`, `i < j`, of `positions` at
/// most `range` apart, with its squared distance: `j` ascending within
/// each `i`, `i` ascending — exactly the order of an all-pairs scan.
///
/// A spatial hash with `range`-sized cells finds the candidates (every
/// pair in range lies in a 3×3 cell neighborhood), taking the pass from
/// O(n²) pair tests to O(n + m): the difference between minutes and
/// milliseconds on a 100k-node disk.
pub fn each_pair_within(
    positions: &[Point2],
    range: f64,
    mut visit: impl FnMut(usize, usize, f64),
) {
    let range = range.max(f64::MIN_POSITIVE);
    let range_sq = range * range;
    let cell_of = |p: &Point2| ((p.x / range).floor() as i64, (p.y / range).floor() as i64);
    let mut cells: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
    for (i, p) in positions.iter().enumerate() {
        cells.entry(cell_of(p)).or_default().push(i);
    }
    let mut candidates = Vec::new();
    for (i, p) in positions.iter().enumerate() {
        let (cx, cy) = cell_of(p);
        candidates.clear();
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(bucket) = cells.get(&(cx + dx, cy + dy)) {
                    candidates.extend(bucket.iter().copied().filter(|&j| j > i));
                }
            }
        }
        candidates.sort_unstable();
        for &j in &candidates {
            let d_sq = p.distance_squared(positions[j]);
            if d_sq <= range_sq {
                visit(i, j, d_sq);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Point2;

    #[test]
    fn distance_is_euclidean() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
        assert!((a.distance_squared(b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point2::new(-1.5, 2.0);
        let b = Point2::new(0.25, -3.0);
        assert_eq!(a.distance(b), b.distance(a));
    }

    #[test]
    fn polar_round_trips_radius() {
        for k in 0..8 {
            let angle = k as f64 * std::f64::consts::FRAC_PI_4;
            let p = Point2::polar(2.5, angle);
            assert!(
                (p.distance(Point2::ORIGIN) - 2.5).abs() < 1e-12,
                "angle {angle}"
            );
        }
    }
}
