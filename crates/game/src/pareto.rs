//! Pareto frontiers of cost-point clouds.

use crate::point::CostPoint;

/// Returns the Pareto frontier (for minimization in both coordinates) of
/// `points`, sorted by increasing `x`.
///
/// Non-finite points are discarded. Duplicates of a frontier point are
/// kept once.
///
/// # Examples
///
/// ```
/// use edmac_game::{pareto_filter, CostPoint};
///
/// let cloud = vec![
///     CostPoint::new(1.0, 5.0),
///     CostPoint::new(2.0, 6.0), // dominated by (1,5)
///     CostPoint::new(3.0, 2.0),
/// ];
/// let frontier = pareto_filter(&cloud);
/// assert_eq!(frontier.len(), 2);
/// assert_eq!(frontier[0], CostPoint::new(1.0, 5.0));
/// ```
pub fn pareto_filter(points: &[CostPoint]) -> Vec<CostPoint> {
    let mut sorted: Vec<CostPoint> = points
        .iter()
        .copied()
        .filter(CostPoint::is_finite)
        .collect();
    // Sort by x ascending, then y ascending so the first of equal-x
    // points is the best.
    sorted.sort_by(|a, b| {
        (a.x, a.y)
            .partial_cmp(&(b.x, b.y))
            .expect("non-finite points filtered above")
    });
    let mut frontier: Vec<CostPoint> = Vec::new();
    let mut best_y = f64::INFINITY;
    for p in sorted {
        if p.y < best_y {
            // Drop a previous frontier point with identical x but worse y
            // is impossible (sorted by y within x); just check dedup.
            if frontier.last().is_some_and(|last| last.x == p.x) {
                continue;
            }
            frontier.push(p);
            best_y = p.y;
        }
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_of_empty_or_nonfinite_is_empty() {
        assert!(pareto_filter(&[]).is_empty());
        assert!(pareto_filter(&[CostPoint::new(f64::NAN, 1.0)]).is_empty());
    }

    #[test]
    fn frontier_is_sorted_and_strictly_tradeoff() {
        let cloud = vec![
            CostPoint::new(5.0, 1.0),
            CostPoint::new(1.0, 5.0),
            CostPoint::new(3.0, 3.0),
            CostPoint::new(4.0, 4.0), // dominated
            CostPoint::new(2.0, 6.0), // dominated
        ];
        let f = pareto_filter(&cloud);
        assert_eq!(
            f,
            vec![
                CostPoint::new(1.0, 5.0),
                CostPoint::new(3.0, 3.0),
                CostPoint::new(5.0, 1.0)
            ]
        );
        for w in f.windows(2) {
            assert!(w[0].x < w[1].x && w[0].y > w[1].y);
        }
    }

    #[test]
    fn duplicate_points_collapse() {
        let cloud = vec![CostPoint::new(1.0, 1.0); 5];
        assert_eq!(pareto_filter(&cloud).len(), 1);
    }

    #[test]
    fn equal_x_keeps_best_y() {
        let cloud = vec![CostPoint::new(1.0, 3.0), CostPoint::new(1.0, 2.0)];
        assert_eq!(pareto_filter(&cloud), vec![CostPoint::new(1.0, 2.0)]);
    }
}
