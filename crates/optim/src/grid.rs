//! Box bounds and grid sweeps.

use crate::error::OptimError;
use crate::nelder_mead::SimplexMinimum;

/// An axis-aligned box of valid parameter vectors.
///
/// # Examples
///
/// ```
/// use edmac_optim::Bounds;
///
/// let b = Bounds::new(vec![(0.0, 1.0), (10.0, 20.0)]).unwrap();
/// let mut x = vec![-3.0, 15.0];
/// b.clamp(&mut x);
/// assert_eq!(x, [0.0, 15.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bounds {
    ranges: Vec<(f64, f64)>,
}

impl Bounds {
    /// Creates bounds from `(lower, upper)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::InvalidInterval`] if any pair has
    /// `lower >= upper` or a non-finite endpoint, and
    /// [`OptimError::Dimension`] if empty.
    pub fn new(ranges: Vec<(f64, f64)>) -> Result<Bounds, OptimError> {
        if ranges.is_empty() {
            return Err(OptimError::Dimension {
                expected: 1,
                got: 0,
            });
        }
        for &(lo, hi) in &ranges {
            if !(lo.is_finite() && hi.is_finite() && lo < hi) {
                return Err(OptimError::InvalidInterval { a: lo, b: hi });
            }
        }
        Ok(Bounds { ranges })
    }

    /// Number of dimensions.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Returns `true` if there are no dimensions (never, by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Lower bound of dimension `i`.
    pub fn lower(&self, i: usize) -> f64 {
        self.ranges[i].0
    }

    /// Upper bound of dimension `i`.
    pub fn upper(&self, i: usize) -> f64 {
        self.ranges[i].1
    }

    /// Width of dimension `i`.
    pub fn width(&self, i: usize) -> f64 {
        self.ranges[i].1 - self.ranges[i].0
    }

    /// The box center.
    pub fn center(&self) -> Vec<f64> {
        self.ranges
            .iter()
            .map(|&(lo, hi)| 0.5 * (lo + hi))
            .collect()
    }

    /// Clamps `x` into the box, component-wise.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the number of dimensions.
    pub fn clamp(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.ranges.len(), "dimension mismatch in clamp");
        for (xi, &(lo, hi)) in x.iter_mut().zip(&self.ranges) {
            *xi = xi.clamp(lo, hi);
        }
    }

    /// Returns `true` if `x` lies inside the box (inclusive).
    pub fn contains(&self, x: &[f64]) -> bool {
        x.len() == self.ranges.len()
            && x.iter()
                .zip(&self.ranges)
                .all(|(&xi, &(lo, hi))| (lo..=hi).contains(&xi))
    }

    /// The ranges as a slice of `(lower, upper)` pairs.
    pub fn ranges(&self) -> &[(f64, f64)] {
        &self.ranges
    }
}

/// Evaluates `f` on a uniform grid of `points_per_dim` samples per axis
/// and returns the best point.
///
/// A coarse exhaustive sweep is the global-phase workhorse for the 1–2
/// dimensional MAC parameter spaces: it cannot be trapped by the
/// non-convexity the paper notes for (P3), and its cost is transparent
/// (`points_per_dim^len`).
///
/// # Errors
///
/// * [`OptimError::Dimension`] if `points_per_dim < 2`.
/// * [`OptimError::Infeasible`] if `f` returned only NaN/infinite values
///   (e.g. every grid point violates a constraint folded into `f`).
pub fn grid_minimize<F: FnMut(&[f64]) -> f64>(
    mut f: F,
    bounds: &Bounds,
    points_per_dim: usize,
) -> Result<SimplexMinimum, OptimError> {
    if points_per_dim < 2 {
        return Err(OptimError::Dimension {
            expected: 2,
            got: points_per_dim,
        });
    }
    let n = bounds.len();
    let total = points_per_dim.pow(n as u32);
    let mut best: Option<SimplexMinimum> = None;
    let mut x = vec![0.0; n];
    for flat in 0..total {
        let mut rem = flat;
        for (i, xi) in x.iter_mut().enumerate() {
            let k = rem % points_per_dim;
            rem /= points_per_dim;
            *xi = bounds.lower(i) + bounds.width(i) * k as f64 / (points_per_dim - 1) as f64;
        }
        let v = f(&x);
        if v.is_finite() && best.as_ref().is_none_or(|b| v < b.value) {
            best = Some(SimplexMinimum {
                x: x.clone(),
                value: v,
                iterations: flat + 1,
            });
        }
    }
    best.ok_or(OptimError::Infeasible)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_validate_inputs() {
        assert!(Bounds::new(vec![]).is_err());
        assert!(Bounds::new(vec![(1.0, 1.0)]).is_err());
        assert!(Bounds::new(vec![(0.0, f64::INFINITY)]).is_err());
        assert!(Bounds::new(vec![(0.0, 1.0)]).is_ok());
    }

    #[test]
    fn bounds_geometry() {
        let b = Bounds::new(vec![(0.0, 2.0), (-1.0, 1.0)]).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.center(), vec![1.0, 0.0]);
        assert_eq!(b.width(0), 2.0);
        assert!(b.contains(&[0.0, 1.0]));
        assert!(!b.contains(&[3.0, 0.0]));
        assert!(!b.contains(&[0.5]));
    }

    #[test]
    fn grid_finds_coarse_minimum() {
        let b = Bounds::new(vec![(-2.0, 2.0), (-2.0, 2.0)]).unwrap();
        let m = grid_minimize(|x| x[0] * x[0] + x[1] * x[1], &b, 41).unwrap();
        assert!(m.x[0].abs() < 0.11 && m.x[1].abs() < 0.11);
    }

    #[test]
    fn grid_skips_infeasible_regions() {
        // NaN left half-plane; the minimum of the feasible half is at 0.5.
        let b = Bounds::new(vec![(-1.0, 1.0)]).unwrap();
        let m = grid_minimize(
            |x| {
                if x[0] < 0.5 {
                    f64::NAN
                } else {
                    (x[0] - 0.5).powi(2)
                }
            },
            &b,
            21,
        )
        .unwrap();
        assert!((m.x[0] - 0.5).abs() < 0.06);
    }

    #[test]
    fn grid_reports_fully_infeasible() {
        let b = Bounds::new(vec![(0.0, 1.0)]).unwrap();
        assert!(matches!(
            grid_minimize(|_| f64::NAN, &b, 11),
            Err(OptimError::Infeasible)
        ));
    }
}
