//! Error type shared by all solvers.

/// Errors reported by the optimization routines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OptimError {
    /// An interval `[a, b]` with `a >= b`, or containing non-finite
    /// endpoints, was supplied.
    InvalidInterval {
        /// Lower endpoint as given.
        a: f64,
        /// Upper endpoint as given.
        b: f64,
    },
    /// The objective returned NaN at the reported point.
    ObjectiveNaN {
        /// Where the objective failed.
        at: Vec<f64>,
    },
    /// No feasible point was found (all evaluated points violate the
    /// constraints).
    Infeasible,
    /// A dimension/parameter mismatch (e.g. empty bounds, or a start
    /// point of the wrong length).
    Dimension {
        /// Expected dimension.
        expected: usize,
        /// Received dimension.
        got: usize,
    },
}

impl std::fmt::Display for OptimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimError::InvalidInterval { a, b } => {
                write!(
                    f,
                    "invalid interval [{a}, {b}]: endpoints must be finite with a < b"
                )
            }
            OptimError::ObjectiveNaN { at } => {
                write!(f, "objective returned NaN at {at:?}")
            }
            OptimError::Infeasible => write!(f, "no feasible point found"),
            OptimError::Dimension { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for OptimError {}

#[cfg(test)]
mod tests {
    use super::OptimError;

    #[test]
    fn display_messages_are_specific() {
        let e = OptimError::InvalidInterval { a: 2.0, b: 1.0 };
        assert!(e.to_string().contains("[2, 1]"));
        let e = OptimError::Dimension {
            expected: 2,
            got: 3,
        };
        assert!(e.to_string().contains("expected 2"));
    }
}
