use std::error::Error;
use std::fmt;

/// Errors produced by the numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NumError {
    /// An iteration failed to converge within its budget.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Best residual / error estimate at abandonment.
        residual: f64,
    },
    /// The objective or derivative returned a non-finite value.
    NonFiniteValue {
        /// Where the non-finite value was observed (e.g. input abscissa).
        at: f64,
    },
    /// The caller supplied inconsistent or out-of-domain arguments.
    InvalidInput {
        /// Description of the problem.
        reason: String,
    },
}

impl fmt::Display for NumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "no convergence after {iterations} iterations (residual {residual:.3e})"
            ),
            NumError::NonFiniteValue { at } => {
                write!(f, "non-finite function value near {at}")
            }
            NumError::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
        }
    }
}

impl Error for NumError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = NumError::NoConvergence {
            iterations: 50,
            residual: 1e-3,
        };
        assert!(e.to_string().contains("50 iterations"));
        let e = NumError::InvalidInput {
            reason: "empty starting point".into(),
        };
        assert!(e.to_string().contains("empty starting point"));
    }
}
