use std::error::Error;
use std::fmt;

/// Errors produced by the hybrid NOR gate model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// A parameter set violated its physical domain (non-positive R/C,
    /// threshold outside the rails, ...).
    InvalidParams {
        /// Description of the violated constraint.
        reason: String,
    },
    /// The output never crosses the threshold in the analyzed situation
    /// (e.g. asking for a falling delay while both inputs stay low).
    NoCrossing {
        /// Description of the situation.
        context: String,
    },
    /// A fit could not be performed (inconsistent targets, empty data, or
    /// an infeasible constraint such as the paper's δ↓(−∞)/δ↓(0) ratio).
    FitFailed {
        /// Description of the failure.
        reason: String,
    },
    /// An underlying numeric routine failed.
    Numeric(mis_num::NumError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidParams { reason } => write!(f, "invalid parameters: {reason}"),
            ModelError::NoCrossing { context } => {
                write!(f, "output never crosses the threshold: {context}")
            }
            ModelError::FitFailed { reason } => write!(f, "fit failed: {reason}"),
            ModelError::Numeric(e) => write!(f, "numeric failure: {e}"),
        }
    }
}

impl Error for ModelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelError::Numeric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mis_num::NumError> for ModelError {
    fn from(e: mis_num::NumError) -> Self {
        ModelError::Numeric(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = ModelError::InvalidParams {
            reason: "r1 must be positive".into(),
        };
        assert!(e.to_string().contains("r1"));
        let e = ModelError::NoCrossing {
            context: "mode (0,0) from VDD".into(),
        };
        assert!(e.to_string().contains("never crosses"));
    }

    #[test]
    fn source_chains() {
        use std::error::Error as _;
        let e = ModelError::from(mis_num::NumError::NonFiniteValue { at: 0.0 });
        assert!(e.source().is_some());
    }
}
