use std::error::Error;
use std::fmt;

/// The budgeted resource that ran out in a
/// [`SimError::BudgetExceeded`] — which limit of a `RunBudget` tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetResource {
    /// The emitted-edge limit (`max_edges`).
    Edges,
    /// The wall-clock deadline.
    Deadline,
}

impl fmt::Display for BudgetResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetResource::Edges => "edges",
            BudgetResource::Deadline => "deadline",
        })
    }
}

/// Errors produced by the digital timing simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// Invalid channel parameters (non-positive delay/τ, etc.).
    InvalidChannel {
        /// Description of the violated constraint.
        reason: String,
    },
    /// Invalid network topology (unknown signal, cycle, arity mismatch).
    Network {
        /// Description of the problem.
        reason: String,
    },
    /// The network exceeds an engine's index width (the `mis-sim`
    /// engines store signal and span indices as `u32`). Surfaced as an
    /// error instead of a construction panic so callers feeding untrusted
    /// netlists can reject them gracefully.
    NetworkTooLarge {
        /// The offending count (signals or fan-out edges).
        count: usize,
        /// The engine's maximum representable count.
        max: usize,
    },
    /// A run exhausted its `RunBudget` and stopped gracefully instead
    /// of doing unbounded work. The variant is allocation-free by
    /// design: the budgeted engines return it from hot loops that are
    /// themselves under a zero-allocation gate.
    BudgetExceeded {
        /// Which limit tripped.
        resource: BudgetResource,
        /// The configured limit: a count for events/edges, the
        /// deadline in nanoseconds for wall-clock trips.
        limit: u64,
    },
    /// A characterized library records a resample count whose uniform
    /// table misses the cached channel's error tolerance (a quarter of
    /// the library budget).
    ResampleTooCoarse {
        /// The surface family, e.g. `"rising"`.
        family: &'static str,
        /// The recorded point count.
        points: usize,
        /// Worst resampling error at the cell midpoints, seconds.
        error: f64,
        /// The tolerance it had to meet, seconds.
        tolerance: f64,
    },
    /// A trace violated an invariant while being processed.
    Trace(mis_waveform::WaveformError),
    /// The underlying hybrid model failed.
    Model(mis_core::ModelError),
    /// A numeric routine failed.
    Numeric(mis_num::NumError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidChannel { reason } => write!(f, "invalid channel: {reason}"),
            SimError::Network { reason } => write!(f, "network error: {reason}"),
            SimError::NetworkTooLarge { count, max } => write!(
                f,
                "network too large for the engine's index width: {count} > {max}"
            ),
            SimError::BudgetExceeded { resource, limit } => match resource {
                BudgetResource::Deadline => {
                    write!(f, "run budget exceeded: deadline of {limit} ns passed")
                }
                r => write!(f, "run budget exceeded: more than {limit} {r}"),
            },
            SimError::ResampleTooCoarse {
                family,
                points,
                error,
                tolerance,
            } => write!(
                f,
                "{family} table at {points} recorded points misses the resampling \
                 tolerance: error {error:e} s > {tolerance:e} s"
            ),
            SimError::Trace(e) => write!(f, "trace failure: {e}"),
            SimError::Model(e) => write!(f, "hybrid model failure: {e}"),
            SimError::Numeric(e) => write!(f, "numeric failure: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Trace(e) => Some(e),
            SimError::Model(e) => Some(e),
            SimError::Numeric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mis_waveform::WaveformError> for SimError {
    fn from(e: mis_waveform::WaveformError) -> Self {
        SimError::Trace(e)
    }
}

impl From<mis_core::ModelError> for SimError {
    fn from(e: mis_core::ModelError) -> Self {
        SimError::Model(e)
    }
}

impl From<mis_num::NumError> for SimError {
    fn from(e: mis_num::NumError) -> Self {
        SimError::Numeric(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error as _;
        let e = SimError::InvalidChannel {
            reason: "tau must be positive".into(),
        };
        assert!(e.to_string().contains("tau"));
        let e = SimError::from(mis_waveform::WaveformError::Empty);
        assert!(e.source().is_some());
        let e = SimError::NetworkTooLarge {
            count: 1 << 33,
            max: u32::MAX as usize,
        };
        assert!(e.to_string().contains("too large"));
        assert!(e.source().is_none());
    }

    #[test]
    fn budget_exceeded_display_names_the_resource() {
        let e = SimError::BudgetExceeded {
            resource: BudgetResource::Edges,
            limit: 12,
        };
        assert!(e.to_string().contains("12 edges"), "{e}");
        let e = SimError::BudgetExceeded {
            resource: BudgetResource::Deadline,
            limit: 5_000,
        };
        assert!(e.to_string().contains("5000 ns"), "{e}");
        assert!(e.source().is_none());
    }
}
