use mis_waveform::{DigitalTrace, EdgeBuf, TraceRef};

use crate::channels::{ChannelEvents, DelayBounds, TraceTransform};
use crate::SimError;

/// The pure (constant) delay channel: every edge is shifted by a fixed
/// amount; nothing is ever filtered.
///
/// # Examples
///
/// ```
/// use mis_digital::{PureDelayChannel, TraceTransform};
/// use mis_waveform::{DigitalTrace, units::ps};
///
/// # fn main() -> Result<(), mis_digital::SimError> {
/// let ch = PureDelayChannel::new(ps(10.0))?;
/// let input = DigitalTrace::with_edges(false, vec![(ps(100.0), true)])?;
/// let out = ch.apply(&input)?;
/// assert!((out.edges()[0].time - ps(110.0)).abs() < 1e-18);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PureDelayChannel {
    delay: f64,
}

impl PureDelayChannel {
    /// Creates a pure delay channel.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidChannel`] for a negative or non-finite
    /// delay.
    pub fn new(delay: f64) -> Result<Self, SimError> {
        if !(delay >= 0.0) || !delay.is_finite() {
            return Err(SimError::InvalidChannel {
                reason: format!("pure delay must be non-negative (got {delay:e})"),
            });
        }
        Ok(PureDelayChannel { delay })
    }
}

impl TraceTransform for PureDelayChannel {
    fn apply(&self, input: &DigitalTrace) -> Result<DigitalTrace, SimError> {
        Ok(input.shifted(self.delay))
    }

    #[inline]
    fn apply_into(
        &self,
        input: TraceRef<'_>,
        out: &mut EdgeBuf,
    ) -> Result<ChannelEvents, SimError> {
        out.clear(input.initial_value());
        for &t in input.times() {
            out.push_time(t + self.delay)?;
        }
        Ok(ChannelEvents::default())
    }

    fn name(&self) -> &str {
        "pure"
    }

    /// Every edge is shifted by exactly `delay`: a degenerate interval.
    fn delay_bounds(&self) -> Option<DelayBounds> {
        Some(DelayBounds::exact(self.delay))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_waveform::units::ps;

    #[test]
    fn shifts_all_edges() {
        let ch = PureDelayChannel::new(ps(7.0)).unwrap();
        let input = DigitalTrace::with_edges(
            true,
            vec![(ps(5.0), false), (ps(6.0), true), (ps(100.0), false)],
        )
        .unwrap();
        let out = ch.apply(&input).unwrap();
        assert_eq!(out.transition_count(), 3, "pure delay never filters");
        for (i, e) in out.edges().iter().enumerate() {
            assert!((e.time - input.edges()[i].time - ps(7.0)).abs() < 1e-18);
        }
    }

    #[test]
    fn rejects_negative_delay() {
        assert!(PureDelayChannel::new(-1e-12).is_err());
        assert!(PureDelayChannel::new(f64::NAN).is_err());
    }

    #[test]
    fn zero_delay_is_identity() {
        let ch = PureDelayChannel::new(0.0).unwrap();
        let input = DigitalTrace::with_edges(false, vec![(1.0, true)]).unwrap();
        assert_eq!(ch.apply(&input).unwrap(), input);
    }
}
