use mis_waveform::{DigitalTrace, EdgeBuf, TraceRef};

use crate::channels::{ChannelEvents, DelayBounds, TraceTransform};
use crate::SimError;

/// The inertial delay channel: rising and falling edges are delayed by
/// (possibly different) constants, and output pulses shorter than the
/// rejection window are removed — the classic "constant delay + too-short
/// pulses vanish" model the paper uses as its accuracy baseline.
///
/// # Examples
///
/// ```
/// use mis_digital::{InertialChannel, TraceTransform};
/// use mis_waveform::{DigitalTrace, units::ps};
///
/// # fn main() -> Result<(), mis_digital::SimError> {
/// let ch = InertialChannel::symmetric(ps(30.0), ps(30.0))?;
/// // A 5 ps glitch dies; the long pulse survives.
/// let input = DigitalTrace::with_edges(false, vec![
///     (ps(100.0), true), (ps(105.0), false),
///     (ps(200.0), true), (ps(300.0), false),
/// ])?;
/// let out = ch.apply(&input)?;
/// assert_eq!(out.transition_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InertialChannel {
    delay_up: f64,
    delay_down: f64,
    rejection: f64,
}

impl InertialChannel {
    /// Creates an inertial channel with separate rising/falling delays and
    /// a rejection window equal to the smaller of the two (the common
    /// convention).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidChannel`] for negative or non-finite
    /// delays.
    pub fn symmetric(delay_up: f64, delay_down: f64) -> Result<Self, SimError> {
        Self::with_rejection(delay_up, delay_down, delay_up.min(delay_down))
    }

    /// Creates an inertial channel with an explicit rejection window.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidChannel`] for negative or non-finite
    /// parameters.
    pub fn with_rejection(
        delay_up: f64,
        delay_down: f64,
        rejection: f64,
    ) -> Result<Self, SimError> {
        for (name, v) in [
            ("delay_up", delay_up),
            ("delay_down", delay_down),
            ("rejection", rejection),
        ] {
            if !(v >= 0.0) || !v.is_finite() {
                return Err(SimError::InvalidChannel {
                    reason: format!("{name} must be non-negative (got {v:e})"),
                });
            }
        }
        Ok(InertialChannel {
            delay_up,
            delay_down,
            rejection,
        })
    }

    /// The rising-edge delay, seconds.
    #[must_use]
    pub fn delay_up(&self) -> f64 {
        self.delay_up
    }

    /// The falling-edge delay, seconds.
    #[must_use]
    pub fn delay_down(&self) -> f64 {
        self.delay_down
    }
}

impl TraceTransform for InertialChannel {
    fn apply(&self, input: &DigitalTrace) -> Result<DigitalTrace, SimError> {
        // Asymmetric shifting can reorder edges when a short pulse's
        // trailing edge overtakes its leading edge: that is precisely an
        // inertial cancellation. Collect shifted edges, cancel inversions
        // pairwise, then filter the remaining short pulses.
        let mut shifted: Vec<(f64, bool)> = input
            .edges()
            .iter()
            .map(|e| {
                let d = if e.rising {
                    self.delay_up
                } else {
                    self.delay_down
                };
                (e.time + d, e.rising)
            })
            .collect();
        // Pairwise cancellation of out-of-order neighbours.
        let mut i = 0;
        while i + 1 < shifted.len() {
            if shifted[i + 1].0 <= shifted[i].0 {
                shifted.drain(i..=i + 1);
                i = i.saturating_sub(1);
            } else {
                i += 1;
            }
        }
        let mut out = DigitalTrace::constant(input.initial_value());
        let mut value = input.initial_value();
        for (t, rising) in shifted {
            if rising != value {
                out.push_edge(t, rising)?;
                value = rising;
            }
        }
        Ok(out.filter_short_pulses(self.rejection)?)
    }

    #[inline]
    fn apply_into(
        &self,
        input: TraceRef<'_>,
        out: &mut EdgeBuf,
    ) -> Result<ChannelEvents, SimError> {
        out.clear(input.initial_value());
        // Pass 1 — shift + pairwise cancellation, stack-style: a shifted
        // edge landing at or before the last surviving one annihilates
        // together with it (both edges of an inverted-order pair vanish),
        // which re-exposes the edge before for the next comparison —
        // exactly the back-stepping drain loop of the allocating path.
        // Adjacent pairs have opposite polarity, so removal preserves the
        // alternation the buffer's parity representation implies.
        for (k, &t) in input.times().iter().enumerate() {
            let d = if input.rising(k) {
                self.delay_up
            } else {
                self.delay_down
            };
            let ts = t + d;
            match out.last_time() {
                Some(tp) if ts <= tp => {
                    out.pop_time();
                }
                _ => out.push_time(ts)?,
            }
        }
        // Pass 2 — inertial rejection of surviving short pulses, in place.
        out.filter_short_pulses_in_place(self.rejection)?;
        // Both removal mechanisms — reorder cancellation and pulse
        // rejection — are inertial filtering; the census is simply the
        // edges that went in minus the edges that came out.
        Ok(ChannelEvents {
            pulse_filtered: (input.len() - out.len()) as u64,
            ..ChannelEvents::default()
        })
    }

    fn name(&self) -> &str {
        "inertial"
    }

    /// Every surviving edge is some input edge shifted by `delay_up` or
    /// `delay_down`; cancellation and pulse rejection only *remove* edges,
    /// so the two constants bound every output edge.
    fn delay_bounds(&self) -> Option<DelayBounds> {
        Some(DelayBounds::new(
            self.delay_up.min(self.delay_down),
            self.delay_up.max(self.delay_down),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_waveform::units::ps;

    #[test]
    fn long_pulses_pass_with_correct_delays() {
        let ch = InertialChannel::symmetric(ps(10.0), ps(14.0)).unwrap();
        let input =
            DigitalTrace::with_edges(false, vec![(ps(100.0), true), (ps(200.0), false)]).unwrap();
        let out = ch.apply(&input).unwrap();
        assert_eq!(out.transition_count(), 2);
        assert!((out.edges()[0].time - ps(110.0)).abs() < 1e-18);
        assert!((out.edges()[1].time - ps(214.0)).abs() < 1e-18);
    }

    #[test]
    fn short_pulse_removed() {
        let ch = InertialChannel::symmetric(ps(30.0), ps(30.0)).unwrap();
        let input =
            DigitalTrace::with_edges(false, vec![(ps(100.0), true), (ps(110.0), false)]).unwrap();
        let out = ch.apply(&input).unwrap();
        assert_eq!(out.transition_count(), 0, "10 ps pulse < 30 ps window");
    }

    #[test]
    fn pulse_just_above_window_survives() {
        let ch = InertialChannel::symmetric(ps(30.0), ps(30.0)).unwrap();
        let input =
            DigitalTrace::with_edges(false, vec![(ps(100.0), true), (ps(131.0), false)]).unwrap();
        let out = ch.apply(&input).unwrap();
        assert_eq!(out.transition_count(), 2);
    }

    #[test]
    fn pulse_just_below_window_dies() {
        let ch = InertialChannel::symmetric(ps(30.0), ps(30.0)).unwrap();
        let input =
            DigitalTrace::with_edges(false, vec![(ps(100.0), true), (ps(129.0), false)]).unwrap();
        let out = ch.apply(&input).unwrap();
        assert_eq!(out.transition_count(), 0);
    }

    #[test]
    fn asymmetric_delays_reordering_cancels() {
        // Rising delayed 50 ps, falling 5 ps: a 10 ps high pulse inverts
        // order — the falling output would precede the rising one. Both
        // must annihilate.
        let ch = InertialChannel::with_rejection(ps(50.0), ps(5.0), 0.0).unwrap();
        let input =
            DigitalTrace::with_edges(false, vec![(ps(100.0), true), (ps(110.0), false)]).unwrap();
        let out = ch.apply(&input).unwrap();
        assert_eq!(out.transition_count(), 0);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(InertialChannel::symmetric(-1.0, 1.0).is_err());
        assert!(InertialChannel::with_rejection(1.0, 1.0, f64::NAN).is_err());
    }

    #[test]
    fn constant_input_unchanged() {
        let ch = InertialChannel::symmetric(ps(10.0), ps(10.0)).unwrap();
        let input = DigitalTrace::constant(true);
        assert_eq!(ch.apply(&input).unwrap(), input);
    }
}
