use mis_waveform::{DigitalTrace, EdgeBuf, TraceRef};

use crate::channels::{apply_involution, apply_involution_into, ChannelEvents, TraceTransform};
use crate::SimError;

/// The IDM exponential involution channel.
///
/// Models the output as a first-order RC stage behind a pure delay `δ_p`,
/// with (possibly different) rising/falling time constants `τ↑`, `τ↓`:
///
/// ```text
/// δ↑(T) = δ_p + τ↑·ln(2 − e^{−(T+δ_p)/τ↓}),
/// δ↓(T) = δ_p + τ↓·ln(2 − e^{−(T+δ_p)/τ↑}),
/// ```
///
/// which satisfies the *pair* involution property `−δ↓(−δ↑(T)) = T`
/// exactly (the defining IDM axiom — see [`crate::involution`]).
/// `δ↑(∞) = δ_p + τ↑·ln 2` is the rising SIS delay and symmetrically for
/// falling; `δ(T) → −∞` at the cancellation horizon.
///
/// # Examples
///
/// ```
/// use mis_digital::ExpChannel;
/// use mis_waveform::units::ps;
///
/// # fn main() -> Result<(), mis_digital::SimError> {
/// let ch = ExpChannel::from_sis_delays(ps(54.0), ps(38.0), ps(20.0))?;
/// assert!((ch.delta_up(f64::INFINITY) - ps(54.0)).abs() < 1e-18);
/// // Pair involution: −δ↓(−δ↑(T)) = T.
/// let t = ps(13.0);
/// assert!((-ch.delta_down(-ch.delta_up(t)) - t).abs() < ps(1e-6));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExpChannel {
    pure_delay: f64,
    tau_up: f64,
    tau_down: f64,
}

impl ExpChannel {
    /// Creates a channel from its time constants and pure delay.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidChannel`] for non-positive time
    /// constants or a negative pure delay.
    pub fn with_taus(tau_up: f64, tau_down: f64, pure_delay: f64) -> Result<Self, SimError> {
        for (name, v) in [("tau_up", tau_up), ("tau_down", tau_down)] {
            if !(v > 0.0) || !v.is_finite() {
                return Err(SimError::InvalidChannel {
                    reason: format!("{name} must be positive (got {v:e})"),
                });
            }
        }
        if !(pure_delay >= 0.0) || !pure_delay.is_finite() {
            return Err(SimError::InvalidChannel {
                reason: format!("pure delay must be non-negative (got {pure_delay:e})"),
            });
        }
        Ok(ExpChannel {
            pure_delay,
            tau_up,
            tau_down,
        })
    }

    /// Symmetric channel: `τ↑ = τ↓ = tau`.
    ///
    /// # Errors
    ///
    /// See [`ExpChannel::with_taus`].
    pub fn new(tau: f64, pure_delay: f64) -> Result<Self, SimError> {
        Self::with_taus(tau, tau, pure_delay)
    }

    /// Creates a symmetric channel matching a given SIS delay `δ(∞)`:
    /// `τ = (δ(∞) − δ_p)/ln 2`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidChannel`] unless
    /// `0 <= pure_delay < sis_delay`.
    pub fn from_sis_delay(sis_delay: f64, pure_delay: f64) -> Result<Self, SimError> {
        Self::from_sis_delays(sis_delay, sis_delay, pure_delay)
    }

    /// Creates a channel matching rising/falling SIS delays.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidChannel`] unless both SIS delays exceed
    /// the pure delay.
    pub fn from_sis_delays(sis_up: f64, sis_down: f64, pure_delay: f64) -> Result<Self, SimError> {
        if !(sis_up > pure_delay && sis_down > pure_delay) {
            return Err(SimError::InvalidChannel {
                reason: format!(
                    "sis delays ({sis_up:e}, {sis_down:e}) must exceed the pure delay \
                     ({pure_delay:e})"
                ),
            });
        }
        Self::with_taus(
            (sis_up - pure_delay) / std::f64::consts::LN_2,
            (sis_down - pure_delay) / std::f64::consts::LN_2,
            pure_delay,
        )
    }

    /// The rising delay function `δ↑(T)`; `−∞` past the cancellation
    /// horizon.
    #[must_use]
    pub fn delta_up(&self, t: f64) -> f64 {
        self.delta_dir(t, self.tau_up, self.tau_down)
    }

    /// The falling delay function `δ↓(T)`.
    #[must_use]
    pub fn delta_down(&self, t: f64) -> f64 {
        self.delta_dir(t, self.tau_down, self.tau_up)
    }

    /// The delay function for a transition of the given polarity.
    #[must_use]
    pub fn delta(&self, t: f64) -> f64 {
        // Symmetric-channel convenience (τ↑ = τ↓); for asymmetric
        // channels prefer the direction-specific accessors.
        self.delta_up(t)
    }

    fn delta_dir(&self, t: f64, tau_self: f64, tau_other: f64) -> f64 {
        let arg = 2.0 - (-(t + self.pure_delay) / tau_other).exp();
        if arg <= 0.0 {
            f64::NEG_INFINITY
        } else {
            self.pure_delay + tau_self * arg.ln()
        }
    }

    /// The rising SIS delay `δ↑(∞) = δ_p + τ↑·ln 2`.
    #[must_use]
    pub fn sis_delay_up(&self) -> f64 {
        self.pure_delay + self.tau_up * std::f64::consts::LN_2
    }

    /// The falling SIS delay `δ↓(∞) = δ_p + τ↓·ln 2`.
    #[must_use]
    pub fn sis_delay_down(&self) -> f64 {
        self.pure_delay + self.tau_down * std::f64::consts::LN_2
    }

    /// The symmetric SIS delay (equals both directional ones for a
    /// symmetric channel).
    #[must_use]
    pub fn sis_delay(&self) -> f64 {
        self.sis_delay_up()
    }

    /// The channel's rising time constant.
    #[must_use]
    pub fn tau(&self) -> f64 {
        self.tau_up
    }

    /// The channel's pure-delay component.
    #[must_use]
    pub fn pure_delay(&self) -> f64 {
        self.pure_delay
    }
}

impl TraceTransform for ExpChannel {
    fn apply(&self, input: &DigitalTrace) -> Result<DigitalTrace, SimError> {
        apply_involution(input, input.initial_value(), |t, rising| {
            if rising {
                self.delta_up(t)
            } else {
                self.delta_down(t)
            }
        })
    }

    #[inline]
    fn apply_into(
        &self,
        input: TraceRef<'_>,
        out: &mut EdgeBuf,
    ) -> Result<ChannelEvents, SimError> {
        apply_involution_into(
            input,
            input.initial_value(),
            |t, rising| {
                if rising {
                    self.delta_up(t)
                } else {
                    self.delta_down(t)
                }
            },
            out,
        )?;
        Ok(ChannelEvents::default())
    }

    fn name(&self) -> &str {
        "exp-involution"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_waveform::units::ps;

    fn ch() -> ExpChannel {
        ExpChannel::from_sis_delay(ps(55.0), ps(20.0)).unwrap()
    }

    #[test]
    fn sis_delay_round_trip() {
        assert!((ch().sis_delay() - ps(55.0)).abs() < 1e-20);
        assert!((ch().delta(1.0) - ps(55.0)).abs() < 1e-18, "T = 1 s ≈ ∞");
        let asym = ExpChannel::from_sis_delays(ps(54.0), ps(38.0), ps(20.0)).unwrap();
        assert!((asym.sis_delay_up() - ps(54.0)).abs() < 1e-20);
        assert!((asym.sis_delay_down() - ps(38.0)).abs() < 1e-20);
    }

    #[test]
    fn delta_is_monotone_increasing_in_t() {
        let c = ch();
        let mut prev = f64::NEG_INFINITY;
        let mut t = -c.pure_delay() - c.tau() * std::f64::consts::LN_2 + ps(0.5);
        while t < ps(200.0) {
            let d = c.delta(t);
            assert!(d >= prev, "δ must be monotone at T = {t:e}");
            prev = d;
            t += ps(1.0);
        }
    }

    #[test]
    fn involution_property_exact_symmetric() {
        let c = ch();
        for &t in &[ps(-25.0), ps(-5.0), 0.0, ps(10.0), ps(100.0)] {
            let lhs = -c.delta(-c.delta(t));
            assert!(
                (lhs - t).abs() < ps(1e-9),
                "involution broken at T = {t:e}: {lhs:e}"
            );
        }
    }

    #[test]
    fn pair_involution_exact_asymmetric() {
        let c = ExpChannel::from_sis_delays(ps(54.0), ps(38.0), ps(20.0)).unwrap();
        for &t in &[ps(-20.0), ps(-3.0), 0.0, ps(25.0), ps(150.0)] {
            let up = -c.delta_down(-c.delta_up(t));
            let down = -c.delta_up(-c.delta_down(t));
            assert!((up - t).abs() < ps(1e-9), "up-pair broken at {t:e}");
            assert!((down - t).abs() < ps(1e-9), "down-pair broken at {t:e}");
        }
    }

    #[test]
    fn widely_spaced_edges_get_sis_delay() {
        let c = ch();
        let input =
            DigitalTrace::with_edges(false, vec![(ps(1000.0), true), (ps(9000.0), false)]).unwrap();
        let out = c.apply(&input).unwrap();
        assert_eq!(out.transition_count(), 2);
        assert!((out.edges()[0].time - ps(1055.0)).abs() < ps(0.001));
        assert!((out.edges()[1].time - ps(9055.0)).abs() < ps(0.5));
    }

    #[test]
    fn short_pulse_is_cancelled() {
        let c = ch();
        let input =
            DigitalTrace::with_edges(false, vec![(ps(1000.0), true), (ps(1002.0), false)]).unwrap();
        let out = c.apply(&input).unwrap();
        assert_eq!(out.transition_count(), 0);
    }

    #[test]
    fn medium_pulse_is_shortened_but_survives() {
        let c = ch();
        let width_in = ps(42.0);
        let input = DigitalTrace::with_edges(
            false,
            vec![(ps(1000.0), true), (ps(1000.0) + width_in, false)],
        )
        .unwrap();
        let out = c.apply(&input).unwrap();
        assert_eq!(out.transition_count(), 2, "pulse should survive");
        let width_out = out.edges()[1].time - out.edges()[0].time;
        assert!(
            width_out < width_in,
            "output pulse must be shortened: {width_out:e} vs {width_in:e}"
        );
    }

    #[test]
    fn constructor_validation() {
        assert!(ExpChannel::new(0.0, 0.0).is_err());
        assert!(ExpChannel::new(1e-12, -1.0).is_err());
        assert!(ExpChannel::from_sis_delay(ps(10.0), ps(20.0)).is_err());
        assert!(ExpChannel::from_sis_delays(ps(30.0), ps(10.0), ps(20.0)).is_err());
    }

    #[test]
    fn delta_saturates_to_negative_infinity() {
        let c = ch();
        let horizon = -c.pure_delay() - c.tau() * std::f64::consts::LN_2;
        assert_eq!(c.delta(horizon - ps(1.0)), f64::NEG_INFINITY);
    }
}
