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
    fn with_taus(tau_up: f64, tau_down: f64, pure_delay: f64) -> Result<Self, SimError> {
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

    fn delta_dir(&self, t: f64, tau_self: f64, tau_other: f64) -> f64 {
        let arg = 2.0 - (-(t + self.pure_delay) / tau_other).exp();
        if arg <= 0.0 {
            f64::NEG_INFINITY
        } else {
            self.pure_delay + tau_self * arg.ln()
        }
    }
}

impl TraceTransform for ExpChannel {
    fn apply(&self, input: &DigitalTrace) -> Result<DigitalTrace, SimError> {
        apply_involution(input, |t, rising| {
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

    /// A symmetric channel: `δ(∞) = 55 ps` both ways, `δ_p = 20 ps`, so
    /// `τ·ln 2 = 35 ps` and the cancellation horizon is `T = −55 ps`.
    fn ch() -> ExpChannel {
        ExpChannel::from_sis_delays(ps(55.0), ps(55.0), ps(20.0)).unwrap()
    }

    const HORIZON: f64 = -55.0e-12;

    #[test]
    fn sis_delay_round_trip() {
        assert!((ch().delta_up(f64::INFINITY) - ps(55.0)).abs() < 1e-20);
        assert!((ch().delta_up(1.0) - ps(55.0)).abs() < 1e-18, "T = 1 s ≈ ∞");
        let asym = ExpChannel::from_sis_delays(ps(54.0), ps(38.0), ps(20.0)).unwrap();
        assert!((asym.delta_up(f64::INFINITY) - ps(54.0)).abs() < 1e-20);
        assert!((asym.delta_down(f64::INFINITY) - ps(38.0)).abs() < 1e-20);
    }

    #[test]
    fn delta_is_monotone_increasing_in_t() {
        let c = ch();
        let mut prev = f64::NEG_INFINITY;
        let mut t = HORIZON + ps(0.5);
        while t < ps(200.0) {
            let d = c.delta_up(t);
            assert!(d >= prev, "δ must be monotone at T = {t:e}");
            prev = d;
            t += ps(1.0);
        }
    }

    #[test]
    fn involution_property_exact_symmetric() {
        let c = ch();
        for &t in &[ps(-25.0), ps(-5.0), 0.0, ps(10.0), ps(100.0)] {
            let lhs = -c.delta_up(-c.delta_up(t));
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
        assert!(ExpChannel::with_taus(0.0, 1e-12, 0.0).is_err());
        assert!(ExpChannel::with_taus(1e-12, 1e-12, -1.0).is_err());
        assert!(ExpChannel::from_sis_delays(ps(10.0), ps(10.0), ps(20.0)).is_err());
        assert!(ExpChannel::from_sis_delays(ps(30.0), ps(10.0), ps(20.0)).is_err());
    }

    #[test]
    fn delta_saturates_to_negative_infinity() {
        assert_eq!(ch().delta_up(HORIZON - ps(1.0)), f64::NEG_INFINITY);
    }
}
