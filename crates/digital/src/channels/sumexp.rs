use mis_waveform::{DigitalTrace, EdgeBuf, TraceRef};

use crate::channels::{apply_involution, apply_involution_into, ChannelEvents, TraceTransform};
use crate::SimError;

/// An involution channel whose switching waveform is a **sum of two
/// exponentials** — the Involution Tool's richer channel family (the paper
/// mentions that implementing it in VHDL required numerically inverting
/// the trajectory; here that is a Brent solve).
///
/// The falling waveform, normalized to swing 1 → 0, is
///
/// ```text
/// f↓(s) = a·e^{−s/τ₁} + (1−a)·e^{−s/τ₂},     0 < a < 1,
/// ```
///
/// the rising waveform is its mirror `f↑ = 1 − f↓`, and the single-history
/// delay follows the standard IDM construction: an input edge arriving `T`
/// after the previous output crossing finds the analog stage at
/// `v₀ = f↓(s_c + δ_p + T)` (`s_c` = the waveform's half-swing time) and
/// the output crossing happens when the opposite waveform reaches ½. This
/// construction yields an *exact* involution for any strictly monotone
/// waveform; the property tests verify it numerically.
///
/// # Examples
///
/// ```
/// use mis_digital::SumExpChannel;
/// use mis_waveform::units::ps;
///
/// # fn main() -> Result<(), mis_digital::SimError> {
/// let ch = SumExpChannel::from_sis_delay(ps(55.0), ps(20.0), 0.7, 4.0)?;
/// assert!((ch.sis_delay() - ps(55.0)).abs() < ps(0.01));
/// let t = ps(7.0);
/// assert!((-ch.delta(-ch.delta(t)) - t).abs() < ps(0.01));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SumExpChannel {
    a: f64,
    tau1: f64,
    tau2: f64,
    pure_delay: f64,
    /// Cached half-swing time of the waveform: `f↓(s_c) = ½`.
    s_half: f64,
}

impl SumExpChannel {
    /// Creates a channel from the waveform mixture `a`, time constants and
    /// pure delay.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidChannel`] unless `0 < a < 1`, both time
    /// constants are positive, and the pure delay is non-negative.
    pub fn new(a: f64, tau1: f64, tau2: f64, pure_delay: f64) -> Result<Self, SimError> {
        if !(a > 0.0 && a < 1.0) {
            return Err(SimError::InvalidChannel {
                reason: format!("mixture a must lie in (0,1) (got {a})"),
            });
        }
        for (name, v) in [("tau1", tau1), ("tau2", tau2)] {
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
        let mut ch = SumExpChannel {
            a,
            tau1,
            tau2,
            pure_delay,
            s_half: 0.0,
        };
        ch.s_half = ch
            .f_down_inverse(0.5)
            .ok_or_else(|| SimError::InvalidChannel {
                reason: "failed to locate the waveform's half-swing time".into(),
            })?;
        Ok(ch)
    }

    /// Creates a channel whose SIS delay `δ(∞) = δ_p + s_c` equals
    /// `sis_delay`, with mixture `a` and time-constant ratio
    /// `tau_ratio = τ₂/τ₁`. The waveform's shape is fixed by `(a,
    /// tau_ratio)` and rescaled in time to hit the target.
    ///
    /// # Errors
    ///
    /// Same as [`SumExpChannel::new`], plus a positive-ratio requirement.
    pub fn from_sis_delay(
        sis_delay: f64,
        pure_delay: f64,
        a: f64,
        tau_ratio: f64,
    ) -> Result<Self, SimError> {
        if !(tau_ratio > 0.0) {
            return Err(SimError::InvalidChannel {
                reason: format!("tau_ratio must be positive (got {tau_ratio})"),
            });
        }
        if !(sis_delay > pure_delay) {
            return Err(SimError::InvalidChannel {
                reason: format!(
                    "sis delay ({sis_delay:e}) must exceed the pure delay ({pure_delay:e})"
                ),
            });
        }
        // Unit-scale prototype, then rescale time so s_half matches.
        let proto = SumExpChannel::new(a, 1.0, tau_ratio, 0.0)?;
        let scale = (sis_delay - pure_delay) / proto.s_half;
        SumExpChannel::new(a, scale, tau_ratio * scale, pure_delay)
    }

    /// The normalized falling waveform `f↓(s)` (swing 1 → 0, `s` from the
    /// start of the transition; `s < 0` extrapolates above 1).
    #[must_use]
    pub fn f_down(&self, s: f64) -> f64 {
        self.a * (-s / self.tau1).exp() + (1.0 - self.a) * (-s / self.tau2).exp()
    }

    /// Inverse of the falling waveform on its strictly decreasing domain;
    /// `None` for `y` outside `(0, f↓(s_lo)]`.
    fn f_down_inverse(&self, y: f64) -> Option<f64> {
        if !(y > 0.0) || !y.is_finite() {
            return None;
        }
        // Bracket: f↓ is strictly decreasing over all of ℝ.
        let t_big = self.tau1.max(self.tau2) * (1.0 / y).ln().max(1.0) + self.tau1 + self.tau2;
        let lo = -t_big;
        let f = |s: f64| self.f_down(s) - y;
        mis_num::roots::brent(f, lo, t_big, 1e-14 * t_big).ok()
    }

    /// The delay function `δ(T)`; `−∞` past the cancellation horizon.
    #[must_use]
    pub fn delta(&self, t: f64) -> f64 {
        let v0 = if t == f64::INFINITY {
            0.0
        } else {
            self.f_down(self.s_half + self.pure_delay + t)
        };
        let target = 1.0 - v0;
        if target <= 0.0 {
            return f64::NEG_INFINITY;
        }
        match self.f_down_inverse(target) {
            Some(s0) => self.pure_delay + self.s_half - s0,
            None => f64::NEG_INFINITY,
        }
    }

    /// The SIS delay `δ(∞) = δ_p + s_c`.
    #[must_use]
    pub fn sis_delay(&self) -> f64 {
        self.pure_delay + self.s_half
    }
}

impl TraceTransform for SumExpChannel {
    fn apply(&self, input: &DigitalTrace) -> Result<DigitalTrace, SimError> {
        apply_involution(input, input.initial_value(), |t, _rising| self.delta(t))
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
            |t, _rising| self.delta(t),
            out,
        )?;
        Ok(ChannelEvents::default())
    }

    fn name(&self) -> &str {
        "sumexp-involution"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_waveform::units::ps;

    fn ch() -> SumExpChannel {
        SumExpChannel::from_sis_delay(ps(55.0), ps(20.0), 0.7, 4.0).unwrap()
    }

    #[test]
    fn sis_delay_matches_target() {
        assert!((ch().sis_delay() - ps(55.0)).abs() < ps(0.01));
        assert!((ch().delta(1.0) - ps(55.0)).abs() < ps(0.01));
    }

    #[test]
    fn involution_property_numeric() {
        let c = ch();
        for &t in &[ps(-20.0), ps(-5.0), 0.0, ps(15.0), ps(80.0)] {
            let d = c.delta(t);
            if d.is_finite() {
                let lhs = -c.delta(-d);
                assert!(
                    (lhs - t).abs() < ps(0.01),
                    "involution broken at T = {t:e}: {lhs:e}"
                );
            }
        }
    }

    #[test]
    fn delta_monotone() {
        let c = ch();
        let mut prev = f64::NEG_INFINITY;
        for i in -50..200 {
            let t = ps(i as f64);
            let d = c.delta(t);
            if d.is_finite() {
                assert!(d >= prev - ps(1e-6), "non-monotone at {t:e}");
                prev = d;
            }
        }
    }

    #[test]
    fn reduces_to_exp_like_behavior_for_similar_taus() {
        // With τ₂ ≈ τ₁ the waveform is nearly a single exponential; the
        // delay function should track an ExpChannel of the same SIS delay.
        let se = SumExpChannel::from_sis_delay(ps(55.0), ps(20.0), 0.5, 1.001).unwrap();
        let e = crate::ExpChannel::from_sis_delay(ps(55.0), ps(20.0)).unwrap();
        for &t in &[0.0, ps(10.0), ps(50.0)] {
            assert!(
                (se.delta(t) - e.delta(t)).abs() < ps(0.5),
                "T = {t:e}: {:e} vs {:e}",
                se.delta(t),
                e.delta(t)
            );
        }
    }

    #[test]
    fn filters_short_pulses() {
        let c = ch();
        let input =
            DigitalTrace::with_edges(false, vec![(ps(1000.0), true), (ps(1003.0), false)]).unwrap();
        let out = c.apply(&input).unwrap();
        assert_eq!(out.transition_count(), 0);
    }

    #[test]
    fn constructor_validation() {
        assert!(SumExpChannel::new(0.0, 1.0, 1.0, 0.0).is_err());
        assert!(SumExpChannel::new(1.0, 1.0, 1.0, 0.0).is_err());
        assert!(SumExpChannel::new(0.5, -1.0, 1.0, 0.0).is_err());
        assert!(SumExpChannel::new(0.5, 1.0, 1.0, -1.0).is_err());
        assert!(SumExpChannel::from_sis_delay(ps(10.0), ps(20.0), 0.5, 2.0).is_err());
        assert!(SumExpChannel::from_sis_delay(ps(10.0), ps(2.0), 0.5, -2.0).is_err());
    }
}
