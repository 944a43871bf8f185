//! Involution-property analysis for delay functions.
//!
//! The defining axiom of the Involution Delay Model (Függer et al., TCAD
//! 2020) is that a channel's delay function is a *negative involution*:
//! `−δ(−δ(T)) = T` on its domain. This module provides the checker that
//! the tests use to certify [`crate::ExpChannel`]'s delay function.

/// Verdict of an involution check.
#[derive(Debug, Clone, PartialEq)]
pub struct InvolutionReport {
    /// Largest absolute violation `|−δ(−δ(T)) − T|` observed, seconds.
    pub worst_violation: f64,
    /// The `T` at which the worst violation occurred.
    pub worst_at: f64,
    /// Number of sample points with finite δ that entered the check.
    pub checked: usize,
}

impl InvolutionReport {
    /// Whether the checked function satisfies the involution property
    /// within `tol` seconds.
    #[must_use]
    pub fn holds(&self, tol: f64) -> bool {
        self.checked > 0 && self.worst_violation <= tol
    }
}

/// Checks `−δ(−δ(T)) = T` on `n` uniform samples of `[t_lo, t_hi]`.
/// Samples where `δ` is non-finite (past the cancellation horizon) are
/// skipped.
///
/// # Examples
///
/// ```
/// use mis_digital::{involution, ExpChannel};
/// use mis_waveform::units::ps;
///
/// # fn main() -> Result<(), mis_digital::SimError> {
/// let ch = ExpChannel::from_sis_delays(ps(55.0), ps(55.0), ps(20.0))?;
/// let report = involution::check(|t| ch.delta_up(t), ps(-30.0), ps(200.0), 100);
/// assert!(report.holds(ps(1e-6)));
/// # Ok(())
/// # }
/// ```
pub fn check<F: Fn(f64) -> f64>(delta: F, t_lo: f64, t_hi: f64, n: usize) -> InvolutionReport {
    let mut worst_violation = 0.0;
    let mut worst_at = f64::NAN;
    let mut checked = 0;
    for i in 0..n.max(2) {
        let t = t_lo + (t_hi - t_lo) * i as f64 / (n.max(2) - 1) as f64;
        let d = delta(t);
        if !d.is_finite() {
            continue;
        }
        let back = delta(-d);
        if !back.is_finite() {
            continue;
        }
        let violation = (-back - t).abs();
        checked += 1;
        if violation > worst_violation {
            worst_violation = violation;
            worst_at = t;
        }
    }
    InvolutionReport {
        worst_violation,
        worst_at,
        checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExpChannel;
    use mis_waveform::units::ps;

    #[test]
    fn exp_channel_is_involution() {
        let ch = ExpChannel::from_sis_delays(ps(40.0), ps(40.0), ps(15.0)).unwrap();
        let report = check(|t| ch.delta_up(t), ps(-25.0), ps(300.0), 200);
        assert!(
            report.holds(ps(1e-6)),
            "worst: {:e}",
            report.worst_violation
        );
        assert!(report.checked > 100);
    }

    #[test]
    fn pure_delay_is_involution_too() {
        // δ(T) = const satisfies −δ(−δ(T)) = ... only trivially? No:
        // −δ(−δ(T)) = −const ≠ T. A constant delay is NOT an involution —
        // the checker must say so.
        let report = check(|_t| ps(10.0), ps(-5.0), ps(50.0), 50);
        assert!(!report.holds(ps(0.001)));
    }
}
