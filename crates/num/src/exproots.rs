//! Exact root localization for two-exponential functions
//! `f(t) = a·e^{λ₁t} + b·e^{λ₂t} − c`.
//!
//! Every per-mode output-voltage trajectory of the hybrid NOR model has
//! exactly this form (one or two real exponentials plus a constant), so
//! threshold-crossing extraction reduces to finding the roots of `f` on an
//! interval. Such an `f` has **at most two** real roots, because its
//! derivative `a·λ₁·e^{λ₁t} + b·λ₂·e^{λ₂t}` vanishes at most once (the
//! ratio of two exponentials is monotone). This module brackets each
//! monotone piece analytically and refines with bracket-safeguarded
//! Newton — crossings are never missed by sampling artifacts. Because there
//! are at most two, they come back inline in a [`Roots`] value, so a
//! crossing query allocates nothing.

use std::ops::Deref;

use crate::NumError;

/// Absolute tolerance for root refinement, as a fraction of `t_max`.
const REL_XTOL: f64 = 1e-15;

/// The roots of a two-exponential function on an interval: at most two,
/// sorted increasingly, held inline. Reads as a `&[f64]` through
/// [`Deref`] and iterates by value.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Roots {
    t: [f64; 2],
    len: usize,
}

impl Roots {
    /// Appends `r` unless it lies within `2·xtol` of a root already held.
    fn push_unique(&mut self, r: f64, xtol: f64) {
        if self.iter().all(|&x| (x - r).abs() > 2.0 * xtol) {
            self.t[self.len] = r;
            self.len += 1;
        }
    }
}

impl Deref for Roots {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.t[..self.len]
    }
}

impl IntoIterator for Roots {
    type Item = f64;
    type IntoIter = std::iter::Take<std::array::IntoIter<f64, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.t.into_iter().take(self.len)
    }
}

/// Returns all roots of `a·e^{l1·t} + b·e^{l2·t} = c` with `0 <= t <= t_max`,
/// sorted increasingly.
///
/// Exponents may be zero (constant terms) or equal (the two terms merge).
/// Positive exponents are accepted but the caller is responsible for
/// keeping `t_max` small enough that `e^{l·t_max}` does not overflow.
///
/// # Errors
///
/// * [`NumError::InvalidInput`] — `t_max` is not positive and finite, or a
///   coefficient is non-finite.
///
/// # Examples
///
/// A discharging RC output crossing half-swing:
///
/// ```
/// # fn main() -> Result<(), mis_num::NumError> {
/// // 0.8·e^{-t/τ} = 0.4  ⟹  t = τ·ln 2
/// let tau = 25e-12;
/// let r = mis_num::exproots::exp2_crossings(0.8, -1.0 / tau, 0.0, 0.0, 0.4, 1e-9)?;
/// assert_eq!(r.len(), 1);
/// assert!((r[0] - tau * std::f64::consts::LN_2).abs() < 1e-24);
/// # Ok(())
/// # }
/// ```
pub fn exp2_crossings(
    a: f64,
    l1: f64,
    b: f64,
    l2: f64,
    c: f64,
    t_max: f64,
) -> Result<Roots, NumError> {
    if !(t_max > 0.0) || !t_max.is_finite() {
        return Err(NumError::InvalidInput {
            reason: "t_max must be positive and finite".into(),
        });
    }
    for (name, v) in [("a", a), ("l1", l1), ("b", b), ("l2", l2), ("c", c)] {
        if !v.is_finite() {
            return Err(NumError::InvalidInput {
                reason: format!("coefficient {name} is not finite"),
            });
        }
    }

    // Normalize: fold constant terms (λ = 0) into the offset, merge equal
    // exponents, and drop zero coefficients. At most two terms survive, so
    // a fixed-size buffer keeps this hot path allocation-free.
    let mut amp = [(0.0_f64, 0.0_f64); 2]; // (coefficient, exponent)
    let mut n_amp = 0_usize;
    let mut offset = -c;
    for (coef, lam) in [(a, l1), (b, l2)] {
        if coef == 0.0 {
            continue;
        }
        if lam == 0.0 {
            offset += coef;
        } else if let Some(slot) = amp[..n_amp].iter_mut().find(|(_, l)| *l == lam) {
            slot.0 += coef;
        } else {
            amp[n_amp] = (coef, lam);
            n_amp += 1;
        }
    }
    if n_amp == 2 && amp[1].0 == 0.0 {
        n_amp = 1;
    }
    if n_amp >= 1 && amp[0].0 == 0.0 {
        amp[0] = amp[1];
        n_amp -= 1;
    }
    let amp = &amp[..n_amp];

    match amp.len() {
        0 => {
            // Constant function: either no roots or "everywhere"; report none
            // (a constant exactly on the threshold carries no crossing event).
            Ok(Roots::default())
        }
        1 => {
            // coef·e^{λt} + offset = 0 ⟹ t = ln(−offset/coef)/λ.
            let (coef, lam) = amp[0];
            let ratio = -offset / coef;
            if ratio <= 0.0 {
                return Ok(Roots::default());
            }
            let t = ratio.ln() / lam;
            if (0.0..=t_max).contains(&t) {
                Ok(Roots {
                    t: [t, 0.0],
                    len: 1,
                })
            } else {
                Ok(Roots::default())
            }
        }
        _ => {
            let f = |t: f64| -> f64 {
                let mut v = offset;
                for &(coef, lam) in amp {
                    v += coef * (lam * t).exp();
                }
                v
            };
            // Value and derivative from the same exponentials — one pair
            // of `exp` calls serves both, which is what makes the Newton
            // refinement cheaper than derivative-free bisection hybrids.
            let f_df = |t: f64| -> (f64, f64) {
                let mut v = offset;
                let mut dv = 0.0;
                for &(coef, lam) in amp {
                    let e = coef * (lam * t).exp();
                    v += e;
                    dv += lam * e;
                }
                (v, dv)
            };
            // Two distinct exponentials: derivative vanishes at most once, at
            // t* = ln(−(b·λ₂)/(a·λ₁)) / (λ₁ − λ₂).
            let (ca, la) = amp[0];
            let (cb, lb) = amp[1];
            let ratio = -(cb * lb) / (ca * la);
            let t_star = if ratio > 0.0 {
                let t = ratio.ln() / (la - lb);
                (t > 0.0 && t < t_max).then_some(t)
            } else {
                None
            };
            let pieces: [(f64, f64); 2] = match t_star {
                Some(ts) => [(0.0, ts), (ts, t_max)],
                None => [(0.0, t_max), (t_max, t_max)], // second piece is empty
            };
            let xtol = REL_XTOL * t_max;
            // Characteristic scale for the bracket scan: a fraction of the
            // fastest time constant. Roots live at O(1/|λ|) distances, so
            // scanning geometrically from this scale finds a bracket that
            // is orders of magnitude tighter than the full piece (whose
            // width is the crossing-search horizon, ~60 slow τ). This is
            // what makes rising delays (root-found in the coupled (0,0)
            // mode) as cheap as falling ones (closed-form in (1,1)).
            let scan_step = 0.5 / la.abs().max(lb.abs());
            let mut out = Roots::default();
            for (lo, hi) in pieces {
                if !(hi > lo) {
                    continue;
                }
                let flo = f(lo);
                let fhi = f(hi);
                if flo == 0.0 {
                    out.push_unique(lo, xtol);
                    continue;
                }
                if fhi == 0.0 {
                    out.push_unique(hi, xtol);
                    continue;
                }
                if flo.signum() != fhi.signum() {
                    let r = monotone_root(f, f_df, lo, hi, flo, fhi, scan_step, xtol)?;
                    out.push_unique(r, xtol);
                }
            }
            // The pieces are disjoint and visited left to right, and each
            // root lies inside its piece, so the roots come out sorted.
            Ok(out)
        }
    }
}

/// Finds the single root of a *monotone* `f` on `[lo, hi]` (the caller
/// guarantees a sign change): geometrically expands a bracket of initial
/// width `scan_step` from `lo`, then refines with bracket-safeguarded
/// Newton on the tightened bracket (quadratic convergence; bisection
/// fallback keeps every iterate inside the sign-change bracket).
#[allow(clippy::too_many_arguments)]
fn monotone_root(
    f: impl Fn(f64) -> f64,
    f_df: impl Fn(f64) -> (f64, f64),
    lo: f64,
    hi: f64,
    flo: f64,
    fhi: f64,
    scan_step: f64,
    xtol: f64,
) -> Result<f64, NumError> {
    let mut width = scan_step;
    if !(width > 0.0) || !width.is_finite() || width >= hi - lo {
        return newton_bracketed(&f_df, lo, hi, flo, fhi, xtol);
    }
    let mut a = lo;
    let fa = flo;
    loop {
        let b = (a + width).min(hi);
        if b >= hi {
            // The sign change sits in the remaining tail.
            return newton_bracketed(&f_df, a, hi, fa, fhi, xtol);
        }
        let fb = f(b);
        if !fb.is_finite() {
            return Err(NumError::NonFiniteValue { at: b });
        }
        if fb == 0.0 {
            return Ok(b);
        }
        if fb.signum() != fa.signum() {
            return newton_bracketed(&f_df, a, b, fa, fb, xtol);
        }
        a = b;
        width *= 2.0;
    }
}

/// Newton's method confined to a sign-change bracket `[a, b]`: iterates
/// that leave the bracket (or a vanishing derivative) fall back to
/// bisection, so worst-case behaviour is plain bisection while smooth
/// two-exponential crossings converge quadratically.
fn newton_bracketed(
    f_df: impl Fn(f64) -> (f64, f64),
    mut a: f64,
    mut b: f64,
    mut fa: f64,
    fb: f64,
    xtol: f64,
) -> Result<f64, NumError> {
    debug_assert!(fa.signum() != fb.signum());
    let _ = fb;
    let mut x = 0.5 * (a + b);
    for _ in 0..200 {
        let (fx, dfx) = f_df(x);
        if !fx.is_finite() {
            return Err(NumError::NonFiniteValue { at: x });
        }
        if fx == 0.0 {
            return Ok(x);
        }
        if fx.signum() == fa.signum() {
            a = x;
            fa = fx;
        } else {
            b = x;
        }
        let tol = xtol.max(4.0 * f64::EPSILON * a.abs().max(b.abs()));
        if b - a < tol {
            return Ok(0.5 * (a + b));
        }
        let step = fx / dfx;
        let candidate = x - step;
        x = if candidate.is_finite() && candidate > a && candidate < b {
            if step.abs() < tol {
                return Ok(candidate);
            }
            candidate
        } else {
            0.5 * (a + b)
        };
    }
    Err(NumError::NoConvergence {
        iterations: 200,
        residual: f_df(x).0.abs(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_exponential_decay() {
        // 1·e^{-2t} = 0.25 ⟹ t = ln(4)/2
        let r = exp2_crossings(1.0, -2.0, 0.0, 0.0, 0.25, 10.0).unwrap();
        assert_eq!(r.len(), 1);
        assert!((r[0] - 4.0f64.ln() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn no_root_when_level_unreachable() {
        // e^{-t} never reaches 2 for t >= 0.
        assert!(exp2_crossings(1.0, -1.0, 0.0, 0.0, 2.0, 10.0)
            .unwrap()
            .is_empty());
        // ... nor negative levels.
        assert!(exp2_crossings(1.0, -1.0, 0.0, 0.0, -0.5, 10.0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn root_beyond_t_max_excluded() {
        let r = exp2_crossings(1.0, -1.0, 0.0, 0.0, 0.5, 0.1).unwrap();
        assert!(r.is_empty(), "ln 2 ≈ 0.693 > 0.1");
    }

    #[test]
    fn rising_saturating_curve() {
        // 1 − e^{-t} = 0.5 written as −1·e^{-t} + 1·e^{0t} = 0.5.
        let r = exp2_crossings(-1.0, -1.0, 1.0, 0.0, 0.5, 10.0).unwrap();
        assert_eq!(r.len(), 1);
        assert!((r[0] - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn two_roots_from_non_monotone_sum() {
        // f(t) = 5·e^{-5t} − 4·e^{-t}: f(0) = 1 > 0, dips negative, then
        // approaches 0 from below... check f against level -0.5 which is
        // crossed twice.
        let f = |t: f64| 5.0 * (-5.0 * t).exp() - 4.0 * (-t).exp();
        let r = exp2_crossings(5.0, -5.0, -4.0, -1.0, -0.5, 20.0).unwrap();
        assert_eq!(r.len(), 2, "expected a dip through the level twice: {r:?}");
        for t in r {
            assert!((f(t) + 0.5).abs() < 1e-9);
        }
        assert!(r[0] < r[1]);
    }

    #[test]
    fn equal_exponents_merge() {
        // 0.3 e^{-t} + 0.7 e^{-t} = e^{-t}.
        let r = exp2_crossings(0.3, -1.0, 0.7, -1.0, 0.5, 10.0).unwrap();
        assert_eq!(r.len(), 1);
        assert!((r[0] - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn cancelling_coefficients_constant_zero() {
        // 1·e^{-t} − 1·e^{-t} − 0 = 0 everywhere: report no crossing events.
        let r = exp2_crossings(1.0, -1.0, -1.0, -1.0, 0.0, 10.0).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn root_at_zero_reported_once() {
        // f(0) = 1 + 1 − 2 = 0.
        let r = exp2_crossings(1.0, -1.0, 1.0, -2.0, 2.0, 10.0).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0], 0.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(exp2_crossings(1.0, -1.0, 0.0, 0.0, 0.5, 0.0).is_err());
        assert!(exp2_crossings(f64::NAN, -1.0, 0.0, 0.0, 0.5, 1.0).is_err());
        assert!(exp2_crossings(1.0, -1.0, 0.0, 0.0, 0.5, f64::INFINITY).is_err());
    }

    #[test]
    fn near_equal_exponent_rates_stay_accurate() {
        // λ₂ = λ₁(1 + ε): the stationary-point formula divides by λ₁ − λ₂,
        // which must not destabilize the result. Reference: for nearly
        // equal rates the sum is ≈ (a+b)·e^{λt}.
        for &eps in &[1e-6, 1e-9, 1e-12] {
            let l1 = -2.0;
            let l2 = l1 * (1.0 + eps);
            let r = exp2_crossings(0.4, l1, 0.6, l2, 0.5, 10.0).unwrap();
            assert_eq!(r.len(), 1, "eps = {eps:e}: {r:?}");
            let expected = (0.5f64).ln() / -2.0; // ln 2 / 2
            assert!(
                (r[0] - expected).abs() < 1e-6,
                "eps = {eps:e}: {} vs {expected}",
                r[0]
            );
        }
    }

    #[test]
    fn crossing_arbitrarily_close_to_zero() {
        // Root at t₀ = 10⁻¹⁸ of a 1 ns window: the tightened bracket scan
        // must localize it without degrading accuracy.
        for &t0 in &[1e-12_f64, 1e-15, 1e-18] {
            let tau = 25e-12_f64;
            let level = 0.8 * (-t0 / tau).exp();
            // Two-exponential form so the Newton path is exercised.
            let r = exp2_crossings(0.4, -1.0 / tau, 0.4, -1.0 / tau * (1.0 + 1e-3), level, 1e-9)
                .unwrap();
            assert_eq!(r.len(), 1, "t0 = {t0:e}: {r:?}");
            assert!(
                (r[0] - t0).abs() < 1e-3 * t0 + 1e-21,
                "t0 = {t0:e}: got {:e}",
                r[0]
            );
        }
    }

    #[test]
    fn no_crossing_two_exponential_is_clean_and_fast() {
        // A genuinely out-of-reach level with two distinct exponents: the
        // solver must report "no roots" without ever invoking the
        // iterative refinement (there is no sign change to hand to Newton),
        // i.e. a clean Ok(empty) — never a NoConvergence error.
        let r = exp2_crossings(0.3, -2.0e10, 0.5, -0.7e10, 2.0, 1e-8).unwrap();
        assert!(r.is_empty());
        // Same on the negative side.
        let r = exp2_crossings(0.3, -2.0e10, 0.5, -0.7e10, -1.0, 1e-8).unwrap();
        assert!(r.is_empty());
        // A non-monotone dip that never reaches the level: two monotone
        // pieces, neither with a sign change.
        // (the dip's minimum is ≈ −2.02, safely above −2.1)
        let r = exp2_crossings(5.0, -5.0, -4.0, -1.0, -2.1, 20.0).unwrap();
        assert!(r.is_empty(), "dip bottoms out above −2.1: {r:?}");
    }

    #[test]
    fn overflowing_positive_exponent_reports_clean_error() {
        // A positive exponent with a huge horizon overflows e^{λt}; the
        // contract is a descriptive error, not a hang or a panic.
        let res = exp2_crossings(1.0, 2000.0, 1.0, -1.0, -5.0, 1.0);
        match res {
            Err(NumError::NonFiniteValue { .. }) | Ok(_) => {}
            Err(e) => panic!("expected NonFiniteValue or roots, got {e:?}"),
        }
    }

    #[test]
    fn nor_mode_00_style_rise() {
        // V_O(t) = VDD + c1·v1·e^{λ1 t} + c2·v2·e^{λ2 t} rising from 0 to
        // VDD = 0.8, crossing 0.4 exactly once.
        let vdd = 0.8;
        // Pick a representative pair of decaying components with V_O(0)=0.
        let (k1, k2) = (-0.55 * vdd, -0.25 * vdd);
        let (l1, l2) = (-3.0e10, -0.8e10);
        // roots of k1 e^{l1 t} + k2 e^{l2 t} = 0.4 − 0.8 = −0.4
        let r = exp2_crossings(k1, l1, k2, l2, 0.4 - vdd, 1e-9).unwrap();
        assert_eq!(r.len(), 1);
        let f = k1 * (l1 * r[0]).exp() + k2 * (l2 * r[0]).exp() + vdd;
        assert!((f - 0.4).abs() < 1e-10);
    }
}
