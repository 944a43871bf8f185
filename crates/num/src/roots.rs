//! Scalar root finding: Brent's method, with bisection as its oracle.
//!
//! Threshold-crossing extraction — "when does `V_O(t)` cross `V_DD/2`?" — is
//! the single most common numerical operation in this workspace. Brent's
//! method is the workhorse: superlinear on the smooth exponential
//! trajectories of the hybrid model, while never leaving its bracket.

use crate::NumError;

/// Convergence budget shared by the iterative solvers.
const MAX_ITER: usize = 200;

/// Finds a root of `f` in `[a, b]` by bisection.
///
/// Robust and simple; used as the fallback validator for
/// [`brent`]. Requires `f(a)` and `f(b)` to have opposite signs.
///
/// # Errors
///
/// * [`NumError::InvalidBracket`] — no sign change over `[a, b]`.
/// * [`NumError::NonFiniteValue`] — `f` returned NaN/inf.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), mis_num::NumError> {
/// let root = mis_num::roots::bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12)?;
/// assert!((root - 2.0f64.sqrt()).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn bisect<F: FnMut(f64) -> f64>(
    mut f: F,
    mut a: f64,
    mut b: f64,
    xtol: f64,
) -> Result<f64, NumError> {
    if !(a < b) {
        return Err(NumError::InvalidBracket {
            a,
            b,
            reason: "endpoints not ordered".into(),
        });
    }
    let mut fa = f(a);
    let fb = f(b);
    check_finite(fa, a)?;
    check_finite(fb, b)?;
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa.signum() == fb.signum() {
        return Err(NumError::InvalidBracket {
            a,
            b,
            reason: "no sign change".into(),
        });
    }
    for _ in 0..MAX_ITER.max(128) {
        let mid = 0.5 * (a + b);
        let fm = f(mid);
        check_finite(fm, mid)?;
        if fm == 0.0 || (b - a) < xtol {
            return Ok(mid);
        }
        if fm.signum() == fa.signum() {
            a = mid;
            fa = fm;
        } else {
            b = mid;
        }
    }
    Ok(0.5 * (a + b))
}

/// Finds a root of `f` in `[a, b]` with Brent's method (inverse quadratic
/// interpolation + secant + bisection safeguards).
///
/// # Errors
///
/// * [`NumError::InvalidBracket`] — no sign change over `[a, b]`.
/// * [`NumError::NonFiniteValue`] — `f` returned NaN/inf.
///
/// # Examples
///
/// Inverting an exponential decay for its half-life:
///
/// ```
/// # fn main() -> Result<(), mis_num::NumError> {
/// let tau = 2.0;
/// let t_half = mis_num::roots::brent(|t: f64| (-t / tau).exp() - 0.5, 0.0, 10.0, 1e-14)?;
/// assert!((t_half - tau * std::f64::consts::LN_2).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn brent<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64, xtol: f64) -> Result<f64, NumError> {
    let (mut xa, mut xb) = (a, b);
    let mut fa = f(xa);
    let mut fb = f(xb);
    check_finite(fa, xa)?;
    check_finite(fb, xb)?;
    if fa == 0.0 {
        return Ok(xa);
    }
    if fb == 0.0 {
        return Ok(xb);
    }
    if fa.signum() == fb.signum() {
        return Err(NumError::InvalidBracket {
            a,
            b,
            reason: "no sign change".into(),
        });
    }
    // Ensure |f(xb)| <= |f(xa)|: xb is the current best iterate.
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut xa, &mut xb);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut xc = xa;
    let mut fc = fa;
    let mut mflag = true;
    let mut d = 0.0_f64;

    for _ in 0..MAX_ITER {
        // Converged when the bracket shrinks below the requested tolerance
        // *or* below the floating-point resolution at the iterate — a
        // caller-supplied xtol finer than one ULP is otherwise unreachable.
        let ulp_floor = 4.0 * f64::EPSILON * xa.abs().max(xb.abs());
        if fb == 0.0 || (xb - xa).abs() < xtol.max(ulp_floor) {
            return Ok(xb);
        }
        let mut s = if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            xa * fb * fc / ((fa - fb) * (fa - fc))
                + xb * fa * fc / ((fb - fa) * (fb - fc))
                + xc * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // Secant.
            xb - fb * (xb - xa) / (fb - fa)
        };

        let lo = (3.0 * xa + xb) / 4.0;
        let (lo, hi) = if lo < xb { (lo, xb) } else { (xb, lo) };
        let use_bisection = !(s > lo && s < hi)
            || (mflag && (s - xb).abs() >= (xb - xc).abs() / 2.0)
            || (!mflag && (s - xb).abs() >= (xc - d).abs() / 2.0)
            || (mflag && (xb - xc).abs() < xtol)
            || (!mflag && (xc - d).abs() < xtol);
        if use_bisection {
            s = 0.5 * (xa + xb);
            mflag = true;
        } else {
            mflag = false;
        }

        let fs = f(s);
        check_finite(fs, s)?;
        d = xc;
        xc = xb;
        fc = fb;
        if fa.signum() != fs.signum() {
            xb = s;
            fb = fs;
        } else {
            xa = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut xa, &mut xb);
            std::mem::swap(&mut fa, &mut fb);
        }
    }
    Err(NumError::NoConvergence {
        iterations: MAX_ITER,
        residual: fb.abs(),
    })
}

fn check_finite(v: f64, at: f64) -> Result<(), NumError> {
    if v.is_finite() {
        Ok(())
    } else {
        Err(NumError::NonFiniteValue { at })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-13).unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-11);
    }

    #[test]
    fn bisect_rejects_bad_bracket() {
        assert!(matches!(
            bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-10),
            Err(NumError::InvalidBracket { .. })
        ));
        assert!(bisect(|x| x, 1.0, 0.0, 1e-10).is_err());
    }

    #[test]
    fn bisect_exact_endpoint_root() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, 1e-10).unwrap(), 0.0);
        assert_eq!(bisect(|x| x - 1.0, 0.0, 1.0, 1e-10).unwrap(), 1.0);
    }

    #[test]
    fn brent_matches_bisect_on_smooth_function() {
        let f = |x: f64| x.exp() - 3.0;
        let rb = brent(f, 0.0, 3.0, 1e-14).unwrap();
        let rbi = bisect(f, 0.0, 3.0, 1e-12).unwrap();
        assert!((rb - 3.0f64.ln()).abs() < 1e-12);
        assert!((rb - rbi).abs() < 1e-9);
    }

    #[test]
    fn brent_handles_steep_function() {
        // Very steep crossing; Brent should still nail it.
        let f = |x: f64| (1e6 * (x - 0.123456)).tanh();
        let r = brent(f, 0.0, 1.0, 1e-15).unwrap();
        assert!((r - 0.123456).abs() < 1e-9);
    }

    #[test]
    fn brent_rejects_nan() {
        assert!(matches!(
            brent(|_| f64::NAN, 0.0, 1.0, 1e-10),
            Err(NumError::NonFiniteValue { .. })
        ));
    }

    #[test]
    fn brent_double_root_like_touching_is_rejected() {
        // x^2 touches zero but never changes sign: invalid bracket.
        assert!(brent(|x: f64| x * x, -1.0, 1.0, 1e-12).is_err());
    }
}
