//! Piecewise-linear and monotone-cubic interpolation over sorted sample
//! tables.
//!
//! [`lerp_table_unchecked`] is the workhorse for sampled voltage waveforms. The
//! monotone cubic ([`pchip_slopes`] / [`pchip_eval`] / [`MonotoneCubic`])
//! exists for *characterized delay surfaces*: a `δ(Δ)` table has a sharp
//! minimum near `Δ = 0`, and a shape-preserving interpolant is what
//! guarantees the reconstructed surface never undershoots the physical
//! minimum delay between samples — a plain cubic spline would.

use crate::NumError;

/// Linear interpolation in a sorted sample table, clamped to the end
/// values outside `[xs[0], xs[last]]`. No validation, for hot loops over
/// tables checked once by [`validate_table`]: the caller must guarantee
/// its invariants; a violated invariant yields an unspecified (but
/// memory-safe) result.
#[must_use]
pub fn lerp_table_unchecked(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    if x <= xs[0] {
        return ys[0];
    }
    let last = xs.len() - 1;
    if x >= xs[last] {
        return ys[last];
    }
    // partition_point returns the first index with xs[i] > x.
    let hi = xs.partition_point(|&v| v <= x);
    let lo = hi - 1;
    let t = (x - xs[lo]) / (xs[hi] - xs[lo]);
    ys[lo] + t * (ys[hi] - ys[lo])
}

/// Checks the table invariants shared by the interpolation routines.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] on empty/unequal tables or
/// non-increasing abscissae.
pub fn validate_table(xs: &[f64], ys: &[f64]) -> Result<(), NumError> {
    if xs.is_empty() {
        return Err(NumError::InvalidInput {
            reason: "empty sample table".into(),
        });
    }
    if xs.len() != ys.len() {
        return Err(NumError::InvalidInput {
            reason: format!("mismatched table lengths: {} vs {}", xs.len(), ys.len()),
        });
    }
    if xs.windows(2).any(|w| !(w[1] > w[0])) {
        return Err(NumError::InvalidInput {
            reason: "abscissae not strictly increasing".into(),
        });
    }
    Ok(())
}

/// Computes the Fritsch–Carlson (PCHIP) tangent slopes for a monotone
/// cubic Hermite interpolant of `(xs, ys)` on a (possibly non-uniform)
/// strictly increasing grid.
///
/// The returned slopes guarantee that [`pchip_eval`] is *shape
/// preserving*: on every interval where the data are monotone, the
/// interpolant is monotone too, so it never overshoots or undershoots the
/// samples. Local extrema of the data become flat tangents.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] under the same conditions as
/// [`validate_table`], or when fewer than two samples are given, or when an
/// `xs` or `ys` value is not finite.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), mis_num::NumError> {
/// use mis_num::interp::{pchip_eval, pchip_slopes};
/// // A V-shaped table: the interpolant must not dip below the minimum.
/// let xs = [-2.0, -1.0, 0.0, 1.0, 3.0];
/// let ys = [4.0, 2.0, 1.0, 2.0, 4.0];
/// let m = pchip_slopes(&xs, &ys)?;
/// for i in 0..=60 {
///     let x = -2.0 + 5.0 * i as f64 / 60.0;
///     assert!(pchip_eval(&xs, &ys, &m, x) >= 1.0 - 1e-12);
/// }
/// # Ok(())
/// # }
/// ```
pub fn pchip_slopes(xs: &[f64], ys: &[f64]) -> Result<Vec<f64>, NumError> {
    validate_table(xs, ys)?;
    let n = xs.len();
    if n < 2 {
        return Err(NumError::InvalidInput {
            reason: "pchip needs at least two samples".into(),
        });
    }
    if ys.iter().any(|y| !y.is_finite()) {
        return Err(NumError::InvalidInput {
            reason: "non-finite ordinate in pchip table".into(),
        });
    }
    // An infinite end abscissa passes the ordering check but makes its
    // interval's secant slope zero and the Hermite basis NaN.
    if xs.iter().any(|x| !x.is_finite()) {
        return Err(NumError::InvalidInput {
            reason: "non-finite abscissa in pchip table".into(),
        });
    }
    // Interval widths and secant slopes.
    let h: Vec<f64> = xs.windows(2).map(|w| w[1] - w[0]).collect();
    let d: Vec<f64> = ys
        .windows(2)
        .zip(&h)
        .map(|(w, &hi)| (w[1] - w[0]) / hi)
        .collect();
    let mut m = vec![0.0; n];
    if n == 2 {
        m[0] = d[0];
        m[1] = d[0];
        return Ok(m);
    }
    // Interior tangents: zero at local extrema of the data, otherwise the
    // weighted harmonic mean of the adjacent secants (Fritsch–Carlson),
    // which is what enforces monotonicity on non-uniform grids.
    for i in 1..n - 1 {
        if d[i - 1] == 0.0 || d[i] == 0.0 || (d[i - 1] > 0.0) != (d[i] > 0.0) {
            m[i] = 0.0;
        } else {
            let w1 = 2.0 * h[i] + h[i - 1];
            let w2 = h[i] + 2.0 * h[i - 1];
            m[i] = (w1 + w2) / (w1 / d[i - 1] + w2 / d[i]);
        }
    }
    // One-sided endpoint tangents (three-point formula), clamped so the
    // boundary interval stays monotone.
    m[0] = endpoint_slope(h[0], h[1], d[0], d[1]);
    m[n - 1] = endpoint_slope(h[n - 2], h[n - 3], d[n - 2], d[n - 3]);
    Ok(m)
}

/// Non-centered three-point endpoint tangent with the standard PCHIP
/// monotonicity clamps (`h0`/`d0` belong to the boundary interval).
fn endpoint_slope(h0: f64, h1: f64, d0: f64, d1: f64) -> f64 {
    let mut m = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1);
    if m * d0 <= 0.0 {
        m = 0.0;
    } else if d0 * d1 < 0.0 && m.abs() > 3.0 * d0.abs() {
        m = 3.0 * d0;
    }
    m
}

/// Evaluates the monotone cubic Hermite interpolant defined by
/// [`pchip_slopes`] at `x`, with constant (clamped) extrapolation outside
/// the grid — the correct semantics for delay surfaces that have saturated
/// to their single-input-switching limits beyond the characterized range.
///
/// The caller must pass the `slopes` computed from the *same* `(xs, ys)`;
/// tables are assumed pre-validated (this is a hot-loop entry point).
#[must_use]
pub fn pchip_eval(xs: &[f64], ys: &[f64], slopes: &[f64], x: f64) -> f64 {
    if x <= xs[0] {
        return ys[0];
    }
    let last = xs.len() - 1;
    if x >= xs[last] {
        return ys[last];
    }
    let hi = xs.partition_point(|&v| v <= x);
    hermite_cell(xs, ys, slopes, hi, x)
}

/// The Hermite cubic of the cell `[xs[hi − 1], xs[hi]]` at `x`: the one
/// arithmetic behind [`pchip_eval`] and [`MonotoneCubic::walk`], so both
/// give the same bits for the same cell.
#[inline]
fn hermite_cell(xs: &[f64], ys: &[f64], slopes: &[f64], hi: usize, x: f64) -> f64 {
    let lo = hi - 1;
    let h = xs[hi] - xs[lo];
    let t = (x - xs[lo]) / h;
    // Cubic Hermite basis.
    let t2 = t * t;
    let t3 = t2 * t;
    let h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
    let h10 = t3 - 2.0 * t2 + t;
    let h01 = -2.0 * t3 + 3.0 * t2;
    let h11 = t3 - t2;
    h00 * ys[lo] + h10 * h * slopes[lo] + h01 * ys[hi] + h11 * h * slopes[hi]
}

/// A prepared monotone cubic interpolant: owns its table and precomputed
/// PCHIP tangents, for repeated evaluation on a hot path.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), mis_num::NumError> {
/// let c = mis_num::interp::MonotoneCubic::new(
///     vec![0.0, 1.0, 4.0],
///     vec![0.0, 1.0, 2.0],
/// )?;
/// assert_eq!(c.eval(0.0), 0.0);
/// assert_eq!(c.eval(-3.0), 0.0); // clamped
/// assert_eq!(c.eval(9.0), 2.0);  // clamped
/// assert!(c.eval(2.0) > 1.0 && c.eval(2.0) < 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MonotoneCubic {
    xs: Vec<f64>,
    ys: Vec<f64>,
    slopes: Vec<f64>,
}

impl MonotoneCubic {
    /// Builds the interpolant, computing the tangents once.
    ///
    /// # Errors
    ///
    /// Propagates [`pchip_slopes`] failures.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self, NumError> {
        let slopes = pchip_slopes(&xs, &ys)?;
        Ok(MonotoneCubic { xs, ys, slopes })
    }

    /// Evaluates at `x` (clamped constant extrapolation outside the grid).
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        pchip_eval(&self.xs, &self.ys, &self.slopes, x)
    }

    /// An evaluator for a non-decreasing sequence of abscissae: each
    /// call returns exactly [`MonotoneCubic::eval`] at its `x`, but
    /// finds the cell by stepping a cursor forward from the previous
    /// call's cell instead of a binary search, so a sweep over a
    /// sorted grid costs O(grid + knots). An `x` below the previous one
    /// is still answered exactly, by a fresh binary search.
    ///
    /// ```
    /// # fn main() -> Result<(), mis_num::NumError> {
    /// let c = mis_num::interp::MonotoneCubic::new(
    ///     vec![0.0, 1.0, 4.0],
    ///     vec![0.0, 1.0, 2.0],
    /// )?;
    /// let mut at = c.walk();
    /// for x in [-1.0, 0.5, 0.5, 2.0, 9.0] {
    ///     assert_eq!(at(x).to_bits(), c.eval(x).to_bits());
    /// }
    /// # Ok(())
    /// # }
    /// ```
    pub fn walk(&self) -> impl FnMut(f64) -> f64 + '_ {
        let (xs, ys, slopes) = (&self.xs[..], &self.ys[..], &self.slopes[..]);
        let last = xs.len() - 1;
        // First index with `xs[hi] > x`, as `pchip_eval` finds it.
        let mut hi = 1;
        move |x| {
            if x <= xs[0] {
                return ys[0];
            }
            if x >= xs[last] {
                return ys[last];
            }
            if xs[hi - 1] > x {
                hi = xs.partition_point(|&v| v <= x);
            }
            while xs[hi] <= x {
                hi += 1;
            }
            hermite_cell(xs, ys, slopes, hi, x)
        }
    }

    /// The abscissae.
    #[must_use]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The ordinates.
    #[must_use]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }
}

/// Finds all crossings of level `level` in the sampled curve `(xs, ys)`,
/// returning `(x, rising)` pairs located by linear interpolation.
///
/// A sample exactly on the level is attributed to the segment that leaves
/// it; flat segments on the level produce no crossing.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] under the same conditions as
/// [`validate_table`].
pub fn level_crossings(xs: &[f64], ys: &[f64], level: f64) -> Result<Vec<(f64, bool)>, NumError> {
    validate_table(xs, ys)?;
    let mut out = Vec::new();
    for i in 1..xs.len() {
        let (y0, y1) = (ys[i - 1] - level, ys[i] - level);
        if y0 == 0.0 && y1 == 0.0 {
            continue;
        }
        let crosses = (y0 < 0.0 && y1 >= 0.0 && y1 != 0.0)
            || (y0 > 0.0 && y1 <= 0.0 && y1 != 0.0)
            || (y0 == 0.0 && y1 != 0.0 && i == 1)
            || (y1 == 0.0 && y0 != 0.0);
        if !crosses {
            continue;
        }
        let t = y0 / (y0 - y1);
        let x = xs[i - 1] + t * (xs[i] - xs[i - 1]);
        out.push((x, y1 > y0));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lerp_midpoints_and_clamps() {
        let xs = [0.0, 1.0, 3.0];
        let ys = [0.0, 2.0, -2.0];
        assert_eq!(lerp_table_unchecked(&xs, &ys, 0.5), 1.0);
        assert_eq!(lerp_table_unchecked(&xs, &ys, 2.0), 0.0);
        assert_eq!(lerp_table_unchecked(&xs, &ys, -5.0), 0.0);
        assert_eq!(lerp_table_unchecked(&xs, &ys, 99.0), -2.0);
    }

    #[test]
    fn lerp_exact_sample_points() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [5.0, 7.0, 9.0];
        for i in 0..3 {
            assert_eq!(lerp_table_unchecked(&xs, &ys, xs[i]), ys[i]);
        }
    }

    #[test]
    fn rejects_bad_tables() {
        assert!(validate_table(&[], &[]).is_err());
        assert!(validate_table(&[0.0, 1.0], &[0.0]).is_err());
        assert!(validate_table(&[0.0, 0.0], &[1.0, 2.0]).is_err());
        assert!(validate_table(&[1.0, 0.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn crossings_simple_ramp() {
        let xs = [0.0, 1.0];
        let ys = [0.0, 1.0];
        let c = level_crossings(&xs, &ys, 0.5).unwrap();
        assert_eq!(c.len(), 1);
        assert!((c[0].0 - 0.5).abs() < 1e-15);
        assert!(c[0].1, "rising");
    }

    #[test]
    fn crossings_pulse_counts_both_edges() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.0, 1.0, 1.0, 0.0];
        let c = level_crossings(&xs, &ys, 0.5).unwrap();
        assert_eq!(c.len(), 2);
        assert!(c[0].1);
        assert!(!c[1].1);
        assert!((c[0].0 - 0.5).abs() < 1e-15);
        assert!((c[1].0 - 2.5).abs() < 1e-15);
    }

    #[test]
    fn flat_at_level_produces_no_crossings() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.5, 0.5, 0.5];
        assert!(level_crossings(&xs, &ys, 0.5).unwrap().is_empty());
    }

    #[test]
    fn pchip_interpolates_samples_exactly() {
        let xs = [-1.0, 0.0, 0.5, 2.0, 7.0];
        let ys = [3.0, 1.0, 0.5, 2.5, 2.6];
        let m = pchip_slopes(&xs, &ys).unwrap();
        for i in 0..xs.len() {
            assert!((pchip_eval(&xs, &ys, &m, xs[i]) - ys[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn pchip_is_monotone_between_monotone_samples() {
        // Strictly increasing non-uniform data: the interpolant must be
        // non-decreasing everywhere.
        let xs = [0.0, 0.1, 0.5, 2.0, 2.2, 9.0];
        let ys = [0.0, 0.05, 1.0, 1.1, 3.0, 3.5];
        let c = MonotoneCubic::new(xs.to_vec(), ys.to_vec()).unwrap();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=900 {
            let x = 9.0 * i as f64 / 900.0;
            let y = c.eval(x);
            assert!(y >= prev - 1e-12, "non-monotone at x = {x}: {y} < {prev}");
            prev = y;
        }
    }

    #[test]
    fn pchip_never_undershoots_a_vee_minimum() {
        // Delay-surface shape: sharp minimum at x = 0. A shape-preserving
        // interpolant stays at or above the sample minimum.
        let xs = [-4.0, -1.0, -0.2, 0.0, 0.3, 1.5, 4.0];
        let ys = [5.0, 3.0, 2.2, 2.0, 2.3, 3.4, 5.0];
        let c = MonotoneCubic::new(xs.to_vec(), ys.to_vec()).unwrap();
        for i in 0..=800 {
            let x = -4.0 + 8.0 * i as f64 / 800.0;
            assert!(c.eval(x) >= 2.0 - 1e-12, "undershoot at {x}: {}", c.eval(x));
        }
    }

    #[test]
    fn pchip_two_point_table_is_linear() {
        let xs = [1.0, 3.0];
        let ys = [10.0, 20.0];
        let m = pchip_slopes(&xs, &ys).unwrap();
        assert!((pchip_eval(&xs, &ys, &m, 2.0) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn pchip_clamps_outside_grid() {
        let c = MonotoneCubic::new(vec![0.0, 1.0, 2.0], vec![5.0, 6.0, 7.0]).unwrap();
        assert_eq!(c.eval(-10.0), 5.0);
        assert_eq!(c.eval(10.0), 7.0);
        assert_eq!(c.xs().len(), 3);
        assert_eq!(c.ys().len(), 3);
    }

    #[test]
    fn pchip_rejects_bad_tables() {
        assert!(pchip_slopes(&[0.0], &[1.0]).is_err());
        assert!(pchip_slopes(&[0.0, 0.0], &[1.0, 2.0]).is_err());
        assert!(pchip_slopes(&[0.0, 1.0], &[1.0, f64::NAN]).is_err());
        assert!(pchip_slopes(&[f64::NEG_INFINITY, 0.0, 1.0], &[1.0, 2.0, 3.0]).is_err());
        assert!(pchip_slopes(&[0.0, 1.0, f64::INFINITY], &[1.0, 2.0, 3.0]).is_err());
        assert!(MonotoneCubic::new(vec![1.0, 0.0], vec![0.0, 1.0]).is_err());
    }
}
