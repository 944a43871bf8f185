//! Interpolated delay-surface tables.
//!
//! A [`DelaySurface`] stores one characterized MIS delay curve `δ(Δ)` on a
//! non-uniform, refinement-chosen Δ grid and reconstructs intermediate
//! values with a *monotone* cubic (PCHIP, [`mis_num::interp`]). Shape
//! preservation is what keeps the reconstruction physical: the curve has a
//! sharp extremum near `Δ = 0`, and the interpolant never under- or
//! overshoots past the characterized samples — in particular it cannot dip
//! below the minimum delay `δ_min`-shifted floor of the table.
//!
//! A [`SurfaceFamily`] stacks several surfaces indexed by a frozen
//! internal-node voltage (the `V_N` the gate held when mode `(1,1)` was
//! entered), linearly interpolated between slices. A family with a single
//! slice is state-independent (the falling NOR side).

use mis_num::interp::MonotoneCubic;

use crate::CharError;

/// One characterized delay curve `δ(Δ)` with monotone-cubic
/// reconstruction and clamped (constant) extrapolation beyond the grid —
/// outside the characterized range the curve has saturated to its SIS
/// limits, so the boundary ordinate is the physically correct answer.
#[derive(Debug, Clone, PartialEq)]
pub struct DelaySurface {
    curve: MonotoneCubic,
}

impl DelaySurface {
    /// Builds a surface from `(Δ, δ)` samples. `deltas` must be strictly
    /// increasing and everything finite; at least two samples.
    ///
    /// # Errors
    ///
    /// Returns [`CharError::Num`] for invalid tables.
    pub fn from_samples(deltas: Vec<f64>, delays: Vec<f64>) -> Result<Self, CharError> {
        Ok(DelaySurface {
            curve: MonotoneCubic::new(deltas, delays)?,
        })
    }

    /// The interpolated delay at input separation `delta`, in seconds.
    #[must_use]
    pub fn eval(&self, delta: f64) -> f64 {
        self.curve.eval(delta)
    }

    /// [`DelaySurface::eval`] for a sweep over non-decreasing
    /// separations, bit for bit, with a forward cursor over the knots
    /// instead of a binary search per call (see
    /// [`MonotoneCubic::walk`]).
    pub fn walk(&self) -> impl FnMut(f64) -> f64 + '_ {
        self.curve.walk()
    }

    /// The characterized separations.
    #[must_use]
    pub fn deltas(&self) -> &[f64] {
        self.curve.xs()
    }

    /// The characterized delays.
    #[must_use]
    pub fn delays(&self) -> &[f64] {
        self.curve.ys()
    }

    /// Number of grid points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.curve.xs().len()
    }

    /// Whether the table is empty (never true for a constructed surface).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.curve.xs().is_empty()
    }

    /// The characterized `Δ` range `(lo, hi)`.
    #[must_use]
    pub fn delta_range(&self) -> (f64, f64) {
        let xs = self.curve.xs();
        (xs[0], xs[xs.len() - 1])
    }

    /// The sample extrema `(min δ, max δ)` of the table. Because the
    /// monotone-cubic reconstruction never under- or overshoots past its
    /// samples and extrapolation clamps to the boundary ordinates, these
    /// bound [`DelaySurface::eval`] over **all** inputs — the per-cell
    /// delay bounds static timing analysis propagates.
    #[must_use]
    pub fn delay_bounds(&self) -> (f64, f64) {
        let ys = self.curve.ys();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &y in ys {
            lo = lo.min(y);
            hi = hi.max(y);
        }
        (lo, hi)
    }
}

/// A stack of [`DelaySurface`] slices indexed by a frozen internal-node
/// voltage, with linear interpolation between slices and clamping outside
/// the characterized voltage range.
#[derive(Debug, Clone, PartialEq)]
pub struct SurfaceFamily {
    /// Strictly increasing slice voltages, in volts.
    voltages: Vec<f64>,
    /// One surface per voltage.
    slices: Vec<DelaySurface>,
}

impl SurfaceFamily {
    /// Builds a family. `voltages` must be strictly increasing and match
    /// `slices` in length; a single slice makes the family
    /// state-independent.
    ///
    /// # Errors
    ///
    /// Returns [`CharError::InvalidInput`] on mismatched or unordered
    /// inputs.
    pub fn new(voltages: Vec<f64>, slices: Vec<DelaySurface>) -> Result<Self, CharError> {
        if voltages.is_empty() || voltages.len() != slices.len() {
            return Err(CharError::InvalidInput {
                reason: format!(
                    "family needs matching non-empty voltage/slice lists ({} vs {})",
                    voltages.len(),
                    slices.len()
                ),
            });
        }
        if voltages.windows(2).any(|w| !(w[1] > w[0])) {
            return Err(CharError::InvalidInput {
                reason: "family voltages not strictly increasing".into(),
            });
        }
        if voltages.iter().any(|v| !v.is_finite()) {
            return Err(CharError::InvalidInput {
                reason: "non-finite family voltage".into(),
            });
        }
        Ok(SurfaceFamily { voltages, slices })
    }

    /// A single-slice (state-independent) family.
    ///
    /// # Errors
    ///
    /// Never fails for a constructed surface; the `Result` mirrors
    /// [`SurfaceFamily::new`].
    pub fn single(surface: DelaySurface) -> Result<Self, CharError> {
        SurfaceFamily::new(vec![0.0], vec![surface])
    }

    /// The interpolated delay at separation `delta` for a frozen
    /// internal-node voltage `v` (ignored by single-slice families;
    /// clamped to the characterized voltage range otherwise).
    #[must_use]
    pub fn eval(&self, delta: f64, v: f64) -> f64 {
        let n = self.voltages.len();
        if n == 1 || v <= self.voltages[0] {
            return self.slices[0].eval(delta);
        }
        if v >= self.voltages[n - 1] {
            return self.slices[n - 1].eval(delta);
        }
        let hi = self.voltages.partition_point(|&x| x <= v);
        let lo = hi - 1;
        let t = (v - self.voltages[lo]) / (self.voltages[hi] - self.voltages[lo]);
        let a = self.slices[lo].eval(delta);
        let b = self.slices[hi].eval(delta);
        a + t * (b - a)
    }

    /// The slice voltages.
    #[must_use]
    pub fn voltages(&self) -> &[f64] {
        &self.voltages
    }

    /// The slices, parallel to [`SurfaceFamily::voltages`].
    #[must_use]
    pub fn slices(&self) -> &[DelaySurface] {
        &self.slices
    }

    /// The common characterized `Δ` range (intersection over slices).
    #[must_use]
    pub fn delta_range(&self) -> (f64, f64) {
        let mut lo = f64::NEG_INFINITY;
        let mut hi = f64::INFINITY;
        for s in &self.slices {
            let (a, b) = s.delta_range();
            lo = lo.max(a);
            hi = hi.min(b);
        }
        (lo, hi)
    }

    /// The sample extrema `(min δ, max δ)` over every slice. The voltage
    /// blend is a convex combination of two slice evaluations and each
    /// slice evaluation stays within its own sample extrema (see
    /// [`DelaySurface::delay_bounds`]), so these bound
    /// [`SurfaceFamily::eval`] over all `(Δ, v)`.
    #[must_use]
    pub fn delay_bounds(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for s in &self.slices {
            let (a, b) = s.delay_bounds();
            lo = lo.min(a);
            hi = hi.max(b);
        }
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vee(offset: f64) -> DelaySurface {
        let deltas = vec![-2.0, -1.0, 0.0, 1.0, 2.0];
        let delays = deltas.iter().map(|d: &f64| d.abs() + offset).collect();
        DelaySurface::from_samples(deltas, delays).unwrap()
    }

    #[test]
    fn surface_interpolates_and_clamps() {
        let s = vee(1.0);
        assert_eq!(s.eval(0.0), 1.0);
        assert_eq!(s.eval(-5.0), 3.0, "clamped to the left boundary");
        assert_eq!(s.eval(9.0), 3.0, "clamped to the right boundary");
        assert!(s.eval(0.5) >= 1.0, "monotone interpolant never undershoots");
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        assert_eq!(s.delta_range(), (-2.0, 2.0));
    }

    #[test]
    fn surface_rejects_bad_tables() {
        assert!(DelaySurface::from_samples(vec![0.0], vec![1.0]).is_err());
        assert!(DelaySurface::from_samples(vec![1.0, 0.0], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn family_lerps_between_slices() {
        let fam = SurfaceFamily::new(vec![0.0, 1.0], vec![vee(1.0), vee(2.0)]).unwrap();
        assert_eq!(fam.eval(0.0, 0.0), 1.0);
        assert_eq!(fam.eval(0.0, 1.0), 2.0);
        assert!((fam.eval(0.0, 0.5) - 1.5).abs() < 1e-15);
        // Voltage clamping.
        assert_eq!(fam.eval(0.0, -3.0), 1.0);
        assert_eq!(fam.eval(0.0, 7.0), 2.0);
        assert_eq!(fam.delta_range(), (-2.0, 2.0));
    }

    #[test]
    fn single_slice_family_ignores_voltage() {
        let fam = SurfaceFamily::single(vee(1.0)).unwrap();
        assert_eq!(fam.eval(0.5, -100.0), fam.eval(0.5, 100.0));
        assert_eq!(fam.voltages(), &[0.0]);
        assert_eq!(fam.slices().len(), 1);
    }

    #[test]
    fn delay_bounds_cover_eval_everywhere() {
        let s = vee(1.0);
        assert_eq!(s.delay_bounds(), (1.0, 3.0));
        let fam = SurfaceFamily::new(vec![0.0, 1.0], vec![vee(1.0), vee(2.0)]).unwrap();
        let (lo, hi) = fam.delay_bounds();
        assert_eq!((lo, hi), (1.0, 4.0));
        // Dense probe, including clamped extrapolation in Δ and v.
        for i in -40..=40 {
            let d = 0.1 * f64::from(i);
            for j in -5..=15 {
                let v = 0.1 * f64::from(j);
                let y = fam.eval(d, v);
                assert!(
                    (lo..=hi).contains(&y),
                    "eval({d}, {v}) = {y} outside bounds"
                );
            }
        }
    }

    #[test]
    fn family_rejects_mismatched_input() {
        assert!(SurfaceFamily::new(vec![0.0, 1.0], vec![vee(1.0)]).is_err());
        assert!(SurfaceFamily::new(vec![], vec![]).is_err());
        assert!(SurfaceFamily::new(vec![1.0, 0.0], vec![vee(1.0), vee(2.0)]).is_err());
        assert!(SurfaceFamily::new(vec![0.0, f64::NAN], vec![vee(1.0), vee(2.0)]).is_err());
    }
}
