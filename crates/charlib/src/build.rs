//! One-time gate characterization: sweep the exact hybrid-model delay
//! functions over an adaptively refined Δ grid until a configurable
//! interpolation-error budget is met.
//!
//! The builder is deliberately *exact-solver-agnostic about cost*: it
//! memoizes every exact evaluation, probes each grid interval at its
//! quarter points and midpoint, and splits intervals whose probes miss the
//! budget. Refinement therefore clusters points around the `Δ ≈ 0` kink
//! of the MIS curves and leaves the saturated SIS tails coarse.

use std::collections::HashMap;

use mis_core::{delay, NorParams, RisingInitialVn};
use mis_waveform::units::ps;

use crate::{CharError, DelaySurface, SurfaceFamily};

/// Configuration of a characterization sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CharConfig {
    /// Left edge of the characterized separation range, seconds.
    pub delta_lo: f64,
    /// Right edge of the characterized separation range, seconds.
    pub delta_hi: f64,
    /// Uniform starting grid size (refinement adds points as needed).
    pub initial_points: usize,
    /// Per-surface cap on grid points; refinement failing to meet the
    /// budget under this cap is an error.
    pub max_points: usize,
    /// Maximum tolerated |interpolated − exact| delay error, seconds.
    pub budget: f64,
    /// Frozen internal-node voltage grid for the state-dependent side,
    /// as fractions of `V_DD` (strictly increasing, within `[0, 1]`).
    pub vn_fractions: Vec<f64>,
}

impl Default for CharConfig {
    fn default() -> Self {
        CharConfig {
            delta_lo: ps(-300.0),
            delta_hi: ps(300.0),
            initial_points: 17,
            max_points: 513,
            budget: ps(0.1),
            vn_fractions: vec![0.0, 0.25, 0.5, 0.75, 1.0],
        }
    }
}

impl CharConfig {
    /// A coarse, fast configuration for tests and smoke runs: few
    /// starting grid points, a loose 1 ps budget, and rail-only `V_N`
    /// slices. Characterizes in a few milliseconds where
    /// [`CharConfig::default`] takes hundreds; accuracy is only good
    /// enough for structural checks, not for delay comparisons against
    /// the exact model.
    #[must_use]
    pub fn quick() -> Self {
        CharConfig {
            initial_points: 5,
            budget: ps(1.0),
            vn_fractions: vec![0.0, 1.0],
            ..CharConfig::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CharError::InvalidInput`] for reversed ranges, grids that
    /// cannot interpolate, a non-positive budget, or a bad voltage grid.
    pub fn validate(&self) -> Result<(), CharError> {
        if !(self.delta_hi > self.delta_lo)
            || !self.delta_lo.is_finite()
            || !self.delta_hi.is_finite()
        {
            return Err(CharError::InvalidInput {
                reason: "characterization needs delta_hi > delta_lo (finite)".into(),
            });
        }
        if self.initial_points < 3 || self.max_points < self.initial_points {
            return Err(CharError::InvalidInput {
                reason: "need initial_points >= 3 and max_points >= initial_points".into(),
            });
        }
        if !(self.budget > 0.0) || !self.budget.is_finite() {
            return Err(CharError::InvalidInput {
                reason: "error budget must be positive and finite".into(),
            });
        }
        if self.vn_fractions.is_empty()
            || self.vn_fractions.windows(2).any(|w| !(w[1] > w[0]))
            || self.vn_fractions.iter().any(|&f| !(0.0..=1.0).contains(&f))
        {
            return Err(CharError::InvalidInput {
                reason: "vn_fractions must be strictly increasing within [0, 1]".into(),
            });
        }
        Ok(())
    }
}

/// A characterized 2-input NOR library: both delay surfaces plus the
/// provenance needed to rebuild or serialize it. NAND cells reuse it
/// through the electrical duality (`mis_digital::NandChannel`), so no
/// NAND characterization exists.
#[derive(Debug, Clone, PartialEq)]
pub struct CharLib {
    pub(crate) params: NorParams,
    pub(crate) budget: f64,
    pub(crate) falling: SurfaceFamily,
    pub(crate) rising: SurfaceFamily,
    pub(crate) resample: Option<ResampleCounts>,
}

/// The uniform point count per surface family at which a consumer's
/// resampled lookup tables meet a quarter of the library budget
/// (`mis_digital::CachedHybridChannel` searches for them by doubling).
/// A library that records them (text format 2) lets the consumer
/// tabulate each family once at its count instead of searching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResampleCounts {
    /// Points of the falling family's table.
    pub falling: usize,
    /// Points of the rising family's table.
    pub rising: usize,
}

impl CharLib {
    /// Characterizes a NOR gate from its hybrid-model parameters.
    ///
    /// The falling surface is state-independent (single slice); the rising
    /// surface is a family over the frozen `V_N` hypotheses of
    /// `cfg.vn_fractions`.
    ///
    /// # Errors
    ///
    /// Propagates exact-solver failures and [`CharError::BudgetNotMet`].
    pub fn nor(params: &NorParams, cfg: &CharConfig) -> Result<Self, CharError> {
        params.validate()?;
        cfg.validate()?;
        let falling = SurfaceFamily::single(refine_surface(cfg, |d| {
            Ok(delay::falling_delay(params, d)?)
        })?)?;
        let voltages: Vec<f64> = cfg.vn_fractions.iter().map(|f| f * params.vdd).collect();
        let mut slices = Vec::with_capacity(voltages.len());
        for &x in &voltages {
            slices.push(refine_surface(cfg, |d| {
                Ok(delay::rising_delay(
                    params,
                    d,
                    RisingInitialVn::Explicit(x),
                )?)
            })?);
        }
        Ok(CharLib {
            params: *params,
            budget: cfg.budget,
            falling,
            rising: SurfaceFamily::new(voltages, slices)?,
            resample: None,
        })
    }

    /// The library with `counts` recorded, so that it serializes as
    /// format 2 and its consumers tabulate once.
    #[must_use]
    pub fn with_resample_counts(self, counts: ResampleCounts) -> Self {
        CharLib {
            resample: Some(counts),
            ..self
        }
    }

    /// The recorded resample counts (`None` for a format-1 or freshly
    /// characterized library).
    #[must_use]
    pub fn resample_counts(&self) -> Option<ResampleCounts> {
        self.resample
    }

    /// The hybrid-model parameters the sweep used.
    #[must_use]
    pub fn params(&self) -> &NorParams {
        &self.params
    }

    /// The interpolation-error budget the surfaces were refined to.
    #[must_use]
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// The falling-output surface family (a single slice when
    /// characterized: the NOR's falling delay does not depend on `V_N`).
    #[must_use]
    pub fn falling(&self) -> &SurfaceFamily {
        &self.falling
    }

    /// The rising-output surface family (one slice per frozen `V_N`
    /// hypothesis of [`CharConfig::vn_fractions`]).
    #[must_use]
    pub fn rising(&self) -> &SurfaceFamily {
        &self.rising
    }

    /// Interpolated falling-output delay at separation `delta`; `state_v`
    /// is the frozen internal-node voltage (ignored where
    /// state-independent).
    #[must_use]
    pub fn falling_delay(&self, delta: f64, state_v: f64) -> f64 {
        self.falling.eval(delta, state_v)
    }

    /// Interpolated rising-output delay at separation `delta`; `state_v`
    /// as in [`CharLib::falling_delay`].
    #[must_use]
    pub fn rising_delay(&self, delta: f64, state_v: f64) -> f64 {
        self.rising.eval(delta, state_v)
    }
}

/// Builds one surface by adaptive refinement against `exact`, probing
/// every interval at `1/4`, `1/2` and `3/4` and splitting at the midpoint
/// until every probe is within the budget (with a small internal safety
/// factor so *off-probe* separations stay within the declared budget too).
fn refine_surface<F>(cfg: &CharConfig, mut exact: F) -> Result<DelaySurface, CharError>
where
    F: FnMut(f64) -> Result<f64, CharError>,
{
    let target = 0.9 * cfg.budget;
    let mut memo: HashMap<u64, f64> = HashMap::new();
    let mut eval = |x: f64, memo: &mut HashMap<u64, f64>| -> Result<f64, CharError> {
        if let Some(&v) = memo.get(&x.to_bits()) {
            return Ok(v);
        }
        let v = exact(x)?;
        if !v.is_finite() {
            return Err(CharError::InvalidInput {
                reason: format!("exact solver returned non-finite delay at Δ = {x:e}"),
            });
        }
        memo.insert(x.to_bits(), v);
        Ok(v)
    };

    // Uniform start grid; force Δ = 0 onto the grid when in range so the
    // curve's kink sits on a knot rather than inside an interval.
    let n0 = cfg.initial_points;
    let mut grid: Vec<f64> = (0..n0)
        .map(|i| cfg.delta_lo + (cfg.delta_hi - cfg.delta_lo) * i as f64 / (n0 - 1) as f64)
        .collect();
    if cfg.delta_lo < 0.0 && cfg.delta_hi > 0.0 && grid.iter().all(|&x| x != 0.0) {
        grid.push(0.0);
        grid.sort_by(|a, b| a.partial_cmp(b).expect("finite grid"));
    }
    let mut vals = Vec::with_capacity(grid.len());
    for &x in &grid {
        vals.push(eval(x, &mut memo)?);
    }

    loop {
        let surface = DelaySurface::from_samples(grid.clone(), vals.clone())?;
        let mut inserts: Vec<(f64, f64)> = Vec::new();
        let mut worst = 0.0_f64;
        for w in grid.windows(2) {
            let (a, b) = (w[0], w[1]);
            let mut violated = false;
            for frac in [0.25, 0.5, 0.75] {
                let x = a + frac * (b - a);
                if x <= a || x >= b {
                    continue; // interval at floating-point resolution
                }
                let v = eval(x, &mut memo)?;
                let err = (surface.eval(x) - v).abs();
                worst = worst.max(err);
                if err > target {
                    violated = true;
                }
            }
            if violated {
                let mid = a + 0.5 * (b - a);
                if mid > a && mid < b {
                    inserts.push((mid, eval(mid, &mut memo)?));
                }
            }
        }
        if inserts.is_empty() {
            return Ok(surface);
        }
        if grid.len() + inserts.len() > cfg.max_points {
            return Err(CharError::BudgetNotMet {
                achieved: worst,
                budget: cfg.budget,
                points: grid.len(),
            });
        }
        for (x, v) in inserts {
            let pos = grid.partition_point(|&g| g < x);
            grid.insert(pos, x);
            vals.insert(pos, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> CharConfig {
        CharConfig {
            delta_lo: ps(-120.0),
            delta_hi: ps(120.0),
            initial_points: 9,
            max_points: 257,
            budget: ps(0.2),
            vn_fractions: vec![0.0, 0.5, 1.0],
        }
    }

    #[test]
    fn config_validation() {
        assert!(CharConfig::default().validate().is_ok());
        let mut c = CharConfig::default();
        c.delta_hi = c.delta_lo;
        assert!(c.validate().is_err());
        let c = CharConfig {
            budget: 0.0,
            ..CharConfig::default()
        };
        assert!(c.validate().is_err());
        let c = CharConfig {
            initial_points: 2,
            ..CharConfig::default()
        };
        assert!(c.validate().is_err());
        let c = CharConfig {
            vn_fractions: vec![0.5, 0.5],
            ..CharConfig::default()
        };
        assert!(c.validate().is_err());
        let c = CharConfig {
            vn_fractions: vec![-0.1, 0.5],
            ..CharConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn nor_library_meets_budget_on_dense_grid() {
        let p = NorParams::paper_table1();
        let cfg = quick_cfg();
        let lib = CharLib::nor(&p, &cfg).unwrap();
        assert_eq!(lib.budget(), cfg.budget);
        // Dense sweep strictly inside the characterized range.
        for i in 0..=200 {
            let d = ps(-120.0) + ps(240.0) * i as f64 / 200.0;
            let exact = delay::falling_delay(&p, d).unwrap();
            let got = lib.falling_delay(d, 0.0);
            assert!(
                (got - exact).abs() <= cfg.budget,
                "falling at Δ = {:.1} ps: {:e} vs {:e}",
                d / 1e-12,
                got,
                exact
            );
        }
        for &x in &[0.0, 0.5 * p.vdd, p.vdd] {
            for i in 0..=200 {
                let d = ps(-120.0) + ps(240.0) * i as f64 / 200.0;
                let exact = delay::rising_delay(&p, d, RisingInitialVn::Explicit(x)).unwrap();
                let got = lib.rising_delay(d, x);
                assert!(
                    (got - exact).abs() <= cfg.budget,
                    "rising at Δ = {:.1} ps, X = {x}: {got:e} vs {exact:e}",
                    d / 1e-12
                );
            }
        }
    }

    #[test]
    fn refinement_clusters_points_near_the_kink() {
        let p = NorParams::paper_table1();
        let lib = CharLib::nor(&p, &quick_cfg()).unwrap();
        let deltas = lib.falling().slices()[0].deltas();
        let near: usize = deltas.iter().filter(|d| d.abs() < ps(30.0)).count();
        let far: usize = deltas.iter().filter(|d| d.abs() >= ps(90.0)).count();
        assert!(
            near > far,
            "refinement should concentrate near Δ = 0: {near} near vs {far} far \
             (grid size {})",
            deltas.len()
        );
    }

    #[test]
    fn unreachable_budget_reports_budget_not_met() {
        let p = NorParams::paper_table1();
        let cfg = CharConfig {
            budget: 1e-18, // one attosecond: unreachable under the cap
            max_points: 24,
            initial_points: 9,
            ..quick_cfg()
        };
        match CharLib::nor(&p, &cfg) {
            Err(CharError::BudgetNotMet {
                achieved, points, ..
            }) => {
                assert!(achieved > 1e-18);
                assert!(points <= 24);
            }
            other => panic!("expected BudgetNotMet, got {other:?}"),
        }
    }
}
