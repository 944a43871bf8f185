//! Derivative-free minimization: Nelder–Mead.
//!
//! The paper obtains the Table I parameters by least-squares fitting.
//! [`NelderMead`] is the derivative-free simplex optimizer the fitting
//! pipeline builds on (robust to the noisy, kinked objectives that
//! threshold-crossing delays produce).

use crate::NumError;

/// Relative size of the initial Nelder–Mead simplex: each vertex perturbs
/// one coordinate by 10 % — or by an absolute 0.1 for near-zero
/// coordinates.
const INITIAL_STEP: f64 = 0.1;

/// Outcome of a Nelder–Mead run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimplexMin {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at [`SimplexMin::x`].
    pub value: f64,
    /// Objective evaluations performed.
    pub evaluations: usize,
    /// Whether the simplex shrank below the configured tolerances.
    pub converged: bool,
}

/// Nelder–Mead downhill-simplex minimizer.
///
/// Construct with [`NelderMead::new`], optionally adjust the budget and
/// tolerances, then call [`NelderMead::minimize`]. The implementation uses
/// the standard reflection/expansion/contraction/shrink coefficients
/// (1, 2, ½, ½) and an adaptive initial simplex scaled per coordinate.
///
/// # Examples
///
/// ```
/// use mis_num::minimize::NelderMead;
///
/// # fn main() -> Result<(), mis_num::NumError> {
/// // Rosenbrock function: minimum at (1, 1).
/// let rosen = |p: &[f64]| {
///     let (x, y) = (p[0], p[1]);
///     (1.0 - x).powi(2) + 100.0 * (y - x * x).powi(2)
/// };
/// let result = NelderMead::new().with_max_evals(4000).minimize(rosen, &[-1.2, 1.0])?;
/// assert!((result.x[0] - 1.0).abs() < 1e-4);
/// assert!((result.x[1] - 1.0).abs() < 1e-4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NelderMead {
    max_evals: usize,
    xtol: f64,
    ftol: f64,
}

impl Default for NelderMead {
    fn default() -> Self {
        NelderMead {
            max_evals: 2000,
            xtol: 1e-10,
            ftol: 1e-12,
        }
    }
}

impl NelderMead {
    /// Creates an optimizer with default budget (2000 evaluations) and
    /// tolerances (`xtol = 1e-10`, `ftol = 1e-12`).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the maximum number of objective evaluations.
    #[must_use]
    pub fn with_max_evals(mut self, max_evals: usize) -> Self {
        self.max_evals = max_evals;
        self
    }

    /// Sets the simplex-diameter convergence tolerance.
    #[must_use]
    pub fn with_xtol(mut self, xtol: f64) -> Self {
        self.xtol = xtol;
        self
    }

    /// Sets the objective-spread convergence tolerance.
    #[must_use]
    pub fn with_ftol(mut self, ftol: f64) -> Self {
        self.ftol = ftol;
        self
    }

    /// Runs the minimization from `x0`.
    ///
    /// # Errors
    ///
    /// * [`NumError::InvalidInput`] — empty starting point.
    /// * [`NumError::NonFiniteValue`] — objective returned NaN/inf at the
    ///   starting simplex (non-finite values *during* the search are treated
    ///   as +∞ so the simplex retreats from them).
    pub fn minimize<F: FnMut(&[f64]) -> f64>(
        &self,
        mut f: F,
        x0: &[f64],
    ) -> Result<SimplexMin, NumError> {
        let n = x0.len();
        if n == 0 {
            return Err(NumError::InvalidInput {
                reason: "empty starting point".into(),
            });
        }
        let mut evals = 0usize;
        let f0_raw = f(x0);
        evals += 1;
        if !f0_raw.is_finite() && f0_raw.is_nan() {
            return Err(NumError::NonFiniteValue { at: 0.0 });
        }
        let mut eval = |p: &[f64], evals: &mut usize| -> f64 {
            *evals += 1;
            let v = f(p);
            if v.is_nan() {
                f64::INFINITY
            } else {
                v
            }
        };

        // Initial simplex: x0 plus per-coordinate perturbations.
        let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
        simplex.push(x0.to_vec());
        for i in 0..n {
            let mut v = x0.to_vec();
            let step = if v[i].abs() > 1e-12 {
                INITIAL_STEP * v[i].abs()
            } else {
                INITIAL_STEP
            };
            v[i] += step;
            simplex.push(v);
        }
        let mut fvals: Vec<f64> = Vec::with_capacity(n + 1);
        fvals.push(if f0_raw.is_nan() {
            f64::INFINITY
        } else {
            f0_raw
        });
        fvals.extend(simplex[1..].iter().map(|p| eval(p, &mut evals)));

        let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);
        loop {
            // Order simplex by objective.
            let mut order: Vec<usize> = (0..=n).collect();
            order.sort_by(|&i, &j| fvals[i].partial_cmp(&fvals[j]).expect("no NaN"));
            let best = order[0];
            let worst = order[n];
            let second_worst = order[n - 1];

            // Convergence: simplex diameter and objective spread.
            let diam = simplex
                .iter()
                .map(|p| {
                    p.iter()
                        .zip(&simplex[best])
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0_f64, f64::max)
                })
                .fold(0.0_f64, f64::max);
            let fspread = fvals[worst] - fvals[best];
            let scale = 1.0 + simplex[best].iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            if diam < self.xtol * scale && fspread.abs() < self.ftol * (1.0 + fvals[best].abs()) {
                return Ok(SimplexMin {
                    x: simplex[best].clone(),
                    value: fvals[best],
                    evaluations: evals,
                    converged: true,
                });
            }
            if evals >= self.max_evals {
                return Ok(SimplexMin {
                    x: simplex[best].clone(),
                    value: fvals[best],
                    evaluations: evals,
                    converged: false,
                });
            }

            // Centroid of all but the worst vertex.
            let mut centroid = vec![0.0; n];
            for (idx, p) in simplex.iter().enumerate() {
                if idx == worst {
                    continue;
                }
                for (c, v) in centroid.iter_mut().zip(p) {
                    *c += v / n as f64;
                }
            }

            let lerp = |from: &[f64], towards: &[f64], t: f64| -> Vec<f64> {
                from.iter()
                    .zip(towards)
                    .map(|(a, b)| a + t * (b - a))
                    .collect()
            };

            // Reflection.
            let reflected = lerp(&centroid, &simplex[worst], -alpha);
            let fr = eval(&reflected, &mut evals);
            if fr < fvals[best] {
                // Expansion.
                let expanded = lerp(&centroid, &simplex[worst], -gamma);
                let fe = eval(&expanded, &mut evals);
                if fe < fr {
                    simplex[worst] = expanded;
                    fvals[worst] = fe;
                } else {
                    simplex[worst] = reflected;
                    fvals[worst] = fr;
                }
            } else if fr < fvals[second_worst] {
                simplex[worst] = reflected;
                fvals[worst] = fr;
            } else {
                // Contraction (outside if reflection improved on worst,
                // inside otherwise).
                let contracted = if fr < fvals[worst] {
                    lerp(&centroid, &reflected, rho)
                } else {
                    lerp(&centroid, &simplex[worst], rho)
                };
                let fc = eval(&contracted, &mut evals);
                if fc < fvals[worst].min(fr) {
                    simplex[worst] = contracted;
                    fvals[worst] = fc;
                } else {
                    // Shrink towards the best vertex.
                    let best_point = simplex[best].clone();
                    for idx in 0..=n {
                        if idx == best {
                            continue;
                        }
                        simplex[idx] = lerp(&best_point, &simplex[idx], sigma);
                        fvals[idx] = eval(&simplex[idx], &mut evals);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nelder_mead_sphere() {
        let r = NelderMead::new()
            .minimize(|p| p.iter().map(|v| v * v).sum(), &[1.0, -2.0, 3.0])
            .unwrap();
        assert!(r.value < 1e-12);
        for v in &r.x {
            assert!(v.abs() < 1e-5);
        }
    }

    #[test]
    fn nelder_mead_rosenbrock() {
        let rosen = |p: &[f64]| {
            let (x, y) = (p[0], p[1]);
            (1.0 - x).powi(2) + 100.0 * (y - x * x).powi(2)
        };
        let r = NelderMead::new()
            .with_max_evals(5000)
            .minimize(rosen, &[-1.2, 1.0])
            .unwrap();
        assert!(r.converged, "should converge within budget");
        assert!((r.x[0] - 1.0).abs() < 1e-4);
        assert!((r.x[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn nelder_mead_respects_budget() {
        let r = NelderMead::new()
            .with_max_evals(10)
            .minimize(|p| p[0] * p[0], &[100.0])
            .unwrap();
        assert!(!r.converged);
        assert!(r.evaluations <= 12, "a few extra evals at setup are ok");
    }

    #[test]
    fn nelder_mead_survives_nan_regions() {
        // NaN outside |x| <= 10 must not break the search for the minimum at 5.
        let f = |p: &[f64]| {
            if p[0].abs() > 10.0 {
                f64::NAN
            } else {
                (p[0] - 5.0) * (p[0] - 5.0)
            }
        };
        let r = NelderMead::new().minimize(f, &[8.0]).unwrap();
        assert!((r.x[0] - 5.0).abs() < 1e-5);
    }

    #[test]
    fn nelder_mead_rejects_empty_input() {
        assert!(NelderMead::new().minimize(|_| 0.0, &[]).is_err());
    }

    #[test]
    fn nelder_mead_zero_start_coordinates() {
        // Starting at the origin exercises the absolute-step branch.
        let r = NelderMead::new()
            .minimize(
                |p| (p[0] - 0.5).powi(2) + (p[1] + 0.25).powi(2),
                &[0.0, 0.0],
            )
            .unwrap();
        assert!((r.x[0] - 0.5).abs() < 1e-5);
        assert!((r.x[1] + 0.25).abs() < 1e-5);
    }
}
