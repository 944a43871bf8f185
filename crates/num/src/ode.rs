//! Explicit Runge–Kutta integration: adaptive Dormand–Prince RK45.
//!
//! In this workspace numerical integration is a *validation* tool: the
//! hybrid model's per-mode trajectories are analytic, and property tests
//! integrate the raw ODE right-hand sides with [`integrate_adaptive`] to
//! confirm the closed forms. The analog simulator uses its own implicit
//! companion-model integration (stiff circuits), not this module.

use crate::NumError;

/// Relative local-error tolerance.
const RTOL: f64 = 1e-9;
/// Absolute local-error tolerance.
const ATOL: f64 = 1e-12;
/// Hard cap on accepted + rejected steps.
const MAX_STEPS: usize = 100_000;

/// Dense output sample from [`integrate_adaptive`]: the accepted step
/// endpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct OdeSample {
    /// Time of the accepted step end.
    pub t: f64,
    /// State at [`OdeSample::t`].
    pub y: Vec<f64>,
}

/// Integrates `y' = f(t, y)` from `t0` to `t1` with the Dormand–Prince
/// 5(4) embedded pair (relative tolerance 1e-9, absolute 1e-12, first
/// step `(t1-t0)/100`, at most 100,000 steps), returning all accepted
/// samples (including the initial condition).
///
/// # Errors
///
/// * [`NumError::InvalidInput`] — reversed interval.
/// * [`NumError::NonFiniteValue`] — derivative returned NaN/inf.
/// * [`NumError::NoConvergence`] — step budget exhausted.
///
/// # Examples
///
/// ```
/// use mis_num::ode::integrate_adaptive;
///
/// # fn main() -> Result<(), mis_num::NumError> {
/// // y' = -y, y(0) = 1: y(1) = e^{-1}.
/// let samples = integrate_adaptive(|_t, y, dy| dy[0] = -y[0], 0.0, 1.0, &[1.0])?;
/// let yf = samples.last().expect("at least the initial sample").y[0];
/// assert!((yf - (-1.0f64).exp()).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
pub fn integrate_adaptive<F>(
    mut f: F,
    t0: f64,
    t1: f64,
    y0: &[f64],
) -> Result<Vec<OdeSample>, NumError>
where
    F: FnMut(f64, &[f64], &mut [f64]),
{
    if !(t1 >= t0) {
        return Err(NumError::InvalidInput {
            reason: "t1 must be >= t0".into(),
        });
    }
    let n = y0.len();
    let mut samples = vec![OdeSample {
        t: t0,
        y: y0.to_vec(),
    }];
    if t1 == t0 {
        return Ok(samples);
    }

    // Dormand–Prince coefficients.
    const C: [f64; 7] = [0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0];
    const A: [[f64; 6]; 7] = [
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
        [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
        [
            19372.0 / 6561.0,
            -25360.0 / 2187.0,
            64448.0 / 6561.0,
            -212.0 / 729.0,
            0.0,
            0.0,
        ],
        [
            9017.0 / 3168.0,
            -355.0 / 33.0,
            46732.0 / 5247.0,
            49.0 / 176.0,
            -5103.0 / 18656.0,
            0.0,
        ],
        [
            35.0 / 384.0,
            0.0,
            500.0 / 1113.0,
            125.0 / 192.0,
            -2187.0 / 6784.0,
            11.0 / 84.0,
        ],
    ];
    // 5th-order weights (same as the last row of A).
    const B5: [f64; 7] = [
        35.0 / 384.0,
        0.0,
        500.0 / 1113.0,
        125.0 / 192.0,
        -2187.0 / 6784.0,
        11.0 / 84.0,
        0.0,
    ];
    // 4th-order (embedded) weights.
    const B4: [f64; 7] = [
        5179.0 / 57600.0,
        0.0,
        7571.0 / 16695.0,
        393.0 / 640.0,
        -92097.0 / 339200.0,
        187.0 / 2100.0,
        1.0 / 40.0,
    ];

    let mut t = t0;
    let mut y = y0.to_vec();
    let mut h = (t1 - t0) / 100.0;
    let mut k = vec![vec![0.0; n]; 7];
    let mut ytmp = vec![0.0; n];

    for _step in 0..MAX_STEPS {
        if t >= t1 {
            return Ok(samples);
        }
        if t + h > t1 {
            h = t1 - t;
        }
        // Stage evaluations.
        for s in 0..7 {
            for i in 0..n {
                let mut acc = 0.0;
                for (j, kj) in k.iter().enumerate().take(s) {
                    acc += A[s][j] * kj[i];
                }
                ytmp[i] = y[i] + h * acc;
            }
            let (pre, rest) = k.split_at_mut(s);
            let _ = pre;
            f(t + C[s] * h, if s == 0 { &y } else { &ytmp }, &mut rest[0]);
            if rest[0].iter().any(|v| !v.is_finite()) {
                return Err(NumError::NonFiniteValue { at: t });
            }
        }
        // 5th-order solution and embedded error estimate.
        let mut err_norm = 0.0_f64;
        let mut y5 = vec![0.0; n];
        for i in 0..n {
            let mut acc5 = 0.0;
            let mut acc4 = 0.0;
            for s in 0..7 {
                acc5 += B5[s] * k[s][i];
                acc4 += B4[s] * k[s][i];
            }
            y5[i] = y[i] + h * acc5;
            let sc = ATOL + RTOL * y[i].abs().max(y5[i].abs());
            let e = h * (acc5 - acc4) / sc;
            err_norm = err_norm.max(e.abs());
        }

        if err_norm <= 1.0 {
            t += h;
            y = y5;
            samples.push(OdeSample { t, y: y.clone() });
        }
        // PI-free step controller with safety factor.
        let factor = if err_norm > 0.0 {
            (0.9 * err_norm.powf(-0.2)).clamp(0.2, 5.0)
        } else {
            5.0
        };
        h *= factor;
        if h < 1e-18 * (t1 - t0).max(1.0) {
            return Err(NumError::NoConvergence {
                iterations: samples.len(),
                residual: err_norm,
            });
        }
    }
    Err(NumError::NoConvergence {
        iterations: MAX_STEPS,
        residual: f64::NAN,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_matches_exact_linear_system() {
        // Coupled decay akin to the gate's (1,0) mode.
        let a = [[-3.0, 1.0], [1.0, -2.0]];
        let samples = integrate_adaptive(
            move |_t, y, dy| {
                dy[0] = a[0][0] * y[0] + a[0][1] * y[1];
                dy[1] = a[1][0] * y[0] + a[1][1] * y[1];
            },
            0.0,
            2.0,
            &[1.0, 0.0],
        )
        .unwrap();
        let yf = &samples.last().unwrap().y;
        // Cross-check against the closed-form eigensolution.
        let e = mis_linalg::Eigen2::new(a);
        let sol = e.solve_affine([1.0, 0.0], [0.0, 0.0]).unwrap();
        let exact = sol.eval(2.0);
        assert!((yf[0] - exact[0]).abs() < 1e-8);
        assert!((yf[1] - exact[1]).abs() < 1e-8);
    }

    #[test]
    fn adaptive_handles_stiff_ish_decay() {
        // τ separation of 1000: adaptive explicit integration must still
        // deliver the slow component accurately.
        let samples = integrate_adaptive(
            |_t, y, dy| {
                dy[0] = -1000.0 * y[0];
                dy[1] = -y[1];
            },
            0.0,
            1.0,
            &[1.0, 1.0],
        )
        .unwrap();
        let yf = &samples.last().unwrap().y;
        assert!(yf[0].abs() < 1e-12);
        assert!((yf[1] - (-1.0f64).exp()).abs() < 1e-7);
    }

    #[test]
    fn adaptive_zero_length_interval() {
        let s = integrate_adaptive(|_t, _y, dy| dy[0] = 1.0, 1.0, 1.0, &[42.0]).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].y[0], 42.0);
    }

    #[test]
    fn adaptive_rejects_nan_derivative() {
        assert!(matches!(
            integrate_adaptive(|_t, _y, dy| dy[0] = f64::NAN, 0.0, 1.0, &[1.0]),
            Err(NumError::NonFiniteValue { .. })
        ));
    }

    #[test]
    fn adaptive_samples_are_monotone_in_time() {
        let samples =
            integrate_adaptive(|t, _y, dy| dy[0] = (5.0 * t).sin(), 0.0, 3.0, &[0.0]).unwrap();
        for w in samples.windows(2) {
            assert!(w[1].t > w[0].t);
        }
        assert_eq!(samples.last().unwrap().t, 3.0);
    }
}
