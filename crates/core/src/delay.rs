//! MIS gate-delay functions of the hybrid model (paper Section IV).
//!
//! Conventions (matching the paper):
//!
//! * `Δ = t_B − t_A` is the input separation; `Δ > 0` means input A
//!   switches first.
//! * **Falling output** (inputs rise, NOR output falls): the *earlier*
//!   input already triggers the transition, so
//!   `δ↓(Δ) = t_O − min(t_A, t_B)`.
//! * **Rising output** (inputs fall, output rises): the gate switches only
//!   after *both* inputs fell, so `δ↑(Δ) = t_O − max(t_A, t_B)`.
//! * The model delay adds the pure delay: `δ_M(Δ) = t_O(Δ) + δ_min`
//!   (`δ_min` defers every mode switch, which shifts `t_O` by exactly
//!   `δ_min` relative to the undeferred computation).
//!
//! The SIS (single input switching) limits are available both as large-`|Δ|`
//! evaluations and as closed-path computations ([`falling_sis`],
//! [`rising_sis`]).

use crate::{HybridTrajectory, Mode, ModeSwitch, ModelError, NorParams, RisingInitialVn};

/// How far past the last mode switch to search for the output crossing,
/// in units of the slowest RC time constant.
const HORIZON_TAUS: f64 = 60.0;

/// The falling-output MIS delay `δ↓_M(Δ) = t_O + δ_min` for input
/// separation `delta = t_B − t_A` (both inputs rising; gate initially in
/// `(0,0)` steady state with `V_N = V_O = V_DD`).
///
/// # Errors
///
/// * [`ModelError::InvalidParams`] — invalid parameter set.
/// * [`ModelError::NoCrossing`] — cannot happen for valid falling
///   scenarios but is propagated defensively.
///
/// # Examples
///
/// The MIS speed-up: simultaneous switching halves the pull-down
/// resistance, so `δ↓(0) < δ↓(±∞)`:
///
/// ```
/// use mis_core::{delay, NorParams};
/// use mis_waveform::units::ps;
///
/// # fn main() -> Result<(), mis_core::ModelError> {
/// let p = NorParams::paper_table1();
/// assert!(delay::falling_delay(&p, 0.0)? < delay::falling_delay(&p, ps(300.0))?);
/// assert!(delay::falling_delay(&p, 0.0)? < delay::falling_delay(&p, ps(-300.0))?);
/// # Ok(())
/// # }
/// ```
pub fn falling_delay(params: &NorParams, delta: f64) -> Result<f64, ModelError> {
    params.validate()?;
    let ts = delta.abs();
    // First mode: (1,0) when A rises first (Δ >= 0), (0,1) when B first.
    let first_mode = if delta >= 0.0 { Mode::S10 } else { Mode::S01 };
    let switches = [
        ModeSwitch {
            at: 0.0,
            to: first_mode,
        },
        ModeSwitch {
            at: ts,
            to: Mode::S11,
        },
    ];
    let traj = HybridTrajectory::new(params, Mode::S00, [params.vdd, params.vdd], 0.0, &switches)?;
    let horizon = HORIZON_TAUS * params.slowest_time_constant();
    let t_o = traj
        .first_output_crossing(params.vth, horizon)?
        .ok_or_else(|| ModelError::NoCrossing {
            context: format!("falling transition, Δ = {delta:e} s"),
        })?;
    Ok(t_o + params.delta_min)
}

/// The rising-output MIS delay `δ↑_M(Δ) = (t_O − t_s) + δ_min` for input
/// separation `delta = t_B − t_A` (both inputs falling; gate initially in
/// `(1,1)` with `V_O = GND` and `V_N` given by `initial_vn`).
///
/// The paper's Fig. 6 evaluates `initial_vn ∈ {GND, V_DD/2, V_DD}`;
/// [`RisingInitialVn::Tracked`] falls back to `GND` here because a
/// stateless query has no history (use [`crate::channel`] for tracked
/// state).
///
/// # Errors
///
/// * [`ModelError::InvalidParams`] — invalid parameter set.
/// * [`ModelError::NoCrossing`] — propagated defensively.
pub fn rising_delay(
    params: &NorParams,
    delta: f64,
    initial_vn: RisingInitialVn,
) -> Result<f64, ModelError> {
    params.validate()?;
    let x = initial_vn.voltage(params.vdd);
    let ts = delta.abs();
    // First mode after the first falling input: (0,1) when A falls first
    // (Δ > 0), (1,0) when B falls first (Δ < 0).
    let first_mode = if delta >= 0.0 { Mode::S01 } else { Mode::S10 };
    let switches = [
        ModeSwitch {
            at: 0.0,
            to: first_mode,
        },
        ModeSwitch {
            at: ts,
            to: Mode::S00,
        },
    ];
    let traj = HybridTrajectory::new(params, Mode::S11, [x, 0.0], 0.0, &switches)?;
    let horizon = HORIZON_TAUS * params.slowest_time_constant();
    let t_o = traj
        .first_output_crossing(params.vth, horizon)?
        .ok_or_else(|| ModelError::NoCrossing {
            context: format!("rising transition, Δ = {delta:e} s, V_N(0) = {x}"),
        })?;
    Ok(t_o - ts + params.delta_min)
}

/// The falling SIS delay limits `(δ↓(−∞), δ↓(+∞))`, computed on the
/// single-mode paths rather than by saturating `Δ`.
///
/// `δ↓(−∞)` (only B rises) is the `(0,1)` discharge `ln 2 · C_O·R_4`;
/// `δ↓(+∞)` (only A rises) is the `(1,0)` crossing where `N` discharges
/// through the output. Both include `δ_min`.
///
/// # Errors
///
/// Same as [`falling_delay`].
pub fn falling_sis(params: &NorParams) -> Result<(f64, f64), ModelError> {
    params.validate()?;
    let horizon = HORIZON_TAUS * params.slowest_time_constant();
    let mut out = [0.0; 2];
    for (slot, mode) in [(0usize, Mode::S01), (1usize, Mode::S10)] {
        let traj = HybridTrajectory::new(
            params,
            Mode::S00,
            [params.vdd, params.vdd],
            0.0,
            &[ModeSwitch { at: 0.0, to: mode }],
        )?;
        out[slot] = traj
            .first_output_crossing(params.vth, horizon)?
            .ok_or_else(|| ModelError::NoCrossing {
                context: format!("falling SIS via {mode}"),
            })?
            + params.delta_min;
    }
    Ok((out[0], out[1]))
}

/// The rising SIS delay limits `(δ↑(−∞), δ↑(+∞))`.
///
/// For `Δ → −∞` the gate sat in `(1,0)` long enough to fully discharge
/// `N`, so the final `(0,0)` charge starts from `[0, 0]`. For `Δ → +∞` it
/// sat in `(0,1)`, which precharges `N` to `V_DD`, so `(0,0)` starts from
/// `[V_DD, 0]` — the paper's explanation for why an early transition on A
/// shortens the rising delay. Both include `δ_min`.
///
/// # Errors
///
/// Same as [`rising_delay`].
pub fn rising_sis(params: &NorParams) -> Result<(f64, f64), ModelError> {
    params.validate()?;
    let horizon = HORIZON_TAUS * params.slowest_time_constant();
    let mut out = [0.0; 2];
    for (slot, vn0) in [(0usize, 0.0), (1usize, params.vdd)] {
        let traj = HybridTrajectory::new(params, Mode::S00, [vn0, 0.0], 0.0, &[])?;
        out[slot] = traj
            .first_output_crossing(params.vth, horizon)?
            .ok_or_else(|| ModelError::NoCrossing {
                context: "rising SIS".into(),
            })?
            + params.delta_min;
    }
    Ok((out[0], out[1]))
}

/// A sampled MIS delay curve `δ(Δ)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayCurve {
    /// Input separations `Δ`, in seconds.
    pub deltas: Vec<f64>,
    /// Delays `δ(Δ)`, in seconds.
    pub delays: Vec<f64>,
}

impl DelayCurve {
    /// The separation at which the delay is smallest.
    #[must_use]
    pub fn argmin(&self) -> Option<(f64, f64)> {
        self.deltas
            .iter()
            .zip(&self.delays)
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite delays"))
            .map(|(&d, &v)| (d, v))
    }
}

/// Sweeps [`falling_delay`] over `n` uniformly spaced separations in
/// `[delta_lo, delta_hi]` (the paper's Fig. 5 curve).
///
/// # Errors
///
/// Propagates [`falling_delay`] failures; rejects `n < 2` or a reversed
/// range via [`ModelError::InvalidParams`].
pub fn falling_curve(
    params: &NorParams,
    delta_lo: f64,
    delta_hi: f64,
    n: usize,
) -> Result<DelayCurve, ModelError> {
    if !(delta_hi > delta_lo) || n < 2 {
        return Err(ModelError::InvalidParams {
            reason: "sweep needs delta_hi > delta_lo and n >= 2".into(),
        });
    }
    let mut deltas = Vec::with_capacity(n);
    let mut delays = Vec::with_capacity(n);
    for i in 0..n {
        let d = delta_lo + (delta_hi - delta_lo) * i as f64 / (n - 1) as f64;
        deltas.push(d);
        delays.push(falling_delay(params, d)?);
    }
    Ok(DelayCurve { deltas, delays })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_linalg::approx_eq;
    use mis_waveform::units::ps;
    use std::f64::consts::LN_2;

    fn p() -> NorParams {
        NorParams::paper_table1()
    }

    fn p0() -> NorParams {
        NorParams::paper_table1().without_pure_delay()
    }

    #[test]
    fn falling_delta_zero_matches_eq8() {
        let par = p0();
        let d = falling_delay(&par, 0.0).unwrap();
        let r_par = par.r3 * par.r4 / (par.r3 + par.r4);
        assert!(approx_eq(d, LN_2 * par.co * r_par, 1e-9));
    }

    #[test]
    fn falling_minus_inf_matches_eq9() {
        let par = p0();
        let d = falling_delay(&par, ps(-200.0)).unwrap();
        assert!(approx_eq(d, LN_2 * par.co * par.r4, 1e-6));
        let (sis_m, _) = falling_sis(&par).unwrap();
        assert!(approx_eq(sis_m, LN_2 * par.co * par.r4, 1e-12));
    }

    #[test]
    fn falling_curve_has_minimum_at_zero() {
        let par = p();
        let curve = falling_curve(&par, ps(-60.0), ps(60.0), 41).unwrap();
        let (dmin, _) = curve.argmin().unwrap();
        assert!(
            dmin.abs() < ps(4.0),
            "minimum at Δ = {} ps, expected ≈ 0",
            dmin / 1e-12
        );
    }

    #[test]
    fn falling_speed_up_magnitude_is_paperlike() {
        // Paper Fig. 2b: ~ −28 % from δ↓(±∞) to δ↓(0). The fitted model
        // reproduces the −∞ side ratio δ↓(0)/δ↓(−∞) with the pure delay
        // included.
        let par = p();
        let d0 = falling_delay(&par, 0.0).unwrap();
        let (dm, dp) = falling_sis(&par).unwrap();
        let speedup_m = (d0 - dm) / dm;
        let speedup_p = (d0 - dp) / dp;
        assert!(
            (-0.40..=-0.15).contains(&speedup_m),
            "speed-up vs −∞: {speedup_m}"
        );
        assert!(
            (-0.40..=-0.10).contains(&speedup_p),
            "speed-up vs +∞: {speedup_p}"
        );
    }

    #[test]
    fn falling_saturates_to_sis_limits() {
        let par = p();
        let (dm, dp) = falling_sis(&par).unwrap();
        assert!(approx_eq(
            falling_delay(&par, ps(-400.0)).unwrap(),
            dm,
            1e-9
        ));
        assert!(approx_eq(falling_delay(&par, ps(400.0)).unwrap(), dp, 1e-9));
    }

    #[test]
    fn falling_sis_asymmetry_t2_effect() {
        // δ↓(∞) ≠ δ↓(−∞): with A-first, T2 connects N to O and the stored
        // charge of C_N slows the discharge (Section II's T2 explanation).
        let par = p0();
        let (dm, dp) = falling_sis(&par).unwrap();
        assert!(
            dp > dm,
            "A-first discharge should be slower: {dp:e} vs {dm:e}"
        );
    }

    #[test]
    fn rising_delta_zero_slowdown() {
        // MIS slow-down: δ↑(0) exceeds both SIS limits for V_N = GND.
        let par = p();
        let d0 = rising_delay(&par, 0.0, RisingInitialVn::Gnd).unwrap();
        let (dm, dp) = rising_sis(&par).unwrap();
        assert!(d0 >= dm, "δ↑(0) = {d0:e} vs δ↑(−∞) = {dm:e}");
        assert!(d0 >= dp, "δ↑(0) = {d0:e} vs δ↑(+∞) = {dp:e}");
    }

    #[test]
    fn rising_saturates_to_sis_limits() {
        let par = p();
        let (dm, dp) = rising_sis(&par).unwrap();
        let d_neg = rising_delay(&par, ps(-500.0), RisingInitialVn::Gnd).unwrap();
        let d_pos = rising_delay(&par, ps(500.0), RisingInitialVn::Gnd).unwrap();
        assert!(approx_eq(d_neg, dm, 1e-6), "{d_neg:e} vs {dm:e}");
        assert!(approx_eq(d_pos, dp, 1e-6), "{d_pos:e} vs {dp:e}");
    }

    #[test]
    fn rising_positive_side_insensitive_to_initial_vn_at_large_delta() {
        // For Δ ≫ 0 the (0,1) phase recharges N to VDD regardless of X —
        // the paper's argument for parametrizing from the Δ ≥ 0 branch.
        let par = p();
        let d_gnd = rising_delay(&par, ps(400.0), RisingInitialVn::Gnd).unwrap();
        let d_vdd = rising_delay(&par, ps(400.0), RisingInitialVn::Vdd).unwrap();
        assert!(approx_eq(d_gnd, d_vdd, 1e-6));
    }

    #[test]
    fn rising_negative_side_depends_on_initial_vn() {
        // For moderate Δ < 0 the frozen V_N matters (paper Fig. 6).
        let par = p();
        let d_gnd = rising_delay(&par, ps(-20.0), RisingInitialVn::Gnd).unwrap();
        let d_vdd = rising_delay(&par, ps(-20.0), RisingInitialVn::Vdd).unwrap();
        assert!(
            (d_gnd - d_vdd).abs() > ps(0.1),
            "V_N must matter: {d_gnd:e} vs {d_vdd:e}"
        );
    }

    #[test]
    fn rising_asymmetric_sis_delays() {
        // δ↑(∞) < δ↑(−∞): A-first precharges N via R1 (fast path).
        let par = p();
        let (dm, dp) = rising_sis(&par).unwrap();
        assert!(dp < dm, "precharged N must be faster: {dp:e} vs {dm:e}");
    }

    #[test]
    fn pure_delay_shifts_curves_uniformly() {
        let with = p();
        let without = p0();
        for &d in &[ps(-40.0), 0.0, ps(25.0)] {
            let a = falling_delay(&with, d).unwrap();
            let b = falling_delay(&without, d).unwrap();
            assert!(approx_eq(a - b, with.delta_min, 1e-12));
            let a = rising_delay(&with, d, RisingInitialVn::Gnd).unwrap();
            let b = rising_delay(&without, d, RisingInitialVn::Gnd).unwrap();
            assert!(approx_eq(a - b, with.delta_min, 1e-12));
        }
    }

    #[test]
    fn curves_validate_arguments() {
        let par = p();
        assert!(falling_curve(&par, ps(10.0), ps(-10.0), 5).is_err());
        assert!(falling_curve(&par, ps(-10.0), ps(10.0), 1).is_err());
    }

    #[test]
    fn delay_curve_extrema_helpers() {
        let c = DelayCurve {
            deltas: vec![-1.0, 0.0, 1.0],
            delays: vec![3.0, 1.0, 2.0],
        };
        assert_eq!(c.argmin().unwrap(), (0.0, 1.0));
    }

    #[test]
    fn delays_are_continuous_in_delta_near_zero() {
        // Crossing Δ = 0 changes which input is "first"; the delay value
        // must not jump (the two limits coincide at Δ = 0).
        let par = p();
        let eps = ps(0.01);
        let f_m = falling_delay(&par, -eps).unwrap();
        let f_p = falling_delay(&par, eps).unwrap();
        assert!((f_m - f_p).abs() < ps(0.1));
        let r_m = rising_delay(&par, -eps, RisingInitialVn::Gnd).unwrap();
        let r_p = rising_delay(&par, eps, RisingInitialVn::Gnd).unwrap();
        assert!((r_m - r_p).abs() < ps(0.1));
    }
}
