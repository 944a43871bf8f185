//! Characteristic Charlie delays (paper Section V, eqs. (8)–(12)).
//!
//! The six *characteristic* values — `δ↓(−∞), δ↓(0), δ↓(∞)` and
//! `δ↑(−∞), δ↑(0), δ↑(∞)` — pin down the shape of the MIS delay curves and
//! drive the parametrization. The paper derives:
//!
//! * **exact closed forms** for `δ↓(0)` (eq. (8)) and `δ↓(−∞)` (eq. (9)) —
//!   pure single-RC discharges;
//! * **first-order linearized approximations** for the remaining values
//!   (eqs. (10)–(12)): the trajectory is Taylor-expanded at a probe time
//!   `w` and the linearization solved for the threshold crossing, giving
//!   `t ≈ w + (V_th − V_O(w)) / V_O'(w)` with error `O((t−w)²)`.
//!
//! ### A note on the published constants
//!
//! The printed eqs. (10)–(12) hard-code `0.6` where `V_th` belongs and
//! scale the `c`-coefficients as if `V_DD = 1.2 V` (the authors' legacy
//! 65 nm validation supply), while the evaluation elsewhere uses
//! `V_DD = 0.8 V`; eq. (12) also contains an undefined symbol `D`
//! (dimensional analysis identifies it as `C_N`). This module implements
//! the formulas symbolically in `V_DD`/`V_th`, so they agree with the
//! numerically exact delays for any supply; [`paper_constant_l`]
//! demonstrates that the paper's convoluted constant `l` reduces to
//! exactly `V_DD`.
//!
//! All values returned here are *raw ODE delays* — the pure delay
//! `δ_min` is **not** added, matching the role these quantities play in
//! fitting (where `δ_min` is subtracted from the measured targets).

use crate::{delay, Mode, ModeConstants, ModeSystem, ModelError, NorParams, RisingInitialVn};

/// The paper's probe time for falling-transition approximations
/// (`w = 10⁻¹⁰ s` in eq. (10)).
///
/// The literal value is calibrated to the ~100 ps time constants of the
/// authors' legacy 65 nm / 1.2 V setup (see the module docs and
/// [`NorParams::legacy_65nm_like`]); for the 15 nm Table I parameters the
/// linearization point must sit near the actual crossing — use the
/// `_auto` variants, which place it there by fixed-point iteration.
pub const PAPER_W_FALL: f64 = 1e-10;

/// The paper's probe time for rising-transition approximations
/// (`w = 2·10⁻¹⁰ s` in eq. (11); eq. (12) uses `10⁻¹⁰ s`).
pub const PAPER_W_RISE: f64 = 2e-10;

/// Fixed-point iterations used by the `_auto` approximations: each round
/// re-linearizes at the previous estimate (Newton-on-the-trajectory).
const AUTO_PROBE_ROUNDS: usize = 3;

/// The six characteristic Charlie delays of a parameter set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CharacteristicDelays {
    /// `δ↓(−∞)` — falling output, only input B rises.
    pub fall_minus_inf: f64,
    /// `δ↓(0)` — falling output, simultaneous inputs.
    pub fall_zero: f64,
    /// `δ↓(+∞)` — falling output, only input A rises.
    pub fall_plus_inf: f64,
    /// `δ↑(−∞)` — rising output, B fell long before A.
    pub rise_minus_inf: f64,
    /// `δ↑(0)` — rising output, simultaneous inputs (`V_N = GND`).
    pub rise_zero: f64,
    /// `δ↑(+∞)` — rising output, A fell long before B.
    pub rise_plus_inf: f64,
}

impl CharacteristicDelays {
    /// Numerically exact characteristic delays of the model (raw ODE
    /// crossings, no `δ_min`), using the paper's `V_N = GND` convention
    /// for `δ↑(0)`.
    ///
    /// # Errors
    ///
    /// Propagates delay-computation failures.
    pub fn of_model(params: &NorParams) -> Result<Self, ModelError> {
        let raw = params.without_pure_delay();
        let (fall_m, fall_p) = delay::falling_sis(&raw)?;
        let (rise_m, rise_p) = delay::rising_sis(&raw)?;
        Ok(CharacteristicDelays {
            fall_minus_inf: fall_m,
            fall_zero: delay::falling_delay(&raw, 0.0)?,
            fall_plus_inf: fall_p,
            rise_minus_inf: rise_m,
            rise_zero: delay::rising_delay(&raw, 0.0, RisingInitialVn::Gnd)?,
            rise_plus_inf: rise_p,
        })
    }

    /// The delays as a fixed-order array
    /// `[δ↓(−∞), δ↓(0), δ↓(∞), δ↑(−∞), δ↑(0), δ↑(∞)]`.
    #[must_use]
    pub fn as_array(&self) -> [f64; 6] {
        [
            self.fall_minus_inf,
            self.fall_zero,
            self.fall_plus_inf,
            self.rise_minus_inf,
            self.rise_zero,
            self.rise_plus_inf,
        ]
    }

    /// Builds from the fixed-order array (inverse of
    /// [`CharacteristicDelays::as_array`]).
    #[must_use]
    pub fn from_array(a: [f64; 6]) -> Self {
        CharacteristicDelays {
            fall_minus_inf: a[0],
            fall_zero: a[1],
            fall_plus_inf: a[2],
            rise_minus_inf: a[3],
            rise_zero: a[4],
            rise_plus_inf: a[5],
        }
    }
}

/// Eq. (8): the exact simultaneous falling delay
/// `δ↓(0) = ln 2 · C_O · R₃R₄/(R₃+R₄)` (parallel nMOS discharge).
///
/// # Examples
///
/// ```
/// use mis_core::{charlie, NorParams};
/// let p = NorParams::paper_table1();
/// let d = charlie::fall_zero_exact(&p);
/// assert!(d > 9e-12 && d < 11e-12, "≈ 10 ps for Table I");
/// ```
#[must_use]
pub fn fall_zero_exact(params: &NorParams) -> f64 {
    let r_par = params.r3 * params.r4 / (params.r3 + params.r4);
    // ln(V_DD / V_th) generalizes the paper's ln 2 (= V_th = V_DD/2).
    (params.vdd / params.vth).ln() * params.co * r_par
}

/// Eq. (9): the exact B-only falling delay `δ↓(−∞) = ln 2 · C_O · R₄`.
#[must_use]
pub fn fall_minus_inf_exact(params: &NorParams) -> f64 {
    (params.vdd / params.vth).ln() * params.co * params.r4
}

/// Eq. (10): the linearized A-only falling delay `δ↓(+∞)`, obtained by
/// Taylor-inverting the mode `(1,0)` trajectory from `[V_DD, V_DD]` at
/// probe time `w` (paper default [`PAPER_W_FALL`]).
///
/// # Errors
///
/// Returns [`ModelError::InvalidParams`] for a non-positive `w` or
/// parameters failing validation.
pub fn fall_plus_inf_approx(params: &NorParams, w: f64) -> Result<f64, ModelError> {
    if !(w > 0.0) {
        return Err(ModelError::InvalidParams {
            reason: "probe time w must be positive".into(),
        });
    }
    let sys = ModeSystem::new(params, Mode::S10)?;
    let traj = sys.trajectory([params.vdd, params.vdd]);
    Ok(linearized_crossing(&traj, params.vth, w))
}

/// Eqs. (11)/(12): the linearized rising delay `δ↑(Δ)` for initial
/// internal-node voltage `x` (the paper's `X`), Taylor-inverted on the
/// final `(0,0)` segment at *global* probe time `w` (paper defaults
/// [`PAPER_W_RISE`] for `Δ ≥ 0` and [`PAPER_W_FALL`] for `Δ < 0`).
///
/// The returned delay is measured from the later input
/// (`δ↑ = t_O − max(t_A, t_B)`), matching [`delay::rising_delay`] without
/// `δ_min`.
///
/// # Errors
///
/// * [`ModelError::InvalidParams`] — `w` not beyond the second switch
///   (`w <= |Δ|`), or invalid parameters.
pub fn rise_approx(params: &NorParams, delta: f64, x: f64, w: f64) -> Result<f64, ModelError> {
    let ts = delta.abs();
    if !(w > ts) {
        return Err(ModelError::InvalidParams {
            reason: format!("probe time w = {w:e} must exceed |Δ| = {ts:e}"),
        });
    }
    let first_mode = if delta >= 0.0 { Mode::S01 } else { Mode::S10 };
    // Phase 1: evolve [x, 0] through the first mode for ts.
    let phase1 = ModeSystem::new(params, first_mode)?.trajectory([x, 0.0]);
    let x_at_ts = phase1.eval(ts);
    // Phase 2: the (0,0) charge, linearized at local time (w − ts).
    let phase2 = ModeSystem::new(params, Mode::S00)?.trajectory(x_at_ts);
    Ok(linearized_crossing(&phase2, params.vth, w - ts))
}

/// Eq. (10) with an automatically placed probe: starts from the eq. (8)
/// delay scale and re-linearizes `AUTO_PROBE_ROUNDS` times, so the probe
/// lands on the crossing regardless of technology time constants.
///
/// # Errors
///
/// Same as [`fall_plus_inf_approx`].
pub fn fall_plus_inf_approx_auto(params: &NorParams) -> Result<f64, ModelError> {
    let mut w = fall_zero_exact(params).max(1e-15);
    for _ in 0..AUTO_PROBE_ROUNDS {
        let t = fall_plus_inf_approx(params, w)?;
        if !(t > 0.0) || !t.is_finite() {
            break;
        }
        w = t;
    }
    fall_plus_inf_approx(params, w)
}

/// Eqs. (11)/(12) with an automatically placed probe (see
/// [`fall_plus_inf_approx_auto`]).
///
/// # Errors
///
/// Same as [`rise_approx`].
pub fn rise_approx_auto(params: &NorParams, delta: f64, x: f64) -> Result<f64, ModelError> {
    let ts = delta.abs();
    // Initial probe: one |Δ| plus the simultaneous-rise delay scale.
    let mut w = ts + fall_zero_exact(params).max(1e-15) * 2.0;
    for _ in 0..AUTO_PROBE_ROUNDS {
        let d = rise_approx(params, delta, x, w)?;
        let t_global = ts + d;
        if !(t_global > ts) || !t_global.is_finite() {
            break;
        }
        w = t_global;
    }
    rise_approx(params, delta, x, w)
}

/// First-order Taylor inversion of a trajectory's output crossing around
/// probe time `w`:
/// `t ≈ w + (level − V_O(w)) / V_O'(w)` — the algebraic core of the
/// paper's eqs. (10)–(12).
fn linearized_crossing(traj: &crate::ModeTrajectory, level: f64, w: f64) -> f64 {
    w + (level - traj.vo(w)) / traj.vo_derivative(w)
}

/// The paper's eq. (11) constant
/// `l = V_DD·(−α² + β²)·R₂ / (R₁·(γ² − β²))` for mode `(0,0)`.
///
/// Algebraically this is exactly `V_DD` (our crate's derivation shows
/// `β² − α² = 1/(C_N·C_O·R₂²)` and `γ² − β² = 1/(C_N·C_O·R₁·R₂)`); the
/// function exists so tests can demonstrate the identity and thereby
/// validate our reading of the published formula.
#[must_use]
pub fn paper_constant_l(params: &NorParams) -> f64 {
    let k = ModeConstants::for_mode(params, Mode::S00).expect("S00 is coupled");
    params.vdd * (-k.alpha * k.alpha + k.beta * k.beta) * params.r2
        / (params.r1 * (k.gamma * k.gamma - k.beta * k.beta))
}

/// The numerically exact counterpart of [`fall_plus_inf_approx`]: the true
/// `(1,0)` crossing from `[V_DD, V_DD]` (no linearization).
///
/// # Errors
///
/// Propagates crossing-solver failures; [`ModelError::NoCrossing`] if the
/// output cannot reach the threshold (impossible for valid parameters).
pub fn fall_plus_inf_exact_numeric(params: &NorParams) -> Result<f64, ModelError> {
    let sys = ModeSystem::new(params, Mode::S10)?;
    let traj = sys.trajectory([params.vdd, params.vdd]);
    let horizon = 60.0 * params.slowest_time_constant();
    traj.first_vo_crossing(params.vth, horizon)?
        .ok_or_else(|| ModelError::NoCrossing {
            context: "mode (1,0) from [VDD, VDD]".into(),
        })
}

/// The numerically exact counterpart of [`rise_approx`].
///
/// # Errors
///
/// Propagates [`delay::rising_delay`] failures.
pub fn rise_exact_numeric(params: &NorParams, delta: f64, x: f64) -> Result<f64, ModelError> {
    delay::rising_delay(
        &params.without_pure_delay(),
        delta,
        RisingInitialVn::Explicit(x),
    )
}

/// Convenience: the `(0,1)` internal-node charge curve
/// `V_N^{(0,1)}(Δ) = V_DD + (X − V_DD)·e^{−Δ/(C_N R₁)}` used by eq. (11).
#[must_use]
pub fn vn_after_01_phase(params: &NorParams, delta: f64, x: f64) -> f64 {
    params.vdd + (x - params.vdd) * (-delta / (params.cn * params.r1)).exp()
}

/// Sensitivity report: which parameters affect which characteristic delay
/// (paper Section V's qualitative analysis, quantified as relative
/// finite-difference sensitivities `∂ln δ / ∂ln p`).
///
/// Rows follow [`CharacteristicDelays::as_array`] order; columns are
/// `[R1, R2, R3, R4, C_N, C_O]`.
///
/// # Errors
///
/// Propagates delay-computation failures.
pub fn sensitivity_matrix(params: &NorParams) -> Result<[[f64; 6]; 6], ModelError> {
    let base = CharacteristicDelays::of_model(params)?.as_array();
    let rel_step = 1e-4;
    let mut out = [[0.0; 6]; 6];
    for (j, field) in [0usize, 1, 2, 3, 4, 5].iter().enumerate() {
        let mut bumped = *params;
        match field {
            0 => bumped.r1 *= 1.0 + rel_step,
            1 => bumped.r2 *= 1.0 + rel_step,
            2 => bumped.r3 *= 1.0 + rel_step,
            3 => bumped.r4 *= 1.0 + rel_step,
            4 => bumped.cn *= 1.0 + rel_step,
            _ => bumped.co *= 1.0 + rel_step,
        }
        let pert = CharacteristicDelays::of_model(&bumped)?.as_array();
        for i in 0..6 {
            out[i][j] = (pert[i] - base[i]) / (base[i] * rel_step);
        }
    }
    Ok(out)
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

    #[test]
    fn eq8_matches_numeric() {
        let par = p();
        let exact = fall_zero_exact(&par);
        let numeric = delay::falling_delay(&par.without_pure_delay(), 0.0).unwrap();
        assert!(approx_eq(exact, numeric, 1e-10));
    }

    #[test]
    fn eq9_matches_numeric() {
        let par = p();
        let exact = fall_minus_inf_exact(&par);
        let (numeric, _) = delay::falling_sis(&par.without_pure_delay()).unwrap();
        assert!(approx_eq(exact, numeric, 1e-10));
    }

    #[test]
    fn eq8_eq9_ratio_structure() {
        // δ↓(−∞)/δ↓(0) = (R3+R4)/R3 ≈ 2 for matched nMOS — the paper's
        // feasibility constraint.
        let par = p();
        let ratio = fall_minus_inf_exact(&par) / fall_zero_exact(&par);
        let expected = (par.r3 + par.r4) / par.r3;
        assert!(approx_eq(ratio, expected, 1e-12));
        assert!((1.9..=2.2).contains(&ratio), "Table I gives ≈ 2.08");
    }

    #[test]
    fn eq10_auto_probe_matches_exact_on_table1() {
        let par = p();
        let approx = fall_plus_inf_approx_auto(&par).unwrap();
        let exact = fall_plus_inf_exact_numeric(&par).unwrap();
        assert!(
            (approx - exact).abs() < ps(0.05),
            "approx {approx:e} vs exact {exact:e}"
        );
    }

    #[test]
    fn eq10_paper_probe_works_on_65nm_scale() {
        // The published w = 100 ps sits near the crossing for the legacy
        // 65 nm / 1.2 V time constants the formulas were written for.
        let par = NorParams::legacy_65nm_like();
        let approx = fall_plus_inf_approx(&par, PAPER_W_FALL).unwrap();
        let exact = fall_plus_inf_exact_numeric(&par).unwrap();
        assert!(
            (approx - exact).abs() < 0.2 * exact,
            "approx {approx:e} vs exact {exact:e}"
        );
    }

    #[test]
    fn eq11_rise_approx_positive_delta() {
        let par = p();
        for &d in &[0.0, ps(10.0), ps(40.0)] {
            let approx = rise_approx_auto(&par, d, 0.0).unwrap();
            let exact = rise_exact_numeric(&par, d, 0.0).unwrap();
            assert!(
                (approx - exact).abs() < ps(0.1),
                "Δ = {d:e}: {approx:e} vs {exact:e}"
            );
        }
        // Literal paper probe on the 65 nm-scale parameters.
        let legacy = NorParams::legacy_65nm_like();
        let approx = rise_approx(&legacy, 0.0, 0.0, PAPER_W_RISE).unwrap();
        let exact = rise_exact_numeric(&legacy, 0.0, 0.0).unwrap();
        assert!(
            (approx - exact).abs() < 0.25 * exact,
            "legacy: {approx:e} vs {exact:e}"
        );
    }

    #[test]
    fn eq12_rise_approx_negative_delta_all_x() {
        let par = p();
        for &x in &[0.0, par.vdd / 2.0, par.vdd] {
            let approx = rise_approx_auto(&par, ps(-20.0), x).unwrap();
            let exact = rise_exact_numeric(&par, ps(-20.0), x).unwrap();
            assert!(
                (approx - exact).abs() < ps(0.1),
                "X = {x}: {approx:e} vs {exact:e}"
            );
        }
    }

    #[test]
    fn rise_approx_error_shrinks_with_probe_distance() {
        let par = p();
        let exact = rise_exact_numeric(&par, ps(10.0), 0.0).unwrap();
        let err_far = (rise_approx(&par, ps(10.0), 0.0, PAPER_W_RISE).unwrap() - exact).abs();
        let err_near = (rise_approx(&par, ps(10.0), 0.0, ps(10.0) + exact).unwrap() - exact).abs();
        assert!(err_near <= err_far + 1e-18, "{err_near:e} vs {err_far:e}");
        assert!(err_near < ps(0.05));
    }

    #[test]
    fn paper_constant_l_is_vdd() {
        // The convoluted eq. (11) constant reduces to exactly V_DD.
        let par = p();
        assert!(approx_eq(paper_constant_l(&par), par.vdd, 1e-9));
        // ... for any parameter set, not just Table I.
        let other = NorParams::builder()
            .r1(10e3)
            .r2(80e3)
            .cn(200e-18)
            .co(900e-18)
            .build()
            .unwrap();
        assert!(approx_eq(paper_constant_l(&other), other.vdd, 1e-9));
    }

    #[test]
    fn vn_after_01_phase_limits() {
        let par = p();
        assert!(approx_eq(vn_after_01_phase(&par, 0.0, 0.3), 0.3, 1e-12));
        assert!(approx_eq(
            vn_after_01_phase(&par, 1.0, 0.3), // 1 s ≫ C_N·R_1
            par.vdd,
            1e-12
        ));
    }

    #[test]
    fn characteristic_delays_consistent_with_delay_module() {
        let par = p();
        let c = CharacteristicDelays::of_model(&par).unwrap();
        let raw = par.without_pure_delay();
        assert!(approx_eq(
            c.fall_zero,
            delay::falling_delay(&raw, 0.0).unwrap(),
            1e-12
        ));
        assert!(approx_eq(
            c.rise_zero,
            delay::rising_delay(&raw, 0.0, RisingInitialVn::Gnd).unwrap(),
            1e-12
        ));
        let arr = c.as_array();
        assert_eq!(CharacteristicDelays::from_array(arr), c);
    }

    #[test]
    fn sensitivities_match_paper_section_v() {
        // Paper: the falling characteristic delays are unaffected by R1;
        // δ↓(−∞) depends only on C_O and R4; δ↑(0) and δ↑(∞) are driven by
        // C_N, C_O, R1, R2.
        let par = p();
        let s = sensitivity_matrix(&par).unwrap();
        // Rows: [fall−∞, fall0, fall+∞, rise−∞, rise0, rise+∞]
        // Cols: [R1, R2, R3, R4, C_N, C_O]
        for (row, sens) in s.iter().take(3).enumerate() {
            assert!(
                sens[0].abs() < 1e-3,
                "falling delays must not depend on R1 (row {row}: {})",
                sens[0]
            );
        }
        // δ↓(−∞) = ln2·C_O·R4: unit sensitivity to R4 and C_O, none to R3.
        assert!(s[0][3] > 0.99 && s[0][3] < 1.01);
        assert!(s[0][5] > 0.99 && s[0][5] < 1.01);
        assert!(s[0][2].abs() < 1e-3);
        // Rising delays must not depend on R3 (nMOS off in (0,*) modes)…
        assert!(s[4][2].abs() < 1e-3, "rise0 vs R3: {}", s[4][2]);
        // …and δ↑(+∞) not on R4 either (B's pull-down long off).
        assert!(s[5][3].abs() < 1e-3, "rise+∞ vs R4: {}", s[5][3]);
        // δ↑(0) strongly positive in R1, R2, C_O.
        assert!(s[4][0] > 0.1 && s[4][1] > 0.1 && s[4][5] > 0.5);
    }

    #[test]
    fn rise_approx_rejects_probe_before_switch() {
        let par = p();
        assert!(rise_approx(&par, ps(300.0), 0.0, PAPER_W_RISE).is_err());
        assert!(fall_plus_inf_approx(&par, 0.0).is_err());
    }

    #[test]
    fn ln2_constant_is_special_case() {
        // With vth = vdd/2 the generalized log factor is exactly ln 2.
        let par = p();
        assert!(approx_eq((par.vdd / par.vth).ln(), LN_2, 1e-15));
    }
}
