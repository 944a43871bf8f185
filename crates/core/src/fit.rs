//! Model parametrization (paper Section V / Table I).
//!
//! Given six measured characteristic Charlie delays (from SPICE in the
//! paper, from `mis-analog` here), find `R1..R4, C_N, C_O` such that the
//! hybrid model reproduces them. The paper's key finding: an *exact*
//! simultaneous match is impossible because the model forces
//! `δ↓(−∞)/δ↓(0) = (R₃+R₄)/R₃ ≈ 2` for matched nMOS, while the measured
//! ratio is ≈ 38/28 ≈ 1.36. Subtracting a pure delay `δ_min` from all
//! targets restores feasibility (18 ps makes the ratio 20/10 = 2); the
//! closed form `δ_min = 2·δ↓(0) − δ↓(−∞)` picks the pure delay that makes
//! the shifted falling ratio exactly 2, and [`FitConfig::delta_min`]
//! takes it.
//!
//! Fitting runs in log-parameter space (positivity for free) with
//! Nelder–Mead, seeded from the closed forms of eqs. (8)–(9).

use mis_num::minimize::NelderMead;

use crate::charlie::CharacteristicDelays;
use crate::{ModelError, NorParams, RisingInitialVn};

/// Configuration for [`fit`].
#[derive(Debug, Clone)]
pub struct FitConfig {
    /// Pure delay subtracted from every target before fitting; becomes the
    /// fitted parameter set's `delta_min`.
    pub delta_min: f64,
    /// Supply voltage of the target technology.
    pub vdd: f64,
    /// Discretization threshold.
    pub vth: f64,
    /// Nelder–Mead evaluation budget.
    pub max_evals: usize,
}

/// Initial guess for `C_O` used when seeding from the closed forms.
const SEED_CO: f64 = 600e-18;

impl Default for FitConfig {
    fn default() -> Self {
        FitConfig {
            delta_min: 0.0,
            vdd: 0.8,
            vth: 0.4,
            max_evals: 6000,
        }
    }
}

/// Outcome of a parametrization run.
#[derive(Debug, Clone)]
pub struct FitOutcome {
    /// The fitted parameters (including the `delta_min` used).
    pub params: NorParams,
    /// Sum of squared relative residuals over the six targets (all six
    /// weigh the same).
    pub cost: f64,
    /// Relative residuals `(model − target)/target` per characteristic
    /// delay, in [`CharacteristicDelays::as_array`] order.
    pub residuals: [f64; 6],
    /// Whether the optimizer's convergence criteria were met.
    pub converged: bool,
}

impl FitOutcome {
    /// Largest absolute relative residual — a quick quality figure.
    #[must_use]
    pub fn worst_residual(&self) -> f64 {
        self.residuals.iter().fold(0.0_f64, |m, r| m.max(r.abs()))
    }
}

/// The feasibility ratio `(δ↓(−∞) − δ_min) / (δ↓(0) − δ_min)` that the
/// model must realize as `(R₃+R₄)/R₃` (paper Section V). Matched nMOS
/// (`R₃ ≈ R₄`) need a ratio near 2; ratios at or below 1 are outright
/// infeasible.
///
/// # Errors
///
/// Returns [`ModelError::FitFailed`] if `δ_min` is not smaller than both
/// falling targets.
pub fn feasibility_ratio(
    targets: &CharacteristicDelays,
    delta_min: f64,
) -> Result<f64, ModelError> {
    let num = targets.fall_minus_inf - delta_min;
    let den = targets.fall_zero - delta_min;
    if !(num > 0.0 && den > 0.0) {
        return Err(ModelError::FitFailed {
            reason: format!(
                "delta_min = {delta_min:e} leaves non-positive falling targets \
                 ({num:e}, {den:e})"
            ),
        });
    }
    Ok(num / den)
}

/// Seeds `(R1..R4, C_N, C_O)` from the closed forms: eq. (9) fixes
/// `C_O·R₄`, eq. (8) then fixes `R₃`; the rising targets scale `R₁+R₂`;
/// `C_N` starts at a typical parasitic fraction of `C_O`.
fn seed(targets: &[f64; 6], cfg: &FitConfig) -> [f64; 6] {
    let ln_factor = (cfg.vdd / cfg.vth).ln();
    let co = SEED_CO;
    let r4 = (targets[0] / (ln_factor * co)).max(1e3);
    // eq. (8): δ↓(0) = lnf·C_O·R₃R₄/(R₃+R₄) ⟹ R₃ = δ₀·R₄/(δ₋∞ − δ₀).
    let denom = targets[0] - targets[1];
    let r3 = if denom > 0.0 {
        (targets[1] * r4 / denom).max(1e3)
    } else {
        // Infeasible ratio: start from matched transistors and let the
        // optimizer find the least-bad compromise.
        r4
    };
    // Rising: δ↑(∞) ≈ lnf-ish · C_O·(R₁+R₂) to first order.
    let r12 = (targets[5] / (ln_factor * co)).max(2e3);
    let r1 = 0.45 * r12;
    let r2 = 0.55 * r12;
    let cn = co / 10.0;
    [r1, r2, r3, r4, cn, co]
}

/// Fits the model parameters to measured characteristic delays with a
/// fixed pure delay (`cfg.delta_min`).
///
/// # Errors
///
/// * [`ModelError::FitFailed`] — `δ_min` exceeds a target, or the
///   optimizer could not produce a valid parameter set.
/// * Propagates numeric failures from the inner delay evaluations.
///
/// # Examples
///
/// Round-trip: delays generated by a known parameter set are recovered.
///
/// ```
/// use mis_core::charlie::CharacteristicDelays;
/// use mis_core::fit::{fit, FitConfig};
/// use mis_core::NorParams;
///
/// # fn main() -> Result<(), mis_core::ModelError> {
/// let truth = NorParams::paper_table1().without_pure_delay();
/// let targets = CharacteristicDelays::of_model(&truth)?;
/// let outcome = fit(&targets, &FitConfig::default())?;
/// assert!(outcome.worst_residual() < 0.02, "within 2 % on all six delays");
/// # Ok(())
/// # }
/// ```
pub fn fit(targets: &CharacteristicDelays, cfg: &FitConfig) -> Result<FitOutcome, ModelError> {
    let raw_targets = targets.as_array();
    let mut shifted = [0.0; 6];
    for i in 0..6 {
        shifted[i] = raw_targets[i] - cfg.delta_min;
        if !(shifted[i] > 0.0) {
            return Err(ModelError::FitFailed {
                reason: format!(
                    "target {i} ({:e}) is not above delta_min ({:e})",
                    raw_targets[i], cfg.delta_min
                ),
            });
        }
    }

    let x0: Vec<f64> = seed(&shifted, cfg).iter().map(|v| v.ln()).collect();
    let objective = |logp: &[f64]| -> f64 {
        let params = match params_from_log(logp, cfg) {
            Ok(p) => p,
            Err(_) => return f64::INFINITY,
        };
        match CharacteristicDelays::of_model(&params) {
            Ok(model) => {
                let m = model.as_array();
                let mut cost = 0.0;
                for i in 0..6 {
                    let r = (m[i] - shifted[i]) / shifted[i];
                    cost += r * r;
                }
                cost
            }
            Err(_) => f64::INFINITY,
        }
    };

    let result = NelderMead::new()
        .with_max_evals(cfg.max_evals)
        .with_xtol(1e-9)
        .with_ftol(1e-14)
        .minimize(objective, &x0)?;

    let params = params_from_log(&result.x, cfg).map_err(|e| ModelError::FitFailed {
        reason: format!("optimizer returned invalid parameters: {e}"),
    })?;
    let model = CharacteristicDelays::of_model(&params)?.as_array();
    let mut residuals = [0.0; 6];
    for i in 0..6 {
        residuals[i] = (model[i] - shifted[i]) / shifted[i];
    }
    let mut fitted = params;
    fitted.delta_min = cfg.delta_min;
    Ok(FitOutcome {
        params: fitted,
        cost: result.value,
        residuals,
        converged: result.converged,
    })
}

fn params_from_log(logp: &[f64], cfg: &FitConfig) -> Result<NorParams, ModelError> {
    if logp.len() != 6 {
        return Err(ModelError::FitFailed {
            reason: format!("expected 6 log-parameters, got {}", logp.len()),
        });
    }
    let v: Vec<f64> = logp.iter().map(|x| x.exp()).collect();
    NorParams::builder()
        .r1(v[0])
        .r2(v[1])
        .r3(v[2])
        .r4(v[3])
        .cn(v[4])
        .co(v[5])
        .vdd(cfg.vdd)
        .vth(cfg.vth)
        .delta_min(0.0)
        .vn_policy(RisingInitialVn::Gnd)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_waveform::units::ps;

    fn truth() -> NorParams {
        NorParams::paper_table1().without_pure_delay()
    }

    #[test]
    fn round_trip_recovers_characteristic_delays() {
        let targets = CharacteristicDelays::of_model(&truth()).unwrap();
        let outcome = fit(&targets, &FitConfig::default()).unwrap();
        assert!(
            outcome.worst_residual() < 0.02,
            "residuals: {:?}",
            outcome.residuals
        );
    }

    #[test]
    fn feasibility_ratio_mechanics() {
        let targets = CharacteristicDelays::from_array([
            ps(38.0),
            ps(28.0),
            ps(36.0),
            ps(55.0),
            ps(56.0),
            ps(53.0),
        ]);
        // The paper's Fig. 2 values: raw ratio ≈ 1.36, far from 2.
        let raw = feasibility_ratio(&targets, 0.0).unwrap();
        assert!((1.3..1.45).contains(&raw));
        // With δ_min = 18 ps the ratio becomes exactly 2.
        let fixed = feasibility_ratio(&targets, ps(18.0)).unwrap();
        assert!((fixed - 2.0).abs() < 1e-12);
        // δ_min at or above a target is rejected.
        assert!(feasibility_ratio(&targets, ps(28.0)).is_err());
    }

    #[test]
    fn pure_delay_improves_paperlike_targets() {
        // Targets shaped like the paper's measurements (ratio ≈ 1.36)
        // cannot be fitted well without a pure delay; δ_min = 18 ps must
        // reduce the cost substantially (Fig. 8's story).
        let targets = CharacteristicDelays::from_array([
            ps(38.0),
            ps(28.0),
            ps(36.0),
            ps(55.0),
            ps(56.0),
            ps(53.0),
        ]);
        let without = fit(&targets, &FitConfig::default()).unwrap();
        let paper = FitConfig {
            delta_min: ps(18.0),
            ..FitConfig::default()
        };
        let with = fit(&targets, &paper).unwrap();
        assert!(
            with.cost < without.cost * 0.5,
            "δ_min must cut the misfit at least in half: {:e} vs {:e}",
            with.cost,
            without.cost
        );
        // The fitted δ_min model carries the pure delay.
        assert_eq!(with.params.delta_min, ps(18.0));
    }

    #[test]
    fn fitted_parameters_are_physical() {
        let targets = CharacteristicDelays::of_model(&truth()).unwrap();
        let outcome = fit(&targets, &FitConfig::default()).unwrap();
        let p = outcome.params;
        assert!(p.r1 > 0.0 && p.r2 > 0.0 && p.r3 > 0.0 && p.r4 > 0.0);
        assert!(p.cn > 0.0 && p.co > 0.0);
        p.validate().unwrap();
    }

    #[test]
    fn rejects_delta_min_exceeding_targets() {
        let targets = CharacteristicDelays::of_model(&truth()).unwrap();
        let cfg = FitConfig {
            delta_min: ps(1000.0),
            ..FitConfig::default()
        };
        assert!(matches!(
            fit(&targets, &cfg),
            Err(ModelError::FitFailed { .. })
        ));
    }
}
