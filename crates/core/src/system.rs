use mis_num::exproots::Roots;

use crate::{Mode, ModelError, NorParams};

/// The analytic constants of the two *coupled* modes — `α`, `β`, `γ` and
/// the eigenvalues `λ₁,₂` of the system matrix (paper eqs. (1)–(3) for mode
/// `(1,0)` and (4)–(7) for mode `(0,0)`).
///
/// Both coupled modes share the eigenvector structure
/// `v₁ = [1/(C_N·R₂), α+β]`, `v₂ = [1/(C_N·R₂), α−β]`.
///
/// # Examples
///
/// ```
/// use mis_core::{Mode, ModeConstants, NorParams};
///
/// let p = NorParams::paper_table1();
/// let k = ModeConstants::for_mode(&p, Mode::S10).expect("coupled mode");
/// assert!(k.lambda1 < 0.0 && k.lambda2 < k.lambda1, "over-damped decay");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeConstants {
    /// `α` — eq. (1) / (4).
    pub alpha: f64,
    /// `β` — eq. (2) / (5); strictly positive for physical parameters.
    pub beta: f64,
    /// `γ` — half the matrix trace; eq. (6) (and implicitly in (3)).
    pub gamma: f64,
    /// Fast/slow eigenvalues `λ₁ = γ + β`, `λ₂ = γ − β` — eq. (3) / (7).
    pub lambda1: f64,
    /// See [`ModeConstants::lambda1`].
    pub lambda2: f64,
}

impl ModeConstants {
    /// Computes the constants for a coupled mode (`S10` or `S00`).
    /// Returns `None` for the decoupled modes `S01`/`S11`, whose dynamics
    /// are plain single exponentials.
    #[must_use]
    pub fn for_mode(p: &NorParams, mode: Mode) -> Option<Self> {
        match mode {
            Mode::S10 => {
                // Eqs. (1)–(3): N discharges through R2 into O, O through R3.
                let denom = 2.0 * p.co * p.cn * p.r2 * p.r3;
                let alpha = (p.co * p.r3 - p.cn * (p.r2 + p.r3)) / denom;
                let sum = p.co * p.r3 + p.cn * (p.r2 + p.r3);
                let beta = (sum * sum - 4.0 * p.co * p.cn * p.r2 * p.r3).sqrt() / denom;
                let gamma = -sum / denom;
                Some(ModeConstants {
                    alpha,
                    beta,
                    gamma,
                    lambda1: gamma + beta,
                    lambda2: gamma - beta,
                })
            }
            Mode::S00 => {
                // Eqs. (4)–(7): both capacitances charge from VDD via R1, R2.
                let denom = 2.0 * p.co * p.cn * p.r1 * p.r2;
                let alpha = (p.co * (p.r1 + p.r2) - p.cn * p.r1) / denom;
                let sum = p.cn * p.r1 + p.co * (p.r1 + p.r2);
                let beta = (sum * sum - 4.0 * p.co * p.cn * p.r1 * p.r2).sqrt() / denom;
                let gamma = -sum / denom;
                Some(ModeConstants {
                    alpha,
                    beta,
                    gamma,
                    lambda1: gamma + beta,
                    lambda2: gamma - beta,
                })
            }
            Mode::S01 | Mode::S11 => None,
        }
    }
}

/// One mode's affine ODE system `V' = A·V + g` over `V = [V_N, V_O]`.
///
/// Provides both the raw matrix form (for cross-validation against generic
/// eigen-solvers and numerical integrators) and the closed-form
/// [`ModeTrajectory`] used by the delay computations.
#[derive(Debug, Clone, Copy)]
pub struct ModeSystem {
    params: NorParams,
    mode: Mode,
}

impl ModeSystem {
    /// Builds the system for `mode` under `params`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParams`] if the parameters fail
    /// [`NorParams::validate`].
    pub fn new(params: &NorParams, mode: Mode) -> Result<Self, ModelError> {
        params.validate()?;
        Ok(ModeSystem {
            params: *params,
            mode,
        })
    }

    /// The mode this system describes.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The system matrix `A` (row-major, state `[V_N, V_O]`).
    #[must_use]
    pub fn matrix(&self) -> [[f64; 2]; 2] {
        let p = &self.params;
        match self.mode {
            Mode::S00 => [
                [
                    -(1.0 / (p.cn * p.r1) + 1.0 / (p.cn * p.r2)),
                    1.0 / (p.cn * p.r2),
                ],
                [1.0 / (p.co * p.r2), -1.0 / (p.co * p.r2)],
            ],
            Mode::S01 => [[-1.0 / (p.cn * p.r1), 0.0], [0.0, -1.0 / (p.co * p.r4)]],
            Mode::S10 => [
                [-1.0 / (p.cn * p.r2), 1.0 / (p.cn * p.r2)],
                [
                    1.0 / (p.co * p.r2),
                    -(1.0 / (p.co * p.r2) + 1.0 / (p.co * p.r3)),
                ],
            ],
            Mode::S11 => [
                [0.0, 0.0],
                [0.0, -(1.0 / (p.co * p.r3) + 1.0 / (p.co * p.r4))],
            ],
        }
    }

    /// The constant drive `g`.
    #[must_use]
    pub fn drive(&self) -> [f64; 2] {
        let p = &self.params;
        match self.mode {
            Mode::S00 | Mode::S01 => [p.vdd / (p.cn * p.r1), 0.0],
            Mode::S10 | Mode::S11 => [0.0, 0.0],
        }
    }

    /// The state the mode converges to as `t → ∞`, given the entry state
    /// `x0` (needed because mode `(1,1)` freezes `V_N` at its entry value).
    #[must_use]
    pub fn steady_state(&self, x0: [f64; 2]) -> [f64; 2] {
        let p = &self.params;
        match self.mode {
            Mode::S00 => [p.vdd, p.vdd],
            Mode::S01 => [p.vdd, 0.0],
            Mode::S10 => [0.0, 0.0],
            Mode::S11 => [x0[0], 0.0],
        }
    }

    /// The closed-form trajectory from entry state `x0` (paper Section III).
    #[must_use]
    pub fn trajectory(&self, x0: [f64; 2]) -> ModeTrajectory {
        let p = &self.params;
        let [vn0, vo0] = x0;
        match self.mode {
            Mode::S11 => {
                // V_N frozen; V_O discharges through R3 ∥ R4.
                let l = -(1.0 / p.r3 + 1.0 / p.r4) / p.co;
                ModeTrajectory {
                    mode: self.mode,
                    l1: l,
                    l2: 0.0,
                    kn: [0.0, 0.0],
                    ko: [vo0, 0.0],
                    n_inf: vn0,
                    o_inf: 0.0,
                }
            }
            Mode::S01 => {
                // Decoupled: V_N charges to VDD via R1, V_O discharges via R4.
                let ln = -1.0 / (p.cn * p.r1);
                let lo = -1.0 / (p.co * p.r4);
                ModeTrajectory {
                    mode: self.mode,
                    l1: ln,
                    l2: lo,
                    kn: [vn0 - p.vdd, 0.0],
                    ko: [0.0, vo0],
                    n_inf: p.vdd,
                    o_inf: 0.0,
                }
            }
            Mode::S10 => {
                let k = ModeConstants::for_mode(p, Mode::S10).expect("S10 is coupled");
                let (c1, c2) = coupled_coefficients(p, &k, vn0, vo0);
                ModeTrajectory {
                    mode: self.mode,
                    l1: k.lambda1,
                    l2: k.lambda2,
                    kn: [c1 / (p.cn * p.r2), c2 / (p.cn * p.r2)],
                    ko: [c1 * (k.alpha + k.beta), c2 * (k.alpha - k.beta)],
                    n_inf: 0.0,
                    o_inf: 0.0,
                }
            }
            Mode::S00 => {
                let k = ModeConstants::for_mode(p, Mode::S00).expect("S00 is coupled");
                // Shift by the particular solution [VDD, VDD].
                let (c1, c2) = coupled_coefficients(p, &k, vn0 - p.vdd, vo0 - p.vdd);
                ModeTrajectory {
                    mode: self.mode,
                    l1: k.lambda1,
                    l2: k.lambda2,
                    kn: [c1 / (p.cn * p.r2), c2 / (p.cn * p.r2)],
                    ko: [c1 * (k.alpha + k.beta), c2 * (k.alpha - k.beta)],
                    n_inf: p.vdd,
                    o_inf: p.vdd,
                }
            }
        }
    }
}

/// Solves for the eigenbasis coefficients `(c₁, c₂)` of a coupled mode from
/// the (particular-solution-shifted) entry state, using the shared
/// eigenvector structure `vᵢ = [1/(C_N·R₂), α±β]`.
fn coupled_coefficients(p: &NorParams, k: &ModeConstants, dn0: f64, do0: f64) -> (f64, f64) {
    let s = dn0 * p.cn * p.r2; // c1 + c2
    let d = (do0 - s * k.alpha) / k.beta; // c1 − c2
    (0.5 * (s + d), 0.5 * (s - d))
}

/// Closed-form state evolution inside one mode:
/// `V_N(t) = kn₁·e^{λ₁t} + kn₂·e^{λ₂t} + n∞` and likewise for `V_O`,
/// with `t` measured from mode entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeTrajectory {
    mode: Mode,
    l1: f64,
    l2: f64,
    kn: [f64; 2],
    ko: [f64; 2],
    n_inf: f64,
    o_inf: f64,
}

impl ModeTrajectory {
    /// The mode this trajectory lives in.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// State `[V_N, V_O]` at time `t` after mode entry.
    #[must_use]
    pub fn eval(&self, t: f64) -> [f64; 2] {
        [self.vn(t), self.vo(t)]
    }

    /// Internal node voltage at `t`.
    #[must_use]
    pub fn vn(&self, t: f64) -> f64 {
        self.kn[0] * (self.l1 * t).exp() + self.kn[1] * (self.l2 * t).exp() + self.n_inf
    }

    /// Output voltage at `t`.
    #[must_use]
    pub fn vo(&self, t: f64) -> f64 {
        self.ko[0] * (self.l1 * t).exp() + self.ko[1] * (self.l2 * t).exp() + self.o_inf
    }

    /// Time derivative of the output voltage at `t`.
    #[must_use]
    pub fn vo_derivative(&self, t: f64) -> f64 {
        self.ko[0] * self.l1 * (self.l1 * t).exp() + self.ko[1] * self.l2 * (self.l2 * t).exp()
    }

    /// All times in `[0, t_max]` at which `V_O` crosses `level`, sorted.
    ///
    /// Exact (analytically bracketed) — crossings cannot be missed by
    /// sampling. At most two can exist for a two-exponential trajectory,
    /// so they come back inline, without an allocation.
    ///
    /// # Errors
    ///
    /// Propagates invalid-input failures from the root finder (e.g.
    /// non-positive `t_max`).
    pub fn vo_crossings(&self, level: f64, t_max: f64) -> Result<Roots, ModelError> {
        Ok(mis_num::exproots::exp2_crossings(
            self.ko[0],
            self.l1,
            self.ko[1],
            self.l2,
            level - self.o_inf,
            t_max,
        )?)
    }

    /// First strictly positive crossing of `level` within `t_max`, if any.
    /// A crossing exactly at `t = 0` (entry state on the threshold) is
    /// reported only when the trajectory actually departs the level.
    ///
    /// # Errors
    ///
    /// See [`ModeTrajectory::vo_crossings`].
    pub fn first_vo_crossing(&self, level: f64, t_max: f64) -> Result<Option<f64>, ModelError> {
        Ok(self
            .vo_crossings(level, t_max)?
            .into_iter()
            .find(|&t| t > 0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_linalg::approx_eq;

    fn p() -> NorParams {
        NorParams::paper_table1()
    }

    #[test]
    fn constants_exist_only_for_coupled_modes() {
        assert!(ModeConstants::for_mode(&p(), Mode::S10).is_some());
        assert!(ModeConstants::for_mode(&p(), Mode::S00).is_some());
        assert!(ModeConstants::for_mode(&p(), Mode::S01).is_none());
        assert!(ModeConstants::for_mode(&p(), Mode::S11).is_none());
    }

    #[test]
    fn constants_match_matrix_eigenvalues() {
        // λ₁,₂ from the paper's formulas must be the eigenvalues of A.
        for mode in [Mode::S10, Mode::S00] {
            let sys = ModeSystem::new(&p(), mode).unwrap();
            let k = ModeConstants::for_mode(&p(), mode).unwrap();
            let a = sys.matrix();
            let tr = a[0][0] + a[1][1];
            let det = a[0][0] * a[1][1] - a[0][1] * a[1][0];
            assert!(approx_eq(k.lambda1 + k.lambda2, tr, 1e-10), "{mode}: trace");
            assert!(
                approx_eq(k.lambda1 * k.lambda2, det, 1e-8),
                "{mode}: determinant"
            );
            assert!(approx_eq(2.0 * k.gamma, tr, 1e-10), "{mode}: γ = tr/2");
            assert!(k.beta > 0.0, "{mode}: β strictly positive");
        }
    }

    #[test]
    fn trajectory_matches_initial_state() {
        for mode in Mode::ALL {
            let sys = ModeSystem::new(&p(), mode).unwrap();
            let x0 = [0.3, 0.7];
            let tr = sys.trajectory(x0);
            let x = tr.eval(0.0);
            assert!(approx_eq(x[0], x0[0], 1e-10), "{mode}: V_N(0)");
            assert!(approx_eq(x[1], x0[1], 1e-10), "{mode}: V_O(0)");
        }
    }

    #[test]
    fn trajectory_satisfies_its_ode() {
        // d/dt of the closed form must equal A·x + g along the trajectory.
        for mode in Mode::ALL {
            let sys = ModeSystem::new(&p(), mode).unwrap();
            let tr = sys.trajectory([0.1, 0.75]);
            let a = sys.matrix();
            let g = sys.drive();
            for &t in &[0.0, 5e-12, 20e-12, 100e-12] {
                let x = tr.eval(t);
                let vo_dot = tr.vo_derivative(t);
                let rhs_o = a[1][0] * x[0] + a[1][1] * x[1] + g[1];
                // Scale: voltages ~1 V over ~1e-11 s → derivatives ~1e11.
                assert!(
                    (vo_dot - rhs_o).abs() < 1e-2 * (1.0 + rhs_o.abs()),
                    "{mode} at t={t:e}: {vo_dot:e} vs {rhs_o:e}"
                );
            }
        }
    }

    #[test]
    fn trajectory_converges_to_steady_state() {
        let far = 100.0 * p().slowest_time_constant();
        for mode in Mode::ALL {
            let sys = ModeSystem::new(&p(), mode).unwrap();
            let x0 = [0.8, 0.8];
            let tr = sys.trajectory(x0);
            let ss = sys.steady_state(x0);
            let x = tr.eval(far);
            assert!(approx_eq(x[0], ss[0], 1e-6), "{mode}: V_N(∞)");
            assert!(approx_eq(x[1], ss[1], 1e-6), "{mode}: V_O(∞)");
        }
    }

    #[test]
    fn s11_freezes_vn() {
        let sys = ModeSystem::new(&p(), Mode::S11).unwrap();
        let tr = sys.trajectory([0.37, 0.8]);
        for &t in &[0.0, 1e-12, 1e-10, 1e-9] {
            assert_eq!(tr.vn(t), 0.37);
        }
    }

    #[test]
    fn s11_discharge_half_life_matches_parallel_resistance() {
        let par = p();
        let sys = ModeSystem::new(&par, Mode::S11).unwrap();
        let tr = sys.trajectory([0.0, par.vdd]);
        let t = tr
            .first_vo_crossing(par.vth, 1e-9)
            .unwrap()
            .expect("crossing");
        let r_par = par.r3 * par.r4 / (par.r3 + par.r4);
        let expected = std::f64::consts::LN_2 * par.co * r_par; // eq. (8)
        assert!(approx_eq(t, expected, 1e-10), "{t:e} vs {expected:e}");
    }

    #[test]
    fn s01_discharge_is_single_rc() {
        let par = p();
        let sys = ModeSystem::new(&par, Mode::S01).unwrap();
        let tr = sys.trajectory([par.vdd, par.vdd]);
        let t = tr
            .first_vo_crossing(par.vth, 1e-9)
            .unwrap()
            .expect("crossing");
        let expected = std::f64::consts::LN_2 * par.co * par.r4; // eq. (9)
        assert!(approx_eq(t, expected, 1e-10));
    }

    #[test]
    fn matches_generic_eigensolver() {
        // The specialized closed forms must agree with the independent
        // generic affine solver from mis-linalg in every mode.
        for mode in Mode::ALL {
            let sys = ModeSystem::new(&p(), mode).unwrap();
            let x0 = [0.25, 0.65];
            let tr = sys.trajectory(x0);
            let generic = mis_linalg::Eigen2::new(sys.matrix())
                .solve_affine(x0, sys.drive())
                .unwrap();
            for &t in &[0.0, 3e-12, 17e-12, 64e-12, 300e-12] {
                let a = tr.eval(t);
                let b = generic.eval(t);
                assert!(approx_eq(a[0], b[0], 1e-8), "{mode} V_N at {t:e}");
                assert!(approx_eq(a[1], b[1], 1e-8), "{mode} V_O at {t:e}");
            }
        }
    }

    #[test]
    fn crossing_absent_when_level_unreachable() {
        let par = p();
        let sys = ModeSystem::new(&par, Mode::S00).unwrap();
        // Output rises from 0 towards VDD: it never crosses above VDD.
        let tr = sys.trajectory([0.0, 0.0]);
        assert!(tr
            .first_vo_crossing(par.vdd * 1.01, 1e-9)
            .unwrap()
            .is_none());
        // But it does cross the threshold.
        assert!(tr.first_vo_crossing(par.vth, 1e-9).unwrap().is_some());
    }

    #[test]
    fn invalid_params_rejected_at_system_construction() {
        let mut bad = p();
        bad.r2 = -5.0;
        assert!(ModeSystem::new(&bad, Mode::S10).is_err());
    }
}
