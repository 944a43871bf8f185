//! A stateful, event-driven view of the hybrid model — the engine behind
//! the two-input NOR delay *channel* used in digital timing simulation
//! (paper Section VI).
//!
//! [`NorGateModel`] tracks the continuous state `[V_N, V_O]` between input
//! events. Each input event advances the state analytically, switches the
//! mode, and the next output threshold crossing can be queried (and
//! re-queried after every event, which is how the digital simulator
//! implements cancellation of obsolete output predictions).
//!
//! The pure delay `δ_min` is *not* applied here — it belongs to the
//! channel wrapper in `mis-digital`, which defers input events before
//! handing them to this model. Keeping the ODE core pure-delay-free
//! matches the paper's decomposition.

use crate::{InputId, Mode, ModeSystem, ModeTrajectory, ModelError, NorParams};

/// Continuous-state NOR gate model for event-driven simulation.
///
/// # Examples
///
/// A falling MIS event pair, queried for the resulting output crossing:
///
/// ```
/// use mis_core::channel::NorGateModel;
/// use mis_core::{InputId, NorParams};
/// use mis_waveform::units::ps;
///
/// # fn main() -> Result<(), mis_core::ModelError> {
/// let p = NorParams::paper_table1();
/// let mut gate = NorGateModel::new(&p, false, false)?; // output high
/// gate.set_input(ps(100.0), InputId::A, true)?;
/// gate.set_input(ps(110.0), InputId::B, true)?;        // Δ = 10 ps
/// let (t_cross, rising) = gate.output_crossings()?.next().expect("output falls");
/// assert!(!rising);
/// assert!(t_cross > ps(110.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NorGateModel {
    params: NorParams,
    mode: Mode,
    trajectory: ModeTrajectory,
    /// Absolute time at which the current trajectory was anchored.
    t_anchor: f64,
}

impl NorGateModel {
    /// Creates a gate settled in the steady state of inputs `(a, b)`.
    ///
    /// For `(1,1)` the output is settled at GND but `V_N` is genuinely
    /// ambiguous (the mode freezes it); the parameter set's
    /// [`crate::RisingInitialVn`] policy provides the value.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParams`] for invalid parameters.
    pub fn new(params: &NorParams, a: bool, b: bool) -> Result<Self, ModelError> {
        params.validate()?;
        let mode = Mode::from_inputs(a, b);
        let sys = ModeSystem::new(params, mode)?;
        let x0 = match mode {
            Mode::S11 => [params.vn_policy.voltage(params.vdd), 0.0],
            other => {
                let _ = other;
                sys.steady_state([params.vdd, params.vdd])
            }
        };
        Ok(NorGateModel {
            params: *params,
            mode,
            trajectory: sys.trajectory(x0),
            t_anchor: 0.0,
        })
    }

    /// The currently active mode.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The continuous state `[V_N, V_O]` at absolute time `t`
    /// (`t >= anchor`; earlier queries return the anchor state).
    #[must_use]
    pub fn state_at(&self, t: f64) -> [f64; 2] {
        self.trajectory.eval((t - self.t_anchor).max(0.0))
    }

    /// The model parameters.
    #[must_use]
    pub fn params(&self) -> &NorParams {
        &self.params
    }

    /// Applies an input event at absolute time `t`: the state is advanced
    /// analytically to `t`, then the mode switches according to the new
    /// input value. Events must be processed in non-decreasing time order.
    ///
    /// Re-asserting the current value of an input re-anchors the
    /// trajectory without changing the mode (harmless).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParams`] when `t` precedes the last
    /// event.
    pub fn set_input(&mut self, t: f64, input: InputId, value: bool) -> Result<(), ModelError> {
        if !(t >= self.t_anchor) {
            return Err(ModelError::InvalidParams {
                reason: format!(
                    "event at {t:e} precedes the previous event at {:e}",
                    self.t_anchor
                ),
            });
        }
        let x_at = self.state_at(t);
        let new_mode = self.mode.with_input(input, value);
        let sys = ModeSystem::new(&self.params, new_mode)?;
        self.trajectory = sys.trajectory(x_at);
        self.mode = new_mode;
        self.t_anchor = t;
        Ok(())
    }

    /// *All* output threshold crossings strictly after the anchor in the
    /// current mode, as `(absolute time, rising)` pairs, sorted; the first
    /// is the next output transition, and there is none if the output
    /// stays on its side of the threshold. A two-exponential trajectory
    /// can graze the threshold twice (a bump), producing two genuine
    /// output transitions from a single mode switch. The crossings are
    /// held inline, so the query allocates nothing.
    ///
    /// Must be re-queried after every [`NorGateModel::set_input`]: a mode
    /// switch invalidates earlier predictions (this is how glitch
    /// cancellation emerges in the digital channel).
    ///
    /// # Errors
    ///
    /// Propagates crossing-solver failures.
    pub fn output_crossings(&self) -> Result<impl Iterator<Item = (f64, bool)> + '_, ModelError> {
        let horizon = 60.0 * self.params.slowest_time_constant();
        let crossings = self.trajectory.vo_crossings(self.params.vth, horizon)?;
        Ok(crossings
            .into_iter()
            .filter(|&t| t > 0.0)
            .map(|t| (self.t_anchor + t, self.trajectory.vo_derivative(t) > 0.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{delay, RisingInitialVn};
    use mis_linalg::approx_eq;
    use mis_waveform::units::ps;

    fn p() -> NorParams {
        NorParams::paper_table1().without_pure_delay()
    }

    #[test]
    fn settled_states() {
        let par = p();
        let g = NorGateModel::new(&par, false, false).unwrap();
        assert_eq!(g.mode(), Mode::S00);
        assert!(approx_eq(g.state_at(0.0)[1], par.vdd, 1e-12));
        let g = NorGateModel::new(&par, true, true).unwrap();
        assert_eq!(g.mode(), Mode::S11);
        assert!(approx_eq(g.state_at(0.0)[1], 0.0, 1e-12));
        assert_eq!(g.state_at(0.0)[0], 0.0, "Gnd policy default");
    }

    #[test]
    fn vn_policy_respected_at_construction() {
        let par = NorParams::builder()
            .delta_min(0.0)
            .vn_policy(RisingInitialVn::Vdd)
            .build()
            .unwrap();
        let g = NorGateModel::new(&par, true, true).unwrap();
        assert!(approx_eq(g.state_at(0.0)[0], par.vdd, 1e-12));
    }

    #[test]
    fn mis_event_sequence_matches_delay_function() {
        // Channel semantics must agree with the stateless delay query. The
        // driver mimics the digital simulator: it re-queries the predicted
        // crossing after each event and keeps predictions that committed
        // before the next event.
        let par = p();
        for &delta in &[ps(-30.0), ps(-5.0), 0.0, ps(5.0), ps(30.0)] {
            let mut g = NorGateModel::new(&par, false, false).unwrap();
            let (t_first, first, t_second, second) = if delta >= 0.0 {
                (ps(100.0), InputId::A, ps(100.0) + delta, InputId::B)
            } else {
                (ps(100.0), InputId::B, ps(100.0) - delta, InputId::A)
            };
            g.set_input(t_first, first, true).unwrap();
            let prediction = g.output_crossings().unwrap().next();
            let committed = match prediction {
                Some((tc, _)) if tc <= t_second => Some(tc),
                _ => None,
            };
            let t_cross = match committed {
                Some(tc) => tc,
                None => {
                    g.set_input(t_second, second, true).unwrap();
                    let (tc, rising) = g.output_crossings().unwrap().next().expect("output falls");
                    assert!(!rising);
                    tc
                }
            };
            let expected = delay::falling_delay(&par, delta).unwrap() + t_first;
            assert!(
                approx_eq(t_cross, expected, 1e-9),
                "Δ = {delta:e}: {t_cross:e} vs {expected:e}"
            );
        }
    }

    #[test]
    fn rising_event_sequence_matches_delay_function() {
        let par = p();
        for &delta in &[ps(-20.0), 0.0, ps(20.0)] {
            let mut g = NorGateModel::new(&par, true, true).unwrap();
            let (ta, tb) = if delta >= 0.0 {
                (ps(200.0), ps(200.0) + delta)
            } else {
                (ps(200.0) - delta, ps(200.0))
            };
            if ta <= tb {
                g.set_input(ta, InputId::A, false).unwrap();
                g.set_input(tb, InputId::B, false).unwrap();
            } else {
                g.set_input(tb, InputId::B, false).unwrap();
                g.set_input(ta, InputId::A, false).unwrap();
            }
            let (t_cross, rising) = g.output_crossings().unwrap().next().expect("rises");
            assert!(rising);
            let expected =
                delay::rising_delay(&par, delta, RisingInitialVn::Gnd).unwrap() + ta.max(tb);
            assert!(
                approx_eq(t_cross, expected, 1e-9),
                "Δ = {delta:e}: {t_cross:e} vs {expected:e}"
            );
        }
    }

    #[test]
    fn tracked_vn_differs_from_memoryless_on_second_pulse() {
        // After a falling-output episode that leaves V_N partially
        // discharged, the *tracked* state produces a different rising
        // delay than a freshly constructed (memoryless) gate — the paper's
        // main identified artefact, removed by our stateful channel.
        let par = p();
        let mut g = NorGateModel::new(&par, false, false).unwrap();
        g.set_input(ps(100.0), InputId::A, true).unwrap(); // S10: N discharges partially
        g.set_input(ps(112.0), InputId::B, true).unwrap(); // S11: N frozen mid-discharge
        let vn_frozen = g.state_at(ps(112.0))[0];
        assert!(
            vn_frozen > 0.01 * par.vdd && vn_frozen < 0.99 * par.vdd,
            "V_N frozen at an intermediate value: {vn_frozen}"
        );
        // Both inputs fall simultaneously.
        g.set_input(ps(400.0), InputId::A, false).unwrap();
        g.set_input(ps(400.0), InputId::B, false).unwrap();
        let t_tracked = g.output_crossings().unwrap().next().unwrap().0 - ps(400.0);
        let t_memoryless = delay::rising_delay(&par, 0.0, RisingInitialVn::Gnd).unwrap();
        assert!(
            (t_tracked - t_memoryless).abs() > ps(0.05),
            "tracked {t_tracked:e} vs memoryless {t_memoryless:e}"
        );
    }

    #[test]
    fn glitch_prediction_cancelled_by_reverting_input() {
        // A brief input pulse: after the input reverts before the output
        // crossing, the new prediction may disappear (short-pulse
        // suppression emerges from the dynamics).
        let par = p();
        let mut g = NorGateModel::new(&par, false, false).unwrap();
        g.set_input(ps(100.0), InputId::A, true).unwrap();
        let first = g
            .output_crossings()
            .unwrap()
            .next()
            .expect("predicted fall");
        // Revert A well before the predicted crossing.
        let revert_at = ps(100.0) + 0.2 * (first.0 - ps(100.0));
        g.set_input(revert_at, InputId::A, false).unwrap();
        // The output had barely moved; in S00 it recovers towards VDD and
        // never crosses the threshold.
        assert!(g.output_crossings().unwrap().next().is_none());
    }

    #[test]
    fn out_of_order_events_rejected() {
        let par = p();
        let mut g = NorGateModel::new(&par, false, false).unwrap();
        g.set_input(ps(50.0), InputId::A, true).unwrap();
        assert!(g.set_input(ps(10.0), InputId::B, true).is_err());
    }

    #[test]
    fn output_crossing_matches_the_analog_state() {
        let par = p();
        let mut g = NorGateModel::new(&par, false, false).unwrap();
        g.set_input(ps(100.0), InputId::A, true).unwrap();
        g.set_input(ps(100.0), InputId::B, true).unwrap();
        let (tc, rising) = g.output_crossings().unwrap().next().unwrap();
        assert!(!rising);
        assert!(g.state_at(tc - ps(1.0))[1] > par.vth);
        assert!(g.state_at(tc + ps(1.0))[1] < par.vth);
    }

    #[test]
    fn reasserting_input_value_is_harmless() {
        let par = p();
        let mut g = NorGateModel::new(&par, false, false).unwrap();
        g.set_input(ps(10.0), InputId::A, false).unwrap(); // no-op value
        assert_eq!(g.mode(), Mode::S00);
        assert!(approx_eq(g.state_at(ps(20.0))[1], par.vdd, 1e-9));
    }
}
