//! Nonlinear transient analysis: full-Newton nodal analysis with
//! trapezoidal companion models (a backward-Euler step after each
//! breakpoint damps corner ringing) and breakpoint-aware adaptive time
//! stepping, at one fixed solver setting.
//!
//! Voltage sources are ideal and grounded (every driven node's voltage is
//! a known function of time), so the unknown vector contains only the free
//! node voltages — for the NOR gate that is just `[V_N, V_O]`, making each
//! Newton iteration a 2×2 solve. A `g_min` leak to ground regularizes
//! floating nodes (it is also what parks the isolated internal node at GND,
//! the paper's worst-case `V_N`).

use mis_linalg::{LuFactors, Matrix};
use mis_waveform::AnalogWaveform;

use crate::circuit::{Circuit, Device, NodeId};
use crate::AnalogError;

// The solver's one setting. Every measurement in the workspace (the
// characteristic delays, the Fig. 2 sweeps, the accuracy experiment's
// analog reference) runs at these values, so changing one moves every
// pinned analog bit.

/// Smallest allowed step, seconds.
const H_MIN: f64 = 1e-16;
/// Largest allowed step, seconds.
const H_MAX: f64 = 20e-12;
/// First step after t = 0 and after each breakpoint, seconds.
const H_INITIAL: f64 = 10e-15;
/// Largest accepted per-step voltage change on any node, volts; larger
/// changes trigger step shrinking (bounds interpolation error on
/// threshold crossings).
const DV_MAX: f64 = 0.02;
/// Newton iteration limit per step.
const NEWTON_MAX_ITER: usize = 80;
/// Newton residual tolerance, amperes.
const NEWTON_I_TOL: f64 = 1e-12;
/// Newton update tolerance, volts.
const NEWTON_V_TOL: f64 = 1e-9;
/// Per-iteration Newton update clamp, volts (damping).
const NEWTON_DV_CLAMP: f64 = 0.3;
/// Leak conductance from every free node to ground, siemens.
const GMIN: f64 = 1e-12;

/// Result of a transient simulation: all accepted time points with the
/// voltage of every node.
#[derive(Debug, Clone)]
pub struct TranResult {
    times: Vec<f64>,
    /// Indexed `[node][sample]`.
    volts: Vec<Vec<f64>>,
}

impl TranResult {
    /// The sampled waveform of `node`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::Measurement`] for a foreign node id and
    /// propagates waveform-construction failures.
    pub fn waveform(&self, node: NodeId) -> Result<AnalogWaveform, AnalogError> {
        let col = self
            .volts
            .get(node.0)
            .ok_or_else(|| AnalogError::Measurement {
                reason: format!("node id {} not part of this result", node.0),
            })?;
        Ok(AnalogWaveform::from_samples(
            self.times.clone(),
            col.clone(),
        )?)
    }

    /// The final voltage of `node`.
    #[must_use]
    pub fn final_voltage(&self, node: NodeId) -> f64 {
        self.volts[node.0][self.times.len() - 1]
    }
}

/// Runs a transient simulation of `circuit` from `t = 0` to `t_stop`.
///
/// The initial condition is the DC operating point at `t = 0` (capacitors
/// open, sources at their initial values).
///
/// # Errors
///
/// * [`AnalogError::Netlist`] — no free nodes, or `t_stop <= 0`.
/// * [`AnalogError::NewtonFailed`] — no convergence even at the smallest
///   step (0.1 fs).
/// * [`AnalogError::Linalg`] — singular nodal matrix.
pub fn simulate(circuit: &Circuit, t_stop: f64) -> Result<TranResult, AnalogError> {
    if !(t_stop > 0.0) {
        return Err(AnalogError::Netlist {
            reason: "t_stop must be positive".into(),
        });
    }
    let free = circuit.free_nodes();
    if free.is_empty() {
        return Err(AnalogError::Netlist {
            reason: "circuit has no free nodes to solve".into(),
        });
    }
    let mut engine = Engine::new(circuit, free);
    engine.dc_operating_point()?;

    let mut result = TranResult {
        times: vec![0.0],
        volts: (0..circuit.node_count())
            .map(|i| vec![engine.v_all[i]])
            .collect(),
    };

    let breakpoints = circuit.breakpoints(t_stop);
    let mut bp_idx = 0usize;
    let mut t = 0.0;
    let mut h = H_INITIAL;
    // Force a backward-Euler step after every discontinuity.
    let mut be_restart = true;

    while t < t_stop {
        // Never stride across a breakpoint.
        while bp_idx < breakpoints.len() && breakpoints[bp_idx] <= t + 1e-24 {
            bp_idx += 1;
        }
        let next_bp = breakpoints.get(bp_idx).copied().unwrap_or(f64::INFINITY);
        let limit = next_bp.min(t_stop);
        let mut h_eff = h.min(limit - t).max(H_MIN.min(limit - t));

        loop {
            match engine.step(t, h_eff, be_restart) {
                Ok(max_dv) if max_dv <= DV_MAX => {
                    break;
                }
                Ok(_) | Err(StepError::Newton) => {
                    if h_eff <= H_MIN * 1.0001 {
                        // Accept a minimal step even if it moves fast —
                        // better than dying — unless Newton itself failed.
                        if engine.step(t, h_eff, true).is_ok() {
                            break;
                        }
                        return Err(AnalogError::NewtonFailed {
                            at: t,
                            residual: engine.last_residual,
                        });
                    }
                    h_eff = (h_eff / 4.0).max(H_MIN);
                }
                Err(StepError::Linalg(e)) => return Err(AnalogError::Linalg(e)),
            }
        }
        engine.commit();
        t += h_eff;
        result.times.push(t);
        for i in 0..circuit.node_count() {
            result.volts[i].push(engine.v_all[i]);
        }
        let at_breakpoint = (t - next_bp).abs() < 1e-24;
        be_restart = at_breakpoint;
        h = if at_breakpoint {
            H_INITIAL
        } else {
            (h_eff * 1.8).min(H_MAX)
        };
    }
    Ok(result)
}

enum StepError {
    Newton,
    Linalg(mis_linalg::LinalgError),
}

/// Nodal-analysis engine: holds the committed state and a trial state.
struct Engine<'c> {
    circuit: &'c Circuit,
    free: Vec<NodeId>,
    /// node id → index into the free vector (usize::MAX for driven nodes).
    free_index: Vec<usize>,
    /// Committed node voltages (all nodes).
    v_all: Vec<f64>,
    /// Committed capacitor currents (per device index; 0 for non-caps).
    i_cap: Vec<f64>,
    /// Trial state produced by `step`, promoted by `commit`.
    v_trial: Vec<f64>,
    i_cap_trial: Vec<f64>,
    last_residual: f64,
}

impl<'c> Engine<'c> {
    fn new(circuit: &'c Circuit, free: Vec<NodeId>) -> Self {
        let mut free_index = vec![usize::MAX; circuit.node_count()];
        for (k, n) in free.iter().enumerate() {
            free_index[n.0] = k;
        }
        let n_dev = circuit.devices().len();
        Engine {
            circuit,
            free,
            free_index,
            v_all: vec![0.0; circuit.node_count()],
            i_cap: vec![0.0; n_dev],
            v_trial: vec![0.0; circuit.node_count()],
            i_cap_trial: vec![0.0; n_dev],
            last_residual: f64::NAN,
        }
    }

    /// DC operating point at t = 0: capacitors open, Newton from a
    /// mid-rail guess with a continuation fallback from zero.
    fn dc_operating_point(&mut self) -> Result<(), AnalogError> {
        for n in 0..self.circuit.node_count() {
            self.v_all[n] = self.circuit.driven_voltage(NodeId(n), 0.0).unwrap_or(0.0);
        }
        self.v_trial.copy_from_slice(&self.v_all);
        match self.newton(0.0, None, false) {
            Ok(()) => {}
            Err(StepError::Newton) => {
                return Err(AnalogError::NewtonFailed {
                    at: 0.0,
                    residual: self.last_residual,
                })
            }
            Err(StepError::Linalg(e)) => return Err(AnalogError::Linalg(e)),
        }
        self.v_all.copy_from_slice(&self.v_trial);
        // Initialize trapezoidal capacitor currents at the DC point: zero
        // (steady state).
        self.i_cap.iter_mut().for_each(|i| *i = 0.0);
        Ok(())
    }

    /// Attempts one integration step of size `h` from committed time `t`.
    /// On success returns the largest per-node voltage change.
    fn step(&mut self, t: f64, h: f64, force_be: bool) -> Result<f64, StepError> {
        let t_new = t + h;
        // Trial starts from the committed values; driven nodes move to
        // their new imposed voltages.
        self.v_trial.copy_from_slice(&self.v_all);
        for n in 0..self.circuit.node_count() {
            if let Some(v) = self.circuit.driven_voltage(NodeId(n), t_new) {
                self.v_trial[n] = v;
            }
        }
        self.newton(t_new, Some(h), force_be)?;
        let mut max_dv = 0.0_f64;
        for n in 0..self.circuit.node_count() {
            max_dv = max_dv.max((self.v_trial[n] - self.v_all[n]).abs());
        }
        Ok(max_dv)
    }

    fn commit(&mut self) {
        self.v_all.copy_from_slice(&self.v_trial);
        self.i_cap.copy_from_slice(&self.i_cap_trial);
    }

    /// Newton iteration on the trial state. `h = None` means DC (caps
    /// open).
    fn newton(&mut self, t: f64, h: Option<f64>, force_be: bool) -> Result<(), StepError> {
        let m = self.free.len();
        let mut residual = vec![0.0; m];
        let mut jac = Matrix::zeros(m, m);
        for _ in 0..NEWTON_MAX_ITER {
            residual.iter_mut().for_each(|r| *r = 0.0);
            for a in 0..m {
                for b in 0..m {
                    jac[(a, b)] = 0.0;
                }
            }
            self.assemble(t, h, force_be, &mut residual, &mut jac);
            let f_norm = residual.iter().fold(0.0_f64, |mx, r| mx.max(r.abs()));
            self.last_residual = f_norm;

            let lu = LuFactors::new(&jac).map_err(StepError::Linalg)?;
            let neg_f: Vec<f64> = residual.iter().map(|r| -r).collect();
            let delta = lu.solve(&neg_f).map_err(StepError::Linalg)?;
            let d_norm = delta.iter().fold(0.0_f64, |mx, d| mx.max(d.abs()));
            // Damping: clamp the update length.
            let scale = if d_norm > NEWTON_DV_CLAMP {
                NEWTON_DV_CLAMP / d_norm
            } else {
                1.0
            };
            for (k, node) in self.free.iter().enumerate() {
                self.v_trial[node.0] += scale * delta[k];
            }
            if f_norm < NEWTON_I_TOL && d_norm * scale < NEWTON_V_TOL {
                return Ok(());
            }
        }
        Err(StepError::Newton)
    }

    /// Stamps residual (KCL: sum of currents *out of* each free node) and
    /// Jacobian at the trial state.
    fn assemble(
        &mut self,
        _t: f64,
        h: Option<f64>,
        force_be: bool,
        residual: &mut [f64],
        jac: &mut Matrix,
    ) {
        let fidx = &self.free_index;
        let v = &self.v_trial;
        // gmin leaks.
        for (k, node) in self.free.iter().enumerate() {
            residual[k] += GMIN * v[node.0];
            jac[(k, k)] += GMIN;
        }
        for (d_idx, dev) in self.circuit.devices().iter().enumerate() {
            match dev {
                Device::Resistor { a, b, ohms } => {
                    let g = 1.0 / ohms;
                    let i = g * (v[a.0] - v[b.0]);
                    stamp_pair(residual, jac, fidx, *a, *b, i, g);
                }
                Device::Capacitor { a, b, farads } => {
                    let Some(h) = h else { continue }; // DC: open circuit
                    let vab = v[a.0] - v[b.0];
                    let vab_prev = self.v_all[a.0] - self.v_all[b.0];
                    let (i, geq) = if force_be {
                        let geq = farads / h;
                        (geq * (vab - vab_prev), geq)
                    } else {
                        let geq = 2.0 * farads / h;
                        (geq * (vab - vab_prev) - self.i_cap[d_idx], geq)
                    };
                    self.i_cap_trial[d_idx] = i;
                    stamp_pair(residual, jac, fidx, *a, *b, i, geq);
                }
                Device::Mosfet {
                    drain,
                    gate,
                    source,
                    params,
                } => {
                    let (i, dg, dd, ds) = params.ids_derivs(v[gate.0], v[drain.0], v[source.0]);
                    // Current i flows drain → source: out of the drain
                    // node, into the source node.
                    if fidx[drain.0] != usize::MAX {
                        let r = fidx[drain.0];
                        residual[r] += i;
                        add_jac(jac, fidx, r, *gate, dg);
                        add_jac(jac, fidx, r, *drain, dd);
                        add_jac(jac, fidx, r, *source, ds);
                    }
                    if fidx[source.0] != usize::MAX {
                        let r = fidx[source.0];
                        residual[r] -= i;
                        add_jac(jac, fidx, r, *gate, -dg);
                        add_jac(jac, fidx, r, *drain, -dd);
                        add_jac(jac, fidx, r, *source, -ds);
                    }
                }
            }
        }
    }
}

/// Stamps a two-terminal branch with current `i` (a → b) and conductance
/// `g = ∂i/∂(va − vb)`.
fn stamp_pair(
    residual: &mut [f64],
    jac: &mut Matrix,
    fidx: &[usize],
    a: NodeId,
    b: NodeId,
    i: f64,
    g: f64,
) {
    if fidx[a.0] != usize::MAX {
        let r = fidx[a.0];
        residual[r] += i;
        jac[(r, r)] += g;
        if fidx[b.0] != usize::MAX {
            jac[(r, fidx[b.0])] -= g;
        }
    }
    if fidx[b.0] != usize::MAX {
        let r = fidx[b.0];
        residual[r] -= i;
        jac[(r, r)] += g;
        if fidx[a.0] != usize::MAX {
            jac[(r, fidx[a.0])] -= g;
        }
    }
}

fn add_jac(jac: &mut Matrix, fidx: &[usize], row: usize, wrt: NodeId, val: f64) {
    if fidx[wrt.0] != usize::MAX {
        jac[(row, fidx[wrt.0])] += val;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MosParams, MosPolarity};
    use mis_waveform::units::ps;

    fn step_source(t_step: f64, v0: f64, v1: f64, t_end: f64) -> AnalogWaveform {
        AnalogWaveform::from_samples(
            vec![0.0, t_step, t_step + 1e-15, t_end],
            vec![v0, v0, v1, v1],
        )
        .unwrap()
    }

    #[test]
    fn rc_step_response_matches_closed_form() {
        let (r, c) = (10e3, 100e-15); // τ = 1 ns
        let mut ckt = Circuit::new();
        let vin = ckt
            .add_driven_node("in", step_source(1e-9, 0.0, 1.0, 20e-9))
            .unwrap();
        let out = ckt.add_free_node();
        ckt.add_device(Device::resistor(vin, out, r)).unwrap();
        ckt.add_device(Device::capacitor(out, Circuit::GROUND, c))
            .unwrap();
        let res = simulate(&ckt, 6e-9).unwrap();
        let w = res.waveform(out).unwrap();
        let tau = r * c;
        for &dt in &[0.5 * tau, tau, 2.0 * tau, 4.0 * tau] {
            let expected = 1.0 - (-dt / tau).exp();
            let got = w.value_at(1e-9 + dt);
            assert!(
                (got - expected).abs() < 5e-3,
                "at {dt:e}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn resistive_divider_dc() {
        let mut ckt = Circuit::new();
        let vdd = ckt.add_rail(1.0);
        let mid = ckt.add_free_node();
        ckt.add_device(Device::resistor(vdd, mid, 3e3)).unwrap();
        ckt.add_device(Device::resistor(mid, Circuit::GROUND, 1e3))
            .unwrap();
        let res = simulate(&ckt, 1e-9).unwrap();
        assert!((res.final_voltage(mid) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn cmos_inverter_dc_levels_and_transition() {
        // nMOS pull-down + pMOS pull-up, input stepping low → high.
        let vdd_v = 0.8;
        let mut ckt = Circuit::new();
        let vdd = ckt.add_rail(vdd_v);
        let vin = ckt
            .add_driven_node(
                "in",
                AnalogWaveform::from_samples(
                    vec![0.0, ps(100.0), ps(110.0), ps(600.0)],
                    vec![0.0, 0.0, vdd_v, vdd_v],
                )
                .unwrap(),
            )
            .unwrap();
        let out = ckt.add_free_node();
        let n = MosParams::new(MosPolarity::Nmos, 2e-4, 0.25);
        let p = MosParams::new(MosPolarity::Pmos, 2e-4, 0.25);
        ckt.add_device(Device::mosfet(out, vin, Circuit::GROUND, n))
            .unwrap();
        ckt.add_device(Device::mosfet(out, vin, vdd, p)).unwrap();
        ckt.add_device(Device::capacitor(out, Circuit::GROUND, 500e-18))
            .unwrap();
        let res = simulate(&ckt, ps(600.0)).unwrap();
        let w = res.waveform(out).unwrap();
        // Before the edge: output at VDD; well after: at GND.
        assert!(w.value_at(ps(90.0)) > 0.95 * vdd_v);
        assert!(w.value_at(ps(500.0)) < 0.05 * vdd_v);
        // The transition crosses VDD/2 shortly after the input edge.
        let c = w.crossings(vdd_v / 2.0).unwrap();
        assert_eq!(c.len(), 1);
        assert!(c[0].0 > ps(100.0) && c[0].0 < ps(200.0), "t = {:e}", c[0].0);
        assert!(!c[0].1);
    }

    #[test]
    fn charge_conservation_on_floating_cap_divider() {
        // Two series caps from a stepped source: the middle node divides
        // by the capacitive ratio (displacement-current balance).
        let mut ckt = Circuit::new();
        let vin = ckt
            .add_driven_node("in", step_source(1e-10, 0.0, 1.0, 1e-9))
            .unwrap();
        let mid = ckt.add_free_node();
        ckt.add_device(Device::capacitor(vin, mid, 300e-18))
            .unwrap();
        ckt.add_device(Device::capacitor(mid, Circuit::GROUND, 100e-18))
            .unwrap();
        let res = simulate(&ckt, 0.5e-9).unwrap();
        // Divider: 300/(300+100) = 0.75 (gmin droop is negligible here).
        assert!((res.final_voltage(mid) - 0.75).abs() < 1e-3);
    }

    #[test]
    fn no_free_nodes_rejected() {
        let ckt = Circuit::new();
        assert!(matches!(
            simulate(&ckt, 1e-9),
            Err(AnalogError::Netlist { .. })
        ));
    }

    #[test]
    fn negative_t_stop_rejected() {
        let mut ckt = Circuit::new();
        ckt.add_free_node();
        assert!(simulate(&ckt, -1.0).is_err());
    }

    #[test]
    fn result_rejects_foreign_node() {
        let mut ckt = Circuit::new();
        let n = ckt.add_free_node();
        ckt.add_device(Device::resistor(n, Circuit::GROUND, 1e3))
            .unwrap();
        let res = simulate(&ckt, 1e-9).unwrap();
        assert!(res.waveform(NodeId(42)).is_err());
    }

    #[test]
    fn step_density_increases_near_edges() {
        let mut ckt = Circuit::new();
        let vin = ckt
            .add_driven_node("in", step_source(1e-9, 0.0, 1.0, 3e-9))
            .unwrap();
        let out = ckt.add_free_node();
        ckt.add_device(Device::resistor(vin, out, 10e3)).unwrap();
        ckt.add_device(Device::capacitor(out, Circuit::GROUND, 50e-15))
            .unwrap();
        let res = simulate(&ckt, 3e-9).unwrap();
        let times = &res.times;
        // Count samples in the quiet first 0.9 ns vs the active 0.4 ns
        // after the edge; the active window must be sampled more densely.
        let quiet = times.iter().filter(|&&t| t < 0.9e-9).count() as f64 / 0.9;
        let active = times
            .iter()
            .filter(|&&t| (1.0e-9..1.4e-9).contains(&t))
            .count() as f64
            / 0.4;
        assert!(
            active > 2.0 * quiet,
            "active density {active} vs quiet {quiet}"
        );
    }
}
