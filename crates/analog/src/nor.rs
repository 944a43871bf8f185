//! The transistor-level CMOS NOR gate netlist (paper Fig. 1) and its
//! technology parameterization.
//!
//! Topology: series pMOS stack `T1` (gate A, V_DD→N) and `T2` (gate B,
//! N→O) — the internal node `N` between them — with parallel nMOS
//! pull-downs `T3` (gate A) and `T4` (gate B) from `O` to ground. Explicit
//! capacitances: `C_N` at `N`, `C_O` at `O`, and per-transistor
//! gate–drain/gate–source coupling capacitors, which carry the charge
//! feed-through responsible for the rising-output MIS slow-down and the
//! medium-`|Δ|` delay bumps described in the paper's Section II.

use mis_waveform::{AnalogWaveform, DigitalTrace};

use crate::circuit::{Circuit, Device, NodeId};
use crate::mosfet::{mosfet_calibrated, MosParams, MosPolarity};
use crate::transient::{simulate, TranResult};
use crate::AnalogError;

/// Technology parameters of the NOR gate testbench.
///
/// The defaults are calibrated to FreePDK15-like magnitudes: 0.8 V supply,
/// transistor on-resistances in the tens of kΩ, attofarad-scale parasitics
/// and ≈ 10 ps input slew — producing gate delays in the 20–60 ps range of
/// the paper's Fig. 2.
///
/// # Examples
///
/// ```
/// use mis_analog::NorTech;
///
/// let tech = NorTech::freepdk15_like();
/// assert_eq!(tech.vdd, 0.8);
/// assert!(tech.nmos.on_resistance(0.8) < 50.0e3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NorTech {
    /// Supply voltage, volts.
    pub vdd: f64,
    /// nMOS model (`T3`, `T4`).
    pub nmos: MosParams,
    /// pMOS model (`T1`, `T2`).
    pub pmos: MosParams,
    /// Internal-node capacitance at `N`, farads.
    pub cn: f64,
    /// Output load capacitance at `O`, farads.
    pub co: f64,
    /// Gate–drain coupling capacitance per transistor, farads.
    pub cgd: f64,
    /// Gate–source coupling capacitance per transistor, farads.
    pub cgs: f64,
    /// Input edge slew (full-swing ramp time), seconds.
    pub input_slew: f64,
}

impl NorTech {
    /// The default FreePDK15-flavoured calibration.
    ///
    /// On-resistances target the vicinity of the paper's fitted Table I
    /// values (nMOS ≈ 45–49 kΩ; pMOS sized so the series stack charges the
    /// output on the ≈ 50 ps scale of Fig. 2d).
    ///
    /// # Panics
    ///
    /// Never panics in practice: the built-in calibration targets are
    /// valid by construction.
    #[must_use]
    pub fn freepdk15_like() -> Self {
        // The calibration targets are *small-signal* on-resistances; the
        // effective large-signal discharge resistance of the EKV device is
        // ≈ 1.9× higher (saturation limiting), so the targets sit below
        // the hybrid model's fitted switch resistances to land the gate
        // delays in the paper's Fig. 2 value range.
        let vdd = 0.8;
        let nmos = mosfet_calibrated(MosParams::new(MosPolarity::Nmos, 2e-4, 0.28), 30.0e3, vdd)
            .expect("valid nMOS calibration target");
        let pmos = mosfet_calibrated(MosParams::new(MosPolarity::Pmos, 1.5e-4, 0.30), 20.0e3, vdd)
            .expect("valid pMOS calibration target");
        NorTech {
            vdd,
            nmos,
            pmos,
            cn: 60e-18,
            co: 580e-18,
            cgd: 15e-18,
            cgs: 10e-18,
            input_slew: 18e-12,
        }
    }

    /// A variant without the input coupling capacitances — the ablation
    /// showing that the rising-output MIS slow-down disappears with them
    /// (DESIGN.md ablation 2).
    #[must_use]
    pub fn without_coupling(mut self) -> Self {
        // Zero capacitance is rejected by the netlist; use a negligible
        // femto-fraction instead.
        self.cgd = 1e-24;
        self.cgs = 1e-24;
        self
    }

    /// Validates the technology parameters.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::Netlist`] on non-positive capacitances,
    /// supply, or slew, and propagates MOSFET validation.
    pub fn validate(&self) -> Result<(), AnalogError> {
        self.nmos.validate()?;
        self.pmos.validate()?;
        for (name, v) in [
            ("vdd", self.vdd),
            ("cn", self.cn),
            ("co", self.co),
            ("cgd", self.cgd),
            ("cgs", self.cgs),
            ("input_slew", self.input_slew),
        ] {
            if !(v > 0.0) || !v.is_finite() {
                return Err(AnalogError::Netlist {
                    reason: format!("{name} must be positive (got {v:e})"),
                });
            }
        }
        Ok(())
    }

    /// Builds the NOR circuit for given input waveforms.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction failures.
    pub fn build(
        &self,
        a_wave: AnalogWaveform,
        b_wave: AnalogWaveform,
    ) -> Result<NorCircuit, AnalogError> {
        self.validate()?;
        let mut ckt = Circuit::new();
        let vdd = ckt.add_rail(self.vdd);
        let a = ckt.add_driven_node("a", a_wave)?;
        let b = ckt.add_driven_node("b", b_wave)?;
        let n = ckt.add_free_node();
        let o = ckt.add_free_node();

        // T1: pMOS, V_DD → N, gate A.
        ckt.add_device(Device::mosfet(n, a, vdd, self.pmos))?;
        // T2: pMOS, N → O, gate B.
        ckt.add_device(Device::mosfet(o, b, n, self.pmos))?;
        // T3, T4: parallel nMOS pull-downs, gates A and B.
        ckt.add_device(Device::mosfet(o, a, Circuit::GROUND, self.nmos))?;
        ckt.add_device(Device::mosfet(o, b, Circuit::GROUND, self.nmos))?;

        // Node capacitances.
        ckt.add_device(Device::capacitor(n, Circuit::GROUND, self.cn))?;
        ckt.add_device(Device::capacitor(o, Circuit::GROUND, self.co))?;

        // Coupling capacitances (gate overlap / Miller):
        // T1: A–N (gate–drain).
        ckt.add_device(Device::capacitor(a, n, self.cgd))?;
        // T2: B–N (gate–source) and B–O (gate–drain).
        ckt.add_device(Device::capacitor(b, n, self.cgs))?;
        ckt.add_device(Device::capacitor(b, o, self.cgd))?;
        // T3: A–O, T4: B–O (gate–drain).
        ckt.add_device(Device::capacitor(a, o, self.cgd))?;
        ckt.add_device(Device::capacitor(b, o, self.cgd))?;

        Ok(NorCircuit {
            circuit: ckt,
            vdd,
            a,
            b,
            n,
            o,
        })
    }

    /// Builds and simulates the gate driven by two digital traces rendered
    /// as ramp waveforms with the technology's input slew, from `t = 0` to
    /// `t_stop` (see [`simulate`]).
    ///
    /// # Errors
    ///
    /// Propagates netlist, rendering and simulation failures.
    pub fn simulate_traces(
        &self,
        a: &DigitalTrace,
        b: &DigitalTrace,
        t_stop: f64,
    ) -> Result<NorSim, AnalogError> {
        let a_wave = a.render_analog(self.vdd, self.input_slew, 0.0, t_stop)?;
        let b_wave = b.render_analog(self.vdd, self.input_slew, 0.0, t_stop)?;
        let nor = self.build(a_wave, b_wave)?;
        let result = simulate(&nor.circuit, t_stop)?;
        NorSim::from_result(&nor, &result)
    }
}

impl Default for NorTech {
    fn default() -> Self {
        NorTech::freepdk15_like()
    }
}

/// A built NOR circuit with its node handles.
#[derive(Debug, Clone)]
pub struct NorCircuit {
    /// The netlist.
    pub circuit: Circuit,
    /// Supply rail node.
    pub vdd: NodeId,
    /// Input A node.
    pub a: NodeId,
    /// Input B node.
    pub b: NodeId,
    /// Internal (pMOS stack) node `N`.
    pub n: NodeId,
    /// Output node `O`.
    pub o: NodeId,
}

/// Extracted waveforms of a NOR transient run.
#[derive(Debug, Clone)]
pub struct NorSim {
    /// Input A voltage.
    pub va: AnalogWaveform,
    /// Input B voltage.
    pub vb: AnalogWaveform,
    /// Internal node voltage.
    pub vn: AnalogWaveform,
    /// Output voltage.
    pub vo: AnalogWaveform,
}

impl NorSim {
    fn from_result(nor: &NorCircuit, result: &TranResult) -> Result<Self, AnalogError> {
        Ok(NorSim {
            va: result.waveform(nor.a)?,
            vb: result.waveform(nor.b)?,
            vn: result.waveform(nor.n)?,
            vo: result.waveform(nor.o)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_waveform::units::ps;

    #[test]
    fn dc_truth_table() {
        // For each input state, the settled output must be the NOR value.
        let tech = NorTech::freepdk15_like();
        let cases = [
            (false, false, true),
            (false, true, false),
            (true, false, false),
            (true, true, false),
        ];
        for (a_high, b_high, out_high) in cases {
            let level = |h: bool| if h { tech.vdd } else { 0.0 };
            let a = AnalogWaveform::constant(level(a_high), 0.0, ps(400.0));
            let b = AnalogWaveform::constant(level(b_high), 0.0, ps(400.0));
            let nor = tech.build(a, b).unwrap();
            let res = simulate(&nor.circuit, ps(400.0)).unwrap();
            let vo = res.final_voltage(nor.o);
            if out_high {
                assert!(vo > 0.9 * tech.vdd, "({a_high},{b_high}) → {vo}");
            } else {
                assert!(vo < 0.1 * tech.vdd, "({a_high},{b_high}) → {vo}");
            }
        }
    }

    #[test]
    fn internal_node_leakage_equilibrium_when_both_inputs_high() {
        // (1,1): both pMOS nominally off, N isolated up to sub-threshold
        // leakage — the DC solution balances T1's leak from VDD against
        // T2's leak towards the grounded output, landing strictly between
        // the rails. (The paper's "worst case V_N = GND" is a *history*
        // state, produced in measurements by an active (1,0) discharge
        // phase — see `measure::rising_delay`.)
        let tech = NorTech::freepdk15_like();
        let a = AnalogWaveform::constant(tech.vdd, 0.0, ps(400.0));
        let b = AnalogWaveform::constant(tech.vdd, 0.0, ps(400.0));
        let nor = tech.build(a, b).unwrap();
        let res = simulate(&nor.circuit, ps(400.0)).unwrap();
        let vn = res.final_voltage(nor.n);
        assert!(vn > 0.0 && vn < tech.vdd, "V_N = {vn}");
        assert!(res.final_voltage(nor.o) < 0.05 * tech.vdd);
    }

    #[test]
    fn active_discharge_parks_internal_node_near_gnd() {
        // (1,0) dwell: B low opens T2's channel to the pulled-down output,
        // draining N; this is the preconditioning used for worst-case
        // rising measurements.
        let tech = NorTech::freepdk15_like();
        let a = AnalogWaveform::constant(tech.vdd, 0.0, ps(400.0));
        let b = AnalogWaveform::constant(0.0, 0.0, ps(400.0));
        let nor = tech.build(a, b).unwrap();
        let res = simulate(&nor.circuit, ps(400.0)).unwrap();
        assert!(res.final_voltage(nor.n).abs() < 0.05 * tech.vdd);
    }

    #[test]
    fn falling_transition_produces_single_crossing() {
        let tech = NorTech::freepdk15_like();
        let a = DigitalTrace::with_edges(false, vec![(ps(300.0), true)]).unwrap();
        let b = DigitalTrace::constant(false);
        let sim = tech.simulate_traces(&a, &b, ps(800.0)).unwrap();
        let crossings = sim.vo.crossings(tech.vdd / 2.0).unwrap();
        assert_eq!(crossings.len(), 1, "{crossings:?}");
        assert!(!crossings[0].1, "falling");
        let delay = crossings[0].0 - ps(300.0);
        assert!(
            delay > ps(5.0) && delay < ps(120.0),
            "delay {:.1} ps out of plausible range",
            delay / 1e-12
        );
    }

    #[test]
    fn simulate_traces_validates() {
        let tech = NorTech::freepdk15_like();
        let mut bad = tech.clone();
        bad.co = -1.0;
        let a = DigitalTrace::constant(false);
        assert!(bad.simulate_traces(&a, &a, ps(100.0)).is_err());
    }

    #[test]
    fn without_coupling_keeps_validity() {
        let tech = NorTech::freepdk15_like().without_coupling();
        tech.validate().unwrap();
        assert!(tech.cgd < 1e-20);
    }
}
