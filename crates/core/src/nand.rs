//! NAND gate delay modeling by **duality** — an extension beyond the
//! paper (its Section VII anticipates generalizing the channel model).
//!
//! A 2-input CMOS NAND is the exact electrical dual of the NOR: series
//! nMOS (output → internal node `M` → GND, gates A and B) with parallel
//! pMOS pull-ups. Mapping every voltage through `v ↦ V_DD − v` and every
//! input through logical inversion turns the NAND's RC networks into the
//! NOR's, mode for mode:
//!
//! ```text
//! NAND mode (a, b)    ≙  NOR mode (¬a, ¬b)
//! V_M^NAND = V_DD − V_N^NOR,   V_O^NAND = V_DD − V_O^NOR
//! δ↓_NAND(Δ)          =  δ↑_NOR(Δ)   (both inputs rise; series stack)
//! δ↑_NAND(Δ | V_M)    =  δ↓_NOR(Δ)   — wait, see below
//! ```
//!
//! Concretely: a NAND output *falls* when both inputs have risen (series
//! pull-down — the dual of the NOR's rising transition through the series
//! pull-up), so the NAND inherits the NOR's rising-side MIS **slow-down**
//! on falling outputs, including the frozen-internal-node ambiguity; and
//! it *rises* as soon as one input falls (parallel pull-up — dual of the
//! NOR's falling transition), inheriting the MIS **speed-up**.
//!
//! `R1/R2` of the wrapped parameter set are the series *nMOS*
//! on-resistances here (GND side and M–O), `R3/R4` the parallel pMOS, and
//! `C_N` is the series-stack internal node capacitance `C_M`.

use crate::{delay, ModelError, NorParams, RisingInitialVn};

/// Parameters of the dual NAND model: a [`NorParams`] reinterpreted
/// through the duality map.
///
/// # Examples
///
/// ```
/// use mis_core::nand::NandParams;
/// use mis_waveform::units::ps;
///
/// # fn main() -> Result<(), mis_core::ModelError> {
/// let nand = NandParams::from_dual(mis_core::NorParams::paper_table1());
/// // Rising output (parallel pull-up): MIS speed-up, the dual of the
/// // NOR's falling behaviour.
/// let d0 = nand.rising_delay(0.0)?;
/// let dm = nand.rising_delay(ps(-300.0))?;
/// assert!(d0 < dm);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NandParams {
    dual: NorParams,
}

impl NandParams {
    /// Builds a NAND model from its dual NOR parameter set. `r1`/`r2` of
    /// the dual become the series nMOS resistances, `r3`/`r4` the
    /// parallel pMOS, `cn` the internal node `M`.
    #[must_use]
    pub fn from_dual(dual: NorParams) -> Self {
        NandParams { dual }
    }

    /// The underlying dual NOR parameters.
    #[must_use]
    pub fn dual(&self) -> &NorParams {
        &self.dual
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Propagates [`NorParams::validate`].
    pub fn validate(&self) -> Result<(), ModelError> {
        self.dual.validate()
    }

    /// The NAND's falling-output MIS delay `δ↓(Δ)` (both inputs rise;
    /// the output discharges through the series nMOS stack).
    ///
    /// `initial_vm` is the internal stack node's voltage hypothesis when
    /// the gate had been sitting with both inputs *low* (the
    /// state that freezes `M` — dual of the NOR's `(1,1)`), expressed in
    /// NAND-world volts: `Gnd` means `M` discharged.
    ///
    /// By duality this equals the dual NOR's rising delay with
    /// `X = V_DD − V_M`.
    ///
    /// # Errors
    ///
    /// Propagates [`delay::rising_delay`] failures.
    pub fn falling_delay(
        &self,
        delta: f64,
        initial_vm: RisingInitialVn,
    ) -> Result<f64, ModelError> {
        // NAND-world V_M ↦ NOR-world X = V_DD − V_M.
        let x_nand = initial_vm.voltage(self.dual.vdd);
        let x_nor = self.dual.vdd - x_nand;
        delay::rising_delay(&self.dual, delta, RisingInitialVn::Explicit(x_nor))
    }

    /// The NAND's rising-output MIS delay `δ↑(Δ)` (both inputs fall; the
    /// parallel pMOS charge the output — the dual of the NOR's falling
    /// transition, inheriting its MIS *speed-up*).
    ///
    /// # Errors
    ///
    /// Propagates [`delay::falling_delay`] failures.
    pub fn rising_delay(&self, delta: f64) -> Result<f64, ModelError> {
        delay::falling_delay(&self.dual, delta)
    }

    /// Rising SIS limits `(δ↑(−∞), δ↑(+∞))`.
    ///
    /// # Errors
    ///
    /// Propagates [`delay::falling_sis`] failures.
    pub fn rising_sis(&self) -> Result<(f64, f64), ModelError> {
        delay::falling_sis(&self.dual)
    }

    /// Falling SIS limits `(δ↓(−∞), δ↓(+∞))`.
    ///
    /// # Errors
    ///
    /// Propagates [`delay::rising_sis`] failures.
    pub fn falling_sis(&self) -> Result<(f64, f64), ModelError> {
        delay::rising_sis(&self.dual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_linalg::approx_eq;
    use mis_waveform::units::ps;

    fn nand() -> NandParams {
        NandParams::from_dual(NorParams::paper_table1())
    }

    #[test]
    fn rising_inherits_nor_falling_speed_up() {
        // Parallel pull-up: simultaneous falling inputs charge the output
        // twice as fast — the dual of the NOR's Fig. 2b speed-up.
        let g = nand();
        let d0 = g.rising_delay(0.0).unwrap();
        let (dm, dp) = g.rising_sis().unwrap();
        assert!(
            d0 < dm && d0 < dp,
            "MIS speed-up: {d0:e} vs ({dm:e}, {dp:e})"
        );
        // Exact duality: identical numbers to the NOR falling delay.
        let nor0 = delay::falling_delay(&NorParams::paper_table1(), 0.0).unwrap();
        assert!(approx_eq(d0, nor0, 1e-15));
    }

    #[test]
    fn falling_inherits_nor_rising_behaviour() {
        let g = nand();
        // δ↓_NAND(Δ | M discharged) == δ↑_NOR(Δ | N at VDD)? No: the
        // duality maps NAND M=GND to NOR X = VDD.
        let nand_d = g.falling_delay(ps(-20.0), RisingInitialVn::Gnd).unwrap();
        let nor_d =
            delay::rising_delay(&NorParams::paper_table1(), ps(-20.0), RisingInitialVn::Vdd)
                .unwrap();
        assert!(approx_eq(nand_d, nor_d, 1e-15));
        // And the VDD-frozen M maps to NOR's GND worst case.
        let nand_v = g.falling_delay(ps(-20.0), RisingInitialVn::Vdd).unwrap();
        let nor_g =
            delay::rising_delay(&NorParams::paper_table1(), ps(-20.0), RisingInitialVn::Gnd)
                .unwrap();
        assert!(approx_eq(nand_v, nor_g, 1e-15));
    }

    #[test]
    fn falling_sis_asymmetry_mirrors_nor() {
        let g = nand();
        let (fm, fp) = g.falling_sis().unwrap();
        let (rm, rp) = delay::rising_sis(&NorParams::paper_table1()).unwrap();
        assert!(approx_eq(fm, rm, 1e-15));
        assert!(approx_eq(fp, rp, 1e-15));
    }

    #[test]
    fn internal_node_hypothesis_matters_for_falling() {
        let g = nand();
        let a = g.falling_delay(ps(-15.0), RisingInitialVn::Gnd).unwrap();
        let b = g.falling_delay(ps(-15.0), RisingInitialVn::Vdd).unwrap();
        assert!((a - b).abs() > ps(0.05), "{a:e} vs {b:e}");
    }

    #[test]
    fn validation_delegates() {
        let mut p = NorParams::paper_table1();
        p.r2 = -1.0;
        assert!(NandParams::from_dual(p).validate().is_err());
        assert!(nand().validate().is_ok());
    }
}
