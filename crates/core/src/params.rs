use crate::ModelError;

/// Policy for the internal-node voltage `V_N` when the model enters mode
/// `(1,1)` (both inputs high, output low) without a tracked history.
///
/// Mode `(1,1)` freezes `V_N` (node `N` is isolated between two open pMOS
/// switches), so rising-output delays depend on the value `V_N` froze at —
/// the paper's Fig. 6 shows all three fixed guesses together with the
/// observation that the true value depends on switching history. `Tracked`
/// is this crate's extension: the stateful [`crate::channel`] simply keeps
/// the continuously simulated `V_N`, removing the guesswork.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RisingInitialVn {
    /// `V_N = GND` — the paper's worst case, used for its Section VI
    /// evaluation and for parametrization (matches `δ↑(±∞)` best).
    #[default]
    Gnd,
    /// `V_N = V_DD/2`.
    HalfVdd,
    /// `V_N = V_DD`.
    Vdd,
    /// An explicit voltage in volts.
    Explicit(f64),
    /// Use the continuously tracked state (channel simulation only; in
    /// stateless delay queries this falls back to `Gnd`).
    Tracked,
}

impl RisingInitialVn {
    /// Resolves the policy to a concrete voltage for a supply `vdd`.
    #[must_use]
    pub fn voltage(self, vdd: f64) -> f64 {
        match self {
            RisingInitialVn::Gnd | RisingInitialVn::Tracked => 0.0,
            RisingInitialVn::HalfVdd => vdd / 2.0,
            RisingInitialVn::Vdd => vdd,
            RisingInitialVn::Explicit(v) => v,
        }
    }
}

/// Parameters of the hybrid NOR model: the switch-on resistances of the
/// four transistors, the two capacitances, the rails, and the pure delay.
///
/// `r1`/`r2` are the series pMOS on-resistances (V_DD → N → O), `r3`/`r4`
/// the parallel nMOS on-resistances (O → GND); `cn` is the parasitic
/// capacitance of the internal node `N` and `co` the output load. All
/// values are SI (ohms, farads, volts, seconds).
///
/// # Examples
///
/// ```
/// use mis_core::NorParams;
///
/// let p = NorParams::paper_table1();
/// assert_eq!(p.vdd, 0.8);
/// assert!((p.r3 - 45.150e3).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NorParams {
    /// On-resistance of pMOS `T1` (V_DD side), in ohms.
    pub r1: f64,
    /// On-resistance of pMOS `T2` (N–O), in ohms.
    pub r2: f64,
    /// On-resistance of nMOS `T3` (input A), in ohms.
    pub r3: f64,
    /// On-resistance of nMOS `T4` (input B), in ohms.
    pub r4: f64,
    /// Internal node capacitance `C_N`, in farads.
    pub cn: f64,
    /// Output load capacitance `C_O`, in farads.
    pub co: f64,
    /// Supply voltage, in volts.
    pub vdd: f64,
    /// Discretization threshold, in volts (the paper fixes `V_DD/2`).
    pub vth: f64,
    /// Pure delay `δ_min` added to every model delay, in seconds
    /// (Section V: 18 ps; set 0 for the "HM without δ_min" ablation).
    pub delta_min: f64,
    /// `V_N` policy when entering mode `(1,1)` without history.
    pub vn_policy: RisingInitialVn,
}

impl NorParams {
    /// The empirically fitted parameter values of the paper's Table I,
    /// with `V_DD = 0.8 V` (15 nm FreePDK15) and `δ_min = 18 ps`.
    #[must_use]
    pub fn paper_table1() -> Self {
        NorParams {
            r1: 37.088e3,
            r2: 44.926e3,
            r3: 45.150e3,
            r4: 48.761e3,
            cn: 59.486e-18,
            co: 617.259e-18,
            vdd: 0.8,
            vth: 0.4,
            delta_min: 18e-12,
            vn_policy: RisingInitialVn::Gnd,
        }
    }

    /// A parameter set scaled to the time constants of the authors'
    /// legacy 65 nm / 1.2 V validation technology (footnote 2 and the
    /// constants baked into eqs. (10)–(12)): resistances ×2, capacitances
    /// ×4, so RC products are ×8 (delays of one to a few hundred ps, where
    /// the published probe times `w = 1–2·10⁻¹⁰ s` sit near the crossings),
    /// with the 1.2 V supply the published formulas assume.
    #[must_use]
    pub fn legacy_65nm_like() -> Self {
        let t1 = NorParams::paper_table1();
        NorParams {
            r1: 2.0 * t1.r1,
            r2: 2.0 * t1.r2,
            r3: 2.0 * t1.r3,
            r4: 2.0 * t1.r4,
            cn: 4.0 * t1.cn,
            co: 4.0 * t1.co,
            vdd: 1.2,
            vth: 0.6,
            delta_min: 0.0,
            vn_policy: RisingInitialVn::Gnd,
        }
    }

    /// Starts a builder pre-populated with the Table I values.
    #[must_use]
    pub fn builder() -> NorParamsBuilder {
        NorParamsBuilder {
            params: NorParams::paper_table1(),
        }
    }

    /// A copy with the pure delay removed (the paper's "HM without δ_min"
    /// configuration in Figs. 7 and 8).
    #[must_use]
    pub fn without_pure_delay(mut self) -> Self {
        self.delta_min = 0.0;
        self
    }

    /// Validates physical constraints.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParams`] when any R/C is non-positive
    /// or non-finite, the supply is non-positive, the threshold is outside
    /// `(0, vdd)`, `delta_min` is negative, or an explicit initial `V_N`
    /// is non-finite.
    pub fn validate(&self) -> Result<(), ModelError> {
        let positives = [
            ("r1", self.r1),
            ("r2", self.r2),
            ("r3", self.r3),
            ("r4", self.r4),
            ("cn", self.cn),
            ("co", self.co),
            ("vdd", self.vdd),
        ];
        for (name, v) in positives {
            if !(v > 0.0) || !v.is_finite() {
                return Err(ModelError::InvalidParams {
                    reason: format!("{name} must be positive and finite (got {v:e})"),
                });
            }
        }
        if !(self.vth > 0.0 && self.vth < self.vdd) {
            return Err(ModelError::InvalidParams {
                reason: format!(
                    "vth must lie strictly between the rails (got {} for vdd {})",
                    self.vth, self.vdd
                ),
            });
        }
        if !(self.delta_min >= 0.0) || !self.delta_min.is_finite() {
            return Err(ModelError::InvalidParams {
                reason: format!("delta_min must be non-negative (got {:e})", self.delta_min),
            });
        }
        if let RisingInitialVn::Explicit(v) = self.vn_policy {
            if !v.is_finite() {
                return Err(ModelError::InvalidParams {
                    reason: format!("explicit initial V_N must be finite (got {v:e})"),
                });
            }
        }
        Ok(())
    }

    /// The slowest RC time constant among the four modes, used to scale
    /// crossing-search horizons.
    #[must_use]
    pub fn slowest_time_constant(&self) -> f64 {
        // Conservative bound: every mode's eigenvalues are at least as fast
        // as the weakest single-RC product formed from the largest R and C.
        let r_max = self.r1.max(self.r2).max(self.r3).max(self.r4);
        let c_sum = self.cn + self.co;
        2.0 * r_max * c_sum
    }
}

impl Default for NorParams {
    fn default() -> Self {
        NorParams::paper_table1()
    }
}

/// Builder for [`NorParams`], starting from the Table I values.
///
/// # Examples
///
/// ```
/// use mis_core::NorParams;
///
/// # fn main() -> Result<(), mis_core::ModelError> {
/// let p = NorParams::builder()
///     .r3(40.0e3)
///     .r4(40.0e3)
///     .delta_min(0.0)
///     .build()?;
/// assert_eq!(p.r3, 40.0e3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NorParamsBuilder {
    params: NorParams,
}

macro_rules! builder_setter {
    ($(#[$doc:meta])* $name:ident: f64) => {
        $(#[$doc])*
        #[must_use]
        pub fn $name(mut self, value: f64) -> Self {
            self.params.$name = value;
            self
        }
    };
}

impl NorParamsBuilder {
    builder_setter!(
        /// Sets `R1` (pMOS `T1`), ohms.
        r1: f64
    );
    builder_setter!(
        /// Sets `R2` (pMOS `T2`), ohms.
        r2: f64
    );
    builder_setter!(
        /// Sets `R3` (nMOS `T3`), ohms.
        r3: f64
    );
    builder_setter!(
        /// Sets `R4` (nMOS `T4`), ohms.
        r4: f64
    );
    builder_setter!(
        /// Sets `C_N`, farads.
        cn: f64
    );
    builder_setter!(
        /// Sets `C_O`, farads.
        co: f64
    );
    builder_setter!(
        /// Sets the supply voltage, volts. Does not move `vth`; set that
        /// explicitly when changing rails.
        vdd: f64
    );
    builder_setter!(
        /// Sets the threshold voltage, volts.
        vth: f64
    );
    builder_setter!(
        /// Sets the pure delay `δ_min`, seconds.
        delta_min: f64
    );

    /// Sets the `V_N` policy for history-less entries into mode `(1,1)`.
    #[must_use]
    pub fn vn_policy(mut self, policy: RisingInitialVn) -> Self {
        self.params.vn_policy = policy;
        self
    }

    /// Validates and returns the parameter set.
    ///
    /// # Errors
    ///
    /// Propagates [`NorParams::validate`] failures.
    pub fn build(self) -> Result<NorParams, ModelError> {
        self.params.validate()?;
        Ok(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_is_valid() {
        NorParams::paper_table1().validate().unwrap();
    }

    #[test]
    fn default_is_table1() {
        assert_eq!(NorParams::default(), NorParams::paper_table1());
    }

    #[test]
    fn builder_overrides_and_validates() {
        let p = NorParams::builder().r1(10e3).build().unwrap();
        assert_eq!(p.r1, 10e3);
        assert!(NorParams::builder().r1(-1.0).build().is_err());
        assert!(NorParams::builder().cn(0.0).build().is_err());
        assert!(NorParams::builder().vth(1.0).build().is_err());
        assert!(NorParams::builder().vth(0.0).build().is_err());
        assert!(NorParams::builder().delta_min(-1e-12).build().is_err());
        assert!(NorParams::builder().co(f64::NAN).build().is_err());
        let explicit = |v| NorParams::builder().vn_policy(RisingInitialVn::Explicit(v));
        assert!(explicit(0.3).build().is_ok());
        assert!(explicit(f64::NAN).build().is_err());
        assert!(explicit(f64::INFINITY).build().is_err());
    }

    #[test]
    fn without_pure_delay_zeroes_only_delta_min() {
        let p = NorParams::paper_table1().without_pure_delay();
        assert_eq!(p.delta_min, 0.0);
        assert_eq!(p.r1, NorParams::paper_table1().r1);
    }

    #[test]
    fn vn_policy_voltages() {
        assert_eq!(RisingInitialVn::Gnd.voltage(0.8), 0.0);
        assert_eq!(RisingInitialVn::HalfVdd.voltage(0.8), 0.4);
        assert_eq!(RisingInitialVn::Vdd.voltage(0.8), 0.8);
        assert_eq!(RisingInitialVn::Explicit(0.3).voltage(0.8), 0.3);
        assert_eq!(RisingInitialVn::Tracked.voltage(0.8), 0.0);
        assert_eq!(RisingInitialVn::default(), RisingInitialVn::Gnd);
    }

    #[test]
    fn slowest_time_constant_scale() {
        let p = NorParams::paper_table1();
        let tau = p.slowest_time_constant();
        // ~2 · 48.8 kΩ · 677 aF ≈ 66 ps.
        assert!(tau > 10e-12 && tau < 1e-9, "tau = {tau:e}");
    }
}
