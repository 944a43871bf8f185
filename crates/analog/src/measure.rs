//! Delay extraction from analog NOR simulations — the measurements behind
//! the paper's Fig. 2 curves and the characteristic delays that
//! parametrize the hybrid model.
//!
//! Conventions match the paper: input event times are the `V_DD/2`
//! crossings of the (ramp) input waveforms; `Δ = t_B − t_A`;
//! `δ↓(Δ) = t_O − min(t_A,t_B)` for falling outputs and
//! `δ↑(Δ) = t_O − max(t_A,t_B)` for rising ones. Rising measurements start
//! from the paper's worst case `V_N = GND` by default (the DC operating
//! point of `(1,1)` parks the isolated internal node at ground), with a
//! precharged-`V_DD` variant available through an explicit `(0,1)`
//! preconditioning phase. Every measurement runs
//! [`simulate`](crate::transient::simulate) at its one solver setting,
//! so none takes solver options.

use mis_waveform::units::ps;
use mis_waveform::DigitalTrace;

use crate::nor::NorTech;
use crate::AnalogError;

/// Settling margin before the first stimulus edge.
const SETTLE: f64 = 300e-12;

/// Which internal-node state a rising-delay measurement starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RisingPrecondition {
    /// `V_N = GND` — the paper's worst case (used in its simulations).
    WorstCaseGnd,
    /// `V_N = V_DD`, reached through a `(0,1)` precharge phase.
    PrechargedVdd,
}

/// One point of a measured delay curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayPoint {
    /// Input separation `Δ = t_B − t_A`, seconds.
    pub delta: f64,
    /// Measured gate delay, seconds.
    pub delay: f64,
}

/// Measures the falling-output delay `δ↓_S(Δ)` (both inputs rise).
///
/// # Errors
///
/// * [`AnalogError::Measurement`] — output never crossed the threshold.
/// * Propagates simulation failures.
pub fn falling_delay(tech: &NorTech, delta: f64) -> Result<f64, AnalogError> {
    let (t_a, t_b) = if delta >= 0.0 {
        (SETTLE, SETTLE + delta)
    } else {
        (SETTLE - delta, SETTLE)
    };
    let t_first = t_a.min(t_b);
    let t_last = t_a.max(t_b);
    let t_stop = t_last + ps(400.0);
    let a = DigitalTrace::with_edges(false, vec![(t_a, true)])?;
    let b = DigitalTrace::with_edges(false, vec![(t_b, true)])?;
    let sim = tech.simulate_traces(&a, &b, t_stop)?;
    let crossing = sim
        .vo
        .first_crossing_after(tech.vdd / 2.0, t_first)?
        .ok_or_else(|| AnalogError::Measurement {
            reason: format!("no falling output crossing for Δ = {delta:e}"),
        })?;
    if crossing.1 {
        return Err(AnalogError::Measurement {
            reason: format!(
                "expected falling crossing, found rising at {:e}",
                crossing.0
            ),
        });
    }
    Ok(crossing.0 - t_first)
}

/// How long the gate dwells in `(1,1)` between preconditioning and the
/// measurement edges. Short, so sub-threshold leakage cannot drift the
/// frozen internal node away from its preconditioned value.
const FREEZE_DWELL: f64 = 30e-12;

/// Measures the rising-output delay `δ↑_S(Δ)` (both inputs fall), with the
/// requested internal-node precondition.
///
/// Preconditioning recreates the switching *history* that pins `V_N`
/// before both inputs are high:
///
/// * `WorstCaseGnd` — a `(1,0)` dwell (A high, B low): `T2` conducts and
///   drains `N` into the pulled-down output; B then rises
///   `FREEZE_DWELL` before the measurement edges, freezing `V_N ≈ GND`.
/// * `PrechargedVdd` — a `(0,1)` dwell (A low, B high): `T1` charges `N`
///   to `V_DD`; A then rises, freezing `V_N ≈ V_DD`.
///
/// # Errors
///
/// Same as [`falling_delay`].
pub fn rising_delay(
    tech: &NorTech,
    delta: f64,
    precondition: RisingPrecondition,
) -> Result<f64, AnalogError> {
    let base = SETTLE + FREEZE_DWELL;
    let (t_a, t_b) = if delta >= 0.0 {
        (base, base + delta)
    } else {
        (base - delta, base)
    };
    let (a_initial, a_edges, b_initial, b_edges) = match precondition {
        RisingPrecondition::WorstCaseGnd => (
            true,
            vec![(t_a, false)],
            false,
            vec![(SETTLE, true), (t_b, false)],
        ),
        RisingPrecondition::PrechargedVdd => (
            false,
            vec![(SETTLE, true), (t_a, false)],
            true,
            vec![(t_b, false)],
        ),
    };
    let t_last = t_a.max(t_b);
    let t_stop = t_last + ps(500.0);
    let a = DigitalTrace::with_edges(a_initial, a_edges)?;
    let b = DigitalTrace::with_edges(b_initial, b_edges)?;
    let sim = tech.simulate_traces(&a, &b, t_stop)?;
    let crossing = sim
        .vo
        .first_crossing_after(tech.vdd / 2.0, t_last)?
        .ok_or_else(|| AnalogError::Measurement {
            reason: format!("no rising output crossing for Δ = {delta:e}"),
        })?;
    if !crossing.1 {
        return Err(AnalogError::Measurement {
            reason: format!(
                "expected rising crossing, found falling at {:e}",
                crossing.0
            ),
        });
    }
    Ok(crossing.0 - t_last)
}

/// Sweeps [`falling_delay`] over the given separations (Fig. 2b).
///
/// # Errors
///
/// Propagates per-point failures.
pub fn falling_sweep(tech: &NorTech, deltas: &[f64]) -> Result<Vec<DelayPoint>, AnalogError> {
    deltas
        .iter()
        .map(|&delta| {
            Ok(DelayPoint {
                delta,
                delay: falling_delay(tech, delta)?,
            })
        })
        .collect()
}

/// Sweeps [`rising_delay`] (Fig. 2d).
///
/// # Errors
///
/// Propagates per-point failures.
pub fn rising_sweep(
    tech: &NorTech,
    deltas: &[f64],
    precondition: RisingPrecondition,
) -> Result<Vec<DelayPoint>, AnalogError> {
    deltas
        .iter()
        .map(|&delta| {
            Ok(DelayPoint {
                delta,
                delay: rising_delay(tech, delta, precondition)?,
            })
        })
        .collect()
}

/// The six measured characteristic Charlie delays
/// `[δ↓(−∞), δ↓(0), δ↓(∞), δ↑(−∞), δ↑(0), δ↑(∞)]`, using `Δ = ±200 ps` as
/// the saturation points (the paper's `±2·10⁻¹⁰ s`).
///
/// # Errors
///
/// Propagates measurement failures.
pub fn characteristic_delays(tech: &NorTech) -> Result<[f64; 6], AnalogError> {
    let far = ps(200.0);
    Ok([
        falling_delay(tech, -far)?,
        falling_delay(tech, 0.0)?,
        falling_delay(tech, far)?,
        rising_delay(tech, -far, RisingPrecondition::WorstCaseGnd)?,
        rising_delay(tech, 0.0, RisingPrecondition::WorstCaseGnd)?,
        rising_delay(tech, far, RisingPrecondition::WorstCaseGnd)?,
    ])
}

/// Uniformly spaced separations in `[lo, hi]` — convenience for sweeps.
#[must_use]
pub fn delta_grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    if n < 2 {
        return vec![lo];
    }
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn falling_mis_speed_up_present() {
        // δ↓(0) must undercut both SIS delays by a double-digit percentage
        // (paper: ≈ −28 %).
        let tech = NorTech::freepdk15_like();
        let d0 = falling_delay(&tech, 0.0).unwrap();
        let dm = falling_delay(&tech, ps(-200.0)).unwrap();
        let dp = falling_delay(&tech, ps(200.0)).unwrap();
        let speedup_m = (d0 - dm) / dm;
        let speedup_p = (d0 - dp) / dp;
        assert!(
            speedup_m < -0.10,
            "speed-up vs −∞ too small: {speedup_m} (d0 {d0:e}, dm {dm:e})"
        );
        assert!(
            speedup_p < -0.10,
            "speed-up vs +∞ too small: {speedup_p} (d0 {d0:e}, dp {dp:e})"
        );
    }

    #[test]
    fn falling_delays_in_paper_ballpark() {
        let tech = NorTech::freepdk15_like();
        let dm = falling_delay(&tech, ps(-200.0)).unwrap();
        let d0 = falling_delay(&tech, 0.0).unwrap();
        assert!(
            dm > ps(15.0) && dm < ps(80.0),
            "δ↓(−∞) = {:.1} ps",
            dm / 1e-12
        );
        assert!(d0 < dm, "MIS speed-up ordering");
    }

    #[test]
    fn rising_slowdown_near_zero() {
        // The coupling capacitances must produce a slow-down for small |Δ|
        // relative to the saturated SIS delays (paper Fig. 2d).
        let tech = NorTech::freepdk15_like();
        let d0 = rising_delay(&tech, 0.0, RisingPrecondition::WorstCaseGnd).unwrap();
        let dp = rising_delay(&tech, ps(200.0), RisingPrecondition::WorstCaseGnd).unwrap();
        assert!(
            d0 > dp,
            "δ↑(0) = {:.2} ps should exceed δ↑(∞) = {:.2} ps",
            d0 / 1e-12,
            dp / 1e-12
        );
    }

    #[test]
    fn rising_slowdown_vanishes_without_coupling() {
        // Ablation: the MIS slow-down measured against δ↑(−∞) — where the
        // internal node starts from the same (discharged) state, so any
        // difference is pure input coupling — must collapse when the
        // coupling capacitances are removed. (Comparing against δ↑(+∞)
        // would conflate the N-precharge asymmetry with the MIS effect.)
        let with = NorTech::freepdk15_like();
        let without = with.clone().without_coupling();
        let bump = |tech: &NorTech| {
            let d0 = rising_delay(tech, 0.0, RisingPrecondition::WorstCaseGnd).unwrap();
            let dm = rising_delay(tech, ps(-200.0), RisingPrecondition::WorstCaseGnd).unwrap();
            d0 - dm
        };
        let bump_with = bump(&with);
        let bump_without = bump(&without);
        assert!(
            bump_with > ps(1.0),
            "coupling bump too small: {bump_with:e}"
        );
        assert!(
            bump_without < 0.35 * bump_with,
            "ablated bump {bump_without:e} vs full {bump_with:e}"
        );
    }

    #[test]
    fn rising_precharge_is_faster_than_worst_case() {
        // Precharged N (via early A transition) shortens the rising delay —
        // the paper's δ↑(∞) < δ↑(−∞) asymmetry, isolated by precondition.
        let tech = NorTech::freepdk15_like();
        let worst = rising_delay(&tech, ps(-200.0), RisingPrecondition::WorstCaseGnd).unwrap();
        let pre = rising_delay(&tech, ps(-200.0), RisingPrecondition::PrechargedVdd).unwrap();
        assert!(
            pre < worst,
            "precharged {:.2} ps should beat worst-case {:.2} ps",
            pre / 1e-12,
            worst / 1e-12
        );
    }

    #[test]
    fn characteristic_delays_ordering() {
        let tech = NorTech::freepdk15_like();
        let c = characteristic_delays(&tech).unwrap();
        // Falling MIS speed-up.
        assert!(c[1] < c[0] && c[1] < c[2]);
        // All positive, ps scale.
        for (i, d) in c.iter().enumerate() {
            assert!(*d > 0.0 && *d < ps(300.0), "characteristic {i}: {d:e}");
        }
        // Bit pin of the analog reference at the solver's one setting:
        // any change to the solver constants, the NOR netlist or the
        // measurement moves these. The bits come out of libm (`exp`,
        // `ln_1p` in the device model), so they are pinned per platform,
        // like `sim_profile`'s `sim.output_digest`; re-pin only with an
        // intentional change, from this assertion's message.
        assert_eq!(
            c.map(f64::to_bits),
            [
                4_450_759_266_575_673_096,
                4_447_296_486_235_968_864,
                4_451_236_417_939_245_432,
                4_453_182_362_340_925_008,
                4_453_643_707_267_564_088,
                4_452_468_212_831_597_408,
            ],
            "characteristic delays {c:?}"
        );
    }

    #[test]
    fn delta_grid_shape() {
        let g = delta_grid(-1.0, 1.0, 5);
        assert_eq!(g, vec![-1.0, -0.5, 0.0, 0.5, 1.0]);
        assert_eq!(delta_grid(0.0, 1.0, 1), vec![0.0]);
    }
}
