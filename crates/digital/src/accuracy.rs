//! The paper's Fig. 7 accuracy experiment: random input traces are run
//! through the analog reference (golden) and through each digital delay
//! model; the models are scored by the *deviation area* — the total time
//! their digitized output disagrees with the digitized analog output —
//! normalized to the inertial-delay baseline.
//!
//! Models evaluated (the paper's bar groups):
//!
//! 1. inertial delay (normalization baseline, score 1 by construction),
//! 2. the IDM Exp-Channel with the paper's empirical 20 ps pure delay,
//! 3. the hybrid model **without** pure delay,
//! 4. the hybrid model **with** pure delay (δ_min = 18 ps) — the paper's
//!    headline configuration.
//!
//! The single-input channels (1, 2) cannot see which input switched; they
//! sit behind a zero-time NOR gate. The hybrid channel consumes both
//! input traces directly.

use mis_analog::measure;
use mis_analog::NorTech;
use mis_charlib::CharLib;
use mis_core::NorParams;
use mis_waveform::generate::TraceConfig;
use mis_waveform::{deviation_area, DigitalTrace};

use crate::channels::{TraceTransform, TwoInputTransform};
use crate::{gates, CachedHybridChannel, ExpChannel, HybridNorChannel, InertialChannel, SimError};

/// Pure delay of the Exp-Channel: the paper's empirical 20 ps.
const EXP_PURE_DELAY: f64 = 20e-12;

/// Base RNG seed; repetition `k` of waveform configuration `i` uses
/// `BASE_SEED + 1000·i + k`.
const BASE_SEED: u64 = 0x5eed;

/// Configuration of the accuracy experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Golden-reference technology.
    pub tech: NorTech,
    /// Hybrid model parameters *with* pure delay (the "HM with δ_min"
    /// bars); the "without" variant is derived by zeroing `delta_min`.
    pub hybrid: NorParams,
    /// Repetitions per waveform configuration (paper: 20).
    pub repetitions: usize,
    /// Optional characterized library: when set, a fifth model ("HM
    /// cached") — the [`CachedHybridChannel`] fast path — is scored
    /// alongside the paper's four. Characterize it from the same
    /// parameter set as [`ExperimentConfig::hybrid`] for an
    /// apples-to-apples comparison.
    pub cached: Option<CharLib>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            tech: NorTech::freepdk15_like(),
            hybrid: NorParams::paper_table1(),
            repetitions: 20,
            cached: None,
        }
    }
}

impl ExperimentConfig {
    /// Builds an experiment whose hybrid model has been **fitted to the
    /// analog reference** — the paper's actual workflow: measure the six
    /// characteristic Charlie delays from SPICE (here `mis-analog`),
    /// subtract the pure delay `δ_min`, and least-squares fit
    /// `R1..R4, C_N, C_O` (Section V).
    ///
    /// The pure delay comes from the paper's feasibility argument: the
    /// model forces
    /// `δ↓(−∞)/δ↓(0) = (R₃+R₄)/R₃ ≈ 2` for matched nMOS, so
    /// `δ_min = 2·δ↓(0) − δ↓(−∞)` makes the *shifted* targets hit exactly
    /// ratio 2 (their technology yielded 18 ps; ours differs — that the
    /// rule transfers is itself a reproduction result).
    ///
    /// # Errors
    ///
    /// Propagates characterization and fit failures.
    pub fn calibrated(tech: NorTech, repetitions: usize) -> Result<Self, SimError> {
        let chars = measure::characteristic_delays(&tech).map_err(|e| SimError::Network {
            reason: format!("reference characterization failed: {e}"),
        })?;
        let targets = mis_core::charlie::CharacteristicDelays::from_array(chars);
        let dmin = (2.0 * targets.fall_zero - targets.fall_minus_inf).max(0.0);
        let fit_cfg = mis_core::fit::FitConfig {
            delta_min: dmin,
            vdd: tech.vdd,
            vth: tech.vdd / 2.0,
            ..mis_core::fit::FitConfig::default()
        };
        let outcome = mis_core::fit::fit(&targets, &fit_cfg)?;
        Ok(ExperimentConfig {
            tech,
            hybrid: outcome.params,
            repetitions,
            cached: None,
        })
    }

    /// Adds a characterized library so the experiment also scores the
    /// cached fast-path channel (see [`ExperimentConfig::cached`]).
    #[must_use]
    pub fn with_cached_library(mut self, lib: CharLib) -> Self {
        self.cached = Some(lib);
        self
    }
}

/// Scores of one delay model under one waveform configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelScore {
    /// Model name.
    pub name: String,
    /// Mean raw deviation area (seconds of disagreement).
    pub raw_mean: f64,
    /// Mean deviation area normalized per-repetition to the inertial
    /// baseline (the paper's bar heights).
    pub normalized_mean: f64,
}

/// All model scores for one waveform configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigScores {
    /// The configuration's label, e.g. `"100/50 - LOCAL"`.
    pub label: String,
    /// Scores in the paper's order: inertial, Exp-Channel, HM without
    /// δ_min, HM with δ_min.
    pub models: Vec<ModelScore>,
}

/// Runs the full experiment over the given waveform configurations.
///
/// Baseline channels are parametrized from the *measured* characteristic
/// delays of the analog reference, mirroring the paper's workflow (SIS
/// delays averaged over the two inputs, because single-input channels
/// cannot distinguish them).
///
/// # Errors
///
/// Propagates analog-simulation, channel and trace failures.
pub fn run_experiment(
    cfg: &ExperimentConfig,
    trace_configs: &[TraceConfig],
) -> Result<Vec<ConfigScores>, SimError> {
    // Parametrize the baselines once from the golden reference.
    let chars = measure::characteristic_delays(&cfg.tech).map_err(|e| SimError::Network {
        reason: format!("reference characterization failed: {e}"),
    })?;
    let sis_fall = 0.5 * (chars[0] + chars[2]);
    let sis_rise = 0.5 * (chars[3] + chars[5]);
    let inertial = InertialChannel::symmetric(sis_rise, sis_fall)?;
    let exp = ExpChannel::from_sis_delays(sis_rise, sis_fall, EXP_PURE_DELAY)?;
    let hybrid_with = HybridNorChannel::new(&cfg.hybrid)?;
    let hybrid_without = HybridNorChannel::new(&cfg.hybrid.without_pure_delay())?;
    let cached = cfg
        .cached
        .as_ref()
        .map(CachedHybridChannel::new)
        .transpose()?;

    let mut names = vec![
        "inertial delay",
        "Exp-Channel",
        "HM without dmin",
        "HM with dmin",
    ];
    if cached.is_some() {
        names.push("HM cached");
    }
    let n_models = names.len();

    let mut out = Vec::with_capacity(trace_configs.len());
    for (ci, tc) in trace_configs.iter().enumerate() {
        // Keep generated edges renderable: consecutive same-signal edges
        // must be at least one input slew apart.
        let mut tc = tc.clone();
        tc.min_gap = tc.min_gap.max(1.25 * cfg.tech.input_slew);

        let mut raw = vec![0.0_f64; n_models];
        let mut norm = vec![0.0_f64; n_models];
        for rep in 0..cfg.repetitions.max(1) {
            let seed = BASE_SEED + 1000 * ci as u64 + rep as u64;
            let pair = tc.generate(seed)?;
            let t_end = pair.horizon;
            let reference = reference_trace(cfg, &pair.a, &pair.b, t_end)?;
            let ideal = gates::nor(&pair.a, &pair.b)?;

            let mut outputs = vec![
                inertial.apply(&ideal)?,
                exp.apply(&ideal)?,
                hybrid_without.apply2(&pair.a, &pair.b)?,
                hybrid_with.apply2(&pair.a, &pair.b)?,
            ];
            if let Some(ch) = &cached {
                outputs.push(ch.apply2(&pair.a, &pair.b)?);
            }
            let mut devs = vec![0.0_f64; n_models];
            for (slot, trace) in outputs.iter().enumerate() {
                devs[slot] = deviation_area(trace, &reference, 0.0, t_end)?;
            }
            let baseline = devs[0].max(1e-30);
            for slot in 0..n_models {
                raw[slot] += devs[slot];
                norm[slot] += devs[slot] / baseline;
            }
        }
        let n = cfg.repetitions.max(1) as f64;
        out.push(ConfigScores {
            label: tc.label(),
            models: (0..n_models)
                .map(|slot| ModelScore {
                    name: names[slot].to_owned(),
                    raw_mean: raw[slot] / n,
                    normalized_mean: norm[slot] / n,
                })
                .collect(),
        });
    }
    Ok(out)
}

/// Simulates the analog reference for a trace pair and digitizes its
/// output at `V_DD/2`.
///
/// # Errors
///
/// Propagates simulation and digitization failures.
pub fn reference_trace(
    cfg: &ExperimentConfig,
    a: &DigitalTrace,
    b: &DigitalTrace,
    t_end: f64,
) -> Result<DigitalTrace, SimError> {
    let sim = cfg
        .tech
        .simulate_traces(a, b, t_end)
        .map_err(|e| SimError::Network {
            reason: format!("reference simulation failed: {e}"),
        })?;
    Ok(sim.vo.digitize(cfg.tech.vdd / 2.0)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_waveform::generate::Assignment;
    use mis_waveform::units::ps;

    /// A miniature experiment: few transitions, one repetition — shape
    /// checks only (the full-scale run lives in the bench harness).
    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            repetitions: 2,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn experiment_runs_and_normalizes() {
        let cfg = tiny_config();
        let tcs = vec![TraceConfig::new(
            ps(300.0),
            ps(100.0),
            Assignment::Local,
            24,
        )];
        let scores = run_experiment(&cfg, &tcs).unwrap();
        assert_eq!(scores.len(), 1);
        let s = &scores[0];
        assert_eq!(s.models.len(), 4);
        // The inertial baseline normalizes to exactly 1.
        assert!((s.models[0].normalized_mean - 1.0).abs() < 1e-12);
        for m in &s.models {
            assert!(m.raw_mean.is_finite() && m.raw_mean >= 0.0, "{m:?}");
            assert!(m.normalized_mean >= 0.0);
        }
    }

    #[test]
    fn hybrid_with_dmin_beats_inertial_on_short_pulses() {
        // The paper's headline (Fig. 7, first two groups): for short
        // pulses the *fitted* hybrid model with pure delay clearly beats
        // the inertial baseline.
        let cfg = ExperimentConfig::calibrated(NorTech::freepdk15_like(), 3).unwrap();
        let tcs = vec![TraceConfig::new(ps(150.0), ps(60.0), Assignment::Local, 40)];
        let scores = run_experiment(&cfg, &tcs).unwrap();
        let hm_with = &scores[0].models[3];
        assert!(
            hm_with.normalized_mean < 0.9,
            "HM with δ_min should clearly beat inertial: {}",
            hm_with.normalized_mean
        );
    }

    #[test]
    fn cached_model_scored_when_library_present() {
        use mis_charlib::{CharConfig, CharLib};

        let lib = CharLib::nor(&NorParams::paper_table1(), &CharConfig::default())
            .expect("characterization");
        let budget = lib.budget();
        let cfg = tiny_config().with_cached_library(lib);
        let tcs = vec![TraceConfig::new(
            ps(300.0),
            ps(100.0),
            Assignment::Local,
            24,
        )];
        let scores = run_experiment(&cfg, &tcs).unwrap();
        let s = &scores[0];
        assert_eq!(s.models.len(), 5, "cached model appended");
        assert_eq!(s.models[4].name, "HM cached");
        // The cached fast path must track the exact hybrid channel: its
        // deviation area may differ by at most the per-edge interpolation
        // budget summed over the trace's transitions (24 input events
        // bound the output edge count), plus the partial-swing residual
        // on overlapping transitions.
        let hm_with = &s.models[3];
        let cached = &s.models[4];
        let tol = 24.0 * budget;
        println!(
            "dev areas: exact {:e}, cached {:e}, |diff| {:e}, tol {:e}",
            hm_with.raw_mean,
            cached.raw_mean,
            (cached.raw_mean - hm_with.raw_mean).abs(),
            tol
        );
        assert!(
            (cached.raw_mean - hm_with.raw_mean).abs() <= tol,
            "cached dev area {:e} vs exact {:e} (tol {tol:e})",
            cached.raw_mean,
            hm_with.raw_mean
        );
    }

    #[test]
    fn reference_trace_matches_nor_polarity() {
        let cfg = tiny_config();
        let a = DigitalTrace::with_edges(false, vec![(ps(300.0), true)]).unwrap();
        let b = DigitalTrace::constant(false);
        let r = reference_trace(&cfg, &a, &b, ps(800.0)).unwrap();
        assert!(r.initial_value(), "NOR of (0,0) starts high");
        assert_eq!(r.transition_count(), 1);
        assert!(!r.edges()[0].rising);
    }
}
