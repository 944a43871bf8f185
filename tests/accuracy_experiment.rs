//! Integration test of the Fig. 7 experiment at reduced scale: the
//! paper's qualitative claims must hold — the hybrid model with pure
//! delay clearly beats inertial delay on short-pulse traffic, and the
//! hybrid model *without* pure delay does not.

use mis_delay::analog::NorTech;
use mis_delay::charlib::{CharConfig, CharLib};
use mis_delay::digital::accuracy::{run_experiment, ExperimentConfig};
use mis_delay::waveform::generate::{Assignment, TraceConfig};
use mis_delay::waveform::units::ps;

#[test]
fn fig7_orderings_hold_at_reduced_scale() {
    let cfg = ExperimentConfig::calibrated(NorTech::freepdk15_like(), 2).expect("calibration");
    let configs = vec![
        TraceConfig::new(ps(100.0), ps(50.0), Assignment::Local, 60),
        TraceConfig::new(ps(2000.0), ps(1000.0), Assignment::Global, 40),
    ];
    let results = run_experiment(&cfg, &configs).expect("experiment");
    assert_eq!(results.len(), 2);

    let local = &results[0];
    let inertial = local.models[0].normalized_mean;
    let hm_without = local.models[2].normalized_mean;
    let hm_with = local.models[3].normalized_mean;
    assert!((inertial - 1.0).abs() < 1e-9, "baseline normalizes to 1");
    // Paper, short pulses: HM w/ δ_min less than ~half of inertial; HM
    // w/o δ_min worse than inertial.
    assert!(
        hm_with < 0.75,
        "HM with δ_min must clearly beat inertial on short pulses: {hm_with:.3}"
    );
    assert!(
        hm_without > hm_with * 1.5,
        "pure delay must matter on short pulses: {hm_without:.3} vs {hm_with:.3}"
    );

    // Broad pulses: every model's raw deviation is dominated by SIS
    // accuracy; the hybrid (fitted to SIS values) must not be worse than
    // the Exp-Channel.
    let global = &results[1];
    let exp = global.models[1].normalized_mean;
    let hm_with_g = global.models[3].normalized_mean;
    assert!(
        hm_with_g <= exp + 0.05,
        "on broad pulses the hybrid should at least match the Exp-Channel: \
         {hm_with_g:.3} vs {exp:.3}"
    );
}

#[test]
fn cached_channel_matches_exact_hybrid_within_budget_at_reduced_scale() {
    // The characterization acceptance check: in the reduced Fig. 7
    // experiment the cached fast-path channel's deviation area must stay
    // within the configured interpolation-error budget of the exact
    // hybrid channel — the budget is per scheduled edge, so the
    // per-trace allowance is the input transition count times the budget.
    let transitions = 40;
    let char_cfg = CharConfig::default();
    let lib = CharLib::nor(&mis_delay::core::NorParams::paper_table1(), &char_cfg)
        .expect("characterization");
    let cfg = ExperimentConfig {
        repetitions: 2,
        ..ExperimentConfig::default()
    }
    .with_cached_library(lib);
    let configs = vec![TraceConfig::new(
        ps(300.0),
        ps(100.0),
        Assignment::Local,
        transitions,
    )];
    let results = run_experiment(&cfg, &configs).expect("experiment");
    let models = &results[0].models;
    assert_eq!(models.len(), 5);
    let exact = models[3].raw_mean;
    let cached = models[4].raw_mean;
    let tol = transitions as f64 * char_cfg.budget;
    assert!(
        (cached - exact).abs() <= tol,
        "cached deviation area {cached:e} vs exact {exact:e} exceeds \
         {transitions} × budget = {tol:e}"
    );
}

#[test]
fn experiment_is_reproducible() {
    let cfg = ExperimentConfig {
        repetitions: 1,
        ..ExperimentConfig::default()
    };
    let configs = vec![TraceConfig::new(
        ps(300.0),
        ps(100.0),
        Assignment::Local,
        20,
    )];
    let r1 = run_experiment(&cfg, &configs).expect("run 1");
    let r2 = run_experiment(&cfg, &configs).expect("run 2");
    assert_eq!(r1[0].models, r2[0].models, "same seed → same scores");
}
