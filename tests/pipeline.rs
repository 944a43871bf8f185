//! End-to-end integration: analog characterization → parametrization →
//! model validation — the full Section V pipeline across `mis-analog`,
//! `mis-core` and `mis-num`.

use mis_delay::analog::measure::{self, RisingPrecondition};
use mis_delay::analog::NorTech;
use mis_delay::core::charlie::CharacteristicDelays;
use mis_delay::core::{delay, fit, RisingInitialVn};
use mis_delay::waveform::units::{ps, to_ps};

fn calibration() -> (NorTech, CharacteristicDelays) {
    let tech = NorTech::freepdk15_like();
    let chars = measure::characteristic_delays(&tech).expect("characterization");
    (tech, CharacteristicDelays::from_array(chars))
}

#[test]
fn full_fit_pipeline_produces_small_falling_error() {
    let (tech, targets) = calibration();
    let dmin = (2.0 * targets.fall_zero - targets.fall_minus_inf).max(0.0);
    let outcome = fit::fit(
        &targets,
        &fit::FitConfig {
            delta_min: dmin,
            vdd: tech.vdd,
            vth: tech.vdd / 2.0,
            ..fit::FitConfig::default()
        },
    )
    .expect("fit");
    assert!(
        outcome.worst_residual() < 0.05,
        "characteristic-delay residuals must be within 5 %: {:?}",
        outcome.residuals
    );

    // Sweep validation: the fitted model must track the analog falling
    // curve within 1.5 ps everywhere (paper Fig. 5: 'very good fit').
    for &d_ps in &[-50.0, -25.0, -8.0, 0.0, 8.0, 25.0, 50.0] {
        let d = ps(d_ps);
        let model = delay::falling_delay(&outcome.params, d).expect("model delay");
        let analog = measure::falling_delay(&tech, d).expect("analog delay");
        assert!(
            (model - analog).abs() < ps(1.5),
            "Δ = {d_ps} ps: model {:.2} ps vs analog {:.2} ps",
            to_ps(model),
            to_ps(analog)
        );
    }
}

#[test]
fn rising_fit_matches_tails_but_misses_peak() {
    // The paper's documented limitation, reproduced quantitatively: with
    // V_N = GND the fitted model is accurate at the SIS tails yet cannot
    // produce the analog MIS peak at Δ ≈ 0.
    let (tech, targets) = calibration();
    let dmin = (2.0 * targets.fall_zero - targets.fall_minus_inf).max(0.0);
    let params = fit::fit(
        &targets,
        &fit::FitConfig {
            delta_min: dmin,
            vdd: tech.vdd,
            vth: tech.vdd / 2.0,
            ..fit::FitConfig::default()
        },
    )
    .expect("fit")
    .params;

    // Tails within 2.5 ps.
    for &d_ps in &[-200.0, 200.0] {
        let d = ps(d_ps);
        let model = delay::rising_delay(&params, d, RisingInitialVn::Gnd).expect("model");
        let analog =
            measure::rising_delay(&tech, d, RisingPrecondition::WorstCaseGnd).expect("analog");
        assert!(
            (model - analog).abs() < ps(2.5),
            "tail Δ = {d_ps}: {:.2} vs {:.2} ps",
            to_ps(model),
            to_ps(analog)
        );
    }
    // Peak missed: analog at Δ=0 exceeds its own tails; the model (Gnd)
    // is flat across Δ ≤ 0, so the analog–model gap at 0 must exceed the
    // tail gap by a clear margin.
    let model_0 = delay::rising_delay(&params, 0.0, RisingInitialVn::Gnd).expect("model");
    let analog_0 =
        measure::rising_delay(&tech, 0.0, RisingPrecondition::WorstCaseGnd).expect("analog");
    assert!(
        analog_0 - model_0 > ps(0.8),
        "the MIS peak should be visibly under-predicted: model {:.2} vs analog {:.2} ps",
        to_ps(model_0),
        to_ps(analog_0)
    );
}

#[test]
fn pure_delay_restores_feasibility_and_cuts_cost() {
    let (tech, targets) = calibration();
    let raw_ratio = fit::feasibility_ratio(&targets, 0.0).expect("ratio");
    assert!(
        raw_ratio < 1.95,
        "the raw technology ratio must be infeasible for matched nMOS (got {raw_ratio:.3})"
    );
    let dmin = (2.0 * targets.fall_zero - targets.fall_minus_inf).max(0.0);
    assert!(dmin > 0.0, "a positive pure delay is required");
    let fixed = fit::feasibility_ratio(&targets, dmin).expect("ratio");
    assert!((fixed - 2.0).abs() < 1e-9);

    let base_cfg = fit::FitConfig {
        vdd: tech.vdd,
        vth: tech.vdd / 2.0,
        ..fit::FitConfig::default()
    };
    let without = fit::fit(&targets, &base_cfg).expect("fit without");
    let with = fit::fit(
        &targets,
        &fit::FitConfig {
            delta_min: dmin,
            ..base_cfg
        },
    )
    .expect("fit with");
    assert!(
        with.cost < 0.5 * without.cost,
        "δ_min must cut the misfit at least in half: {:.3e} vs {:.3e}",
        with.cost,
        without.cost
    );
}

#[test]
fn fitted_parameters_have_physical_structure() {
    let (tech, targets) = calibration();
    let dmin = (2.0 * targets.fall_zero - targets.fall_minus_inf).max(0.0);
    let p = fit::fit(
        &targets,
        &fit::FitConfig {
            delta_min: dmin,
            vdd: tech.vdd,
            vth: tech.vdd / 2.0,
            ..fit::FitConfig::default()
        },
    )
    .expect("fit")
    .params;
    // Matched nMOS: R3 ≈ R4 (the ratio-2 rule makes this exact up to fit noise).
    assert!(
        (p.r3 / p.r4 - 1.0).abs() < 0.1,
        "R3 = {:.1} kΩ vs R4 = {:.1} kΩ",
        p.r3 / 1e3,
        p.r4 / 1e3
    );
    // Output load dominates the internal parasitic.
    assert!(p.co > 3.0 * p.cn, "C_O = {:e} vs C_N = {:e}", p.co, p.cn);
}
