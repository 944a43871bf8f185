//! Regenerates the paper's **Fig. 6**: computed MIS delays of the hybrid
//! model for rising output transitions `δ↑_M(Δ)` under the three initial
//! internal-node hypotheses `V_N ∈ {GND, V_DD/2, V_DD}`, against the
//! analog reference `δ↑_S(Δ)` — including the model's documented failure
//! to reproduce the MIS peak around Δ = 0.
//!
//! Run: `cargo run --release -p mis-bench --bin fig6 [-- --quick] [--csv]`

use mis_analog::measure::{self, RisingPrecondition};
use mis_analog::NorTech;
use mis_bench::{banner, BinArgs, Series};
use mis_core::charlie::CharacteristicDelays;
use mis_core::{delay, fit, RisingInitialVn};
use mis_waveform::units::{ps, to_ps};

fn main() {
    let args = BinArgs::parse();
    banner(
        "Fig. 6",
        "hybrid-model rising MIS delays δ↑_M(Δ) for V_N ∈ {GND, V_DD/2, V_DD} vs analog",
    );
    let tech = NorTech::freepdk15_like();

    let chars = measure::characteristic_delays(&tech).expect("reference characterization");
    let targets = CharacteristicDelays::from_array(chars);
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
    .expect("parametrization")
    .params;

    let n = if args.quick { 9 } else { 25 };
    let deltas = measure::delta_grid(ps(-90.0), ps(90.0), n);
    let analog = measure::rising_sweep(&tech, &deltas, RisingPrecondition::WorstCaseGnd)
        .expect("analog sweep");

    let mut series = Series::new(
        "delta_ps",
        &["model_VN=GND", "model_VN=VDD/2", "model_VN=VDD", "analog"],
    );
    for (i, &d) in deltas.iter().enumerate() {
        let gnd = delay::rising_delay(&params, d, RisingInitialVn::Gnd).expect("model");
        let half = delay::rising_delay(&params, d, RisingInitialVn::HalfVdd).expect("model");
        let vdd = delay::rising_delay(&params, d, RisingInitialVn::Vdd).expect("model");
        series.push(
            to_ps(d),
            &[to_ps(gnd), to_ps(half), to_ps(vdd), to_ps(analog[i].delay)],
        );
    }
    series.print(&args);

    // Quantify the documented shortcomings.
    let mid = deltas.len() / 2;
    let peak_analog = analog.iter().map(|p| p.delay).fold(f64::MIN, f64::max);
    let model_at_zero =
        delay::rising_delay(&params, deltas[mid], RisingInitialVn::Gnd).expect("model");
    println!();
    println!(
        "analog MIS peak: {:.2} ps;  model (V_N = GND) at Δ≈0: {:.2} ps",
        to_ps(peak_analog),
        to_ps(model_at_zero)
    );
    println!(
        "(paper: for V_N = GND the model matches δ↑(±∞) but misses the peak around Δ = 0; \
         for V_N ∈ {{V_DD/2, V_DD}} it mispredicts Δ < 0 — both visible above)"
    );
}
