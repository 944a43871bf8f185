//! The full Section V parametrization workflow, end to end:
//!
//! 1. characterize a transistor-level NOR gate with the analog simulator
//!    (the golden reference);
//! 2. inspect the feasibility ratio `δ↓(−∞)/δ↓(0)` that the hybrid model
//!    structurally pins to `(R₃+R₄)/R₃ ≈ 2`;
//! 3. derive the pure delay `δ_min` that restores feasibility;
//! 4. least-squares fit `R1..R4, C_N, C_O`;
//! 5. validate the fitted model over a full Δ sweep.
//!
//! Run: `cargo run --release --example fit_your_gate`

use mis_delay::analog::measure::{self, RisingPrecondition};
use mis_delay::analog::NorTech;
use mis_delay::core::charlie::CharacteristicDelays;
use mis_delay::core::{delay, fit, RisingInitialVn};
use mis_delay::waveform::units::{ps, to_ps};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = NorTech::freepdk15_like();

    println!("1) characterizing the reference gate (6 transient runs)...");
    let chars = measure::characteristic_delays(&tech)?;
    let names = ["δ↓(−∞)", "δ↓(0)", "δ↓(+∞)", "δ↑(−∞)", "δ↑(0)", "δ↑(+∞)"];
    for (n, c) in names.iter().zip(&chars) {
        println!("   {n} = {:.2} ps", to_ps(*c));
    }
    let targets = CharacteristicDelays::from_array(chars);

    println!();
    println!("2) feasibility: the model forces δ↓(−∞)/δ↓(0) = (R₃+R₄)/R₃ ≈ 2");
    let raw_ratio = fit::feasibility_ratio(&targets, 0.0)?;
    println!("   measured ratio without pure delay: {raw_ratio:.3}");

    let dmin = (2.0 * targets.fall_zero - targets.fall_minus_inf).max(0.0);
    println!();
    println!(
        "3) pure delay from the ratio-2 rule: δ_min = 2·δ↓(0) − δ↓(−∞) = {:.2} ps",
        dmin * 1e12
    );
    println!(
        "   shifted ratio: {:.3}",
        fit::feasibility_ratio(&targets, dmin)?
    );

    println!();
    println!("4) least-squares fit of R1..R4, C_N, C_O ...");
    let cfg = fit::FitConfig {
        delta_min: dmin,
        vdd: tech.vdd,
        vth: tech.vdd / 2.0,
        ..fit::FitConfig::default()
    };
    let outcome = fit::fit(&targets, &cfg)?;
    let p = outcome.params;
    println!(
        "   R1 = {:.2} kΩ, R2 = {:.2} kΩ, R3 = {:.2} kΩ, R4 = {:.2} kΩ",
        p.r1 / 1e3,
        p.r2 / 1e3,
        p.r3 / 1e3,
        p.r4 / 1e3
    );
    println!(
        "   C_N = {:.2} aF, C_O = {:.2} aF",
        p.cn * 1e18,
        p.co * 1e18
    );
    println!(
        "   worst relative residual: {:.2} % (converged: {})",
        100.0 * outcome.worst_residual(),
        outcome.converged
    );

    println!();
    println!("5) validation sweep (model vs analog):");
    println!(
        "   {:>8} {:>12} {:>12} {:>12} {:>12}",
        "Δ [ps]", "δ↓ model", "δ↓ analog", "δ↑ model", "δ↑ analog"
    );
    for &d_ps in &[-60.0, -30.0, -10.0, 0.0, 10.0, 30.0, 60.0] {
        let d = ps(d_ps);
        let fm = delay::falling_delay(&p, d)?;
        let fa = measure::falling_delay(&tech, d)?;
        let rm = delay::rising_delay(&p, d, RisingInitialVn::Gnd)?;
        let ra = measure::rising_delay(&tech, d, RisingPrecondition::WorstCaseGnd)?;
        println!(
            "   {:>8.1} {:>9.2} ps {:>9.2} ps {:>9.2} ps {:>9.2} ps",
            d_ps,
            to_ps(fm),
            to_ps(fa),
            to_ps(rm),
            to_ps(ra)
        );
    }
    println!();
    println!("The falling curve should match closely; the rising curve matches the tails");
    println!("but misses the analog peak near Δ = 0 — the model limitation the paper reports.");
    Ok(())
}
