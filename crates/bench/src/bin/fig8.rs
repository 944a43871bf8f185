//! Regenerates the paper's **Fig. 8**: the falling-transition delay match
//! of the hybrid model *with* and *without* the pure delay `δ_min`,
//! against the analog reference — the visual argument for why the pure
//! delay is necessary.
//!
//! Run: `cargo run --release -p mis-bench --bin fig8 [-- --quick] [--csv]`

use mis_analog::measure;
use mis_analog::NorTech;
use mis_bench::{banner, BinArgs, Series};
use mis_core::charlie::CharacteristicDelays;
use mis_core::{delay, fit};
use mis_waveform::units::{ps, to_ps};

fn main() {
    let args = BinArgs::parse();
    banner(
        "Fig. 8",
        "hybrid model with vs without pure delay, falling transitions, vs analog",
    );
    let tech = NorTech::freepdk15_like();
    let chars = measure::characteristic_delays(&tech).expect("reference characterization");
    let targets = CharacteristicDelays::from_array(chars);

    // Fit twice: once with the ratio-2 pure delay, once with δ_min = 0.
    let dmin = (2.0 * targets.fall_zero - targets.fall_minus_inf).max(0.0);
    let fit_with = fit::fit(
        &targets,
        &fit::FitConfig {
            delta_min: dmin,
            vdd: tech.vdd,
            vth: tech.vdd / 2.0,
            ..fit::FitConfig::default()
        },
    )
    .expect("fit with pure delay");
    let fit_without = fit::fit(
        &targets,
        &fit::FitConfig {
            delta_min: 0.0,
            vdd: tech.vdd,
            vth: tech.vdd / 2.0,
            ..fit::FitConfig::default()
        },
    )
    .expect("fit without pure delay");
    println!(
        "fit cost with δ_min = {:.1} ps: {:.3e}   |   without: {:.3e}",
        dmin * 1e12,
        fit_with.cost,
        fit_without.cost
    );

    let n = if args.quick { 9 } else { 25 };
    let deltas = measure::delta_grid(ps(-60.0), ps(60.0), n);
    let analog = measure::falling_sweep(&tech, &deltas).expect("analog sweep");
    let mut series = Series::new(
        "delta_ps",
        &["SPICE-sub", "HM_with_dmin", "HM_without_dmin"],
    );
    let (mut err_with, mut err_without) = (0.0_f64, 0.0_f64);
    for point in &analog {
        let w = delay::falling_delay(&fit_with.params, point.delta).expect("model");
        let wo = delay::falling_delay(&fit_without.params, point.delta).expect("model");
        err_with += (w - point.delay).abs();
        err_without += (wo - point.delay).abs();
        series.push(
            to_ps(point.delta),
            &[to_ps(point.delay), to_ps(w), to_ps(wo)],
        );
    }
    series.print(&args);
    println!();
    println!(
        "mean |error|: with δ_min {:.2} ps, without {:.2} ps",
        to_ps(err_with) / analog.len() as f64,
        to_ps(err_without) / analog.len() as f64
    );
    println!("(paper: the δ_min variant tracks SPICE closely; the variant without it");
    println!(" deviates over the central |Δ| ≲ 40 ps region — same ordering expected here)");
}
