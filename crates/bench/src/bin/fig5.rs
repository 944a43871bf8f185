//! Regenerates the paper's **Fig. 5**: computed MIS delays of the hybrid
//! model for falling output transitions, `δ↓_M(Δ)`, against the analog
//! reference `δ↓_S(Δ)`.
//!
//! The hybrid model is fitted to the analog reference exactly as in the
//! paper's Section V (pure delay from the ratio-2 rule, least squares on
//! the characteristic delays).
//!
//! Run: `cargo run --release -p mis-bench --bin fig5 [-- --quick] [--csv]`

use mis_analog::measure;
use mis_analog::NorTech;
use mis_bench::{ascii_plot, banner, BinArgs, Series};
use mis_core::charlie::CharacteristicDelays;
use mis_core::{delay, fit};
use mis_waveform::units::{ps, to_ps};

fn main() {
    let args = BinArgs::parse();
    banner(
        "Fig. 5",
        "hybrid-model falling MIS delays δ↓_M(Δ) vs analog δ↓_S(Δ)",
    );
    let tech = NorTech::freepdk15_like();

    // Fit the model to the reference (Section V workflow).
    let chars = measure::characteristic_delays(&tech).expect("reference characterization");
    let targets = CharacteristicDelays::from_array(chars);
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
    .expect("parametrization");
    let params = outcome.params;
    println!(
        "fitted: R1 {:.1} kΩ  R2 {:.1} kΩ  R3 {:.1} kΩ  R4 {:.1} kΩ  C_N {:.1} aF  C_O {:.1} aF  δ_min {:.1} ps",
        params.r1 / 1e3,
        params.r2 / 1e3,
        params.r3 / 1e3,
        params.r4 / 1e3,
        params.cn * 1e18,
        params.co * 1e18,
        params.delta_min * 1e12
    );

    let n = if args.quick { 9 } else { 25 };
    let deltas = measure::delta_grid(ps(-60.0), ps(60.0), n);
    let analog = measure::falling_sweep(&tech, &deltas).expect("analog sweep");

    let mut series = Series::new("delta_ps", &["model_ps", "analog_ps", "error_ps"]);
    let mut worst = 0.0_f64;
    for point in &analog {
        let m = delay::falling_delay(&params, point.delta).expect("model delay");
        let err = m - point.delay;
        worst = worst.max(err.abs());
        series.push(
            to_ps(point.delta),
            &[to_ps(m), to_ps(point.delay), to_ps(err)],
        );
    }
    series.print(&args);
    if !args.csv {
        print!("{}", ascii_plot(&series, 0, 10));
    }
    println!(
        "worst |model − analog| over the sweep: {:.2} ps",
        to_ps(worst)
    );
    println!("(paper: 'very good fit' of δ↓_M to δ↓_S across the whole Δ range)");
}
