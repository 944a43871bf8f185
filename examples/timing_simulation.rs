//! Digital timing simulation of a NOR gate under random input traffic,
//! comparing four delay models against the analog reference — a
//! single-configuration version of the paper's Fig. 7 experiment.
//!
//! Run: `cargo run --release --example timing_simulation`

use mis_delay::analog::NorTech;
use mis_delay::digital::accuracy::{reference_trace, run_experiment, ExperimentConfig};
use mis_delay::digital::{
    gates, HybridNorChannel, InertialChannel, TraceTransform, TwoInputTransform,
};
use mis_delay::waveform::deviation_area;
use mis_delay::waveform::generate::{Assignment, TraceConfig};
use mis_delay::waveform::units::{ps, to_ps};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("calibrating the hybrid model to the analog reference...");
    let cfg = ExperimentConfig::calibrated(NorTech::freepdk15_like(), 3)?;

    // One concrete trace pair, inspected closely. Keep the generated
    // edges renderable by the analog reference: consecutive edges on one
    // signal must be at least one input slew apart.
    let mut tc = TraceConfig::new(ps(150.0), ps(60.0), Assignment::Local, 30);
    tc.min_gap = tc.min_gap.max(1.25 * cfg.tech.input_slew);
    let pair = tc.generate(7)?;
    println!(
        "generated '{}' traffic: {} transitions on A, {} on B, horizon {:.1} ns",
        tc.label(),
        pair.a.transition_count(),
        pair.b.transition_count(),
        pair.horizon * 1e9
    );

    let reference = reference_trace(&cfg, &pair.a, &pair.b, pair.horizon)?;
    println!(
        "analog reference output: {} transitions",
        reference.transition_count()
    );

    let ideal = gates::nor(&pair.a, &pair.b)?;
    let inertial = InertialChannel::symmetric(ps(50.0), ps(38.0))?;
    let hybrid = HybridNorChannel::new(&cfg.hybrid)?;

    let out_inertial = inertial.apply(&ideal)?;
    let out_hybrid = hybrid.apply2(&pair.a, &pair.b)?;
    let dev_i = deviation_area(&out_inertial, &reference, 0.0, pair.horizon)?;
    let dev_h = deviation_area(&out_hybrid, &reference, 0.0, pair.horizon)?;
    println!();
    println!(
        "deviation area vs analog reference over {:.1} ns:",
        pair.horizon * 1e9
    );
    println!(
        "  inertial: {:.1} ps of disagreement ({} output transitions)",
        to_ps(dev_i),
        out_inertial.transition_count()
    );
    println!(
        "  hybrid:   {:.1} ps of disagreement ({} output transitions)",
        to_ps(dev_h),
        out_hybrid.transition_count()
    );

    // The averaged experiment over several configurations.
    println!();
    println!("averaged experiment (3 repetitions each):");
    let configs = vec![
        TraceConfig::new(ps(100.0), ps(50.0), Assignment::Local, 60),
        TraceConfig::new(ps(2000.0), ps(1000.0), Assignment::Global, 40),
    ];
    let results = run_experiment(&cfg, &configs)?;
    for r in &results {
        println!("  {}:", r.label);
        for m in &r.models {
            println!(
                "    {:<18} normalized deviation {:.3}",
                m.name, m.normalized_mean
            );
        }
    }
    Ok(())
}
