//! Regenerates the paper's **Fig. 7**: average modeling accuracy
//! (normalized deviation area) of inertial delay, the IDM Exp-Channel and
//! the hybrid model with/without pure delay, over the four random waveform
//! configurations.
//!
//! Full scale follows the paper (500 transitions, 250 for the last
//! configuration, 20 repetitions) and takes a while; `--quick` runs a
//! reduced but shape-preserving version.
//!
//! Run: `cargo run --release -p mis-bench --bin fig7 [-- --quick] [--csv]`

use mis_analog::NorTech;
use mis_bench::{banner, BinArgs};
use mis_digital::accuracy::{run_experiment, ExperimentConfig};
use mis_waveform::generate::{paper_configurations, Assignment, TraceConfig};
use mis_waveform::units::ps;

fn main() {
    let args = BinArgs::parse();
    banner(
        "Fig. 7",
        "normalized deviation area per waveform configuration (lower is better)",
    );
    let repetitions = if args.quick { 2 } else { 20 };
    let cfg =
        ExperimentConfig::calibrated(NorTech::freepdk15_like(), repetitions).expect("calibration");
    println!(
        "fitted hybrid: R1 {:.1}k R2 {:.1}k R3 {:.1}k R4 {:.1}k C_N {:.1}aF C_O {:.1}aF δ_min {:.1}ps",
        cfg.hybrid.r1 / 1e3,
        cfg.hybrid.r2 / 1e3,
        cfg.hybrid.r3 / 1e3,
        cfg.hybrid.r4 / 1e3,
        cfg.hybrid.cn * 1e18,
        cfg.hybrid.co * 1e18,
        cfg.hybrid.delta_min * 1e12
    );

    let configs: Vec<TraceConfig> = if args.quick {
        vec![
            TraceConfig::new(ps(100.0), ps(50.0), Assignment::Local, 60),
            TraceConfig::new(ps(200.0), ps(100.0), Assignment::Local, 60),
            TraceConfig::new(ps(2000.0), ps(1000.0), Assignment::Global, 60),
            TraceConfig::new(ps(5000.0), ps(5.0), Assignment::Global, 30),
        ]
    } else {
        paper_configurations()
    };

    let results = run_experiment(&cfg, &configs).expect("experiment");
    println!();
    println!(
        "{:<22} {:>16} {:>16} {:>16} {:>16}",
        "configuration", "inertial", "Exp-Channel", "HM w/o dmin", "HM w/ dmin"
    );
    if args.csv {
        println!("configuration,inertial,exp,hm_without,hm_with");
    }
    for r in &results {
        let vals: Vec<f64> = r.models.iter().map(|m| m.normalized_mean).collect();
        if args.csv {
            println!(
                "{},{:.4},{:.4},{:.4},{:.4}",
                r.label, vals[0], vals[1], vals[2], vals[3]
            );
        } else {
            println!(
                "{:<22} {:>16.3} {:>16.3} {:>16.3} {:>16.3}",
                r.label, vals[0], vals[1], vals[2], vals[3]
            );
        }
    }
    println!();
    println!("paper's bars:   inertial 1 | Exp 0.71 / 0.72 / 1.6 / 1.65 |");
    println!("                HM w/o δ_min 1.44 / 1.96 / 1.15 / 1.01 | HM w/ δ_min 0.52 / 0.47 / 0.97 / 1.01");
    println!("expected shape: HM w/ δ_min clearly best on the short-pulse (LOCAL) configs,");
    println!("                converging towards inertial on the broad-pulse (GLOBAL) configs.");
}
