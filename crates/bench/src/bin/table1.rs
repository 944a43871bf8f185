//! Regenerates the paper's **Table I**: the empirically fitted hybrid
//! model parameters, obtained by least-squares matching of the
//! characteristic Charlie delays of the analog reference (minus the pure
//! delay), exactly as described in Section V.
//!
//! `--charlie` additionally prints the characteristic-delay formula
//! validation (eqs. (8)–(12) against exact numerics).
//!
//! Run: `cargo run --release -p mis-bench --bin table1 [-- --charlie]`

use mis_analog::measure;
use mis_analog::NorTech;
use mis_bench::{banner, BinArgs};
use mis_core::charlie::{self, CharacteristicDelays};
use mis_core::{fit, NorParams};
use mis_waveform::units::to_ps;

fn main() {
    let args = BinArgs::parse();
    banner("Table I", "fitted parameter values of the hybrid model");

    let tech = NorTech::freepdk15_like();
    let chars = measure::characteristic_delays(&tech).expect("reference characterization");
    let targets = CharacteristicDelays::from_array(chars);
    println!(
        "reference characteristic delays [ps]: δ↓(−∞) {:.2}  δ↓(0) {:.2}  δ↓(∞) {:.2}  \
         δ↑(−∞) {:.2}  δ↑(0) {:.2}  δ↑(∞) {:.2}",
        to_ps(chars[0]),
        to_ps(chars[1]),
        to_ps(chars[2]),
        to_ps(chars[3]),
        to_ps(chars[4]),
        to_ps(chars[5])
    );
    let ratio_raw = fit::feasibility_ratio(&targets, 0.0).expect("positive targets");
    let dmin = (2.0 * targets.fall_zero - targets.fall_minus_inf).max(0.0);
    let ratio_fixed = fit::feasibility_ratio(&targets, dmin).expect("positive targets");
    println!(
        "feasibility ratio δ↓(−∞)/δ↓(0): raw {ratio_raw:.3} → with δ_min = {:.1} ps: {ratio_fixed:.3}  (model needs ≈ 2)",
        dmin * 1e12
    );

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
    let p = outcome.params;
    let paper = NorParams::paper_table1();

    println!();
    println!(
        "{:<12} {:>18} {:>18}",
        "Parameter", "fitted (ours)", "paper Table I"
    );
    println!(
        "{:<12} {:>14.3} kΩ {:>14.3} kΩ",
        "R1",
        p.r1 / 1e3,
        paper.r1 / 1e3
    );
    println!(
        "{:<12} {:>14.3} kΩ {:>14.3} kΩ",
        "R2",
        p.r2 / 1e3,
        paper.r2 / 1e3
    );
    println!(
        "{:<12} {:>14.3} kΩ {:>14.3} kΩ",
        "R3",
        p.r3 / 1e3,
        paper.r3 / 1e3
    );
    println!(
        "{:<12} {:>14.3} kΩ {:>14.3} kΩ",
        "R4",
        p.r4 / 1e3,
        paper.r4 / 1e3
    );
    println!(
        "{:<12} {:>14.3} aF {:>14.3} aF",
        "C_N",
        p.cn * 1e18,
        paper.cn * 1e18
    );
    println!(
        "{:<12} {:>14.3} aF {:>14.3} aF",
        "C_O",
        p.co * 1e18,
        paper.co * 1e18
    );
    println!(
        "{:<12} {:>14.3} ps {:>14.3} ps",
        "δ_min",
        p.delta_min * 1e12,
        paper.delta_min * 1e12
    );
    println!();
    println!(
        "fit residuals (relative): {:?}  worst {:.2} %",
        outcome
            .residuals
            .iter()
            .map(|r| format!("{:+.3} %", 100.0 * r))
            .collect::<Vec<_>>(),
        100.0 * outcome.worst_residual()
    );
    println!("(absolute values differ from the paper — our golden reference is a different");
    println!(" simulator/technology; what must match is the *structure*: R3 ≈ R4, C_O ≫ C_N,");
    println!(" and a positive pure delay restoring the ratio-2 feasibility)");

    if args.rest.iter().any(|a| a == "--charlie") {
        println!();
        banner(
            "Eqs. (8)-(12)",
            "characteristic Charlie delay formulas vs exact numerics",
        );
        let p = NorParams::paper_table1();
        let c = CharacteristicDelays::of_model(&p).expect("characteristics");
        println!(
            "eq. (8)  δ↓(0)   closed {:.3} ps   numeric {:.3} ps",
            to_ps(charlie::fall_zero_exact(&p)),
            to_ps(c.fall_zero)
        );
        println!(
            "eq. (9)  δ↓(−∞)  closed {:.3} ps   numeric {:.3} ps",
            to_ps(charlie::fall_minus_inf_exact(&p)),
            to_ps(c.fall_minus_inf)
        );
        println!(
            "eq. (10) δ↓(+∞)  linearized {:.3} ps   numeric {:.3} ps",
            to_ps(charlie::fall_plus_inf_approx_auto(&p).expect("approx")),
            to_ps(c.fall_plus_inf)
        );
        for (x, name) in [(0.0, "GND"), (p.vdd / 2.0, "VDD/2"), (p.vdd, "VDD")] {
            let approx = charlie::rise_approx_auto(&p, 0.0, x).expect("approx");
            let exact = charlie::rise_exact_numeric(&p, 0.0, x).expect("numeric");
            println!(
                "eq. (11) δ↑(0)|X={name:<6} linearized {:.3} ps   numeric {:.3} ps",
                to_ps(approx),
                to_ps(exact)
            );
        }
        println!(
            "eq. (11) constant l = {:.6} V  ≡ V_DD = {:.6} V (identity verified)",
            charlie::paper_constant_l(&p),
            p.vdd
        );
    }
}
