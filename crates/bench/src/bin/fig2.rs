//! Regenerates the paper's **Fig. 2**: analog simulation results for the
//! CMOS NOR gate.
//!
//! * part `a` — falling output transition waveforms (`V_A`, `V_B`, `V_O`),
//! * part `b` — falling output delay `δ↓_S(Δ)` with the MIS speed-up,
//! * part `c` — rising output transition waveforms,
//! * part `d` — rising output delay `δ↑_S(Δ)` with the MIS slow-down bump.
//!
//! Run: `cargo run --release -p mis-bench --bin fig2 [-- --part b] [--quick] [--csv]`

use mis_analog::measure::{self, RisingPrecondition};
use mis_analog::NorTech;
use mis_bench::{ascii_plot, banner, BinArgs, Series};
use mis_waveform::units::{ps, to_ps};
use mis_waveform::DigitalTrace;

fn main() {
    let args = BinArgs::parse();
    let part = args.option("--part").unwrap_or("all").to_owned();
    let tech = NorTech::freepdk15_like();

    if part == "a" || part == "all" {
        banner(
            "Fig. 2a",
            "analog waveforms, falling output transition (Δ = 30 ps)",
        );
        waveform_part(&tech, &args, true);
    }
    if part == "b" || part == "all" {
        banner("Fig. 2b", "falling output delay δ↓_S(Δ) — MIS speed-up");
        delay_part(&tech, &args, true);
    }
    if part == "c" || part == "all" {
        banner(
            "Fig. 2c",
            "analog waveforms, rising output transition (Δ = 30 ps)",
        );
        waveform_part(&tech, &args, false);
    }
    if part == "d" || part == "all" {
        banner("Fig. 2d", "rising output delay δ↑_S(Δ) — MIS slow-down");
        delay_part(&tech, &args, false);
    }
}

fn waveform_part(tech: &NorTech, args: &BinArgs, falling: bool) {
    let t0 = ps(300.0);
    let delta = ps(30.0);
    let (a, b) = if falling {
        (
            DigitalTrace::with_edges(false, vec![(t0, true)]).expect("trace"),
            DigitalTrace::with_edges(false, vec![(t0 + delta, true)]).expect("trace"),
        )
    } else {
        (
            DigitalTrace::with_edges(true, vec![(t0, false)]).expect("trace"),
            DigitalTrace::with_edges(true, vec![(t0 + delta, false)]).expect("trace"),
        )
    };
    let t_end = t0 + delta + ps(400.0);
    let sim = tech
        .simulate_traces(&a, &b, t_end)
        .expect("waveform simulation");
    let n = if args.quick { 60 } else { 160 };
    let mut series = Series::new("time_ps", &["V_A", "V_B", "V_O", "V_N"]);
    for i in 0..n {
        let t = t0 - ps(60.0) + (delta + ps(260.0)) * i as f64 / (n - 1) as f64;
        series.push(
            to_ps(t),
            &[
                sim.va.value_at(t),
                sim.vb.value_at(t),
                sim.vo.value_at(t),
                sim.vn.value_at(t),
            ],
        );
    }
    series.print(args);
    if !args.csv {
        print!("{}", ascii_plot(&series, 2, 10));
    }
}

fn delay_part(tech: &NorTech, args: &BinArgs, falling: bool) {
    let n = if args.quick { 9 } else { 25 };
    let deltas = measure::delta_grid(ps(-60.0), ps(60.0), n);
    let points = if falling {
        measure::falling_sweep(tech, &deltas).expect("falling sweep")
    } else {
        measure::rising_sweep(tech, &deltas, RisingPrecondition::WorstCaseGnd)
            .expect("rising sweep")
    };
    let mut series = Series::new("delta_ps", &["delay_ps"]);
    for p in &points {
        series.push(to_ps(p.delta), &[to_ps(p.delay)]);
    }
    series.print(args);
    if !args.csv {
        print!("{}", ascii_plot(&series, 0, 10));
    }
    // The paper's annotated percentages.
    let d0 = points
        .iter()
        .min_by(|x, y| x.delta.abs().partial_cmp(&y.delta.abs()).expect("finite"))
        .expect("non-empty sweep")
        .delay;
    let dm = points.first().expect("non-empty").delay;
    let dp = points.last().expect("non-empty").delay;
    println!(
        "MIS effect at Δ=0 vs Δ={:.0} ps: {:+.2} %   vs Δ=+{:.0} ps: {:+.2} %",
        to_ps(points[0].delta),
        100.0 * (d0 - dm) / dm,
        to_ps(points[points.len() - 1].delta),
        100.0 * (d0 - dp) / dp,
    );
    println!(
        "(paper: {} )",
        if falling {
            "−28.01 % / −28.43 %"
        } else {
            "+2.08 % / +7.26 %"
        }
    );
}
