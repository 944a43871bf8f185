//! Property-based tests for the analog transient simulator: closed-form
//! RC responses over random component values, conservation properties
//! and a load-monotone NOR delay. On the in-repo `mis-testkit`
//! harness (offline replacement for `proptest`).

use mis_analog::transient::simulate;
use mis_analog::{Circuit, Device};
use mis_testkit::prelude::*;
use mis_waveform::AnalogWaveform;

/// The original proptest suite ran these properties at 24 cases each
/// (each case runs full transient simulations).
const CASES: u32 = 24;

fn step_input(t_step: f64, v1: f64, t_end: f64) -> AnalogWaveform {
    AnalogWaveform::from_samples(
        vec![0.0, t_step, t_step + 1e-15, t_end],
        vec![0.0, 0.0, v1, v1],
    )
    .expect("valid step")
}

#[test]
fn rc_step_response_matches_closed_form() {
    Config::with_cases(CASES).run(
        &(1e3..100e3f64, 10e-18..2e-15f64, 0.2..1.2f64),
        |&(r, c, v)| {
            let tau = r * c;
            let t_step = 0.2 * tau + 1e-12;
            let t_end = t_step + 8.0 * tau;
            let mut ckt = Circuit::new();
            let vin = ckt
                .add_driven_node("in", step_input(t_step, v, 2.0 * t_end))
                .unwrap();
            let out = ckt.add_free_node("out");
            ckt.add_device(Device::resistor(vin, out, r)).unwrap();
            ckt.add_device(Device::capacitor(out, Circuit::GROUND, c))
                .unwrap();
            let res = simulate(&ckt, t_end).unwrap();
            let w = res.waveform(out).unwrap();
            for frac in [0.5, 1.0, 2.0, 5.0] {
                let t = t_step + frac * tau;
                let expected = v * (1.0 - (-frac).exp());
                let got = w.value_at(t);
                prop_assert!(
                    (got - expected).abs() < 0.01 * v,
                    "r={r:.0} c={c:e} at {frac}τ: {got} vs {expected}"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn resistive_dividers_solve_exactly() {
    Config::with_cases(CASES).run(
        &(1e3..50e3f64, 1e3..50e3f64, 0.1..1.5f64),
        |&(r1, r2, v)| {
            let mut ckt = Circuit::new();
            let vdd = ckt.add_rail("vdd", v);
            let mid = ckt.add_free_node("mid");
            ckt.add_device(Device::resistor(vdd, mid, r1)).unwrap();
            ckt.add_device(Device::resistor(mid, Circuit::GROUND, r2))
                .unwrap();
            let res = simulate(&ckt, 1e-10).unwrap();
            let expected = v * r2 / (r1 + r2);
            prop_assert!((res.final_voltage(mid) - expected).abs() < 1e-6 * v);
            Ok(())
        },
    );
}

#[test]
fn capacitive_divider_ratio() {
    Config::with_cases(CASES).run(&(50e-18..2e-15f64, 50e-18..2e-15f64), |&(c1, c2)| {
        let mut ckt = Circuit::new();
        let vin = ckt
            .add_driven_node("in", step_input(1e-11, 1.0, 1e-9))
            .unwrap();
        let mid = ckt.add_free_node("mid");
        ckt.add_device(Device::capacitor(vin, mid, c1)).unwrap();
        ckt.add_device(Device::capacitor(mid, Circuit::GROUND, c2))
            .unwrap();
        let res = simulate(&ckt, 3e-10).unwrap();
        let expected = c1 / (c1 + c2);
        prop_assert!(
            (res.final_voltage(mid) - expected).abs() < 2e-3,
            "{} vs {}",
            res.final_voltage(mid),
            expected
        );
        Ok(())
    });
}

#[test]
fn gate_delay_scales_with_load() {
    Config::with_cases(CASES).run(&(100e-18..800e-18f64), |&extra| {
        // Adding load capacitance must monotonically increase the gate
        // delay — a sanity property of the full NOR testbench.
        use mis_analog::{measure, NorTech};
        let base = NorTech::freepdk15_like();
        let mut loaded = base.clone();
        loaded.co += extra;
        let d_base = measure::falling_delay(&base, 0.0).unwrap();
        let d_loaded = measure::falling_delay(&loaded, 0.0).unwrap();
        prop_assert!(
            d_loaded > d_base,
            "load {extra:e}: {d_loaded:e} not above {d_base:e}"
        );
        Ok(())
    });
}
