//! Property-based tests of the hybrid model's analytic core: closed-form
//! trajectories vs independent numerical integration, continuity across
//! mode switches, and structural delay-function properties over random
//! (physical) parameter sets. On the in-repo `mis-testkit` harness
//! (offline replacement for `proptest`).

use mis_core::{delay, HybridTrajectory, Mode, ModeSwitch, ModeSystem, NorParams, RisingInitialVn};
use mis_testkit::prelude::*;
use mis_waveform::units::ps;

/// The original proptest suite ran these properties at 64 cases each.
const CASES: u32 = 64;

/// Strategy: physically plausible parameter sets around the Table I scale.
fn params() -> impl Strategy<Value = NorParams> {
    (
        10e3..120e3f64,       // r1
        10e3..120e3f64,       // r2
        10e3..120e3f64,       // r3
        10e3..120e3f64,       // r4
        10e-18..300e-18f64,   // cn
        200e-18..1200e-18f64, // co
    )
        .prop_map(|(r1, r2, r3, r4, cn, co)| {
            NorParams::builder()
                .r1(r1)
                .r2(r2)
                .r3(r3)
                .r4(r4)
                .cn(cn)
                .co(co)
                .delta_min(0.0)
                .build()
                .expect("strategy stays in the valid domain")
        })
}

fn mode() -> impl Strategy<Value = Mode> {
    select(vec![Mode::S00, Mode::S01, Mode::S10, Mode::S11])
}

#[test]
fn analytic_trajectory_matches_rk45() {
    Config::with_cases(CASES).run(
        &(
            params(),
            mode(),
            0.0..0.8f64,
            0.0..0.8f64,
            1e-12..200e-12f64,
        ),
        |&(ref p, m, vn0, vo0, t)| {
            let sys = ModeSystem::new(p, m).unwrap();
            let traj = sys.trajectory([vn0, vo0]);
            let a = sys.matrix();
            let g = sys.drive();
            let samples = mis_num::ode::integrate_adaptive(
                |_t, y, dy| {
                    dy[0] = a[0][0] * y[0] + a[0][1] * y[1] + g[0];
                    dy[1] = a[1][0] * y[0] + a[1][1] * y[1] + g[1];
                },
                0.0,
                t,
                &[vn0, vo0],
            )
            .unwrap();
            let numeric = &samples.last().unwrap().y;
            let analytic = traj.eval(t);
            prop_assert!(
                (analytic[0] - numeric[0]).abs() < 1e-6,
                "V_N: {} vs {}",
                analytic[0],
                numeric[0]
            );
            prop_assert!(
                (analytic[1] - numeric[1]).abs() < 1e-6,
                "V_O: {} vs {}",
                analytic[1],
                numeric[1]
            );
            Ok(())
        },
    );
}

#[test]
fn state_is_continuous_across_random_switch_sequences() {
    Config::with_cases(CASES).run(
        &(params(), vec(mode(), 1..5), vec(1e-12..60e-12f64, 1..5)),
        |(p, modes, gaps)| {
            let n = modes.len().min(gaps.len());
            prop_assume!(n > 0);
            let mut t_acc = 0.0;
            let switches: Vec<ModeSwitch> = (0..n)
                .map(|i| {
                    t_acc += gaps[i];
                    ModeSwitch {
                        at: t_acc,
                        to: modes[i],
                    }
                })
                .collect();
            let traj = HybridTrajectory::new(p, Mode::S00, [p.vdd, p.vdd], 0.0, &switches).unwrap();
            // Tolerance must cover the legitimate slope over the ±1e-18 s
            // probe offsets: |dV/dt| is bounded by a few × V_DD / τ_min.
            let tau_min = [p.r1, p.r2, p.r3, p.r4]
                .iter()
                .fold(f64::INFINITY, |m, &r| m.min(r))
                * p.cn.min(p.co);
            let tol = 1e-9 + 10.0 * p.vdd / tau_min * 2e-18;
            for sw in &switches {
                let before = traj.eval(sw.at - 1e-18);
                let after = traj.eval(sw.at + 1e-18);
                prop_assert!(
                    (before[0] - after[0]).abs() < tol,
                    "V_N jump at {:e}",
                    sw.at
                );
                prop_assert!(
                    (before[1] - after[1]).abs() < tol,
                    "V_O jump at {:e}",
                    sw.at
                );
            }
            Ok(())
        },
    );
}

#[test]
fn voltages_stay_within_rails() {
    Config::with_cases(CASES).run(&(params(), mode(), 0.0..500e-12f64), |&(ref p, m, t)| {
        // From rail-bounded initial conditions, every mode's trajectory
        // stays within [0, V_DD] (passive RC network, no overshoot for
        // real eigenvalues).
        let sys = ModeSystem::new(p, m).unwrap();
        let traj = sys.trajectory([p.vdd, 0.0]);
        let x = traj.eval(t);
        prop_assert!(x[0] >= -1e-9 && x[0] <= p.vdd + 1e-9, "V_N = {}", x[0]);
        prop_assert!(x[1] >= -1e-9 && x[1] <= p.vdd + 1e-9, "V_O = {}", x[1]);
        Ok(())
    });
}

#[test]
fn falling_delay_minimum_is_at_simultaneous_switching() {
    Config::with_cases(CASES).run(&(params(), 1e-12..100e-12f64), |&(ref p, d)| {
        // δ↓(0) ≤ δ↓(±d): simultaneous switching is always fastest (the
        // parallel pull-down only gets weaker when one transistor lags).
        let d0 = delay::falling_delay(p, 0.0).unwrap();
        let dp = delay::falling_delay(p, d).unwrap();
        let dm = delay::falling_delay(p, -d).unwrap();
        prop_assert!(d0 <= dp + 1e-15, "δ(0)={d0:e} > δ(+{d:e})={dp:e}");
        prop_assert!(d0 <= dm + 1e-15, "δ(0)={d0:e} > δ(−{d:e})={dm:e}");
        Ok(())
    });
}

#[test]
fn falling_delay_monotone_in_separation() {
    Config::with_cases(CASES).run(
        &(params(), 0.0..80e-12f64, 0.0..80e-12f64),
        |&(ref p, d1, d2)| {
            // On each branch the falling delay grows with |Δ| (speed-up decays).
            let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
            let a = delay::falling_delay(p, lo).unwrap();
            let b = delay::falling_delay(p, hi).unwrap();
            prop_assert!(
                a <= b + 1e-15,
                "positive branch: δ({lo:e})={a:e} > δ({hi:e})={b:e}"
            );
            let am = delay::falling_delay(p, -lo).unwrap();
            let bm = delay::falling_delay(p, -hi).unwrap();
            prop_assert!(am <= bm + 1e-15, "negative branch");
            Ok(())
        },
    );
}

#[test]
fn eq8_eq9_hold_for_all_parameters() {
    Config::with_cases(CASES).run(&params(), |p| {
        use std::f64::consts::LN_2;
        let d0 = delay::falling_delay(p, 0.0).unwrap();
        let r_par = p.r3 * p.r4 / (p.r3 + p.r4);
        prop_assert!((d0 - LN_2 * p.co * r_par).abs() < 1e-9 * d0);
        let (dm, _) = delay::falling_sis(p).unwrap();
        prop_assert!((dm - LN_2 * p.co * p.r4).abs() < 1e-9 * dm);
        Ok(())
    });
}

#[test]
fn rising_delay_decreasing_in_initial_vn() {
    Config::with_cases(CASES).run(
        &(params(), -60e-12..0.0f64, 0.0..0.8f64, 0.0..0.8f64),
        |&(ref p, d, x1, x2)| {
            // More precharge on N can only help the rising transition.
            let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
            let slow =
                delay::rising_delay(p, d, RisingInitialVn::Explicit(lo * p.vdd / 0.8)).unwrap();
            let fast =
                delay::rising_delay(p, d, RisingInitialVn::Explicit(hi * p.vdd / 0.8)).unwrap();
            prop_assert!(fast <= slow + 1e-14, "X={hi}: {fast:e} vs X={lo}: {slow:e}");
            Ok(())
        },
    );
}

#[test]
fn pure_delay_is_a_uniform_shift() {
    Config::with_cases(CASES).run(
        &(params(), -80e-12..80e-12f64, 0.0..30e-12f64),
        |&(ref p, d, dmin)| {
            let mut shifted = *p;
            shifted.delta_min = dmin;
            let base_f = delay::falling_delay(p, d).unwrap();
            let with_f = delay::falling_delay(&shifted, d).unwrap();
            prop_assert!((with_f - base_f - dmin).abs() < 1e-15);
            let base_r = delay::rising_delay(p, d, RisingInitialVn::Gnd).unwrap();
            let with_r = delay::rising_delay(&shifted, d, RisingInitialVn::Gnd).unwrap();
            prop_assert!((with_r - base_r - dmin).abs() < 1e-15);
            Ok(())
        },
    );
}

#[test]
fn charlie_formulas_match_numeric_for_random_params() {
    Config::with_cases(CASES).run(&params(), |p| {
        let approx = mis_core::charlie::fall_plus_inf_approx_auto(p).unwrap();
        let exact = mis_core::charlie::fall_plus_inf_exact_numeric(p).unwrap();
        prop_assert!((approx - exact).abs() < ps(0.5), "{approx:e} vs {exact:e}");
        Ok(())
    });
}

#[test]
fn nand_duality_identities() {
    Config::with_cases(CASES).run(&(params(), -50e-12..50e-12f64), |&(ref p, d)| {
        let nand = mis_core::nand::NandParams::from_dual(*p);
        let rise = nand.rising_delay(d).unwrap();
        let nor_fall = delay::falling_delay(p, d).unwrap();
        prop_assert!((rise - nor_fall).abs() < 1e-18);
        Ok(())
    });
}
