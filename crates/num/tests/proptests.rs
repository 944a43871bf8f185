//! Property-based tests for the numerics substrate, on the in-repo
//! `mis-testkit` harness (offline replacement for `proptest`).

use mis_num::{exproots, interp, minimize, ode};
use mis_testkit::prelude::*;

#[test]
fn nelder_mead_solves_random_quadratics() {
    Config::default().run(
        &(-3.0..3.0f64, -3.0..3.0f64, 0.5..4.0f64, 0.5..4.0f64),
        |&(cx, cy, sx, sy)| {
            let f = move |p: &[f64]| sx * (p[0] - cx).powi(2) + sy * (p[1] - cy).powi(2);
            let r = minimize::NelderMead::new()
                .with_max_evals(3000)
                .minimize(f, &[0.0, 0.0])
                .unwrap();
            prop_assert!((r.x[0] - cx).abs() < 1e-3, "{} vs {}", r.x[0], cx);
            prop_assert!((r.x[1] - cy).abs() < 1e-3);
            Ok(())
        },
    );
}

#[test]
fn rk45_matches_closed_form_decay() {
    Config::default().run(&(0.1..20.0f64, 0.1..2.0f64), |&(k, y0)| {
        let samples =
            ode::integrate_adaptive(|_t, y, dy| dy[0] = -k * y[0], 0.0, 1.0, &[y0]).unwrap();
        let yf = samples.last().unwrap().y[0];
        let exact = y0 * (-k).exp();
        prop_assert!((yf - exact).abs() < 1e-7 * (1.0 + exact.abs()));
        Ok(())
    });
}

#[test]
fn exp2_crossings_are_actual_roots() {
    Config::default().run(
        &(
            -2.0..2.0f64,
            -2.0..2.0f64,
            -20.0..-0.1f64,
            -20.0..-0.1f64,
            -1.5..1.5f64,
        ),
        |&(a, b, l1, l2, c)| {
            prop_assume!(a != 0.0 || b != 0.0);
            let rts = exproots::exp2_crossings(a, l1, b, l2, c, 10.0).unwrap();
            prop_assert!(rts.len() <= 2, "at most two roots: {rts:?}");
            for t in rts {
                let f = a * (l1 * t).exp() + b * (l2 * t).exp() - c;
                prop_assert!(f.abs() < 1e-8, "f({t}) = {f}");
            }
            // Roots sorted.
            for w in rts.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
            Ok(())
        },
    );
}

#[test]
fn exp2_crossings_no_missed_roots_vs_dense_sampling() {
    Config::default().run(
        &(
            -2.0..2.0f64,
            -2.0..2.0f64,
            -10.0..-0.1f64,
            -10.0..-0.1f64,
            -1.5..1.5f64,
        ),
        |&(a, b, l1, l2, c)| {
            prop_assume!(a != 0.0 || b != 0.0);
            let rts = exproots::exp2_crossings(a, l1, b, l2, c, 5.0).unwrap();
            // Count sign changes on a fine grid; must not exceed analytic count.
            let f = |t: f64| a * (l1 * t).exp() + b * (l2 * t).exp() - c;
            let mut grid_changes = 0;
            let n = 20_000;
            let mut prev = f(0.0);
            for i in 1..=n {
                let t = 5.0 * i as f64 / n as f64;
                let v = f(t);
                if prev != 0.0 && v != 0.0 && prev.signum() != v.signum() {
                    grid_changes += 1;
                }
                prev = v;
            }
            prop_assert!(
                rts.len() >= grid_changes,
                "analytic {} roots but grid found {} sign changes",
                rts.len(),
                grid_changes
            );
            Ok(())
        },
    );
}

#[test]
fn lerp_is_exact_on_linear_functions() {
    Config::default().run(
        &(-5.0..5.0f64, -5.0..5.0f64, -0.5..10.5f64),
        |&(m, q, x)| {
            let xs: Vec<f64> = (0..11).map(|i| i as f64).collect();
            let ys: Vec<f64> = xs.iter().map(|&v| m * v + q).collect();
            let y = interp::lerp_table_unchecked(&xs, &ys, x);
            let expected = m * x.clamp(0.0, 10.0) + q;
            prop_assert!((y - expected).abs() < 1e-9 * (1.0 + expected.abs()));
            Ok(())
        },
    );
}
