//! Property-based tests for `mis-charlib`, on the in-repo `mis-testkit`
//! harness: interpolated delays must honor the declared error budget for
//! *arbitrary* in-grid separations (not just the builder's own probe
//! points), and serialization must be a lossless round trip.

use std::sync::OnceLock;

use mis_charlib::{CharConfig, CharLib, DelaySurface};
use mis_core::{delay, NorParams, RisingInitialVn};
use mis_testkit::prelude::*;
use mis_waveform::units::ps;

fn cfg() -> CharConfig {
    CharConfig {
        delta_lo: ps(-150.0),
        delta_hi: ps(150.0),
        initial_points: 13,
        max_points: 513,
        budget: ps(0.15),
        vn_fractions: vec![0.0, 0.25, 0.5, 0.75, 1.0],
    }
}

fn nor_lib() -> &'static CharLib {
    static LIB: OnceLock<CharLib> = OnceLock::new();
    LIB.get_or_init(|| CharLib::nor(&NorParams::paper_table1(), &cfg()).expect("characterization"))
}

#[test]
fn falling_surface_within_budget_at_random_separations() {
    let lib = nor_lib();
    let p = NorParams::paper_table1();
    let budget = lib.budget();
    Config::with_cases(96).run(&(-150.0..150.0f64), |&d_ps| {
        let d = ps(d_ps);
        let exact = delay::falling_delay(&p, d).expect("exact delay");
        let got = lib.falling_delay(d, 0.0);
        prop_assert!(
            (got - exact).abs() <= budget,
            "Δ = {} ps: |{:e} − {:e}| > {:e}",
            d_ps,
            got,
            exact,
            budget
        );
        Ok(())
    });
}

#[test]
fn rising_slices_within_budget_at_random_separations() {
    let lib = nor_lib();
    let p = NorParams::paper_table1();
    let budget = lib.budget();
    // Random Δ on each characterized V_N slice: the per-slice guarantee
    // of the refinement loop, checked off the builder's probe points.
    Config::with_cases(64).run(&(-150.0..150.0f64, 0..5u32), |&(d_ps, xi)| {
        let d = ps(d_ps);
        let x = [0.0, 0.25, 0.5, 0.75, 1.0][xi as usize] * p.vdd;
        let exact = delay::rising_delay(&p, d, RisingInitialVn::Explicit(x)).expect("exact");
        let got = lib.rising_delay(d, x);
        prop_assert!(
            (got - exact).abs() <= budget,
            "Δ = {} ps, X = {} V: |{:e} − {:e}| > {:e}",
            d_ps,
            x,
            got,
            exact,
            budget
        );
        Ok(())
    });
}

#[test]
fn rising_family_between_slices_stays_close() {
    // Between characterized V_N slices the family interpolates linearly;
    // the combined (grid + slice) error must stay within a small multiple
    // of the budget — the slice spacing, not the Δ grid, dominates here.
    let lib = nor_lib();
    let p = NorParams::paper_table1();
    let tol = 4.0 * lib.budget();
    Config::with_cases(48).run(&(-150.0..150.0f64, 0.0..1.0f64), |&(d_ps, xf)| {
        let d = ps(d_ps);
        let x = xf * p.vdd;
        let exact = delay::rising_delay(&p, d, RisingInitialVn::Explicit(x)).expect("exact");
        let got = lib.rising_delay(d, x);
        prop_assert!(
            (got - exact).abs() <= tol,
            "Δ = {} ps, X = {} V: |{:e} − {:e}| > {:e}",
            d_ps,
            x,
            got,
            exact,
            tol
        );
        Ok(())
    });
}

#[test]
fn serializer_round_trip_preserves_surfaces_bit_for_bit() {
    let lib = nor_lib();
    let text = lib.to_text();
    let loaded = CharLib::from_text(&text).expect("parse");
    assert_eq!(*lib, loaded, "build → save → load must be the identity");
    assert_eq!(text, loaded.to_text(), "re-serialization must be stable");
    // Bitwise sample identity, slice by slice.
    for (a, b) in lib.rising().slices().iter().zip(loaded.rising().slices()) {
        for (x, y) in a.deltas().iter().zip(b.deltas()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.delays().iter().zip(b.delays()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    // And the loaded library evaluates identically at random points.
    Config::with_cases(64).run(&(-200.0..200.0f64, 0.0..0.8f64), |&(d_ps, x)| {
        let d = ps(d_ps);
        prop_assert!(lib.falling_delay(d, x) == loaded.falling_delay(d, x));
        prop_assert!(lib.rising_delay(d, x) == loaded.rising_delay(d, x));
        Ok(())
    });
}

/// The cursor walk that tabulates the cached channel's uniform tables
/// gives exactly the bits of `DelaySurface::eval` on the sweeps the
/// tabulation makes: grid points, cell midpoints and the ±eps
/// derivative probes, over a grid that overhangs random monotone knots
/// on both sides (so it clamps), and on the knots themselves. A sweep
/// in random order (backward steps re-search) must agree too.
#[test]
fn cursor_walk_equals_eval_bit_for_bit() {
    Config::with_cases(96).run(&(0u64..u64::MAX), |&seed| {
        let mut rng = TestRng::seed_from_u64(seed);
        let knots = 2 + rng.gen_u64_below(60) as usize;
        let mut x = ps(rng.gen_range(-300.0..0.0));
        let (mut deltas, mut delays) = (Vec::new(), Vec::new());
        for _ in 0..knots {
            deltas.push(x);
            x += ps(rng.gen_range(0.01..20.0));
            // Repeated ordinates make flat PCHIP cells.
            let y = if rng.gen_bool(0.2) {
                delays.last().copied().unwrap_or(ps(30.0))
            } else {
                ps(rng.gen_range(20.0..50.0))
            };
            delays.push(y);
        }
        let surface = DelaySurface::from_samples(deltas.clone(), delays).expect("table");
        let (lo, hi) = surface.delta_range();
        let over = 0.1 * (hi - lo);
        let (a, b) = (lo - over, hi + over);
        let n = 2 + rng.gen_u64_below(400) as usize;
        let h = (b - a) / (n - 1) as f64;
        let eps = h * 1e-4;
        let same = |x: f64, got: f64| got.to_bits() == surface.eval(x).to_bits();
        let (mut at, mut below, mut above, mut mid) = (
            surface.walk(),
            surface.walk(),
            surface.walk(),
            surface.walk(),
        );
        for i in 0..n {
            let delta = a + h * i as f64;
            prop_assert!(same(delta, at(delta)), "grid point {}", i);
            prop_assert!(same(delta - eps, below(delta - eps)), "-eps at {}", i);
            prop_assert!(same(delta + eps, above(delta + eps)), "+eps at {}", i);
            let m = a + h * (i as f64 + 0.5);
            prop_assert!(same(m, mid(m)), "midpoint {}", i);
        }
        let mut on_knots = surface.walk();
        for &k in &deltas {
            prop_assert!(same(k, on_knots(k)), "knot {:e}", k);
        }
        let mut shuffled = surface.walk();
        for _ in 0..50 {
            let x = rng.gen_range(a..b);
            prop_assert!(same(x, shuffled(x)), "random-order {:e}", x);
        }
        Ok(())
    });
}
