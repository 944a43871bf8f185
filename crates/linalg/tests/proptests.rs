//! Property-based tests for the dense linear algebra kernels, on the
//! in-repo `mis-testkit` harness (offline replacement for `proptest`).

use mis_linalg::{approx_eq, Eigen2, Eigenvalues2, LuFactors, Matrix};
use mis_testkit::prelude::*;

/// Strategy: entries bounded away from pathological magnitudes.
fn entry() -> impl Strategy<Value = f64> {
    oneof(vec![(-10.0..10.0f64).boxed(), (-0.1..0.1f64).boxed()])
}

/// A random square matrix with a diagonal boost that keeps it comfortably
/// non-singular (diagonally dominant), matching the character of MNA
/// matrices from connected circuits.
fn well_conditioned(n: usize) -> impl Strategy<Value = Matrix> {
    vec(entry(), n * n).prop_map(move |vals| {
        let mut m = Matrix::from_fn(n, n, |i, j| vals[i * n + j]);
        for i in 0..n {
            let row_sum: f64 = (0..n).map(|j| m[(i, j)].abs()).sum();
            m[(i, i)] += row_sum + 1.0;
        }
        m
    })
}

#[test]
fn lu_solve_produces_valid_solution() {
    Config::default().run(&(well_conditioned(4), vec(-5.0..5.0f64, 4)), |(a, b)| {
        let lu = LuFactors::new(a).unwrap();
        let x = lu.solve(b).unwrap();
        let r = a.matvec(&x).unwrap();
        for i in 0..4 {
            prop_assert!(
                approx_eq(r[i], b[i], 1e-8),
                "residual at {}: {} vs {}",
                i,
                r[i],
                b[i]
            );
        }
        Ok(())
    });
}

#[test]
fn eigen2_trace_and_det_invariants() {
    Config::default().run(
        &(entry(), entry(), entry(), entry()),
        |&(a11, a12, a21, a22)| {
            let e = Eigen2::new([[a11, a12], [a21, a22]]);
            let tr = a11 + a22;
            let det = a11 * a22 - a12 * a21;
            match e.eigenvalues() {
                Eigenvalues2::RealDistinct { l1, l2 } => {
                    prop_assert!(approx_eq(l1 + l2, tr, 1e-9));
                    prop_assert!(approx_eq(l1 * l2, det, 1e-8));
                }
                Eigenvalues2::RealRepeated { l } => {
                    prop_assert!(approx_eq(2.0 * l, tr, 1e-9));
                }
                Eigenvalues2::ComplexPair { re, im } => {
                    prop_assert!(approx_eq(2.0 * re, tr, 1e-9));
                    prop_assert!(approx_eq(re * re + im * im, det, 1e-8));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn affine_solution_satisfies_ode_everywhere() {
    // Build an over-damped (real-eigenvalue) matrix the way RC circuits
    // do: negative diagonal dominance with positive coupling.
    Config::default().run(
        &(
            0.5..5.0f64,  // d1
            0.5..5.0f64,  // d2
            0.0..0.4f64,  // c
            -1.0..1.0f64, // x0a
            -1.0..1.0f64, // x0b
            -2.0..2.0f64, // g0
            0.0..3.0f64,  // t
        ),
        |&(d1, d2, c, x0a, x0b, g0, t)| {
            let a = [[-d1, c * d1.min(d2)], [c * d1.min(d2), -d2]];
            let e = Eigen2::new(a);
            prop_assume!(matches!(e.eigenvalues(), Eigenvalues2::RealDistinct { .. }));
            let sol = e.solve_affine([x0a, x0b], [g0, 0.0]).unwrap();
            let x = sol.eval(t);
            let xd = sol.derivative(t);
            let rhs = [
                a[0][0] * x[0] + a[0][1] * x[1] + g0,
                a[1][0] * x[0] + a[1][1] * x[1],
            ];
            prop_assert!(approx_eq(xd[0], rhs[0], 1e-7));
            prop_assert!(approx_eq(xd[1], rhs[1], 1e-7));
            Ok(())
        },
    );
}
