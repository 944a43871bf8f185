use crate::LinalgError;

/// Eigenvalues of a real 2×2 matrix, classified by discriminant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Eigenvalues2 {
    /// Two distinct real eigenvalues, ordered `l1 >= l2`.
    RealDistinct {
        /// Larger eigenvalue.
        l1: f64,
        /// Smaller eigenvalue.
        l2: f64,
    },
    /// A repeated real eigenvalue (matrix may or may not be diagonalizable).
    RealRepeated {
        /// The doubled eigenvalue.
        l: f64,
    },
    /// A complex-conjugate pair `re ± i·im` with `im > 0`.
    ComplexPair {
        /// Real part.
        re: f64,
        /// Imaginary part (positive).
        im: f64,
    },
}

/// Closed-form eigendecomposition of a real 2×2 matrix, with a general
/// solver for the affine ODE system `x'(t) = A·x(t) + g`.
///
/// The four operating modes of the hybrid NOR model are all of this form
/// with real, distinct, non-positive eigenvalues (over-damped RC networks).
/// `mis-core` implements the paper's explicit formulas; this type provides
/// the *independent* generic solution used to cross-validate them.
///
/// # Examples
///
/// Solving `x' = A x` for a diagonal decay matrix:
///
/// ```
/// use mis_linalg::Eigen2;
///
/// # fn main() -> Result<(), mis_linalg::LinalgError> {
/// let sys = Eigen2::new([[-1.0, 0.0], [0.0, -2.0]]);
/// let sol = sys.solve_affine([1.0, 1.0], [0.0, 0.0])?;
/// let x = sol.eval(1.0);
/// assert!((x[0] - (-1.0f64).exp()).abs() < 1e-12);
/// assert!((x[1] - (-2.0f64).exp()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Eigen2 {
    a: [[f64; 2]; 2],
    eigenvalues: Eigenvalues2,
}

impl Eigen2 {
    /// Computes the eigendecomposition of `a` (row-major `[[a11,a12],[a21,a22]]`).
    #[must_use]
    pub fn new(a: [[f64; 2]; 2]) -> Self {
        let tr = a[0][0] + a[1][1];
        let det = a[0][0] * a[1][1] - a[0][1] * a[1][0];
        let disc = tr * tr / 4.0 - det;
        // Classification threshold: scale-aware so that nearly-defective
        // matrices are reported as repeated rather than producing wildly
        // ill-conditioned eigenvectors.
        let scale = tr.abs().max(det.abs().sqrt()).max(1e-300);
        let eigenvalues = if disc > (1e-14 * scale) * (1e-14 * scale) {
            let root = disc.sqrt();
            Eigenvalues2::RealDistinct {
                l1: tr / 2.0 + root,
                l2: tr / 2.0 - root,
            }
        } else if disc < -(1e-14 * scale) * (1e-14 * scale) {
            Eigenvalues2::ComplexPair {
                re: tr / 2.0,
                im: (-disc).sqrt(),
            }
        } else {
            Eigenvalues2::RealRepeated { l: tr / 2.0 }
        };
        Eigen2 { a, eigenvalues }
    }

    /// The classified eigenvalues.
    #[must_use]
    pub fn eigenvalues(&self) -> Eigenvalues2 {
        self.eigenvalues
    }

    /// An eigenvector for the real eigenvalue `l` (not normalized; the
    /// larger of the two candidate null-space rows is used for stability).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] when `l` is not (numerically)
    /// an eigenvalue of the matrix.
    pub fn eigenvector(&self, l: f64) -> Result<[f64; 2], LinalgError> {
        // (A - l I) v = 0. Two candidate constructions from the two rows;
        // pick whichever row of A - lI is larger in magnitude.
        let b = [
            [self.a[0][0] - l, self.a[0][1]],
            [self.a[1][0], self.a[1][1] - l],
        ];
        let row0_mag = b[0][0].abs() + b[0][1].abs();
        let row1_mag = b[1][0].abs() + b[1][1].abs();
        let v = if row0_mag >= row1_mag {
            // b00 v0 + b01 v1 = 0 -> v = (b01, -b00) (or anything if row is 0)
            [b[0][1], -b[0][0]]
        } else {
            [b[1][1], -b[1][0]]
        };
        let mag = v[0].abs() + v[1].abs();
        if mag == 0.0 {
            // A == l I: every vector is an eigenvector.
            return Ok([1.0, 0.0]);
        }
        // Verify: residual of A v - l v must be small relative to |A| |v|.
        let r0 = self.a[0][0] * v[0] + self.a[0][1] * v[1] - l * v[0];
        let r1 = self.a[1][0] * v[0] + self.a[1][1] * v[1] - l * v[1];
        let a_mag = self
            .a
            .iter()
            .flatten()
            .fold(l.abs(), |m, x| m.max(x.abs()))
            .max(1e-300);
        if (r0.abs() + r1.abs()) > 1e-8 * a_mag * mag {
            return Err(LinalgError::InvalidShape {
                reason: format!("{l} is not an eigenvalue of the matrix"),
            });
        }
        Ok(v)
    }

    /// Solves the affine system `x' = A·x + g` with initial value `x0`,
    /// returning a closed-form trajectory.
    ///
    /// Zero eigenvalues are supported (they contribute secular `g∥·t` terms
    /// along their eigendirection), which is exactly the structure of the
    /// NOR gate's `(1,1)` mode where the internal node floats.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] if the matrix has complex or
    /// repeated eigenvalues (never the case for the over-damped RC modes
    /// this workspace builds; the error keeps the API honest).
    pub fn solve_affine(&self, x0: [f64; 2], g: [f64; 2]) -> Result<AffineSolution2, LinalgError> {
        let (l1, l2) = match self.eigenvalues {
            Eigenvalues2::RealDistinct { l1, l2 } => (l1, l2),
            Eigenvalues2::RealRepeated { l } => {
                // Diagonalizable only if A == l I.
                let off = self.a[0][1].abs() + self.a[1][0].abs();
                let diag = (self.a[0][0] - l).abs() + (self.a[1][1] - l).abs();
                if off + diag > 1e-12 * (1.0 + l.abs()) {
                    return Err(LinalgError::InvalidShape {
                        reason: "matrix has a defective repeated eigenvalue".into(),
                    });
                }
                (l, l)
            }
            Eigenvalues2::ComplexPair { .. } => {
                return Err(LinalgError::InvalidShape {
                    reason: "matrix has complex eigenvalues (under-damped system)".into(),
                });
            }
        };
        let v1 = self.eigenvector(l1)?;
        let v2 = if l1 == l2 {
            // A == l I case: any independent pair.
            [0.0, 1.0]
        } else {
            self.eigenvector(l2)?
        };
        // Decompose x0 and g in the eigenbasis: solve [v1 v2] c = x0.
        let det = v1[0] * v2[1] - v2[0] * v1[1];
        if det.abs() < 1e-14 * (v1[0].abs() + v1[1].abs()) * (v2[0].abs() + v2[1].abs()) {
            return Err(LinalgError::InvalidShape {
                reason: "eigenvectors are numerically dependent".into(),
            });
        }
        let solve2 = |b: [f64; 2]| -> [f64; 2] {
            [
                (b[0] * v2[1] - v2[0] * b[1]) / det,
                (v1[0] * b[1] - b[0] * v1[1]) / det,
            ]
        };
        let c = solve2(x0);
        let gc = solve2(g);
        Ok(AffineSolution2 {
            modes: [
                AffineMode::new(l1, v1, c[0], gc[0]),
                AffineMode::new(l2, v2, c[1], gc[1]),
            ],
        })
    }
}

/// One eigen-direction's contribution to an [`AffineSolution2`].
#[derive(Debug, Clone, Copy)]
struct AffineMode {
    lambda: f64,
    v: [f64; 2],
    /// Homogeneous coefficient (adjusted so that eval(0) matches x0).
    c: f64,
    /// Component of g along this eigendirection.
    g: f64,
}

impl AffineMode {
    fn new(lambda: f64, v: [f64; 2], c0: f64, g: f64) -> Self {
        if lambda == 0.0 {
            // x_i(t) = c0 + g t
            AffineMode {
                lambda,
                v,
                c: c0,
                g,
            }
        } else {
            // x_i(t) = (c0 + g/λ) e^{λt} − g/λ
            AffineMode {
                lambda,
                v,
                c: c0 + g / lambda,
                g,
            }
        }
    }

    fn coord(&self, t: f64) -> f64 {
        if self.lambda == 0.0 {
            self.c + self.g * t
        } else {
            self.c * (self.lambda * t).exp() - self.g / self.lambda
        }
    }

    fn coord_dot(&self, t: f64) -> f64 {
        if self.lambda == 0.0 {
            self.g
        } else {
            self.c * self.lambda * (self.lambda * t).exp()
        }
    }
}

/// Closed-form solution of `x' = A·x + g`, produced by
/// [`Eigen2::solve_affine`].
#[derive(Debug, Clone, Copy)]
pub struct AffineSolution2 {
    modes: [AffineMode; 2],
}

impl AffineSolution2 {
    /// State at time `t` (time is relative to the initial value, i.e.
    /// `eval(0.0)` returns `x0`).
    #[must_use]
    pub fn eval(&self, t: f64) -> [f64; 2] {
        let a = self.modes[0].coord(t);
        let b = self.modes[1].coord(t);
        [
            a * self.modes[0].v[0] + b * self.modes[1].v[0],
            a * self.modes[0].v[1] + b * self.modes[1].v[1],
        ]
    }

    /// Time derivative of the state at time `t`.
    #[must_use]
    pub fn derivative(&self, t: f64) -> [f64; 2] {
        let a = self.modes[0].coord_dot(t);
        let b = self.modes[1].coord_dot(t);
        [
            a * self.modes[0].v[0] + b * self.modes[1].v[0],
            a * self.modes[0].v[1] + b * self.modes[1].v[1],
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn classifies_real_distinct() {
        let e = Eigen2::new([[-1.0, 0.0], [0.0, -3.0]]);
        match e.eigenvalues() {
            Eigenvalues2::RealDistinct { l1, l2 } => {
                assert!(approx_eq(l1, -1.0, 1e-14));
                assert!(approx_eq(l2, -3.0, 1e-14));
            }
            other => panic!("expected real distinct, got {other:?}"),
        }
    }

    #[test]
    fn classifies_complex() {
        // Rotation generator: eigenvalues ±i.
        let e = Eigen2::new([[0.0, -1.0], [1.0, 0.0]]);
        match e.eigenvalues() {
            Eigenvalues2::ComplexPair { re, im } => {
                assert!(approx_eq(re, 0.0, 1e-14));
                assert!(approx_eq(im, 1.0, 1e-14));
            }
            other => panic!("expected complex, got {other:?}"),
        }
    }

    #[test]
    fn classifies_repeated() {
        let e = Eigen2::new([[2.0, 0.0], [0.0, 2.0]]);
        assert!(matches!(e.eigenvalues(), Eigenvalues2::RealRepeated { .. }));
    }

    #[test]
    fn eigenvector_satisfies_definition() {
        let a = [[1.0, 2.0], [3.0, 0.0]];
        let e = Eigen2::new(a);
        if let Eigenvalues2::RealDistinct { l1, l2 } = e.eigenvalues() {
            for l in [l1, l2] {
                let v = e.eigenvector(l).unwrap();
                let av = [
                    a[0][0] * v[0] + a[0][1] * v[1],
                    a[1][0] * v[0] + a[1][1] * v[1],
                ];
                assert!(approx_eq(av[0], l * v[0], 1e-10));
                assert!(approx_eq(av[1], l * v[1], 1e-10));
            }
        } else {
            panic!("expected real distinct eigenvalues");
        }
    }

    #[test]
    fn eigenvector_rejects_non_eigenvalue() {
        let e = Eigen2::new([[1.0, 2.0], [3.0, 0.0]]);
        assert!(e.eigenvector(100.0).is_err());
    }

    #[test]
    fn affine_solution_matches_initial_value() {
        let e = Eigen2::new([[-2.0, 1.0], [1.0, -3.0]]);
        let sol = e.solve_affine([0.7, -0.2], [0.5, 0.0]).unwrap();
        let x = sol.eval(0.0);
        assert!(approx_eq(x[0], 0.7, 1e-12));
        assert!(approx_eq(x[1], -0.2, 1e-12));
    }

    #[test]
    fn affine_solution_satisfies_ode() {
        // Check x'(t) == A x(t) + g at several times.
        let a = [[-2.0, 1.0], [1.0, -3.0]];
        let g = [0.5, -0.1];
        let sol = Eigen2::new(a).solve_affine([1.0, 0.0], g).unwrap();
        for &t in &[0.0, 0.1, 0.5, 2.0] {
            let x = sol.eval(t);
            let xd = sol.derivative(t);
            let rhs = [
                a[0][0] * x[0] + a[0][1] * x[1] + g[0],
                a[1][0] * x[0] + a[1][1] * x[1] + g[1],
            ];
            assert!(approx_eq(xd[0], rhs[0], 1e-10), "t={t}");
            assert!(approx_eq(xd[1], rhs[1], 1e-10), "t={t}");
        }
    }

    #[test]
    fn affine_solution_with_zero_eigenvalue() {
        // Mode (1,1) of the NOR gate: V_N floats (zero eigenvalue), V_O
        // decays. A = [[0,0],[0,-k]], g = 0.
        let k = 4.0;
        let sol = Eigen2::new([[0.0, 0.0], [0.0, -k]])
            .solve_affine([0.8, 0.8], [0.0, 0.0])
            .unwrap();
        let x = sol.eval(0.25);
        assert!(approx_eq(x[0], 0.8, 1e-12), "floating node keeps value");
        assert!(approx_eq(x[1], 0.8 * (-1.0f64).exp(), 1e-12));
    }

    #[test]
    fn affine_solution_with_zero_eigenvalue_and_drive() {
        // x' = 0·x + g along a floating direction integrates linearly.
        let sol = Eigen2::new([[0.0, 0.0], [0.0, -1.0]])
            .solve_affine([0.0, 0.0], [2.0, 0.0])
            .unwrap();
        let x = sol.eval(3.0);
        assert!(approx_eq(x[0], 6.0, 1e-12));
    }

    #[test]
    fn affine_rejects_complex() {
        let e = Eigen2::new([[0.0, -1.0], [1.0, 0.0]]);
        assert!(e.solve_affine([1.0, 0.0], [0.0, 0.0]).is_err());
    }

    #[test]
    fn affine_handles_scalar_matrix() {
        let sol = Eigen2::new([[-1.0, 0.0], [0.0, -1.0]])
            .solve_affine([2.0, 3.0], [0.0, 0.0])
            .unwrap();
        let x = sol.eval(1.0);
        let decay = (-1.0f64).exp();
        assert!(approx_eq(x[0], 2.0 * decay, 1e-12));
        assert!(approx_eq(x[1], 3.0 * decay, 1e-12));
    }

    #[test]
    fn affine_rejects_defective() {
        // Jordan block: repeated eigenvalue, not diagonalizable.
        let e = Eigen2::new([[1.0, 1.0], [0.0, 1.0]]);
        assert!(e.solve_affine([1.0, 0.0], [0.0, 0.0]).is_err());
    }

    #[test]
    fn steady_state_reached() {
        // x' = A(x - x*) form: steady state x* = -A^{-1} g.
        let a = [[-2.0, 1.0], [1.0, -3.0]];
        let g = [1.0, 2.0];
        let sol = Eigen2::new(a).solve_affine([0.0, 0.0], g).unwrap();
        let x = sol.eval(100.0);
        // Solve A x* = -g by hand: det = 5, x* = (1/5)[3·1+1·2, 1·1+2·2]
        assert!(approx_eq(x[0], 1.0, 1e-9));
        assert!(approx_eq(x[1], 1.0, 1e-9));
    }
}
