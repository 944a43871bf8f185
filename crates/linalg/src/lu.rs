use crate::{LinalgError, Matrix};

/// LU decomposition with partial (row) pivoting: `P·A = L·U`.
///
/// The factorization is computed once and can then solve any number of
/// right-hand sides — the access pattern of a Newton iteration in the
/// analog simulator, where the Jacobian is refactored per iteration but
/// solved for a single residual.
///
/// # Examples
///
/// ```
/// use mis_linalg::{LuFactors, Matrix};
///
/// # fn main() -> Result<(), mis_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0, 1.0],
///                             &[4.0, -6.0, 0.0],
///                             &[-2.0, 7.0, 2.0]])?;
/// let lu = LuFactors::new(&a)?;
/// let x = lu.solve(&[5.0, -2.0, 9.0])?;
/// let r = a.matvec(&x)?;
/// assert!((r[0] - 5.0).abs() < 1e-12);
/// assert!((r[1] + 2.0).abs() < 1e-12);
/// assert!((r[2] - 9.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuFactors {
    /// Combined L (below diagonal, unit diagonal implied) and U (on and
    /// above diagonal) in one matrix.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
}

/// Pivot magnitudes below this threshold (relative to the largest entry of
/// the column during pivot search being exactly zero) are treated as
/// singular. MNA matrices of connected circuits are well-conditioned at this
/// scale, so an exact-zero test plus a tiny absolute floor suffices.
const SINGULARITY_FLOOR: f64 = 1e-300;

impl LuFactors {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `a` is not square.
    /// * [`LinalgError::Singular`] if a pivot vanishes (matrix singular to
    ///   working precision).
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Pivot search: largest magnitude in column k at or below row k.
            let mut pivot_row = k;
            let mut pivot_mag = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let mag = lu[(i, k)].abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = i;
                }
            }
            if !(pivot_mag > SINGULARITY_FLOOR) {
                return Err(LinalgError::Singular { pivot: k });
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                perm.swap(k, pivot_row);
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                for j in (k + 1)..n {
                    let ukj = lu[(k, j)];
                    lu[(i, j)] -= factor * ukj;
                }
            }
        }
        Ok(LuFactors { lu, perm })
    }

    /// Dimension of the factored matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` for `x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("rhs of length {n}"),
                found: format!("length {}", b.len()),
            });
        }
        // Apply permutation, then forward substitution (L has unit diagonal).
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut acc = x[i];
            for (j, &xj) in x.iter().enumerate().take(i) {
                acc -= self.lu[(i, j)] * xj;
            }
            x[i] = acc;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                acc -= self.lu[(i, j)] * xj;
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn solve_known_3x3() {
        let a =
            Matrix::from_rows(&[&[2.0, 1.0, 1.0], &[4.0, -6.0, 0.0], &[-2.0, 7.0, 2.0]]).unwrap();
        let lu = LuFactors::new(&a).unwrap();
        let x = lu.solve(&[5.0, -2.0, 9.0]).unwrap();
        // Known solution x = [1, 1, 2].
        assert!(approx_eq(x[0], 1.0, 1e-12));
        assert!(approx_eq(x[1], 1.0, 1e-12));
        assert!(approx_eq(x[2], 2.0, 1e-12));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // Naive elimination without pivoting would divide by zero here.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let lu = LuFactors::new(&a).unwrap();
        let x = lu.solve(&[2.0, 3.0]).unwrap();
        assert!(approx_eq(x[0], 3.0, 1e-14));
        assert!(approx_eq(x[1], 2.0, 1e-14));
    }

    #[test]
    fn singular_matrix_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            LuFactors::new(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            LuFactors::new(&a),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rhs_length_checked() {
        let a = Matrix::identity(3);
        let lu = LuFactors::new(&a).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn solve_near_scaled_rows() {
        // Badly row-scaled but non-singular system; partial pivoting should
        // still produce an accurate answer.
        let a = Matrix::from_rows(&[&[1e-8, 1.0], &[1.0, 1.0]]).unwrap();
        let lu = LuFactors::new(&a).unwrap();
        let x = lu.solve(&[1.0, 2.0]).unwrap();
        let r = a.matvec(&x).unwrap();
        assert!(approx_eq(r[0], 1.0, 1e-10));
        assert!(approx_eq(r[1], 2.0, 1e-10));
    }
}
