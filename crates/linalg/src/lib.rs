//! Small dense linear algebra for circuit-scale systems.
//!
//! This crate provides exactly the linear-algebra machinery the rest of the
//! workspace needs and nothing more:
//!
//! * [`Matrix`] — a dense, row-major, heap-allocated `f64` matrix with
//!   indexing and a matrix–vector product, built for the *tiny* systems
//!   that arise in circuit simulation (a handful of nodes in modified nodal
//!   analysis).
//! * [`LuFactors`] — LU decomposition with partial pivoting, used to solve
//!   the Newton update equations of the analog simulator.
//! * [`Eigen2`] — closed-form eigendecomposition of 2×2 matrices, the
//!   independent solver that `mis-core`'s tests check the analytic
//!   per-mode solutions of the hybrid NOR model against (paper eqs.
//!   (1)–(7)).
//!
//! # Examples
//!
//! Solving a small linear system:
//!
//! ```
//! use mis_linalg::{Matrix, LuFactors};
//!
//! # fn main() -> Result<(), mis_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let lu = LuFactors::new(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod eigen2;
mod error;
mod lu;
mod matrix;

pub use eigen2::{Eigen2, Eigenvalues2};
pub use error::LinalgError;
pub use lu::LuFactors;
pub use matrix::Matrix;

/// Returns `true` when `a` and `b` agree within an absolute *and* relative
/// tolerance of `tol`.
///
/// The comparison used throughout the workspace's numerical tests:
/// `|a - b| <= tol * max(1, |a|, |b|)`.
///
/// # Examples
///
/// ```
/// assert!(mis_linalg::approx_eq(1.0, 1.0 + 1e-13, 1e-12));
/// assert!(!mis_linalg::approx_eq(1.0, 1.1, 1e-12));
/// ```
#[must_use]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let scale = 1.0_f64.max(a.abs()).max(b.abs());
    (a - b).abs() <= tol * scale
}
