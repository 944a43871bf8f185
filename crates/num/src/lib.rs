//! Numerics substrate for the mis-delay workspace.
//!
//! The paper's workflow leans on numerical capabilities that its authors
//! obtained from MATLAB and hand analysis; this crate provides them from
//! scratch:
//!
//! * **Root finding** ([`exproots`]) — exact threshold-crossing times of
//!   two-exponential sums, the form of every per-mode output trajectory.
//! * **Minimization** ([`minimize`]) — the Nelder–Mead simplex that fits
//!   the model parameters of Section V.
//! * **ODE integration** ([`ode`]) — an adaptive Dormand–Prince RK45
//!   integrator used only to *validate* the analytic per-mode solutions of
//!   the hybrid model.
//!
//! Plus the interpolation helpers ([`interp`]) shared by the waveform
//! tooling.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod error;
pub mod exproots;
pub mod interp;
pub mod minimize;
pub mod ode;

pub use error::NumError;
