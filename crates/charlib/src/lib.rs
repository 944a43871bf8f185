//! **mis-charlib** — gate characterization for the hybrid delay model: a
//! lookup layer between the exact analytic model (`mis-core`) and the
//! event-driven simulator (`mis-digital`).
//!
//! The paper's hybrid channel re-solves the two-exponential delay
//! equation on every input event, which makes it an order of magnitude
//! slower than trivial channels at circuit scale. Industrial timing flows
//! avoid exactly this by *characterizing* each gate once into lookup
//! tables. This crate does the same for the MIS delay functions:
//!
//! 1. [`CharLib::nor`] sweeps the 2-input NOR's `δ↓(Δ)` /
//!    `δ↑(Δ)` curves with the exact `mis-core` solvers over an adaptively
//!    refined Δ grid ([`CharConfig::budget`] caps the interpolation
//!    error, [`build`] clusters grid points around the `Δ ≈ 0` kink);
//! 2. the resulting [`DelaySurface`] tables reconstruct delays with a
//!    *monotone* cubic (never undershooting the physical minimum delay)
//!    and clamp to the saturated SIS limits outside the grid; the
//!    state-dependent side (frozen internal-node voltage) is a
//!    [`SurfaceFamily`] interpolated across voltage slices;
//! 3. [`CharLib::to_text`] / [`CharLib::from_text`] serialize a
//!    characterized library to a diffable text form that reloads
//!    bit-identically, so libraries can be committed and reused without
//!    re-sweeping.
//!
//! `mis-digital`'s `CachedHybridChannel` consumes these tables to get
//! hybrid-model accuracy at near-inertial event cost. Only the NOR is
//! characterized: a NAND cell is the NOR channel under the exact
//! duality `NAND(a, b) = ¬NOR(¬a, ¬b)` (`mis_digital::NandChannel`),
//! on the same tables.
//!
//! # Examples
//!
//! ```
//! use mis_charlib::{CharConfig, CharLib};
//! use mis_core::{delay, NorParams};
//! use mis_waveform::units::ps;
//!
//! # fn main() -> Result<(), mis_charlib::CharError> {
//! let params = NorParams::paper_table1();
//! let cfg = CharConfig {
//!     delta_lo: ps(-80.0),
//!     delta_hi: ps(80.0),
//!     initial_points: 9,
//!     budget: ps(0.25),
//!     ..CharConfig::default()
//! };
//! let lib = CharLib::nor(&params, &cfg)?;
//! let exact = delay::falling_delay(&params, ps(12.5)).unwrap();
//! let fast = lib.falling_delay(ps(12.5), 0.0);
//! assert!((fast - exact).abs() <= cfg.budget);
//!
//! // Commit the characterized library, reload it elsewhere:
//! let reloaded = CharLib::from_text(&lib.to_text())?;
//! assert_eq!(reloaded, lib);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod build;
mod error;
mod surface;
mod textio;

pub use build::{CharConfig, CharLib, ResampleCounts};
pub use error::CharError;
pub use surface::{DelaySurface, SurfaceFamily};
