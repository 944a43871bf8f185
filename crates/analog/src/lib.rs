//! A small transistor-level transient simulator — the workspace's stand-in
//! for the paper's golden reference (Cadence Spectre 19.1 with the Nangate
//! 15 nm FreePDK15 FinFET library).
//!
//! # Why this exists
//!
//! The paper fits and judges its hybrid delay model against SPICE
//! simulations of a parasitic-annotated CMOS NOR gate. That reference stack
//! is proprietary, so this crate rebuilds the part that matters: a
//! nonlinear transient simulator over the *same circuit topology* —
//! series pMOS stack with internal node `N`, parallel nMOS pull-downs,
//! explicit node capacitances, and the gate–drain/gate–source coupling
//! capacitances whose charge feed-through causes the rising-output MIS
//! slow-down the paper analyzes (Section II).
//!
//! # Architecture
//!
//! * [`Circuit`] — nodes (free or driven by PWL sources) plus devices
//!   ([`Device`]: resistors, capacitors, MOSFETs).
//! * [`MosParams`] — a smooth EKV-style compact model (symmetric
//!   forward/reverse channel, continuous from sub-threshold to strong
//!   inversion) with analytic derivatives for Newton.
//! * [`transient`] — nodal analysis with trapezoidal companion models
//!   (a backward-Euler step after each breakpoint), full Newton with
//!   voltage-step damping, breakpoint-aware adaptive time stepping, at
//!   one fixed solver setting.
//! * [`nor`] — the parameterized NOR gate netlist ([`NorTech`]) calibrated
//!   to FreePDK15-like magnitudes (`V_DD = 0.8 V`, ps-scale delays,
//!   aF-scale capacitances).
//! * [`measure`] — delay extraction and `Δ`-sweeps producing the paper's
//!   Fig. 2 curves and the characteristic delays that drive fitting.
//!
//! # Examples
//!
//! An RC low-pass step response, validated against the closed form:
//!
//! ```
//! use mis_analog::{Circuit, Device, transient::simulate};
//! use mis_waveform::AnalogWaveform;
//!
//! # fn main() -> Result<(), mis_analog::AnalogError> {
//! let mut c = Circuit::new();
//! let vin = c.add_driven_node("in", AnalogWaveform::from_samples(
//!     vec![0.0, 1e-12, 1.001e-12, 1e-9], vec![0.0, 0.0, 1.0, 1.0]).unwrap())?;
//! let out = c.add_free_node("out");
//! c.add_device(Device::resistor(vin, out, 1.0e3))?;
//! c.add_device(Device::capacitor(out, Circuit::GROUND, 1.0e-15))?;
//! let result = simulate(&c, 1e-9)?;
//! let w = result.waveform(out)?;
//! // After 5 RC (= 5 ps) the output is within 1 % of the rail.
//! assert!(w.value_at(1e-12 + 5.0e-12) > 0.99 - 0.01);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod circuit;
mod error;
pub mod measure;
mod mosfet;
pub mod nor;
pub mod transient;

pub use circuit::{Circuit, Device, NodeId};
pub use error::AnalogError;
pub use mosfet::{mosfet_calibrated, MosParams, MosPolarity};
pub use nor::NorTech;
