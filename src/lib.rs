//! **mis-delay** — a complete Rust reproduction of *"A Simple Hybrid Model
//! for Accurate Delay Modeling of a Multi-Input Gate"* (Ferdowsi, Maier,
//! Öhlinger, Schmid — DATE 2022, arXiv:2111.11182).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`core`] (`mis-core`) — the hybrid four-mode ODE delay model of a
//!   2-input CMOS NOR gate: per-mode analytic solutions, MIS delay
//!   functions, characteristic Charlie delays, parametrization, and the
//!   stateful gate model for event-driven simulation.
//! * [`analog`] (`mis-analog`) — a transistor-level transient simulator
//!   (MNA + Newton, EKV-style devices) serving as the golden reference in
//!   place of the paper's Spectre + FreePDK15 stack.
//! * [`digital`] (`mis-digital`) — an event-driven timing simulator with
//!   pure, inertial, exponential-involution and hybrid two-input channels
//!   (exact and cached), plus the Fig. 7 accuracy experiment.
//! * [`charlib`] (`mis-charlib`) — the gate-characterization layer:
//!   interpolated `δ↓(Δ)`/`δ↑(Δ, V_N)` delay surfaces built once from the
//!   exact model under an error budget, serialized to committable text,
//!   and consumed by `digital`'s cached fast-path channel.
//! * [`sim`] (`mis-sim`) — netlist simulation at circuit scale: ISCAS-85
//!   `.bench` ingestion (committed C17 and C432-scale fixtures under
//!   `data/bench/`), `Arc`-shared standard-cell libraries, the
//!   signal-order evaluator checked bit for bit against `digital`'s
//!   naive `Network::run` reference, and cone-only fault replay.
//! * [`analyze`] (`mis-analyze`) — static netlist analysis: structural
//!   lints over `.bench` netlists (stable `A001`–`A007` diagnostics with
//!   source-line anchors) and static timing bounds — per-signal arrival
//!   windows propagated from each channel's `DelayBounds`, property-
//!   verified sound against the dynamic engine.
//! * [`fault`] (`mis-fault`) — deterministic fault injection over the
//!   `sim` engine: stuck-at and transient-glitch fault sites realized
//!   as trace overlays, golden-run campaigns with per-output detection
//!   and coverage, and a differential fuzz harness cross-checking the
//!   engine, its cone replay and faulted static timing windows.
//! * [`waveform`] (`mis-waveform`) — analog waveforms, digital traces,
//!   digitization, deviation area, random trace generation.
//! * [`num`] (`mis-num`) / [`linalg`] (`mis-linalg`) — the numerical
//!   substrate: exact exponential-sum crossings and the Nelder–Mead fit;
//!   dense LU for the analog simulator;
//!   an RK45 integrator and a 2×2 eigensolver that tests use as
//!   independent oracles for the closed-form trajectories.
//!
//! # Quickstart
//!
//! ```
//! use mis_delay::core::{delay, NorParams};
//! use mis_delay::waveform::units::{ps, to_ps};
//!
//! # fn main() -> Result<(), mis_delay::core::ModelError> {
//! let params = NorParams::paper_table1();
//! let d0 = delay::falling_delay(&params, 0.0)?;           // simultaneous inputs
//! let d_sis = delay::falling_delay(&params, ps(-200.0))?; // single input
//! assert!(d0 < d_sis, "the Charlie effect: MIS speed-up for falling outputs");
//! println!("δ↓(0) = {:.1} ps, δ↓(−∞) = {:.1} ps", to_ps(d0), to_ps(d_sis));
//! # Ok(())
//! # }
//! ```
//!
//! See `DESIGN.md` for the per-crate system inventory and `EXPERIMENTS.md`
//! for the per-figure/table experiment index mapping every paper artifact
//! to its regeneration binary in `crates/bench/src/bin/`. Test and bench
//! infrastructure (PRNG, property harness, micro-bench harness) lives in
//! the workspace-internal `mis-testkit` crate, keeping the build free of
//! external dependencies.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use mis_analog as analog;
pub use mis_analyze as analyze;
pub use mis_charlib as charlib;
pub use mis_core as core;
pub use mis_digital as digital;
pub use mis_fault as fault;
pub use mis_linalg as linalg;
pub use mis_num as num;
pub use mis_probe as probe;
pub use mis_sim as sim;
pub use mis_waveform as waveform;
