//! **mis-sim** — netlist timing simulation over real circuits: the
//! layer that takes the workspace from "one gate, one channel" to "a
//! whole ISCAS benchmark through one engine".
//!
//! The paper validates its hybrid channel *inside* a timing simulator,
//! where shared scheduling overhead — not per-channel kernel cost —
//! dominates; the follow-up paper (Ferdowsi et al., 2024) evaluates on
//! interconnected circuits outright. This crate supplies that missing
//! granularity in four pieces:
//!
//! * [`mod@bench`] — an ISCAS-85 `.bench` parser/writer and its lowering
//!   onto the [`mis_digital::Network`] builder (topological ordering of
//!   forward references, balanced zero-time reduction of wide fan-ins,
//!   one timed cell per `.bench` gate). Committed fixtures for C17 and
//!   the C432- and C880-scale circuits live under `data/bench/`.
//! * [`cells`] — [`CellLibrary`], the standard-cell view of the delay
//!   models: one `Arc`-shared cached-hybrid table set per cell type
//!   (NAND through the free view-inversion duality) plus an inertial
//!   fallback for the non-hybrid gate kinds.
//! * [`engine`] — [`Simulator`], the serial evaluator: every gate once,
//!   in signal order (a topological order, since the network builder
//!   enforces reference-before-use), through fused in-place arena
//!   kernels — allocation-free on a warm arena, and bit-identical to the
//!   owned-trace `Network::run` reference, which shares none of them.
//! * [`cone`] — [`ConeReplay`], fault replay that re-evaluates only the
//!   gates a fault perturbs, seeded from a recorded [`GoldenRun`] and
//!   stopping wherever a re-evaluated trace equals golden —
//!   bit-identical to a full [`Simulator`] replay under the same
//!   overlay. A [`ConeMemo`] lets the replays of one campaign splice
//!   in each other's recorded stuck-at replays.
//!
//! Two cross-cutting controls thread through both evaluators:
//! [`mod@budget`] bounds a run (edges, deadline) with a graceful
//! [`mis_digital::SimError::BudgetExceeded`] instead of unbounded work,
//! and [`mod@overlay`] rewrites a signal's trace before it is sealed —
//! the injection point the `mis-fault` campaigns build on. Parallelism
//! lives one layer up, across runs: the campaigns spread faults over
//! worker threads.
//!
//! # Examples
//!
//! ```
//! use mis_sim::{BenchNetlist, CellLibrary, Simulator};
//! use mis_waveform::{units::ps, DigitalTrace, TraceArena};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nl = BenchNetlist::parse(
//!     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOR(a, b)",
//! )?;
//! let lowered = nl.lower(&CellLibrary::ideal())?;
//! let mut sim = Simulator::new(&lowered.net)?;
//! let mut arena = TraceArena::new();
//! let a = DigitalTrace::with_edges(false, vec![(ps(100.0), true)])?;
//! let b = DigitalTrace::constant(false);
//! sim.run_in(&[a, b], &mut arena)?;
//! let y = sim.trace(&arena, lowered.outputs[0]);
//! assert!(y.initial_value());
//! assert_eq!(y.times(), &[ps(100.0)]);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench;
pub mod budget;
pub mod cells;
pub mod cone;
pub mod engine;
mod error;
mod kernel;
pub mod overlay;
pub mod probe;

pub use bench::{BenchFunc, BenchNetlist, LoweredNetlist, LoweredStats};
pub use budget::RunBudget;
pub use cells::CellLibrary;
pub use cone::{ConeMemo, ConeReplay, GoldenRun};
pub use engine::Simulator;
pub use error::BenchError;
pub use kernel::ENGINE_INDEX_MAX;
pub use overlay::TraceOverlay;
pub use probe::{SimCounters, SimTracer};
