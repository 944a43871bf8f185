//! **mis-sim** — event-driven netlist simulation over real circuits: the
//! layer that takes the workspace from "one gate, one channel" to "a
//! whole ISCAS benchmark through one engine".
//!
//! The paper validates its hybrid channel *inside* a timing simulator,
//! where shared event-queue overhead — not per-channel kernel cost —
//! dominates; the follow-up paper (Ferdowsi et al., 2024) evaluates on
//! interconnected circuits outright. This crate supplies that missing
//! granularity in four pieces:
//!
//! * [`mod@bench`] — an ISCAS-85 `.bench` parser/writer and its lowering
//!   onto the [`mis_digital::Network`] builder (topological ordering of
//!   forward references, balanced zero-time reduction of wide fan-ins,
//!   one timed cell per `.bench` gate). Committed fixtures for C17 and
//!   a C432-scale circuit live under `data/bench/`.
//! * [`cells`] — [`CellLibrary`], the standard-cell view of the delay
//!   models: one `Arc`-shared cached-hybrid table set per cell type
//!   (NAND through the free view-inversion duality) plus an inertial
//!   fallback for the non-hybrid gate kinds.
//! * [`engine`] — [`Simulator`], the event-queue evaluator: dependency
//!   counting plus a time-ordered ready queue over the same fused
//!   arena kernels as `Network::run_in`, bit-identical to the levelized
//!   sweep and allocation-free on a warm arena.
//! * [`parallel`] — [`ParallelSimulator`], per-cone evaluation on a
//!   scoped `std::thread` worker pool: sink fan-in cones packed onto
//!   workers that each own their [`mis_waveform::TraceArena`], merged
//!   deterministically by signal index — bit-identical to the serial
//!   engines at every worker count.
//! * [`wavefront`] — [`WavefrontSimulator`], level-sliced wavefront
//!   evaluation: topological fronts split into disjoint per-worker
//!   chunks (exactly-once, replication 1.0 by construction) with a
//!   per-level merge barrier and a hybrid serial tail for narrow
//!   fronts — bit-identical to the serial engine at every worker
//!   count and cutover.
//! * [`cone`] — [`ConeReplay`], fault replay that re-evaluates only the
//!   gates a fault perturbs, seeded from a recorded [`GoldenRun`] and
//!   stopping wherever a re-evaluated trace equals golden —
//!   bit-identical to a full [`Simulator`] replay under the same
//!   overlay.
//!
//! Two cross-cutting controls thread through both engines:
//! [`mod@budget`] bounds a run (events, edges, deadline) with a graceful
//! [`mis_digital::SimError::BudgetExceeded`] instead of unbounded work,
//! and [`mod@overlay`] rewrites sealed traces mid-run — the injection
//! point the `mis-fault` campaigns build on.
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
pub mod parallel;
pub mod probe;
pub mod wavefront;

pub use bench::{BenchFunc, BenchGate, BenchNetlist, LoweredNetlist, LoweredStats};
pub use budget::RunBudget;
pub use cells::CellLibrary;
pub use cone::{ConeReplay, GoldenRun};
pub use engine::Simulator;
pub use error::BenchError;
pub use kernel::ENGINE_INDEX_MAX;
pub use overlay::TraceOverlay;
pub use parallel::ParallelSimulator;
pub use probe::{SimCounters, SimTracer};
pub use wavefront::WavefrontSimulator;
