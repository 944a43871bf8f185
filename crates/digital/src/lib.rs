//! Event-driven digital timing simulation with pluggable delay channels —
//! the workspace's stand-in for the Involution Tool (Öhlinger et al.,
//! *Integration* 2021), which the paper extends with its hybrid channel.
//!
//! # Architecture
//!
//! The unit of computation is the *trace transform*: a delay channel maps
//! an input [`mis_waveform::DigitalTrace`] to an output trace. Channels:
//!
//! * [`PureDelayChannel`] — constant delay, no filtering.
//! * [`InertialChannel`] — constant delay plus removal of pulses shorter
//!   than a rejection window (the classic inertial model).
//! * [`ExpChannel`] — the IDM's exponential involution channel:
//!   `δ(T) = δ_p + τ·ln(2 − e^{−(T+δ_p)/τ})`, an exact involution
//!   (`−δ(−δ(T)) = T`), with the standard IDM cancellation rule.
//! * [`HybridNorChannel`] — the paper's contribution as a *two-input*
//!   channel: wraps the continuous-state [`mis_core::channel::NorGateModel`]
//!   and defers input events by the pure delay `δ_min`.
//! * [`CachedHybridChannel`] — the characterized fast path of the hybrid
//!   model: schedules transitions from `mis-charlib` delay surfaces
//!   (one table lookup per event) instead of re-solving the delay
//!   equation, at near-inertial cost.
//! * [`NandChannel`] — the 2-input NAND over any of the two NOR channels
//!   above, through the exact duality `NAND(a, b) = ¬NOR(¬a, ¬b)`; the
//!   only NAND timing in the workspace.
//!
//! [`Network`] composes zero-time Boolean gates with channels into
//! feed-forward circuits; [`accuracy`] implements the paper's Fig. 7
//! deviation-area experiment end to end.
//!
//! # Two paths per channel: owned and in place
//!
//! Every channel trait carries exactly one in-place entry
//! ([`TraceTransform::apply_into`] / [`TwoInputTransform::apply2_into`])
//! over borrowed structure-of-arrays views, next to the owned
//! [`TraceTransform::apply`] / [`TwoInputTransform::apply2`]. The
//! in-place kernels, with [`gates::combine2_into`], are what the
//! `mis-sim` engine runs over a reusable [`mis_waveform::TraceArena`],
//! allocation-free once warm. An in-place application returns what it
//! did as [`ChannelEvents`] (cancellations, table lookups, filtered
//! pulses); the channel layer holds no instrumentation handle, and
//! only the engine decides whether the tallies are recorded. [`Network::run`] is the naive reference:
//! it composes the owned functions signal by signal, sharing no code
//! with the engine's hot path, so the two checking each other tests
//! the kernels as well as the schedule. Circuits are built from
//! `.bench` text by `mis_sim::BenchNetlist` through a
//! `mis_sim::CellLibrary`.
//!
//! # Examples
//!
//! A single NOR gate modeled three ways:
//!
//! ```
//! use mis_digital::{gates, HybridNorChannel, InertialChannel, TraceTransform, TwoInputTransform};
//! use mis_core::NorParams;
//! use mis_waveform::{DigitalTrace, units::ps};
//!
//! # fn main() -> Result<(), mis_digital::SimError> {
//! let a = DigitalTrace::with_edges(false, vec![(ps(100.0), true)])?;
//! let b = DigitalTrace::with_edges(false, vec![(ps(115.0), true)])?;
//!
//! // Ideal zero-delay NOR, then an inertial channel at the output:
//! let ideal = gates::nor(&a, &b)?;
//! let inertial = InertialChannel::symmetric(ps(35.0), ps(35.0))?.apply(&ideal)?;
//!
//! // The hybrid two-input channel sees the inputs directly:
//! let hybrid = HybridNorChannel::new(&NorParams::paper_table1())?.apply2(&a, &b)?;
//! assert_eq!(inertial.transition_count(), hybrid.transition_count());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod accuracy;
mod channels;
mod error;
pub mod gates;
pub mod involution;
mod network;

pub use channels::cached::CachedHybridChannel;
pub use channels::exp::ExpChannel;
pub use channels::hybrid::HybridNorChannel;
pub use channels::inertial::InertialChannel;
pub use channels::nand::NandChannel;
pub use channels::pure::PureDelayChannel;
pub use channels::{ChannelEvents, DelayBounds, TraceTransform, TwoInputTransform};
pub use error::{BudgetResource, SimError};
pub use network::{GateKind, Network, SignalId, SignalSource};
