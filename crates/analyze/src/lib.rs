//! **mis-analyze** — static netlist analysis: the layer that inspects a
//! circuit *without* simulating it, and whose answers are property-tested
//! against the dynamic engines that do.
//!
//! Three pieces:
//!
//! * [`mod@lint`] — structural checks over a parsed
//!   [`mis_sim::BenchNetlist`], reported as stable diagnostic codes
//!   (`A001`–`A007`, see [`DiagCode`]) anchored to real `.bench` source
//!   lines. Six warnings for simulable-but-suspicious structure (unused
//!   signals, cone-less outputs, duplicate operands, foldable gates,
//!   dead logic, oversized fan-ins) plus one error — `A007` — that
//!   predicts the engines' `u32` index-width rejection from
//!   [`mis_sim::BenchNetlist::lowered_stats`] before anything allocates.
//! * [`sta`] — static timing over a lowered [`mis_digital::Network`]:
//!   topological levels and per-signal min/max arrival [`Window`]s
//!   propagated with each channel's [`mis_digital::DelayBounds`],
//!   summarized as a level census, per-output arrivals and a critical
//!   path ([`TimingAnalysis::report`]).
//! * [`attribution`] — the static/dynamic join: `gate` spans from a
//!   `mis_probe` trace snapshot attributed to their signals'
//!   topological levels ([`attribute_levels`]), yielding the per-level
//!   time/event table a level-sliced scheduler would be designed
//!   against, plus per-level `level.L<n>.eval_ns` probe histograms.
//!
//! The load-bearing guarantee is **soundness**: every transition the
//! [`mis_sim::Simulator`] emits lands inside its signal's statically
//! computed window — on random DAGs over every channel kind and on the
//! committed ISCAS fixtures.
//! The property suite in `tests/proptests.rs` enforces exactly that;
//! the inductive argument lives in the [`sta`] module docs.
//!
//! # Examples
//!
//! ```
//! use mis_analyze::{lint, LintConfig, TimingAnalysis, Window};
//! use mis_sim::{BenchNetlist, CellLibrary};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nl = BenchNetlist::parse(
//!     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOR(a, b)",
//! )?;
//! let report = lint(&nl, &LintConfig::default());
//! assert!(report.is_clean());
//!
//! let lowered = nl.lower(&CellLibrary::ideal())?;
//! let ta = TimingAnalysis::new(&lowered.net);
//! let w = ta.arrival_windows(&[Window::instant(0.0), Window::EMPTY]);
//! assert_eq!(w[lowered.outputs[0].index()], Window::instant(0.0));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod attribution;
pub mod diag;
pub mod lint;
pub mod sta;

pub use attribution::{attribute_levels, LevelAttribution, LevelRow};
pub use diag::{DiagCode, Diagnostic, LintReport, Severity};
pub use lint::{lint, LintConfig};
pub use sta::{OutputTiming, PathStep, TimingAnalysis, TimingReport, Window, WindowEdit};
