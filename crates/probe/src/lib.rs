//! Zero-overhead observability for the mis-delay engines: a metrics
//! registry, deterministic report renderers, and a VCD waveform export.
//!
//! # The registry model
//!
//! A [`Probe`] is a named-metric registry handed to an engine at
//! construction. The engine registers the metrics it will record —
//! [`Counter`]s, high-water [`Gauge`]s, fixed-bucket log2
//! [`Histogram`]s, monotonic [`SpanTimer`]s — and keeps the returned
//! handles. Registration is a cold-path operation (it locks the
//! registry and may allocate); *recording* through a handle is an
//! atomic update with no locking and no allocation, so instrumented
//! hot paths keep the workspace's steady-state zero-allocation
//! guarantees (asserted under the `mis-testkit` counting allocator).
//!
//! # The disabled-mode guarantee
//!
//! [`Probe::disabled`] yields a probe whose *record* calls
//! ([`Counter::inc`]/[`Counter::add`], [`Gauge::record_max`],
//! [`Histogram::record`], the [`SpanTimer`] span operations) reduce to
//! one predictable branch on a pre-loaded flag — no atomics, no clock
//! reads — so engines can take instrumentation unconditionally and pay
//! nothing hot-path-measurable when nobody is watching.
//!
//! # Reports
//!
//! [`Probe::report`] snapshots every registered metric, sorted by
//! name, into a [`ProbeReport`] that renders as a deterministic text
//! table (`Display`) and as one machine-readable JSON line
//! ([`ProbeReport::to_json_line`]); the [`json`] module holds the
//! shared renderer conventions (string escaping, float formatting, a
//! minimal well-formedness validator) that the workspace's other JSON
//! emitters reuse.
//!
//! # VCD export
//!
//! The [`vcd`] module serializes named [`mis_waveform::TraceRef`]
//! views — a simulator result set — as a Value Change Dump for
//! standard waveform viewers, mapping the workspace's parity-implied
//! edge polarity to explicit `0`/`1` value changes.
//!
//! # Event tracing
//!
//! The [`trace`] module is the registry's timeline counterpart: a
//! [`TraceSink`] of fixed-size POD [`TraceEvent`]s captured into
//! preallocated per-track ring buffers under the same
//! one-bool disabled-mode contract, exported as deterministic Chrome
//! Trace Format JSON ([`TraceSnapshot::to_chrome_json`]) loadable by
//! `chrome://tracing` and Perfetto.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
mod metrics;
mod report;
pub mod trace;
pub mod vcd;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Probe, SpanTimer};
pub use report::{MetricValue, ProbeReport, ReportRow};
pub use trace::{EventKind, TraceEvent, TraceSink, TraceSnapshot, TraceTrack, TrackSnapshot};
