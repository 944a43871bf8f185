//! Engine-level instrumentation: the metric bundle the probed
//! simulator entry points record into.
//!
//! [`SimCounters`] registers the `sim.*` and `chan.*` metrics on a
//! [`mis_probe::Probe`] and is owned by every [`crate::Simulator`] —
//! engines built through the plain constructors carry a
//! [`SimCounters::disabled`] bundle, whose record calls reduce to one
//! predictable branch, so instrumentation is compiled in
//! unconditionally without costing the unprobed hot paths anything
//! measurable (the `crates/sim/tests/alloc.rs` suite additionally
//! asserts the probed paths allocate nothing when warm).
//!
//! Channels hold no instrumentation handle: each in-place application
//! returns its [`ChannelEvents`], the engine sums them in a register
//! through the gate loop, and [`SimCounters`] records the sum under the
//! `chan.*` names with the rest of the run's tallies.
//!
//! The per-gate-kind **edge census** (`sim.edges.*`) is collected by a
//! single post-run O(n) walk over the sealed arena — never from inside
//! the event loop — so it costs the hot loop literally zero and the
//! disabled mode skips the walk entirely.

use std::cell::Cell;

use mis_digital::{ChannelEvents, SignalSource, SimError};
use mis_probe::{Counter, EventKind, Histogram, Probe, SpanTimer, TraceSink, TraceTrack};

/// Edge-census classes, indexed by [`census_index`]: one per gate kind
/// plus primary inputs and the two-input MIS channel gates.
const CENSUS_NAMES: [&str; 9] = [
    "sim.edges.input",
    "sim.edges.buf",
    "sim.edges.not",
    "sim.edges.and",
    "sim.edges.or",
    "sim.edges.nand",
    "sim.edges.nor",
    "sim.edges.xor",
    "sim.edges.mis",
];

/// The census class of a signal source (an index into the
/// `sim.edges.*` counters).
#[must_use]
pub(crate) fn census_index(source: &SignalSource<'_>) -> usize {
    use mis_digital::GateKind as K;
    match source {
        SignalSource::Input => 0,
        SignalSource::Gate { kind, .. } => match kind {
            K::Buf => 1,
            K::Not => 2,
            K::And => 3,
            K::Or => 4,
            K::Nand => 5,
            K::Nor => 6,
            K::Xor => 7,
        },
        SignalSource::TwoInputChannelGate { .. } => 8,
    }
}

/// The engine metric bundle, registered under stable `sim.*` and
/// `chan.*` names. Counters are cumulative across runs of the engine
/// that owns the bundle (and across engines sharing a [`Probe`], since
/// same-name metrics share cells).
///
/// **Counters describe completed runs.** A run's tallies are published
/// in one flush after its last gate, so a run that stops early (a
/// tripped [`crate::RunBudget`], a channel error, an overlay failure)
/// publishes no counter, census entry or run span at all.
#[derive(Debug, Clone)]
pub struct SimCounters {
    /// Evaluation events (one per non-input signal per run).
    events_popped: Counter,
    /// Gates evaluated through the staged kernel (events minus
    /// duplicate-span shortcuts).
    gates_evaluated: Counter,
    /// Channel-less unary gates resolved as arena span duplicates.
    duplicate_spans: Counter,
    /// Completed `run_in` calls.
    runs: Counter,
    /// Output edges per evaluated gate (census walk, enabled only).
    edges_per_gate: Histogram,
    /// Wall-clock span of each `run_in`.
    run_time: SpanTimer,
    /// Per-class output-edge totals, indexed by [`census_index`].
    edge_census: [Counter; 9],
    /// `chan.pending_cancelled`: summed [`ChannelEvents::pending_cancelled`].
    pending_cancelled: Counter,
    /// `chan.table_lookups`: summed [`ChannelEvents::table_lookups`].
    table_lookups: Counter,
    /// `chan.pulse_filtered`: summed [`ChannelEvents::pulse_filtered`].
    pulse_filtered: Counter,
}

impl SimCounters {
    /// Registers (or re-attaches to) the `sim.*` and `chan.*` metrics
    /// on `probe`.
    #[must_use]
    pub fn register(probe: &Probe) -> Self {
        SimCounters {
            events_popped: probe.counter("sim.events_popped"),
            gates_evaluated: probe.counter("sim.gates_evaluated"),
            duplicate_spans: probe.counter("sim.duplicate_spans"),
            runs: probe.counter("sim.runs"),
            edges_per_gate: probe.histogram("sim.edges_per_gate"),
            run_time: probe.timer("sim.run_time"),
            edge_census: std::array::from_fn(|i| probe.counter(CENSUS_NAMES[i])),
            pending_cancelled: probe.counter("chan.pending_cancelled"),
            table_lookups: probe.counter("chan.table_lookups"),
            pulse_filtered: probe.counter("chan.pulse_filtered"),
        }
    }

    /// A bundle on a fresh disabled registry — what the unprobed
    /// constructors own. Record calls are branch-only no-ops.
    #[must_use]
    pub fn disabled() -> Self {
        SimCounters::register(&Probe::disabled())
    }

    /// Whether records actually land anywhere.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.events_popped.is_enabled()
    }

    /// Starts the run span (None when disabled).
    pub(crate) fn start_run(&self) -> Option<std::time::Instant> {
        self.run_time.start()
    }

    /// Flushes one completed run's tallies: `events` evaluated signals,
    /// of which `duplicates` were duplicate-span shortcuts, and the
    /// summed channel events of its gates.
    pub(crate) fn finish_run(
        &self,
        started: Option<std::time::Instant>,
        events: u64,
        duplicates: u64,
        channels: ChannelEvents,
    ) {
        self.run_time.stop(started);
        self.runs.inc();
        self.events_popped.add(events);
        self.duplicate_spans.add(duplicates);
        self.gates_evaluated.add(events - duplicates);
        self.pending_cancelled.add(channels.pending_cancelled);
        self.table_lookups.add(channels.table_lookups);
        self.pulse_filtered.add(channels.pulse_filtered);
    }

    /// One census observation: `edges` output edges on a signal of
    /// census class `class`. Inputs (`class == 0`) count toward the
    /// per-class totals but not the per-*gate* histogram.
    pub(crate) fn census(&self, class: usize, edges: u64) {
        self.edge_census[class].add(edges);
        if class != 0 {
            self.edges_per_gate.record(edges);
        }
    }

    /// Cumulative evaluation events (one per non-input signal per run,
    /// duplicate-span shortcuts included). The name is the deleted event
    /// queue's; the count stays because the C880 benchmark reports it.
    #[must_use]
    pub fn events_popped(&self) -> u64 {
        self.events_popped.value()
    }

    /// Cumulative staged-kernel gate evaluations.
    #[must_use]
    pub fn gates_evaluated(&self) -> u64 {
        self.gates_evaluated.value()
    }

    /// Completed runs.
    #[must_use]
    pub fn runs(&self) -> u64 {
        self.runs.value()
    }

    /// Always 0: the engine has no ready queue; kept for the benchmark
    /// harness, which reports it.
    #[must_use]
    pub fn heap_high_water(&self) -> u64 {
        0
    }
}

/// The engine's timeline recorder: a typed wrapper over one
/// [`mis_probe::TraceSink`] track that the traced entry points record
/// run spans, per-gate evaluation spans, input-seal instants and
/// budget-trip instants into. Engines built without a sink carry a
/// [`SimTracer::disabled`] tracer, whose record calls reduce to one
/// branch on a pre-loaded flag — no clock reads — exactly the
/// [`SimCounters`] contract, so tracing is compiled in unconditionally.
///
/// Recording writes into the track's preallocated ring buffer, so a
/// traced warm run stays allocation-free (asserted in
/// `crates/sim/tests/alloc.rs`).
#[derive(Debug, Clone)]
pub struct SimTracer {
    track: TraceTrack,
    /// Completed-run ordinal, the `a` payload of [`EventKind::Run`]
    /// spans. A `Cell` because each tracer is owned by one engine (and
    /// recorded from one thread at a time).
    runs: Cell<u32>,
}

impl SimTracer {
    /// Opens (or re-opens) the track `name` on `sink`.
    #[must_use]
    pub fn register(sink: &TraceSink, name: &str) -> Self {
        SimTracer {
            track: sink.track(name),
            runs: Cell::new(0),
        }
    }

    /// A tracer on a fresh disabled sink — what the untraced
    /// constructors own. Record calls are branch-only no-ops.
    #[must_use]
    pub fn disabled() -> Self {
        Self::register(&TraceSink::disabled(), "sim")
    }

    /// Whether records actually land anywhere.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.track.is_enabled()
    }

    /// Opens a span (None when disabled — no clock read).
    #[inline]
    pub(crate) fn start(&self) -> Option<u64> {
        self.track.start()
    }

    /// Seals a completed run: one [`EventKind::Run`] span carrying the
    /// tracer-local run ordinal.
    pub(crate) fn run_span(&self, started: Option<u64>) {
        if started.is_some() {
            let run = self.runs.get();
            self.track.span(EventKind::Run, run, 0, started);
            self.runs.set(run.wrapping_add(1));
        }
    }

    /// Seals one gate evaluation: an [`EventKind::Gate`] span carrying
    /// the signal index and its sealed output-edge count.
    #[inline]
    pub(crate) fn gate_span(&self, started: Option<u64>, signal: u32, edges: u32) {
        self.track.span(EventKind::Gate, signal, edges, started);
    }

    /// Records an input span sealed into the arena
    /// ([`EventKind::Seal`] instant).
    #[inline]
    pub(crate) fn seal(&self, signal: u32, edges: u32) {
        self.track.instant(EventKind::Seal, signal, edges);
    }

    /// Passes a budget-meter result through, recording an
    /// [`EventKind::Budget`] instant (payload 1, the code of the edge
    /// limit) when it tripped — how the gate loop marks trips on the
    /// timeline without disturbing error propagation. The code is
    /// fixed, so traces stay comparable across versions.
    #[inline]
    pub(crate) fn guard<T>(&self, r: Result<T, SimError>) -> Result<T, SimError> {
        if let Err(SimError::BudgetExceeded { .. }) = &r {
            self.track.instant(EventKind::Budget, 1, 0);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_run_splits_pops_into_gates_and_duplicates() {
        let probe = Probe::new();
        let c = SimCounters::register(&probe);
        assert!(c.is_enabled());
        let chan = ChannelEvents {
            pending_cancelled: 1,
            table_lookups: 4,
            pulse_filtered: 2,
        };
        c.finish_run(None, 10, 3, chan);
        c.finish_run(None, 10, 3, chan);
        assert_eq!(c.runs(), 2);
        assert_eq!(c.events_popped(), 20);
        assert_eq!(c.gates_evaluated(), 14);
        let report = probe.report();
        let get = |name: &str| report.get(name).unwrap().scalar();
        assert_eq!(get("sim.duplicate_spans"), Some(6));
        assert_eq!(get("chan.pending_cancelled"), Some(2));
        assert_eq!(get("chan.table_lookups"), Some(8));
        assert_eq!(get("chan.pulse_filtered"), Some(4));
    }

    #[test]
    fn disabled_bundle_records_nothing() {
        let c = SimCounters::disabled();
        assert!(!c.is_enabled());
        c.finish_run(c.start_run(), 10, 3, ChannelEvents::default());
        c.census(2, 100);
        assert_eq!(c.events_popped(), 0);
    }

    #[test]
    fn tracer_records_runs_gates_and_budget_trips() {
        let sink = TraceSink::new();
        let t = SimTracer::register(&sink, "sim");
        assert!(t.is_enabled());
        let run = t.start();
        t.gate_span(t.start(), 4, 2);
        t.seal(0, 3);
        t.run_span(run);
        t.run_span(t.start());
        let err: Result<(), SimError> = Err(SimError::BudgetExceeded { limit: 5 });
        assert!(t.guard(err).is_err());
        assert!(t.guard(Ok(())).is_ok());
        let snap = sink.snapshot();
        let track = snap.track("sim").unwrap();
        let kinds: Vec<EventKind> = track.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Gate,
                EventKind::Seal,
                EventKind::Run,
                EventKind::Run,
                EventKind::Budget
            ]
        );
        // Run ordinals increment; the budget instant carries the edge
        // limit's code 1; a passing guard records nothing.
        assert_eq!(track.events[2].a, 0);
        assert_eq!(track.events[3].a, 1);
        assert_eq!(track.events[4].a, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = SimTracer::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.start(), None);
        t.run_span(t.start());
        t.gate_span(None, 1, 1);
        let err: Result<(), SimError> = Err(SimError::BudgetExceeded { limit: 0 });
        assert!(t.guard(err).is_err(), "guard still propagates");
    }

    #[test]
    fn census_classes_cover_every_source_shape() {
        // The census array and the index function must stay in sync:
        // every name is distinct and the histogram skips inputs only.
        let mut names: Vec<&str> = CENSUS_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CENSUS_NAMES.len());
        let probe = Probe::new();
        let c = SimCounters::register(&probe);
        c.census(0, 5);
        c.census(6, 7);
        let report = probe.report();
        assert_eq!(report.get("sim.edges.input").unwrap().scalar(), Some(5));
        assert_eq!(report.get("sim.edges.nor").unwrap().scalar(), Some(7));
    }
}
