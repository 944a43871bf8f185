//! The serial netlist evaluator.
//!
//! [`Simulator`] evaluates every gate once, in signal-index order
//! (`input_count()..signal_count()`). [`Network`]'s builder enforces
//! reference-before-use — every fan-in has a smaller signal index than
//! the gate it feeds — so signal order is a topological order: a gate is
//! evaluated only after all its fan-in traces are sealed. The lowering of
//! `.bench` circuits topologically sorts their forward references, so
//! the same order serves real benchmarks. [`Network::run`] and
//! [`crate::ConeReplay`] rely on the same fact.
//!
//! A gate is evaluated by fused ideal-gate + channel passes over the
//! arena (`crate::kernel::eval_signal_into`, shared with the cone
//! replay). [`Network::run`] is the independent reference: it composes
//! the owned gate functions and channel `apply`/`apply2` calls, with no
//! arena and no in-place kernel. The engine is **bit-identical** to it,
//! a property the `mis-sim` suite asserts on every
//! `mis_digital::netlists` topology, on the C432/C880 fixtures and on
//! random DAGs. The engine also carries the per-gate control surface:
//! run budgets, trace overlays (fault injection), probe counters and
//! timeline tracing.
//!
//! A warm run is allocation-free: the span map is preallocated at
//! construction, and the arena reuses its flat storage (asserted by
//! `crates/sim/tests/alloc.rs` under the counting allocator).
//!
//! # Examples
//!
//! ```
//! use mis_digital::{GateKind, InertialChannel, Network};
//! use mis_sim::Simulator;
//! use mis_waveform::{units::ps, DigitalTrace, TraceArena};
//!
//! # fn main() -> Result<(), mis_digital::SimError> {
//! let mut net = Network::new();
//! let x = net.add_input("x");
//! let ch = Box::new(InertialChannel::symmetric(ps(30.0), ps(30.0))?);
//! let y = net.add_gate("y", GateKind::Not, &[x], Some(ch))?;
//! let input = DigitalTrace::with_edges(false, vec![(ps(100.0), true)])?;
//! let mut sim = Simulator::new(&net)?;
//! let mut arena = TraceArena::new();
//! sim.run_in(&[input], &mut arena)?;
//! let out = sim.trace(&arena, y);
//! assert!((out.times()[0] - ps(130.0)).abs() < 1e-18);
//! # Ok(())
//! # }
//! ```

use mis_digital::{ChannelEvents, Network, SignalId, SignalSource, SimError};
use mis_probe::{Probe, TraceSink};
use mis_waveform::{DigitalTrace, TraceArena, TraceRef};

use crate::budget::{BudgetMeter, RunBudget};
use crate::kernel;
use crate::overlay::{rewrite_span, TraceOverlay};
use crate::probe::{census_index, SimCounters, SimTracer};

/// A signal-order evaluator over a borrowed [`Network`] — see the
/// module docs for the schedule and the bit-identity argument.
///
/// Construction checks the network fits the engine's index width and
/// sizes the span map; each [`Simulator::run_in`] then reuses that
/// storage, so the per-run cost is the gate loop itself.
#[derive(Debug)]
pub struct Simulator<'n> {
    net: &'n Network,
    /// Arena span holding each signal's trace, filled during a run.
    span_of: Vec<u32>,
    /// Engine metrics — a disabled bundle for [`Simulator::new`]
    /// engines, so recording is compiled in unconditionally and the
    /// unprobed hot loop pays only local register updates.
    counters: SimCounters,
    /// Timeline recorder on the `sim` trace track — disabled unless the
    /// engine came from [`Simulator::new_traced`], same contract as
    /// `counters`.
    tracer: SimTracer,
}

impl<'n> Simulator<'n> {
    /// Prepares an engine for `net`: sizes every per-run buffer.
    ///
    /// # Errors
    ///
    /// [`SimError::NetworkTooLarge`] when the network's signal count
    /// exceeds the engine's `u32` index width.
    pub fn new(net: &'n Network) -> Result<Self, SimError> {
        Self::with_instrumentation(net, SimCounters::disabled(), SimTracer::disabled())
    }

    /// [`Simulator::new`] with metrics recording into `probe`: every
    /// run updates the `sim.*` event counters, the run span timer, the
    /// per-kind edge census, and the `chan.*` channel counters.
    ///
    /// Timelines record into `sink` (pass [`TraceSink::disabled`] for
    /// counters only): every run seals a `run` span, a `gate` span per
    /// evaluated gate (signal index + output edges, in signal order), a
    /// `seal` instant per input trace, and a `budget` instant when a
    /// [`RunBudget`] limit trips — all on the `sim` trace track, into
    /// the sink's preallocated ring buffer. Identical evaluation
    /// semantics; instrumented warm runs stay allocation-free.
    ///
    /// # Errors
    ///
    /// As [`Simulator::new`].
    pub fn new_traced(net: &'n Network, probe: &Probe, sink: &TraceSink) -> Result<Self, SimError> {
        Self::with_instrumentation(
            net,
            SimCounters::register(probe),
            SimTracer::register(sink, "sim"),
        )
    }

    fn with_instrumentation(
        net: &'n Network,
        counters: SimCounters,
        tracer: SimTracer,
    ) -> Result<Self, SimError> {
        let n = net.signal_count();
        kernel::check_index_width(n)?;
        Ok(Simulator {
            net,
            span_of: vec![0; n],
            counters,
            tracer,
        })
    }

    /// The network under simulation.
    #[must_use]
    pub fn network(&self) -> &'n Network {
        self.net
    }

    /// The engine's metric bundle (disabled for [`Simulator::new`]
    /// engines).
    #[must_use]
    pub fn counters(&self) -> &SimCounters {
        &self.counters
    }

    /// Evaluates the network into `arena` in signal order. After the
    /// run, every signal's trace sits in the arena at
    /// [`Simulator::span`].
    ///
    /// On a warm arena (one prior run of similar edge counts) the whole
    /// evaluation performs zero heap allocations.
    ///
    /// # Errors
    ///
    /// * [`SimError::Network`] — wrong number of input traces.
    /// * Propagates channel failures.
    pub fn run_in(
        &mut self,
        inputs: &[DigitalTrace],
        arena: &mut TraceArena,
    ) -> Result<(), SimError> {
        self.run_controlled_in(inputs, arena, &RunBudget::UNLIMITED, None)
    }

    /// The fully general run: a [`RunBudget`] plus an optional
    /// [`TraceOverlay`] rewriting sealed traces before downstream gates
    /// read them — the entry point `mis-fault` injects faults through.
    /// With [`RunBudget::UNLIMITED`] and no overlay this *is*
    /// [`Simulator::run_in`].
    ///
    /// Under a budget the run stops with [`SimError::BudgetExceeded`]
    /// instead of doing unbounded work — see the budget module docs for
    /// the accounting semantics. A tripped run leaves the arena reusable
    /// (the next run resets it).
    ///
    /// # Errors
    ///
    /// * [`SimError::BudgetExceeded`] — a budget limit tripped.
    /// * Propagates overlay rewrite failures.
    /// * As [`Simulator::run_in`].
    pub fn run_controlled_in(
        &mut self,
        inputs: &[DigitalTrace],
        arena: &mut TraceArena,
        budget: &RunBudget,
        overlay: Option<&dyn TraceOverlay>,
    ) -> Result<(), SimError> {
        if inputs.len() != self.net.input_count() {
            return Err(SimError::Network {
                reason: format!(
                    "expected {} input traces, got {}",
                    self.net.input_count(),
                    inputs.len()
                ),
            });
        }
        let started = self.counters.start_run();
        let run_started = self.tracer.start();
        let mut meter = BudgetMeter::start(budget);
        arena.reset();
        for (i, t) in inputs.iter().enumerate() {
            // One span is sealed per signal and construction verified the
            // signal count fits the index width, so the narrowing is
            // lossless.
            let mut span = arena.push_trace(t);
            if let Some(ov) = overlay {
                let id = self.net.signal_id(i).expect("i < signal_count");
                if ov.rewrites(id) {
                    span = rewrite_span(arena, span, id, ov)?;
                }
            }
            self.span_of[i] = span as u32;
            if self.tracer.is_enabled() {
                self.tracer.seal(i as u32, arena.trace(span).len() as u32);
            }
        }
        // The duplicate and channel tallies stay in registers through
        // the loop; the shared counters see one flush per completed run
        // (see `SimCounters`).
        let mut dups = 0u64;
        let mut chan = ChannelEvents::default();
        for s in inputs.len()..self.net.signal_count() {
            self.tracer.guard(meter.on_event())?;
            let gate_started = self.tracer.start();
            match self.eval(s, arena, overlay)? {
                Some(events) => chan += events,
                None => dups += 1,
            }
            let edges = arena.trace(self.span_of[s] as usize).len() as u64;
            self.tracer.gate_span(gate_started, s as u32, edges as u32);
            self.tracer.guard(meter.on_edges(edges))?;
        }
        let gates = (self.net.signal_count() - inputs.len()) as u64;
        self.counters.finish_run(started, gates, dups, chan);
        self.tracer.run_span(run_started);
        if self.counters.is_enabled() {
            self.census(arena);
        }
        Ok(())
    }

    /// The post-run per-kind edge census: one O(n) walk over the sealed
    /// spans, run only when the probe is enabled — the gate loop never
    /// pays for it.
    fn census(&self, arena: &TraceArena) {
        for s in 0..self.net.signal_count() {
            let id = self.net.signal_id(s).expect("s < signal_count");
            let class = census_index(&self.net.source(id));
            let edges = arena.trace(self.span_of[s] as usize).len() as u64;
            self.counters.census(class, edges);
        }
    }

    /// The allocating compatibility wrapper: evaluates through a
    /// run-local arena and returns one owned trace per signal **in
    /// signal order**, exactly like [`Network::run`].
    ///
    /// # Errors
    ///
    /// As [`Simulator::run_in`].
    pub fn run(&mut self, inputs: &[DigitalTrace]) -> Result<Vec<DigitalTrace>, SimError> {
        let mut arena = TraceArena::new();
        self.run_in(inputs, &mut arena)?;
        Ok((0..self.net.signal_count())
            .map(|s| arena.to_trace(self.span_of[s] as usize))
            .collect())
    }

    /// The arena span index holding signal `id`'s trace (valid after a
    /// [`Simulator::run_in`]).
    ///
    /// # Panics
    ///
    /// Panics for a foreign [`SignalId`].
    #[must_use]
    pub fn span(&self, id: SignalId) -> usize {
        self.span_of[id.index()] as usize
    }

    /// Convenience: the view of signal `id`'s trace inside `arena`
    /// (valid after a [`Simulator::run_in`] into that arena).
    ///
    /// # Panics
    ///
    /// Panics for a foreign [`SignalId`] or a mismatched arena.
    #[must_use]
    pub fn trace<'a>(&self, arena: &'a TraceArena, id: SignalId) -> TraceRef<'a> {
        arena.trace(self.span(id))
    }

    /// Evaluates one gate through the shared per-gate kernel
    /// ([`crate::kernel::eval_signal_into`]) and seals its output span,
    /// applying any overlay rewrite before the span is published.
    /// Returns the kernel's channel events, or `None` when the gate
    /// resolved as a duplicate-span shortcut (the run loop's duplicate
    /// tally).
    fn eval(
        &mut self,
        s: usize,
        arena: &mut TraceArena,
        overlay: Option<&dyn TraceOverlay>,
    ) -> Result<Option<ChannelEvents>, SimError> {
        let net = self.net;
        let id = net.signal_id(s).expect("s < signal_count");
        let source = net.source(id);
        let (mut span, events) = match kernel::duplicate_shortcut(&source) {
            Some((src, invert)) => (
                arena.push_duplicate(self.span_of[src.index()] as usize, invert),
                None,
            ),
            None => {
                let (span, events) = self.eval_staged(source, arena)?;
                (span, Some(events))
            }
        };
        if let Some(ov) = overlay {
            if ov.rewrites(id) {
                span = rewrite_span(arena, span, id, ov)?;
            }
        }
        // Lossless: spans per run = signal count, checked at construction.
        self.span_of[s] = span as u32;
        Ok(events)
    }

    /// The staging-buffer path of [`Simulator::eval`]: runs the shared
    /// kernel against the sealed arena storage and seals the result.
    /// Returns the sealed span and the kernel's channel events.
    fn eval_staged(
        &mut self,
        source: SignalSource<'_>,
        arena: &mut TraceArena,
    ) -> Result<(usize, ChannelEvents), SimError> {
        let span_of = &self.span_of;
        let (sealed, out, scratch) = arena.stage();
        let events = kernel::eval_signal_into(
            source,
            |sid| sealed.trace(span_of[sid.index()] as usize),
            out,
            scratch,
        )?;
        Ok((arena.seal_out(), events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_digital::{GateKind, InertialChannel, Network, PureDelayChannel};
    use mis_waveform::units::ps;

    #[test]
    fn matches_network_run_on_a_small_circuit() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let n1 = net
            .add_gate(
                "n1",
                GateKind::Nor,
                &[a, b],
                Some(Box::new(
                    InertialChannel::symmetric(ps(40.0), ps(30.0)).unwrap(),
                )),
            )
            .unwrap();
        let n2 = net
            .add_gate(
                "n2",
                GateKind::Nand,
                &[n1, a],
                Some(Box::new(PureDelayChannel::new(ps(5.0)).unwrap())),
            )
            .unwrap();
        let ta =
            DigitalTrace::with_edges(false, vec![(ps(100.0), true), (ps(400.0), false)]).unwrap();
        let tb = DigitalTrace::with_edges(false, vec![(ps(250.0), true)]).unwrap();
        let want = net.run(&[ta.clone(), tb.clone()]).unwrap();
        let mut sim = Simulator::new(&net).unwrap();
        let got = sim.run(&[ta.clone(), tb]).unwrap();
        assert_eq!(got, want);
        // And the warm in-place path reproduces it.
        let mut arena = TraceArena::new();
        sim.run_in(
            &[
                ta,
                DigitalTrace::with_edges(false, vec![(ps(250.0), true)]).unwrap(),
            ],
            &mut arena,
        )
        .unwrap();
        assert_eq!(sim.trace(&arena, n2).to_trace(), want[n2.index()]);
        assert_eq!(sim.trace(&arena, n1).to_trace(), want[n1.index()]);
    }

    #[test]
    fn input_count_is_validated() {
        let mut net = Network::new();
        net.add_input("a");
        let mut sim = Simulator::new(&net).unwrap();
        assert!(sim.run(&[]).is_err());
    }

    #[test]
    fn probed_engine_counts_pops_gates_and_census() {
        use mis_probe::{Probe, TraceSink};
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let nor = net
            .add_gate(
                "nor",
                GateKind::Nor,
                &[a, b],
                Some(Box::new(
                    InertialChannel::symmetric(ps(40.0), ps(30.0)).unwrap(),
                )),
            )
            .unwrap();
        // A channel-less NOT: the duplicate-span shortcut.
        net.add_gate("inv", GateKind::Not, &[nor], None).unwrap();
        let ta =
            DigitalTrace::with_edges(false, vec![(ps(100.0), true), (ps(400.0), false)]).unwrap();
        let tb = DigitalTrace::constant(false);
        let inputs = [ta, tb];

        let probe = Probe::new();
        let mut sim = Simulator::new_traced(&net, &probe, &TraceSink::disabled()).unwrap();
        let mut arena = TraceArena::new();
        sim.run_in(&inputs, &mut arena).unwrap();
        sim.run_in(&inputs, &mut arena).unwrap();

        let c = sim.counters();
        // Every non-input signal is evaluated exactly once per run.
        assert_eq!(c.runs(), 2);
        assert_eq!(c.events_popped(), 2 * 2);
        assert_eq!(c.duplicate_spans(), 2, "one channel-less NOT per run");
        assert_eq!(c.gates_evaluated(), 2);

        // The census sees each class's output edges: `a` has 2 edges,
        // `b` none; NOR output = delayed pulse (2 edges), NOT mirrors it.
        let report = probe.report();
        assert_eq!(report.get("sim.edges.input").unwrap().scalar(), Some(2 * 2));
        assert_eq!(report.get("sim.edges.nor").unwrap().scalar(), Some(2 * 2));
        assert_eq!(report.get("sim.edges.not").unwrap().scalar(), Some(2 * 2));
        // Results are bit-identical to the unprobed engine.
        let want = Simulator::new(&net).unwrap().run(&inputs).unwrap();
        let got = sim.run(&inputs).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn traced_engine_records_the_run_timeline() {
        use mis_probe::{EventKind, Probe, TraceSink};
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        net.add_gate(
            "nor",
            GateKind::Nor,
            &[a, b],
            Some(Box::new(
                InertialChannel::symmetric(ps(40.0), ps(30.0)).unwrap(),
            )),
        )
        .unwrap();
        let ta =
            DigitalTrace::with_edges(false, vec![(ps(100.0), true), (ps(400.0), false)]).unwrap();
        let inputs = [ta, DigitalTrace::constant(false)];
        let probe = Probe::new();
        let sink = TraceSink::new();
        let mut sim = Simulator::new_traced(&net, &probe, &sink).unwrap();
        let mut arena = TraceArena::new();
        sim.run_in(&inputs, &mut arena).unwrap();
        sim.run_in(&inputs, &mut arena).unwrap();
        let snap = sink.snapshot();
        let track = snap.track("sim").unwrap();
        // Per run: two input seals, one gate span, one run span.
        let count = |k: EventKind| track.events.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(EventKind::Seal), 4);
        assert_eq!(count(EventKind::Gate), 2);
        assert_eq!(count(EventKind::Run), 2);
        let gate = track
            .events
            .iter()
            .find(|e| e.kind == EventKind::Gate)
            .unwrap();
        assert_eq!(gate.a, 2, "gate span carries the NOR's signal index");
        assert_eq!(gate.b, 2, "gate span carries the sealed edge count");
        // Results are bit-identical to the untraced engine.
        let want = Simulator::new(&net).unwrap().run(&inputs).unwrap();
        assert_eq!(sim.run(&inputs).unwrap(), want);
    }

    #[test]
    fn traced_engine_marks_budget_trips() {
        use mis_probe::{EventKind, Probe, TraceSink};
        let mut net = Network::new();
        let a = net.add_input("a");
        net.add_gate("y", GateKind::Not, &[a], None).unwrap();
        let probe = Probe::new();
        let sink = TraceSink::new();
        let mut sim = Simulator::new_traced(&net, &probe, &sink).unwrap();
        let mut arena = TraceArena::new();
        let budget = crate::RunBudget::UNLIMITED.with_max_events(0);
        assert!(sim
            .run_controlled_in(&[DigitalTrace::constant(false)], &mut arena, &budget, None)
            .is_err());
        let snap = sink.snapshot();
        let track = snap.track("sim").unwrap();
        let trip = track
            .events
            .iter()
            .find(|e| e.kind == EventKind::Budget)
            .expect("budget instant recorded");
        assert_eq!(trip.a, 0, "events resource code");
        // The aborted run seals no run span.
        assert!(!track.events.iter().any(|e| e.kind == EventKind::Run));
    }

    #[test]
    fn unprobed_engine_carries_a_disabled_bundle() {
        let mut net = Network::new();
        let a = net.add_input("a");
        net.add_gate("y", GateKind::Not, &[a], None).unwrap();
        let mut sim = Simulator::new(&net).unwrap();
        sim.run(&[DigitalTrace::constant(false)]).unwrap();
        assert!(!sim.counters().is_enabled());
        assert_eq!(sim.counters().events_popped(), 0);
        assert_eq!(sim.counters().runs(), 0);
    }

    #[test]
    fn constant_inputs_still_evaluate_every_gate() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let y = net.add_gate("y", GateKind::Not, &[a], None).unwrap();
        let mut sim = Simulator::new(&net).unwrap();
        let got = sim.run(&[DigitalTrace::constant(true)]).unwrap();
        assert!(!got[y.index()].initial_value());
        assert_eq!(got[y.index()].transition_count(), 0);
    }
}
