//! Cone-only fault replay against a recorded golden run.
//!
//! A fault rewrites one signal, so only that signal's fan-out cone can
//! differ from the fault-free (golden) run. [`ConeReplay`] re-evaluates
//! just that cone, seeded from the golden run's sealed arena
//! ([`GoldenRun`]):
//!
//! 1. The site's golden trace is rewritten through the overlay and
//!    sealed into the replay's own (faulty) arena. If the rewrite is
//!    equal to golden, the fault does no gate work at all.
//! 2. Otherwise the site is *dirty* and its fan-out is scheduled. The
//!    pending gates are a signal-index bitset walked in ascending
//!    order. [`Network`] enforces reference-before-use, so signal
//!    order is a topological order: a gate is visited only after every
//!    gate that can schedule it.
//! 3. Each pending gate is evaluated by the shared kernel
//!    (`kernel::eval_signal_into` / `kernel::duplicate_shortcut`), with
//!    dirty fan-ins read from the faulty arena and clean ones from the
//!    golden arena. An output equal to its golden trace is dropped
//!    (the early stop: the gate stays clean and its fan-out is not
//!    scheduled); a different one is sealed, marked dirty, and its
//!    fan-out scheduled.
//!
//! # Equivalence with full replay
//!
//! Every signal's trace equals what a full [`crate::Simulator`]
//! replay under the same overlay computes. By induction in signal
//! order: signals before the site, and clean signals none of whose
//! fan-ins is dirty, see only golden fan-ins and are evaluated by the
//! same kernel, so they reproduce golden. A gate with a dirty fan-in is
//! always re-evaluated from its (by induction, correct) fan-in traces;
//! if its output equals golden it is stored *as* golden, which is the
//! same trace. "Equal" is exact [`TraceRef`] equality (initial value,
//! edge count, `f64 ==` per time) — the same test a campaign uses for
//! detection, so an output is detected exactly when it is dirty.
//!
//! The overlay must rewrite only the replayed site: a rewrite elsewhere
//! would perturb signals outside the site's cone, which this replay
//! never visits.
//!
//! # Budgets
//!
//! A [`RunBudget`] is charged what a full serial replay would charge
//! (see the budget module docs), so a cone replay trips exactly when
//! the full replay does.
//!
//! # Examples
//!
//! ```
//! use mis_digital::{GateKind, Network, SignalId, SimError};
//! use mis_sim::{ConeReplay, GoldenRun, RunBudget, Simulator, TraceOverlay};
//! use mis_waveform::{units::ps, DigitalTrace, EdgeBuf, TraceArena, TraceRef};
//!
//! /// Holds one signal low.
//! struct StuckLow(SignalId);
//! impl TraceOverlay for StuckLow {
//!     fn rewrites(&self, id: SignalId) -> bool {
//!         id == self.0
//!     }
//!     fn rewrite(&self, _: SignalId, _: TraceRef<'_>, out: &mut EdgeBuf) -> Result<(), SimError> {
//!         out.clear(false);
//!         Ok(())
//!     }
//! }
//!
//! # fn main() -> Result<(), SimError> {
//! let mut net = Network::new();
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let y = net.add_gate("y", GateKind::Not, &[a], None)?;
//! let z = net.add_gate("z", GateKind::Not, &[b], None)?;
//! let stimulus = [
//!     DigitalTrace::with_edges(false, vec![(ps(100.0), true)])?,
//!     DigitalTrace::constant(false),
//! ];
//! let golden = GoldenRun::record(&mut Simulator::new(&net)?, &stimulus)?;
//! let mut cone = ConeReplay::new(&net)?;
//! let mut faulty = TraceArena::new();
//! cone.run(&golden, a, &StuckLow(a), &mut faulty, &RunBudget::UNLIMITED)?;
//! assert!(cone.is_dirty(y) && !cone.is_dirty(z));
//! assert_eq!(cone.gates_evaluated(), 1, "z is outside a's cone");
//! assert!(cone.trace(&golden, &faulty, y).initial_value());
//! # Ok(())
//! # }
//! ```

use mis_digital::{Network, SignalId, SimError};
use mis_waveform::{DigitalTrace, TraceArena, TraceRef};

use crate::budget::{BudgetMeter, RunBudget};
use crate::engine::Simulator;
use crate::kernel::{self, FanoutCsr};
use crate::overlay::TraceOverlay;

/// A fault-free run kept for replay: the sealed arena plus the span of
/// every signal in it. Read-only once recorded, so campaign workers
/// share one by reference.
#[derive(Debug)]
pub struct GoldenRun {
    arena: TraceArena,
    /// Arena span of each signal, in signal order.
    span_of: Vec<u32>,
    /// Output edges summed over the non-input signals — the edge total
    /// a fault-free full replay charges its budget.
    gate_edges: u64,
}

impl GoldenRun {
    /// Runs `sim` fault-free and unbudgeted over `inputs`, and keeps the
    /// resulting arena and span table.
    ///
    /// # Errors
    ///
    /// As [`Simulator::run_in`].
    pub fn record(sim: &mut Simulator<'_>, inputs: &[DigitalTrace]) -> Result<Self, SimError> {
        let mut arena = TraceArena::new();
        sim.run_in(inputs, &mut arena)?;
        let net = sim.network();
        // Lossless: the engine checked the signal count fits `u32`.
        let span_of: Vec<u32> = (0..net.signal_count())
            .map(|s| sim.span(net.signal_id(s).expect("s < signal_count")) as u32)
            .collect();
        let gate_edges = span_of[net.input_count()..]
            .iter()
            .map(|&span| arena.trace(span as usize).len() as u64)
            .sum();
        Ok(GoldenRun {
            arena,
            span_of,
            gate_edges,
        })
    }

    /// Signal `id`'s golden trace.
    ///
    /// # Panics
    ///
    /// Panics for a [`SignalId`] of another network.
    #[must_use]
    pub fn trace(&self, id: SignalId) -> TraceRef<'_> {
        self.at(id.index())
    }

    #[inline]
    fn at(&self, s: usize) -> TraceRef<'_> {
        self.arena.trace(self.span_of[s] as usize)
    }
}

/// Cone-only replay of single-site faults against a [`GoldenRun`] — see
/// the module docs for the algorithm and its equivalence argument.
///
/// Construction builds the fan-out CSR and sizes the per-run bitsets;
/// a warm [`ConeReplay::run`] (faulty arena sized by an earlier run)
/// allocates nothing, tripped budgets included.
#[derive(Debug)]
pub struct ConeReplay<'n> {
    net: &'n Network,
    csr: FanoutCsr,
    /// Gates scheduled for re-evaluation, one bit per signal.
    pending: Vec<u64>,
    /// Signals whose faulty trace differs from golden, one bit per
    /// signal.
    dirty: Vec<u64>,
    /// Faulty-arena span of each dirty signal (stale for clean ones).
    span_of: Vec<u32>,
    /// Gates the last run re-evaluated.
    evaluated: u64,
}

#[inline]
fn bit(set: &[u64], s: usize) -> bool {
    set[s / 64] >> (s % 64) & 1 == 1
}

impl<'n> ConeReplay<'n> {
    /// Prepares a replay for faults on `net`.
    ///
    /// # Errors
    ///
    /// [`SimError::NetworkTooLarge`] when the network's signal or
    /// fan-out-edge count exceeds the `u32` index width.
    pub fn new(net: &'n Network) -> Result<Self, SimError> {
        let n = net.signal_count();
        let words = n.div_ceil(64);
        Ok(ConeReplay {
            net,
            csr: FanoutCsr::build(net)?,
            pending: vec![0; words],
            dirty: vec![0; words],
            span_of: vec![0; n],
            evaluated: 0,
        })
    }

    /// Replays the fault `overlay` places on `site` (the overlay must
    /// rewrite no other signal) against `golden`, sealing every signal
    /// that differs from golden into `faulty` (reset first). Afterwards
    /// [`ConeReplay::is_dirty`] and [`ConeReplay::trace`] read the
    /// faulty run.
    ///
    /// # Errors
    ///
    /// * [`SimError::Network`] — `golden` was recorded on a network of
    ///   another size, or `site` is not a signal of this network.
    /// * [`SimError::BudgetExceeded`] — the full replay would trip
    ///   `budget` (see the module docs).
    /// * Propagates overlay rewrite and channel failures.
    pub fn run(
        &mut self,
        golden: &GoldenRun,
        site: SignalId,
        overlay: &dyn TraceOverlay,
        faulty: &mut TraceArena,
        budget: &RunBudget,
    ) -> Result<(), SimError> {
        let n = self.net.signal_count();
        if golden.span_of.len() != n || site.index() >= n {
            return Err(SimError::Network {
                reason: format!(
                    "cone replay over {n} signals got a golden run of {} signals and site s{}",
                    golden.span_of.len(),
                    site.index()
                ),
            });
        }
        debug_assert!(overlay.rewrites(site), "the overlay must rewrite its site");
        self.evaluated = 0;
        self.pending.fill(0);
        self.dirty.fill(0);
        faulty.reset();
        let inputs = self.net.input_count();
        let mut meter = BudgetMeter::start(budget);
        // A full replay pops every gate exactly once.
        meter.on_events((n - inputs) as u64)?;
        let mut edges = golden.gate_edges;

        let s = site.index();
        let want = golden.at(s);
        let (_, out, _) = faulty.stage();
        overlay.rewrite(site, want, out)?;
        if out.as_ref() == want {
            out.clear(false);
            return meter.on_edges(edges);
        }
        let span = faulty.seal_out();
        if s >= inputs {
            // Input traces are caller data and never charged.
            edges = edges - want.len() as u64 + faulty.trace(span).len() as u64;
        }
        self.mark_dirty(s, span);

        // Fan-outs always follow their source, so the scan only moves
        // forward and never revisits a word it has emptied.
        let mut w = s / 64;
        while w < self.pending.len() {
            let bits = self.pending[w];
            if bits == 0 {
                w += 1;
                continue;
            }
            self.pending[w] = bits & (bits - 1);
            let g = w * 64 + bits.trailing_zeros() as usize;
            self.evaluated += 1;
            meter.tick_deadline(self.evaluated)?;
            if let Some(span) = self.eval(g, golden, faulty)? {
                edges = edges - golden.at(g).len() as u64 + faulty.trace(span).len() as u64;
                self.mark_dirty(g, span);
            }
        }
        meter.on_edges(edges)
    }

    /// Whether signal `id`'s trace in the last run differs from golden.
    ///
    /// # Panics
    ///
    /// Panics for a [`SignalId`] of another network.
    #[must_use]
    pub fn is_dirty(&self, id: SignalId) -> bool {
        bit(&self.dirty, id.index())
    }

    /// Signal `id`'s trace in the last run: from `faulty` when dirty,
    /// from `golden` otherwise. Pass the same golden run and arena the
    /// run used.
    ///
    /// # Panics
    ///
    /// Panics for a [`SignalId`] of another network, or mismatched
    /// arenas.
    #[must_use]
    pub fn trace<'a>(
        &self,
        golden: &'a GoldenRun,
        faulty: &'a TraceArena,
        id: SignalId,
    ) -> TraceRef<'a> {
        if self.is_dirty(id) {
            faulty.trace(self.span_of[id.index()] as usize)
        } else {
            golden.trace(id)
        }
    }

    /// Gates the last run re-evaluated (a tripped run counts those it
    /// reached).
    #[must_use]
    pub fn gates_evaluated(&self) -> u64 {
        self.evaluated
    }

    /// Marks `s` dirty at faulty span `span` and schedules its fan-out.
    fn mark_dirty(&mut self, s: usize, span: usize) {
        self.dirty[s / 64] |= 1 << (s % 64);
        // Lossless: at most one span per signal per run.
        self.span_of[s] = span as u32;
        for k in self.csr.start[s]..self.csr.start[s + 1] {
            let g = self.csr.targets[k as usize] as usize;
            self.pending[g / 64] |= 1 << (g % 64);
        }
    }

    /// Re-evaluates gate `g` and seals its output into `faulty` when it
    /// differs from golden, returning the new span (`None`: equal to
    /// golden, nothing sealed).
    fn eval(
        &mut self,
        g: usize,
        golden: &GoldenRun,
        faulty: &mut TraceArena,
    ) -> Result<Option<usize>, SimError> {
        let source = self
            .net
            .source(self.net.signal_id(g).expect("g < signal_count"));
        let want = golden.at(g);
        if let Some((src, invert)) = kernel::duplicate_shortcut(&source) {
            // The single fan-in is dirty, or `g` would not be pending.
            let src_span = self.span_of[src.index()] as usize;
            let view = faulty.trace(src_span);
            let same = if invert { view.inverted() } else { view } == want;
            return Ok((!same).then(|| faulty.push_duplicate(src_span, invert)));
        }
        let (dirty, span_of) = (&self.dirty, &self.span_of);
        let (sealed, out, scratch) = faulty.stage();
        // The replay records no metrics, so the channel events are
        // dropped.
        kernel::eval_signal_into(
            source,
            |sid| {
                let i = sid.index();
                if bit(dirty, i) {
                    sealed.trace(span_of[i] as usize)
                } else {
                    golden.at(i)
                }
            },
            out,
            scratch,
        )?;
        if out.as_ref() == want {
            out.clear(false);
            return Ok(None);
        }
        Ok(Some(faulty.seal_out()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_digital::{GateKind, InertialChannel};
    use mis_waveform::units::ps;
    use mis_waveform::EdgeBuf;

    struct Stuck(SignalId, bool);

    impl TraceOverlay for Stuck {
        fn rewrites(&self, id: SignalId) -> bool {
            id == self.0
        }

        fn rewrite(
            &self,
            _id: SignalId,
            _view: TraceRef<'_>,
            out: &mut EdgeBuf,
        ) -> Result<(), SimError> {
            out.clear(self.1);
            Ok(())
        }
    }

    /// a, b inputs; n = NOR(a, b) inertial; m = NOT(n); k = AND(b, b);
    /// j = AND(a, b); h = NOT(j). Stimulus: a pulses, b stays low.
    fn fixture() -> (Network, [SignalId; 7], Vec<DigitalTrace>) {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let n = net
            .add_gate(
                "n",
                GateKind::Nor,
                &[a, b],
                Some(Box::new(
                    InertialChannel::symmetric(ps(40.0), ps(30.0)).unwrap(),
                )),
            )
            .unwrap();
        let m = net.add_gate("m", GateKind::Not, &[n], None).unwrap();
        let k = net.add_gate("k", GateKind::And, &[b, b], None).unwrap();
        let j = net.add_gate("j", GateKind::And, &[a, b], None).unwrap();
        let h = net.add_gate("h", GateKind::Not, &[j], None).unwrap();
        let ta =
            DigitalTrace::with_edges(false, vec![(ps(100.0), true), (ps(400.0), false)]).unwrap();
        (
            net,
            [a, b, n, m, k, j, h],
            vec![ta, DigitalTrace::constant(false)],
        )
    }

    fn full_replay(net: &Network, inputs: &[DigitalTrace], ov: &Stuck) -> Vec<DigitalTrace> {
        let mut sim = Simulator::new(net).unwrap();
        let mut arena = TraceArena::new();
        sim.run_controlled_in(inputs, &mut arena, &RunBudget::UNLIMITED, Some(ov))
            .unwrap();
        (0..net.signal_count())
            .map(|s| sim.trace(&arena, net.signal_id(s).unwrap()).to_trace())
            .collect()
    }

    #[test]
    fn every_stuck_at_matches_full_replay() {
        let (net, ids, inputs) = fixture();
        let golden = GoldenRun::record(&mut Simulator::new(&net).unwrap(), &inputs).unwrap();
        let mut cone = ConeReplay::new(&net).unwrap();
        let mut faulty = TraceArena::new();
        for &site in &ids {
            for value in [false, true] {
                let ov = Stuck(site, value);
                cone.run(&golden, site, &ov, &mut faulty, &RunBudget::UNLIMITED)
                    .unwrap();
                let want = full_replay(&net, &inputs, &ov);
                for &id in &ids {
                    let got = cone.trace(&golden, &faulty, id);
                    assert_eq!(
                        got.to_trace(),
                        want[id.index()],
                        "{site:?}={value} at {id:?}"
                    );
                    assert_eq!(cone.is_dirty(id), got != golden.trace(id));
                }
            }
        }
    }

    #[test]
    fn equal_rewrite_does_no_gate_work_and_early_stop_prunes() {
        let (net, [a, b, n, m, k, j, h], inputs) = fixture();
        let golden = GoldenRun::record(&mut Simulator::new(&net).unwrap(), &inputs).unwrap();
        let mut cone = ConeReplay::new(&net).unwrap();
        let mut faulty = TraceArena::new();
        let mut run = |site, value| {
            cone.run(
                &golden,
                site,
                &Stuck(site, value),
                &mut faulty,
                &RunBudget::UNLIMITED,
            )
            .unwrap();
            let dirty: Vec<SignalId> = (0..net.signal_count())
                .filter_map(|s| net.signal_id(s))
                .filter(|&id| cone.is_dirty(id))
                .collect();
            (dirty, cone.gates_evaluated())
        };
        // b is constant low: stuck-at-0 is the fault-free value.
        assert_eq!(run(b, false), (vec![], 0));
        // a stuck-at-1 kills n's pulse (and m's), but j = AND(1, 0)
        // still equals golden: the early stop leaves h unevaluated.
        assert_eq!(run(a, true), (vec![a, n, m], 3), "n, m and j; not h");
        // b stuck-at-1 changes every gate.
        assert_eq!(run(b, true), (vec![b, n, m, k, j, h], 5));
    }

    #[test]
    fn budget_charges_the_full_replay_totals() {
        let (net, [a, ..], inputs) = fixture();
        let golden = GoldenRun::record(&mut Simulator::new(&net).unwrap(), &inputs).unwrap();
        let ov = Stuck(a, true);
        let full = full_replay(&net, &inputs, &ov);
        let events = (net.signal_count() - net.input_count()) as u64;
        let edges: u64 = full[net.input_count()..]
            .iter()
            .map(|t| t.edges().len() as u64)
            .sum();
        let mut cone = ConeReplay::new(&net).unwrap();
        let mut faulty = TraceArena::new();
        let mut run = |budget: RunBudget| cone.run(&golden, a, &ov, &mut faulty, &budget);
        run(RunBudget::UNLIMITED.with_max_events(events)).unwrap();
        run(RunBudget::UNLIMITED.with_max_edges(edges)).unwrap();
        assert!(run(RunBudget::UNLIMITED.with_max_events(events - 1)).is_err());
        if edges > 0 {
            assert!(run(RunBudget::UNLIMITED.with_max_edges(edges - 1)).is_err());
        }
    }

    #[test]
    fn mismatched_golden_run_is_an_error() {
        let (net, _, inputs) = fixture();
        let golden = GoldenRun::record(&mut Simulator::new(&net).unwrap(), &inputs).unwrap();
        let mut small = Network::new();
        let x = small.add_input("x");
        let mut cone = ConeReplay::new(&small).unwrap();
        let err = cone
            .run(
                &golden,
                x,
                &Stuck(x, true),
                &mut TraceArena::new(),
                &RunBudget::UNLIMITED,
            )
            .unwrap_err();
        assert!(matches!(err, SimError::Network { .. }));
    }
}
