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
//! # Splicing recorded replays
//!
//! [`ConeReplay::run_spliced`] shares completed replays between the
//! faults of one campaign through a [`ConeMemo`]. Suppose a replay
//! re-evaluates gate `g` and gets a constant trace `v` (no edges) that
//! differs from golden, and no earlier dirty signal has a fan-out
//! beyond `g` (`max last_fanout[d] over dirty d <= g`, with
//! `last_fanout` precomputed from the fan-out CSR). From then on the
//! replay reads no faulty trace but `g`'s, so its remaining work is
//! exactly the replay of `g` stuck at `v`. If that replay is recorded,
//! the splice ORs its dirty set into this run's, adds its gate count
//! (so [`ConeReplay::gates_evaluated`] still reports the full cone
//! replay's work) and takes the suffix's edge delta from its edge
//! total, then stops. A replay whose rewritten trace at a gate site is
//! constant `v` *is* the replay of that gate stuck at `v`; it publishes
//! its record when it completes (no budget trip, no error). A record is
//! the list of dirty signals, a gate count and an edge total, so the
//! memo holds O(cone) per recorded (signal, value), never a bitset per
//! record.
//!
//! After a spliced run [`ConeReplay::is_dirty`] is exact for every
//! signal, but the dirty signals past the splice point have no faulty
//! trace in this run's arena: [`ConeReplay::trace`] panics for them.
//!
//! # Cost
//!
//! A replay's bookkeeping is bounded by its cone, not by the netlist:
//! the pending scan starts at the bitset word of the site's first
//! fan-out and stops past word `reach / 64` (no pending gate lies
//! beyond `reach`), and the next replay clears only the dirty bits and
//! the pending words this one's early exit (a splice, a budget trip or
//! an error) left set. The scan still steps over the empty words
//! between the cone's gates, so its cost is the cone plus the cone's
//! extent in signal order over 64.
//!
//! # Budgets
//!
//! A [`RunBudget`] is charged what a full serial replay would charge
//! (see the budget module docs), so a cone replay trips on edges
//! exactly when the full replay does. A spliced run charges the exact
//! full-run edge total too: its own edge total plus the recorded
//! replay's, minus the golden total, plus `g`'s golden edge count
//! (counted in both).
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

use std::sync::OnceLock;

use mis_digital::{Network, SignalId, SimError};
use mis_waveform::{DigitalTrace, TraceArena, TraceRef};

use crate::budget::{BudgetMeter, RunBudget};
use crate::engine::Simulator;
use crate::kernel::{self, FanoutCsr};
use crate::overlay::TraceOverlay;

/// A fault-free run kept for replay: the sealed arena, which holds
/// signal `s`'s trace as its trace `s`. Read-only once recorded, so
/// campaign workers share one by reference.
#[derive(Debug)]
pub struct GoldenRun {
    arena: TraceArena,
    /// Output edges summed over the non-input signals — the edge total
    /// a fault-free full replay charges its budget.
    gate_edges: u64,
}

impl GoldenRun {
    /// Runs `sim` fault-free and unbudgeted over `inputs`, and keeps the
    /// resulting arena.
    ///
    /// # Errors
    ///
    /// As [`Simulator::run_in`].
    pub fn record(sim: &mut Simulator<'_>, inputs: &[DigitalTrace]) -> Result<Self, SimError> {
        let mut arena = TraceArena::new();
        sim.run_in(inputs, &mut arena)?;
        let net = sim.network();
        let gate_edges = (net.input_count()..net.signal_count())
            .map(|s| arena.trace(s).len() as u64)
            .sum();
        Ok(GoldenRun { arena, gate_edges })
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
        self.arena.trace(s)
    }

    /// The number of signals recorded.
    fn signal_count(&self) -> usize {
        self.arena.trace_count()
    }
}

/// One completed replay of a signal held at a constant value.
#[derive(Debug)]
struct ConeRecord {
    /// Signals the replay marked dirty, its site first.
    dirty: Box<[u32]>,
    /// Gates the replay evaluated, spliced ones included.
    gates: u64,
    /// The full run's edge total, as charged to the budget.
    edges: u64,
}

/// The completed constant-site replays of one [`GoldenRun`], one slot
/// per (signal, value), filled at most once and shared by reference
/// between campaign workers — see the module docs on splicing.
#[derive(Debug)]
pub struct ConeMemo<'g> {
    golden: &'g GoldenRun,
    /// Slot `2 * s + v`: the replay of signal `s` held at `v`.
    slots: Vec<OnceLock<ConeRecord>>,
}

impl<'g> ConeMemo<'g> {
    /// An empty memo over `golden`'s signals.
    #[must_use]
    pub fn new(golden: &'g GoldenRun) -> Self {
        ConeMemo {
            golden,
            slots: (0..2 * golden.signal_count())
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    fn slot(&self, s: usize, value: bool) -> &OnceLock<ConeRecord> {
        &self.slots[2 * s + usize::from(value)]
    }
}

/// Cone-only replay of single-site faults against a [`GoldenRun`] — see
/// the module docs for the algorithm and its equivalence argument.
///
/// Construction builds the fan-out CSR and sizes the per-run bitsets;
/// a warm [`ConeReplay::run`] (faulty arena sized by an earlier run)
/// allocates nothing, tripped budgets included. Only
/// [`ConeReplay::run_spliced`] allocates, to publish a record.
#[derive(Debug)]
pub struct ConeReplay<'n> {
    net: &'n Network,
    csr: FanoutCsr,
    /// Gates scheduled for re-evaluation, one bit per signal.
    pending: Vec<u64>,
    /// The `pending` word the scan is at. After a run, words from here
    /// to `reach / 64` may hold bits an early exit left set.
    scan: usize,
    /// Signals whose faulty trace differs from golden, one bit per
    /// signal.
    dirty: Vec<u64>,
    /// The set bits of `dirty`, in marking order (capacity: every
    /// signal, so appending never allocates).
    dirty_list: Vec<u32>,
    /// Faulty-arena span of each dirty signal (stale for clean ones).
    span_of: Vec<u32>,
    /// Highest fan-out target of each signal (0 without fan-out).
    last_fanout: Vec<u32>,
    /// `max last_fanout[d]` over the signals `d` marked dirty so far.
    reach: usize,
    /// The gate the last run spliced a recorded replay onto, if any.
    spliced_at: Option<usize>,
    /// Gates the last run re-evaluated, spliced ones included.
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
        let csr = FanoutCsr::build(net)?;
        let last_fanout = (0..n)
            .map(|s| {
                let row = csr.start[s] as usize..csr.start[s + 1] as usize;
                csr.targets[row].iter().copied().max().unwrap_or(0)
            })
            .collect();
        Ok(ConeReplay {
            net,
            csr,
            pending: vec![0; words],
            scan: 0,
            dirty: vec![0; words],
            dirty_list: Vec::with_capacity(n),
            span_of: vec![0; n],
            last_fanout,
            reach: 0,
            spliced_at: None,
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
        self.replay(golden, None, site, overlay, faulty, budget)
    }

    /// [`ConeReplay::run`] against `memo`'s golden run, splicing in the
    /// memo's recorded replays where this one reaches them, and
    /// publishing this replay when `site` is a gate, its rewritten
    /// trace is constant and the run completes (see the module docs).
    /// The outcome, dirty set, [`ConeReplay::gates_evaluated`] and
    /// budget behavior are those of [`ConeReplay::run`]; only
    /// [`ConeReplay::trace`] is narrower.
    ///
    /// # Errors
    ///
    /// As [`ConeReplay::run`].
    pub fn run_spliced(
        &mut self,
        memo: &ConeMemo<'_>,
        site: SignalId,
        overlay: &dyn TraceOverlay,
        faulty: &mut TraceArena,
        budget: &RunBudget,
    ) -> Result<(), SimError> {
        self.replay(memo.golden, Some(memo), site, overlay, faulty, budget)
    }

    fn replay(
        &mut self,
        golden: &GoldenRun,
        memo: Option<&ConeMemo<'_>>,
        site: SignalId,
        overlay: &dyn TraceOverlay,
        faulty: &mut TraceArena,
        budget: &RunBudget,
    ) -> Result<(), SimError> {
        let n = self.net.signal_count();
        if golden.signal_count() != n || site.index() >= n {
            return Err(SimError::Network {
                reason: format!(
                    "cone replay over {n} signals got a golden run of {} signals and site s{}",
                    golden.signal_count(),
                    site.index()
                ),
            });
        }
        debug_assert!(overlay.rewrites(site), "the overlay must rewrite its site");
        let s = site.index();
        self.evaluated = 0;
        if let Some(stale) = self.pending.get_mut(self.scan..=self.reach / 64) {
            stale.fill(0);
        }
        self.scan = s / 64;
        self.reach = 0;
        self.spliced_at = None;
        for &d in &self.dirty_list {
            self.dirty[d as usize / 64] = 0;
        }
        self.dirty_list.clear();
        faulty.reset();
        let inputs = self.net.input_count();
        let mut meter = BudgetMeter::start(budget);
        let mut edges = golden.gate_edges;

        let want = golden.at(s);
        let (_, out, _) = faulty.stage();
        overlay.rewrite(site, want, out)?;
        if out.as_ref() == want {
            out.clear(false);
            return meter.on_edges(edges);
        }
        let span = faulty.seal_out();
        let rewritten = faulty.trace(span);
        // A constant gate trace makes this the replay of `s` stuck at
        // that value: publish it once it completes. (Splices happen at
        // gates only, so an input's replay is never looked up.)
        let publish = memo
            .filter(|_| s >= inputs && rewritten.is_empty())
            .map(|memo| memo.slot(s, rewritten.initial_value()));
        if s >= inputs {
            // Input traces are caller data and never charged.
            edges = edges - want.len() as u64 + rewritten.len() as u64;
        }
        self.mark_dirty(s, span);
        // Fan-outs always follow their source, so the scan starts at the
        // site's first fan-out, only moves forward and never revisits a
        // word it has emptied; and every pending gate is a fan-out of a
        // dirty signal, so none lies past `reach`.
        let row = self.csr.start[s] as usize..self.csr.start[s + 1] as usize;
        if let Some(&first) = self.csr.targets[row].first() {
            self.scan = first as usize / 64;
        }
        while self.scan <= self.reach / 64 {
            let w = self.scan;
            let bits = self.pending[w];
            if bits == 0 {
                self.scan += 1;
                continue;
            }
            self.pending[w] = bits & (bits - 1);
            let g = w * 64 + bits.trailing_zeros() as usize;
            self.evaluated += 1;
            let Some(span) = self.eval(g, golden, faulty)? else {
                continue;
            };
            let out = faulty.trace(span);
            let golden_len = golden.at(g).len() as u64;
            edges = edges - golden_len + out.len() as u64;
            // Checked before `g` is marked: `reach` covers the earlier
            // dirty signals only.
            let record = memo
                .filter(|_| out.is_empty() && self.reach <= g)
                .and_then(|memo| memo.slot(g, out.initial_value()).get());
            self.mark_dirty(g, span);
            if let Some(record) = record {
                self.splice(g, record);
                edges = edges + record.edges + golden_len - golden.gate_edges;
                break;
            }
        }
        meter.on_edges(edges)?;
        if let Some(slot) = publish {
            slot.get_or_init(|| ConeRecord {
                dirty: self.dirty_list.as_slice().into(),
                gates: self.evaluated,
                edges,
            });
        }
        Ok(())
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

    /// The signals the last run marked dirty, each once, in marking
    /// order: [`ConeReplay::is_dirty`] as a list, exact after a splice
    /// too.
    #[must_use]
    pub fn dirty_signals(&self) -> &[u32] {
        &self.dirty_list
    }

    /// Signal `id`'s trace in the last run: from `faulty` when dirty,
    /// from `golden` otherwise. Pass the same golden run and arena the
    /// run used.
    ///
    /// # Panics
    ///
    /// Panics for a [`SignalId`] of another network, or mismatched
    /// arenas, and after a [`ConeReplay::run_spliced`] that spliced at
    /// gate `g`, for a dirty signal past `g`: its faulty trace was
    /// never computed in this run (its dirty bit is exact).
    #[must_use]
    pub fn trace<'a>(
        &self,
        golden: &'a GoldenRun,
        faulty: &'a TraceArena,
        id: SignalId,
    ) -> TraceRef<'a> {
        if self.is_dirty(id) {
            if let Some(g) = self.spliced_at {
                assert!(
                    id.index() <= g,
                    "signal s{} is dirty past the splice point s{g}: its trace was not replayed",
                    id.index()
                );
            }
            faulty.trace(self.span_of[id.index()] as usize)
        } else {
            golden.trace(id)
        }
    }

    /// Gates the last run re-evaluated (a tripped run counts those it
    /// reached). A spliced run adds the recorded replay's count, so this
    /// is always the work of the memo-less [`ConeReplay::run`].
    #[must_use]
    pub fn gates_evaluated(&self) -> u64 {
        self.evaluated
    }

    /// Marks `s` dirty at faulty span `span` and schedules its fan-out.
    fn mark_dirty(&mut self, s: usize, span: usize) {
        self.dirty[s / 64] |= 1 << (s % 64);
        // Lossless: at most one span and one list entry per signal per
        // run.
        self.dirty_list.push(s as u32);
        self.reach = self.reach.max(self.last_fanout[s] as usize);
        self.span_of[s] = span as u32;
        for k in self.csr.start[s]..self.csr.start[s + 1] {
            let g = self.csr.targets[k as usize] as usize;
            self.pending[g / 64] |= 1 << (g % 64);
        }
    }

    /// Takes `record`, the replay of `g` held at its present constant
    /// value, as the rest of this run: its dirty signals past `g` and
    /// its gate count.
    fn splice(&mut self, g: usize, record: &ConeRecord) {
        debug_assert_eq!(
            record.dirty.first(),
            Some(&(g as u32)),
            "a record starts at its site"
        );
        for &d in &record.dirty[1..] {
            self.dirty[d as usize / 64] |= 1 << (d % 64);
        }
        self.dirty_list.extend_from_slice(&record.dirty[1..]);
        self.evaluated += record.gates;
        self.spliced_at = Some(g);
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
        let (net, [_, b, ..], inputs) = fixture();
        let golden = GoldenRun::record(&mut Simulator::new(&net).unwrap(), &inputs).unwrap();
        // b stuck-at-1 passes a's pulse through j and h.
        let ov = Stuck(b, true);
        let full = full_replay(&net, &inputs, &ov);
        let edges: u64 = full[net.input_count()..]
            .iter()
            .map(|t| t.edges().len() as u64)
            .sum();
        let mut cone = ConeReplay::new(&net).unwrap();
        let mut faulty = TraceArena::new();
        let mut run = |budget: RunBudget| cone.run(&golden, b, &ov, &mut faulty, &budget);
        run(RunBudget::UNLIMITED.with_max_edges(edges)).unwrap();
        assert!(edges > 0);
        assert!(run(RunBudget::UNLIMITED.with_max_edges(edges - 1)).is_err());
    }

    /// a, b inputs; c1 = NOT(a); c2 = NOR(c1, b) inertial; c3 =
    /// NOT(c2); with `side`, also side = AND(a, b) after them.
    /// Stimulus: a and b pulse at different times.
    fn chain(side: bool) -> (Network, Vec<DigitalTrace>) {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c1 = net.add_gate("c1", GateKind::Not, &[a], None).unwrap();
        let inertial = InertialChannel::symmetric(ps(40.0), ps(30.0)).unwrap();
        let c2 = net
            .add_gate("c2", GateKind::Nor, &[c1, b], Some(Box::new(inertial)))
            .unwrap();
        net.add_gate("c3", GateKind::Not, &[c2], None).unwrap();
        if side {
            net.add_gate("side", GateKind::And, &[a, b], None).unwrap();
        }
        let pulse = |t0, t1| {
            DigitalTrace::with_edges(false, vec![(ps(t0), true), (ps(t1), false)]).unwrap()
        };
        (net, vec![pulse(100.0, 400.0), pulse(700.0, 900.0)])
    }

    #[test]
    fn a_constant_gate_splices_the_recorded_stuck_at_replay() {
        for side in [true, false] {
            let (net, inputs) = chain(side);
            let ids: Vec<SignalId> = (0..net.signal_count())
                .map(|s| net.signal_id(s).unwrap())
                .collect();
            let (a, c1, c2) = (ids[0], ids[2], ids[3]);
            let golden = GoldenRun::record(&mut Simulator::new(&net).unwrap(), &inputs).unwrap();
            let memo = ConeMemo::new(&golden);
            let mut cone = ConeReplay::new(&net).unwrap();
            let mut faulty = TraceArena::new();
            // a stuck-at-1 holds c1 at 0: the memo-less run first.
            let a1 = Stuck(a, true);
            cone.run(&golden, a, &a1, &mut faulty, &RunBudget::UNLIMITED)
                .unwrap();
            let plain: Vec<bool> = ids.iter().map(|&id| cone.is_dirty(id)).collect();
            let plain_gates = cone.gates_evaluated();
            let full = full_replay(&net, &inputs, &a1);
            let edges: u64 = full[net.input_count()..]
                .iter()
                .map(|t| t.edges().len() as u64)
                .sum();
            assert!(edges > 0);
            // c1 stuck-at-0 has a constant gate trace: it publishes.
            let c1_0 = Stuck(c1, false);
            cone.run_spliced(&memo, c1, &c1_0, &mut faulty, &RunBudget::UNLIMITED)
                .unwrap();
            assert_eq!(cone.spliced_at, None);
            assert!(memo.slot(c1.index(), false).get().is_some());
            for budget in [
                RunBudget::UNLIMITED,
                RunBudget::UNLIMITED.with_max_edges(edges),
            ] {
                cone.run_spliced(&memo, a, &a1, &mut faulty, &budget)
                    .unwrap();
                // `side` reads a past c1, so the reach check refuses.
                let want = (!side).then_some(c1.index());
                assert_eq!(cone.spliced_at, want, "side: {side}");
                assert_eq!(cone.gates_evaluated(), plain_gates);
                let dirty: Vec<bool> = ids.iter().map(|&id| cone.is_dirty(id)).collect();
                assert_eq!(dirty, plain);
                // Up to the splice point the traces are this run's own.
                let own = if side { ids.len() } else { c1.index() + 1 };
                for &id in &ids[..own] {
                    assert_eq!(
                        cone.trace(&golden, &faulty, id).to_trace(),
                        full[id.index()]
                    );
                }
            }
            let short = RunBudget::UNLIMITED.with_max_edges(edges - 1);
            assert!(cone
                .run_spliced(&memo, a, &a1, &mut faulty, &short)
                .is_err());
            if !side {
                // Past the splice point a dirty trace was never computed.
                cone.run_spliced(&memo, a, &a1, &mut faulty, &RunBudget::UNLIMITED)
                    .unwrap();
                assert!(cone.is_dirty(c2));
                let past = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = cone.trace(&golden, &faulty, c2);
                }));
                assert!(past.is_err(), "trace() past the splice point must panic");
            }
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
