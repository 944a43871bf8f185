use mis_waveform::DigitalTrace;

use crate::channels::{TraceTransform, TwoInputTransform};
use crate::{gates, SimError};

/// Handle to a signal in a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignalId(usize);

impl SignalId {
    /// The signal's index into the trace vector returned by
    /// [`Network::run`].
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Supported zero-time gate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateKind {
    /// Unary buffer.
    Buf,
    /// Unary inverter.
    Not,
    /// Two-input AND.
    And,
    /// Two-input OR.
    Or,
    /// Two-input NAND.
    Nand,
    /// Two-input NOR.
    Nor,
    /// Two-input XOR.
    Xor,
}

impl GateKind {
    /// The gate's input arity.
    #[must_use]
    pub fn arity(self) -> usize {
        match self {
            GateKind::Buf | GateKind::Not => 1,
            _ => 2,
        }
    }

    /// The Boolean function of a binary gate; `None` for the unary kinds.
    /// [`Network::run`] passes it to the owned [`crate::gates::combine2`];
    /// the `mis-sim` engine and its cone replay pass it to the in-place
    /// [`crate::gates::combine2_into`], which tabulates it once per call,
    /// so the `fn` pointer is never called per edge.
    #[inline]
    #[must_use]
    pub fn func2(self) -> Option<fn(bool, bool) -> bool> {
        match self {
            GateKind::Buf | GateKind::Not => None,
            GateKind::And => Some(|x, y| x && y),
            GateKind::Or => Some(|x, y| x || y),
            GateKind::Nand => Some(|x, y| !(x && y)),
            GateKind::Nor => Some(|x, y| !(x || y)),
            GateKind::Xor => Some(|x, y| x ^ y),
        }
    }
}

enum Source {
    Input,
    Gate {
        kind: GateKind,
        /// Fan-in, stored inline: `inputs[..kind.arity()]` (a unary gate
        /// repeats its operand in the unused slot).
        inputs: [SignalId; 2],
        channel: Option<Box<dyn TraceTransform>>,
    },
    TwoInputChannelGate {
        inputs: [SignalId; 2],
        channel: Box<dyn TwoInputTransform>,
    },
}

/// A borrowed view of how one signal in a [`Network`] is produced,
/// returned by [`Network::source`]. This is what lets external engines
/// (the `mis-sim` evaluator and its cone replay) walk a network's
/// topology and re-run its gates through the very same channel objects,
/// guaranteeing bit-identical per-gate results.
pub enum SignalSource<'a> {
    /// A primary input.
    Input,
    /// A zero-time gate with an optional single-input output channel.
    Gate {
        /// The Boolean gate function.
        kind: GateKind,
        /// Fan-in signals (`kind.arity()` of them).
        inputs: &'a [SignalId],
        /// The delay channel on the gate output, if any.
        channel: Option<&'a dyn TraceTransform>,
    },
    /// A gate realized entirely by a two-input channel.
    TwoInputChannelGate {
        /// Fan-in signals.
        inputs: [SignalId; 2],
        /// The channel providing both function and timing.
        channel: &'a dyn TwoInputTransform,
    },
}

/// A feed-forward network of zero-time gates and delay channels — the
/// Involution Tool's circuit model.
///
/// Gates may only reference signals declared earlier, which makes the
/// netlist acyclic by construction and evaluation a single forward pass.
///
/// # Examples
///
/// An inverter chain with exponential involution channels:
///
/// ```
/// use mis_digital::{ExpChannel, GateKind, Network};
/// use mis_waveform::{DigitalTrace, units::ps};
///
/// # fn main() -> Result<(), mis_digital::SimError> {
/// let mut net = Network::new();
/// let x = net.add_input("x");
/// let ch = || Box::new(ExpChannel::from_sis_delays(ps(30.0), ps(30.0), ps(10.0)).unwrap());
/// let y1 = net.add_gate("y1", GateKind::Not, &[x], Some(ch()))?;
/// let _y2 = net.add_gate("y2", GateKind::Not, &[y1], Some(ch()))?;
/// let input = DigitalTrace::with_edges(false, vec![(ps(100.0), true)])?;
/// let traces = net.run(&[input])?;
/// // Two inversions restore polarity; two channels add 2×30 ps.
/// assert!((traces.last().unwrap().edges()[0].time - ps(160.0)).abs() < ps(0.5));
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct Network {
    /// Every signal's name, concatenated in declaration order.
    names: String,
    /// End of each signal's name in `names`; it starts where the
    /// previous signal's ends.
    name_end: Vec<usize>,
    sources: Vec<Source>,
    input_count: usize,
}

impl Network {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        Network {
            names: String::new(),
            name_end: Vec::new(),
            sources: Vec::new(),
            input_count: 0,
        }
    }

    /// Creates an empty network with room for `signals` inputs and gates.
    #[must_use]
    pub fn with_capacity(signals: usize) -> Self {
        Network {
            names: String::new(),
            name_end: Vec::with_capacity(signals),
            sources: Vec::with_capacity(signals),
            input_count: 0,
        }
    }

    /// Declares a primary input. All inputs must be declared before any
    /// gate: the evaluators rely on inputs occupying signal indices
    /// `0..input_count()`.
    ///
    /// # Panics
    ///
    /// Panics when a gate has already been added.
    pub fn add_input(&mut self, name: &str) -> SignalId {
        assert_eq!(
            self.input_count,
            self.sources.len(),
            "inputs must precede gates"
        );
        self.push_name(name);
        self.sources.push(Source::Input);
        self.input_count += 1;
        SignalId(self.sources.len() - 1)
    }

    /// Adds a zero-time gate with an optional single-input delay channel
    /// on its output.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Network`] for arity mismatches or references to
    /// undeclared signals.
    pub fn add_gate(
        &mut self,
        name: &str,
        kind: GateKind,
        inputs: &[SignalId],
        channel: Option<Box<dyn TraceTransform>>,
    ) -> Result<SignalId, SimError> {
        if inputs.len() != kind.arity() {
            return Err(SimError::Network {
                reason: format!(
                    "gate '{name}' ({kind:?}) needs {} inputs, got {}",
                    kind.arity(),
                    inputs.len()
                ),
            });
        }
        self.check_refs(name, inputs)?;
        self.push_name(name);
        self.sources.push(Source::Gate {
            kind,
            inputs: [inputs[0], inputs[inputs.len() - 1]],
            channel,
        });
        Ok(SignalId(self.sources.len() - 1))
    }

    /// Adds a gate realized entirely by a two-input channel (gate function
    /// *and* timing — the hybrid NOR).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Network`] for references to undeclared signals.
    pub fn add_two_input_channel_gate(
        &mut self,
        name: &str,
        inputs: [SignalId; 2],
        channel: Box<dyn TwoInputTransform>,
    ) -> Result<SignalId, SimError> {
        self.check_refs(name, &inputs)?;
        self.push_name(name);
        self.sources
            .push(Source::TwoInputChannelGate { inputs, channel });
        Ok(SignalId(self.sources.len() - 1))
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// Total number of signals (inputs and gates).
    #[must_use]
    pub fn signal_count(&self) -> usize {
        self.sources.len()
    }

    /// The [`SignalId`] of the `index`-th declared signal, or `None` when
    /// out of range. Signals are indexed in declaration order (inputs
    /// first), matching [`SignalId::index`].
    #[must_use]
    pub fn signal_id(&self, index: usize) -> Option<SignalId> {
        (index < self.sources.len()).then_some(SignalId(index))
    }

    /// A borrowed view of how signal `id` is produced.
    ///
    /// # Panics
    ///
    /// Panics for a foreign [`SignalId`].
    #[must_use]
    pub fn source(&self, id: SignalId) -> SignalSource<'_> {
        match &self.sources[id.0] {
            Source::Input => SignalSource::Input,
            Source::Gate {
                kind,
                inputs,
                channel,
            } => SignalSource::Gate {
                kind: *kind,
                inputs: &inputs[..kind.arity()],
                channel: channel.as_deref(),
            },
            Source::TwoInputChannelGate { inputs, channel } => SignalSource::TwoInputChannelGate {
                inputs: *inputs,
                channel: &**channel,
            },
        }
    }

    /// The name of a signal.
    ///
    /// # Panics
    ///
    /// Panics for a foreign [`SignalId`].
    #[must_use]
    pub fn signal_name(&self, id: SignalId) -> &str {
        let start = id.0.checked_sub(1).map_or(0, |prev| self.name_end[prev]);
        &self.names[start..self.name_end[id.0]]
    }

    /// Evaluates the network: `inputs[i]` drives the i-th declared input;
    /// returns one trace per signal (inputs included), indexable by
    /// [`SignalId`].
    ///
    /// This is the workspace's **reference** evaluator, deliberately
    /// naive and independent of the fast one (`mis_sim::Simulator`).
    /// Signals are computed in declaration order as owned traces: a
    /// zero-time gate's ideal output comes from [`gates::combine2`],
    /// [`gates::not`] or a clone, then the channel's owned
    /// [`TraceTransform::apply`]; a two-input channel gate calls the
    /// owned [`TwoInputTransform::apply2`]. No arena, staging buffer or
    /// `_into` kernel is involved, so bit-identity against the fast
    /// evaluator checks its arena, its fused gate + channel passes, its
    /// duplicate-span shortcut and every channel's in-place kernel, not
    /// just its schedule.
    ///
    /// # Errors
    ///
    /// * [`SimError::Network`] — wrong number of input traces.
    /// * Propagates channel failures.
    pub fn run(&self, inputs: &[DigitalTrace]) -> Result<Vec<DigitalTrace>, SimError> {
        if inputs.len() != self.input_count {
            return Err(SimError::Network {
                reason: format!(
                    "expected {} input traces, got {}",
                    self.input_count,
                    inputs.len()
                ),
            });
        }
        let mut traces: Vec<DigitalTrace> = Vec::with_capacity(self.sources.len());
        for (i, source) in self.sources.iter().enumerate() {
            let trace = match source {
                Source::Input => inputs[i].clone(),
                Source::Gate {
                    kind,
                    inputs: gin,
                    channel,
                } => {
                    let a = &traces[gin[0].0];
                    let ideal = match kind.func2() {
                        Some(f) => gates::combine2(f, a, &traces[gin[1].0])?,
                        None if *kind == GateKind::Not => gates::not(a)?,
                        None => a.clone(),
                    };
                    match channel {
                        Some(ch) => ch.apply(&ideal)?,
                        None => ideal,
                    }
                }
                Source::TwoInputChannelGate {
                    inputs: gin,
                    channel,
                } => channel.apply2(&traces[gin[0].0], &traces[gin[1].0])?,
            };
            traces.push(trace);
        }
        Ok(traces)
    }

    fn push_name(&mut self, name: &str) {
        self.names.push_str(name);
        self.name_end.push(self.names.len());
    }

    fn check_refs(&self, name: &str, refs: &[SignalId]) -> Result<(), SimError> {
        for r in refs {
            if r.0 >= self.sources.len() {
                return Err(SimError::Network {
                    reason: format!("gate '{name}' references undeclared signal {}", r.0),
                });
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field(
                "signals",
                &(0..self.sources.len())
                    .map(|i| self.signal_name(SignalId(i)))
                    .collect::<Vec<_>>(),
            )
            .field("inputs", &self.input_count)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HybridNorChannel, PureDelayChannel};
    use mis_core::NorParams;
    use mis_waveform::units::ps;

    #[test]
    #[should_panic(expected = "inputs must precede gates")]
    fn input_declared_after_a_gate_panics() {
        let mut net = Network::new();
        let a = net.add_input("a");
        net.add_gate("y", GateKind::Not, &[a], None).unwrap();
        net.add_input("late");
    }

    #[test]
    fn zero_time_network_logic() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let y = net.add_gate("y", GateKind::Nor, &[a, b], None).unwrap();
        let ta = DigitalTrace::with_edges(false, vec![(1.0, true)]).unwrap();
        let tb = DigitalTrace::constant(false);
        let traces = net.run(&[ta, tb]).unwrap();
        assert!(traces[y.0].initial_value());
        assert_eq!(traces[y.0].edges()[0].time, 1.0);
    }

    #[test]
    fn channels_compose_along_paths() {
        let mut net = Network::new();
        let x = net.add_input("x");
        let y1 = net
            .add_gate(
                "y1",
                GateKind::Buf,
                &[x],
                Some(Box::new(PureDelayChannel::new(ps(5.0)).unwrap())),
            )
            .unwrap();
        let y2 = net
            .add_gate(
                "y2",
                GateKind::Buf,
                &[y1],
                Some(Box::new(PureDelayChannel::new(ps(7.0)).unwrap())),
            )
            .unwrap();
        let input = DigitalTrace::with_edges(false, vec![(ps(100.0), true)]).unwrap();
        let traces = net.run(&[input]).unwrap();
        assert!((traces[y2.0].edges()[0].time - ps(112.0)).abs() < 1e-18);
    }

    #[test]
    fn hybrid_gate_embeds_in_network() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let ch = Box::new(HybridNorChannel::new(&NorParams::paper_table1()).unwrap());
        let y = net.add_two_input_channel_gate("y", [a, b], ch).unwrap();
        let ta = DigitalTrace::with_edges(false, vec![(ps(100.0), true)]).unwrap();
        let tb = DigitalTrace::with_edges(false, vec![(ps(110.0), true)]).unwrap();
        let traces = net.run(&[ta, tb]).unwrap();
        assert_eq!(traces[y.0].transition_count(), 1);
        assert!(!traces[y.0].edges()[0].rising);
    }

    #[test]
    fn cached_hybrid_gate_embeds_in_network() {
        use crate::CachedHybridChannel;
        use mis_charlib::{CharConfig, CharLib};

        // The cached fast path is a drop-in TwoInputTransform: the same
        // netlist slot as the exact hybrid gate, same output edges (up to
        // the characterization budget).
        let lib = CharLib::nor(&NorParams::paper_table1(), &CharConfig::default())
            .expect("characterization");
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let exact = Box::new(HybridNorChannel::new(&NorParams::paper_table1()).unwrap());
        let cached = Box::new(CachedHybridChannel::new(&lib).unwrap());
        let y_exact = net
            .add_two_input_channel_gate("y_exact", [a, b], exact)
            .unwrap();
        let y_cached = net
            .add_two_input_channel_gate("y_cached", [a, b], cached)
            .unwrap();
        let ta = DigitalTrace::with_edges(false, vec![(ps(100.0), true)]).unwrap();
        let tb = DigitalTrace::with_edges(false, vec![(ps(110.0), true)]).unwrap();
        let traces = net.run(&[ta, tb]).unwrap();
        assert_eq!(traces[y_exact.0].transition_count(), 1);
        assert_eq!(traces[y_cached.0].transition_count(), 1);
        let d = traces[y_exact.0].edges()[0].time - traces[y_cached.0].edges()[0].time;
        assert!(d.abs() <= lib.budget(), "cached gate within budget: {d:e}");
    }

    #[test]
    fn network_is_shareable_across_threads() {
        // The channel traits carry `Send + Sync` supertraits, so a built
        // network (channels boxed behind `dyn` pointers included) can be
        // borrowed by fault-campaign workers. A compile-time fact,
        // asserted here so a regression is a readable test failure rather
        // than a distant trait-bound error in `mis-fault`.
        fn assert_shareable<T: Send + Sync>() {}
        assert_shareable::<Network>();
    }

    #[test]
    fn arity_and_reference_validation() {
        let mut net = Network::new();
        let a = net.add_input("a");
        assert!(net.add_gate("bad", GateKind::Nor, &[a], None).is_err());
        assert!(net
            .add_gate("bad2", GateKind::Not, &[SignalId(99)], None)
            .is_err());
        assert!(net.run(&[]).is_err());
    }
}
