//! Batched kernel replay: after an engine run, every gate's recorded
//! fan-in views are fed back through that gate's own kernel, one kernel
//! kind per loop between two clock reads. A clock read costs tens of
//! nanoseconds and an evaluation makes about a thousand kernel calls,
//! so per-call timing would distort the very sums it measures.

use std::time::Instant;

use mis_digital::{gates, Network, SignalId, SignalSource, TraceTransform, TwoInputTransform};
use mis_sim::Simulator;
use mis_waveform::{EdgeBuf, TraceArena, TraceRef};

use crate::setup::same;

/// One ideal two-input gate: `combine2_into` over its fan-in views.
struct Combine {
    f: fn(bool, bool) -> bool,
    inputs: [SignalId; 2],
    /// The gate's signal when the combine output *is* the gate output
    /// (no channel behind it); checked against the engine's arena.
    sealed_as: Option<SignalId>,
}

/// Where a single-input channel's input comes from.
enum ChannelInput {
    /// The output of combine job `k` (a binary gate with a channel).
    Combined(usize),
    /// A fan-in view, inverted for NOT.
    View(SignalId, bool),
}

/// One single-input-channel gate: `TraceTransform::apply_into`.
struct Single<'n> {
    channel: &'n dyn TraceTransform,
    input: ChannelInput,
    signal: SignalId,
}

/// One two-input channel gate: `TwoInputTransform::apply2_into`.
struct Pair<'n> {
    channel: &'n dyn TwoInputTransform,
    inputs: [SignalId; 2],
    signal: SignalId,
}

/// Host seconds each kernel kind took over one replay of a whole
/// evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelTimes {
    /// `gates::combine2_into` over every two-input gate.
    pub combine: f64,
    /// `TraceTransform::apply_into` over every single-input-channel gate.
    pub single: f64,
    /// `TwoInputTransform::apply2_into` over every two-input channel gate.
    pub pair: f64,
}

impl KernelTimes {
    /// The three kernel sums.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.combine + self.single + self.pair
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &KernelTimes) {
        self.combine += other.combine;
        self.single += other.single;
        self.pair += other.pair;
    }
}

/// The replay job lists of one network, with one warm output buffer per
/// job so a replay allocates nothing once warm.
pub struct Replay<'n> {
    combine: Vec<Combine>,
    single: Vec<Single<'n>>,
    pair: Vec<Pair<'n>>,
    combine_out: Vec<EdgeBuf>,
    single_out: Vec<EdgeBuf>,
    pair_out: Vec<EdgeBuf>,
}

impl<'n> Replay<'n> {
    /// Collects every kernel call an evaluation of `net` makes.
    #[must_use]
    pub fn new(net: &'n Network) -> Self {
        let (mut combine, mut single, mut pair) = (Vec::new(), Vec::new(), Vec::new());
        for s in 0..net.signal_count() {
            let signal = net.signal_id(s).expect("s < signal_count");
            match net.source(signal) {
                SignalSource::Input => {}
                SignalSource::Gate {
                    kind,
                    inputs,
                    channel,
                } => {
                    let input = match kind.func2() {
                        Some(f) => {
                            combine.push(Combine {
                                f,
                                inputs: [inputs[0], inputs[1]],
                                sealed_as: channel.is_none().then_some(signal),
                            });
                            ChannelInput::Combined(combine.len() - 1)
                        }
                        None => ChannelInput::View(
                            inputs[0],
                            matches!(kind, mis_digital::GateKind::Not),
                        ),
                    };
                    // Channel-less unary gates are arena span duplicates in
                    // the engine — data movement, not a kernel.
                    if let Some(channel) = channel {
                        single.push(Single {
                            channel,
                            input,
                            signal,
                        });
                    }
                }
                SignalSource::TwoInputChannelGate { inputs, channel } => pair.push(Pair {
                    channel,
                    inputs,
                    signal,
                }),
            }
        }
        let bufs = |n: usize| (0..n).map(|_| EdgeBuf::new()).collect();
        Replay {
            combine_out: bufs(combine.len()),
            single_out: bufs(single.len()),
            pair_out: bufs(pair.len()),
            combine,
            single,
            pair,
        }
    }

    /// Gate counts per kernel kind: (combine, single-input channel,
    /// two-input channel).
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize) {
        (self.combine.len(), self.single.len(), self.pair.len())
    }

    /// Replays every kernel call of the run `sim` just made into
    /// `arena`, timing each kind as one loop, then checks every replayed
    /// gate output bit-equal to the engine's sealed trace.
    ///
    /// # Errors
    ///
    /// A kernel failure, or the first gate whose replayed output differs
    /// from the engine's.
    pub fn run(&mut self, sim: &Simulator<'_>, arena: &TraceArena) -> Result<KernelTimes, String> {
        let view = |id: SignalId| sim.trace(arena, id);
        let err = |e| format!("kernel replay: {e}");
        let t0 = Instant::now();
        for (job, out) in self.combine.iter().zip(&mut self.combine_out) {
            gates::combine2_into(job.f, view(job.inputs[0]), view(job.inputs[1]), out)
                .map_err(err)?;
        }
        let t1 = Instant::now();
        let combined = &self.combine_out;
        for (job, out) in self.single.iter().zip(&mut self.single_out) {
            let input: TraceRef<'_> = match job.input {
                ChannelInput::Combined(k) => combined[k].as_ref(),
                ChannelInput::View(id, invert) if invert => view(id).inverted(),
                ChannelInput::View(id, _) => view(id),
            };
            job.channel.apply_into(input, out).map_err(err)?;
        }
        let t2 = Instant::now();
        for (job, out) in self.pair.iter().zip(&mut self.pair_out) {
            job.channel
                .apply2_into(view(job.inputs[0]), view(job.inputs[1]), out)
                .map_err(err)?;
        }
        let t3 = Instant::now();

        let sealed = self
            .combine
            .iter()
            .zip(&self.combine_out)
            .filter_map(|(j, o)| j.sealed_as.map(|s| (s, o)));
        let channels = self
            .single
            .iter()
            .map(|j| j.signal)
            .zip(&self.single_out)
            .chain(self.pair.iter().map(|j| j.signal).zip(&self.pair_out));
        for (signal, out) in sealed.chain(channels) {
            if !same(view(signal), &out.to_trace()) {
                return Err(format!(
                    "kernel replay of {} differs from the engine's trace",
                    sim.network().signal_name(signal)
                ));
            }
        }
        Ok(KernelTimes {
            combine: (t1 - t0).as_secs_f64(),
            single: (t2 - t1).as_secs_f64(),
            pair: (t3 - t2).as_secs_f64(),
        })
    }
}
