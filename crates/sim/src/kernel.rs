//! Shared evaluation infrastructure for the `mis-sim` engines: the
//! per-gate kernel, the index-width guard, the fan-out CSR builder, and
//! the topological levelizer.
//!
//! All three engines — the serial event-queue [`crate::Simulator`], the
//! parallel per-cone [`crate::ParallelSimulator`] and the level-sliced
//! [`crate::WavefrontSimulator`] — and the cone-only fault replay
//! [`crate::ConeReplay`] evaluate gates through
//! [`eval_signal_into`], the very same fused ideal-gate + channel
//! passes `mis_digital::Network::run_in` uses. Keeping the kernel in
//! one place is what makes the engines' bit-identity argument
//! structural rather than coincidental: a gate's output is a pure
//! function of its fan-in traces, computed by literally the same code,
//! so any schedule (event order, cone order, level order, thread
//! interleaving) that respects dependencies produces the same traces.

use mis_digital::{
    gates, ChannelCounters, EventBatch, GateKind, Network, SignalId, SignalSource, SimError,
};
use mis_waveform::{EdgeBuf, TraceRef};

/// The largest signal count (and total fan-out edge count) the engines
/// can address: they store signal, span and fan-out-edge indices as
/// `u32`. [`crate::Simulator::new`] rejects anything larger as
/// [`SimError::NetworkTooLarge`]; static analysis compares
/// [`crate::bench::BenchNetlist::lowered_stats`] against this limit to
/// predict that rejection before allocation.
pub const ENGINE_INDEX_MAX: usize = u32::MAX as usize;

/// The engines store signal, span and fan-out-edge indices as `u32`.
/// Rejects counts that would truncate, as [`SimError::NetworkTooLarge`].
pub(crate) fn check_index_width(count: usize) -> Result<(), SimError> {
    if count > ENGINE_INDEX_MAX {
        return Err(SimError::NetworkTooLarge {
            count,
            max: ENGINE_INDEX_MAX,
        });
    }
    Ok(())
}

/// Flat CSR view of a network's fan-out edges plus per-signal fan-in
/// degrees (with multiplicity) — the dependency-count structure both
/// engines are built on.
#[derive(Debug, Clone)]
pub(crate) struct FanoutCsr {
    /// Row starts into `targets`, one entry per signal plus a tail.
    pub start: Vec<u32>,
    /// Dependent gate signal indices, grouped by source signal.
    pub targets: Vec<u32>,
    /// Fan-in degree per signal (0 for inputs).
    pub indeg: Vec<u32>,
}

impl FanoutCsr {
    /// Walks `net` once and builds the CSR.
    ///
    /// # Errors
    ///
    /// [`SimError::NetworkTooLarge`] when the signal count or the total
    /// fan-out edge count exceeds the `u32` index width.
    pub(crate) fn build(net: &Network) -> Result<Self, SimError> {
        let n = net.signal_count();
        check_index_width(n)?;
        let mut indeg = vec![0u32; n];
        let mut counts = vec![0usize; n];
        let for_each_edge = |f: &mut dyn FnMut(usize, usize)| {
            for s in 0..n {
                let id = net.signal_id(s).expect("s < signal_count");
                match net.source(id) {
                    SignalSource::Input => {}
                    SignalSource::Gate { inputs, .. } => {
                        for i in inputs {
                            f(i.index(), s);
                        }
                    }
                    SignalSource::TwoInputChannelGate { inputs, .. } => {
                        for i in inputs {
                            f(i.index(), s);
                        }
                    }
                }
            }
        };
        for_each_edge(&mut |src, dst| {
            counts[src] += 1;
            indeg[dst] += 1;
        });
        // Gate arity is bounded, but the *sum* of fan-outs can outgrow
        // the index width even when the signal count fits: check it
        // before narrowing.
        let total: usize = counts.iter().sum();
        check_index_width(total)?;
        let mut start = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        start.push(0u32);
        for &c in &counts {
            acc += c;
            start.push(acc as u32);
        }
        let mut cursor: Vec<u32> = start[..n].to_vec();
        let mut targets = vec![0u32; total];
        for_each_edge(&mut |src, dst| {
            targets[cursor[src] as usize] = dst as u32;
            cursor[src] += 1;
        });
        Ok(FanoutCsr {
            start,
            targets,
            indeg,
        })
    }

    /// Whether signal `s` drives no gate (a cone root for the parallel
    /// partitioning: every signal reaches at least one sink, so sink
    /// fan-in cones cover the whole network).
    #[inline]
    pub(crate) fn is_sink(&self, s: usize) -> bool {
        self.start[s] == self.start[s + 1]
    }
}

/// Topological level per signal: 0 for inputs, `1 + max` over fan-in
/// levels for gates — the same definition `mis_analyze::sta::levels`
/// documents (kept crate-local here to avoid a `sim → analyze`
/// dependency cycle; `mis-analyze` property-tests its table against the
/// engines, which pins the two definitions together). One forward pass
/// suffices because [`Network`]'s builder enforces reference-before-use:
/// every fan-in has a smaller signal index.
pub(crate) fn levels(net: &Network) -> Vec<u32> {
    let n = net.signal_count();
    let mut levels = vec![0u32; n];
    for s in 0..n {
        let id = net.signal_id(s).expect("s < signal_count");
        let mut level = 0u32;
        for_each_fanin_of(net.source(id), &mut |i| level = level.max(levels[i] + 1));
        levels[s] = level;
    }
    levels
}

/// Calls `f` with each fan-in signal index of `source` (none for
/// inputs).
pub(crate) fn for_each_fanin_of(source: SignalSource<'_>, f: &mut impl FnMut(usize)) {
    match source {
        SignalSource::Input => {}
        SignalSource::Gate { inputs, .. } => {
            for i in inputs {
                f(i.index());
            }
        }
        SignalSource::TwoInputChannelGate { inputs, .. } => {
            for i in inputs {
                f(i.index());
            }
        }
    }
}

/// The arena-level shortcut for a gate, if any: a channel-less unary
/// gate is a pure span duplicate (`TraceArena::push_duplicate` — in the
/// SoA layout logical NOT is an initial-value flip, so no staging round
/// trip is needed). Returns the source signal and whether to invert.
///
/// Every engine and the cone replay consult this **one** predicate
/// before falling back to [`eval_signal_into`], so the fast-path
/// decision (which gates qualify, and the invert flag) cannot silently
/// diverge between them.
pub(crate) fn duplicate_shortcut(source: &SignalSource<'_>) -> Option<(SignalId, bool)> {
    match source {
        SignalSource::Gate {
            kind,
            inputs,
            channel: None,
        } if kind.func2().is_none() => Some((inputs[0], matches!(kind, GateKind::Not))),
        _ => None,
    }
}

/// Evaluates one non-input signal through the fused ideal-gate + channel
/// kernels, writing the result into `out` (using `scratch` for the
/// fused binary-gate pass and `batch` for the two-input channels'
/// pre-merged event list). Fan-in traces are obtained through
/// `resolve`, so the caller decides where sealed traces live — the
/// serial engine resolves into its single arena, each parallel worker
/// into its own. (Callers normally peel off [`duplicate_shortcut`]
/// gates first; the channel-less unary arm below remains as the general
/// fallback so the kernel is total over non-input sources.)
///
/// Channel applications record into `stats` through the probed trait
/// entry points; unprobed engines pass the
/// [`ChannelCounters::disabled`] sink, which the probed paths treat as
/// a branch-only no-op, so there is still exactly **one** kernel for
/// every engine and both probe modes.
///
/// # Errors
///
/// Propagates channel failures.
///
/// # Panics
///
/// Panics when `source` is [`SignalSource::Input`] — inputs are sealed
/// by the engines before any gate evaluation.
pub(crate) fn eval_signal_into<'a, F>(
    source: SignalSource<'_>,
    resolve: F,
    out: &mut EdgeBuf,
    scratch: &mut EdgeBuf,
    batch: &mut EventBatch,
    stats: &ChannelCounters,
) -> Result<(), SimError>
where
    F: Fn(SignalId) -> TraceRef<'a>,
{
    match source {
        SignalSource::Input => unreachable!("inputs are sealed before gate evaluation"),
        SignalSource::Gate {
            kind,
            inputs,
            channel,
        } => match kind.func2() {
            None => {
                let mut view = resolve(inputs[0]);
                if matches!(kind, GateKind::Not) {
                    view = view.inverted();
                }
                match channel {
                    None => {
                        out.copy_ref(view);
                        Ok(())
                    }
                    Some(ch) => ch.apply_into_probed(view, out, stats),
                }
            }
            Some(f) => {
                let va = resolve(inputs[0]);
                let vb = resolve(inputs[1]);
                match channel {
                    None => gates::combine2_into(f, va, vb, out),
                    Some(ch) => {
                        gates::combine2_into(f, va, vb, scratch)?;
                        ch.apply_into_probed(scratch.as_ref(), out, stats)
                    }
                }
            }
        },
        SignalSource::TwoInputChannelGate { inputs, channel } => {
            let va = resolve(inputs[0]);
            let vb = resolve(inputs[1]);
            channel.apply2_batched_into_probed(va, vb, batch, out, stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_digital::SimError;

    #[test]
    fn index_width_boundary() {
        assert!(check_index_width(0).is_ok());
        assert!(check_index_width(u32::MAX as usize).is_ok());
        let err = check_index_width(u32::MAX as usize + 1).unwrap_err();
        match err {
            SimError::NetworkTooLarge { count, max } => {
                assert_eq!(count, u32::MAX as usize + 1);
                assert_eq!(max, u32::MAX as usize);
            }
            other => panic!("expected NetworkTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn csr_rows_and_sinks() {
        use mis_digital::{GateKind, Network};
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let y = net.add_gate("y", GateKind::Nor, &[a, b], None).unwrap();
        let _z = net.add_gate("z", GateKind::Not, &[a], None).unwrap();
        let csr = FanoutCsr::build(&net).unwrap();
        let row = |s: usize| &csr.targets[csr.start[s] as usize..csr.start[s + 1] as usize];
        assert_eq!(row(a.index()), &[y.index() as u32, 3]);
        assert_eq!(row(b.index()), &[y.index() as u32]);
        assert!(csr.is_sink(y.index()));
        assert!(csr.is_sink(3));
        assert!(!csr.is_sink(a.index()));
        assert_eq!(csr.indeg, vec![0, 0, 2, 1]);
    }

    #[test]
    fn levels_are_one_plus_max_fanin() {
        use mis_digital::{GateKind, Network};
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let y = net.add_gate("y", GateKind::Nor, &[a, b], None).unwrap();
        let z = net.add_gate("z", GateKind::Not, &[y], None).unwrap();
        // A gate fed by signals on different levels sits one above the
        // *deeper* fan-in.
        let w = net.add_gate("w", GateKind::Nand, &[a, z], None).unwrap();
        let table = levels(&net);
        assert_eq!(table[a.index()], 0);
        assert_eq!(table[b.index()], 0);
        assert_eq!(table[y.index()], 1);
        assert_eq!(table[z.index()], 2);
        assert_eq!(table[w.index()], 3);
    }
}
