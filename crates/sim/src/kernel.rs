//! Shared evaluation infrastructure for the `mis-sim` engine and the
//! cone replay: the per-gate kernel, the index-width guard and the
//! fan-out CSR builder.
//!
//! The serial [`crate::Simulator`] and the cone-only fault replay
//! [`crate::ConeReplay`] evaluate gates through [`eval_signal_into`],
//! one set of fused ideal-gate + channel passes. Keeping the kernel in
//! one place is what makes their bit-identity argument structural
//! rather than coincidental: a gate's output is a pure function of its
//! fan-in traces, computed by literally the same code, so any schedule
//! that respects dependencies (the full signal-order sweep, or the cone
//! replay's ascending walk over perturbed gates) produces the same
//! traces. The independent check on the kernel itself is
//! `mis_digital::Network::run`, which composes the owned gate functions
//! and channel `apply`/`apply2` calls instead.

use mis_digital::{gates, ChannelEvents, GateKind, Network, SignalId, SignalSource, SimError};
use mis_waveform::{EdgeBuf, TraceRef};

/// The largest signal count (and total fan-out edge count) the engine
/// and the cone replay can address: they store signal, span and
/// fan-out-edge indices as `u32`. [`crate::Simulator::new`] rejects a
/// larger signal count and [`crate::ConeReplay::new`] a larger signal
/// or fan-out edge count, as [`SimError::NetworkTooLarge`]; static
/// analysis compares [`crate::bench::BenchNetlist::lowered_stats`]
/// against this limit to predict that rejection before allocation.
pub const ENGINE_INDEX_MAX: usize = u32::MAX as usize;

/// The engine and the cone replay store signal, span and fan-out-edge
/// indices as `u32`.
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

/// Flat CSR view of a network's fan-out edges (with multiplicity) — how
/// the cone replay schedules the fan-out of a perturbed signal.
#[derive(Debug, Clone)]
pub(crate) struct FanoutCsr {
    /// Row starts into `targets`, one entry per signal plus a tail.
    pub start: Vec<u32>,
    /// Dependent gate signal indices, grouped by source signal.
    pub targets: Vec<u32>,
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
        for_each_edge(&mut |src, _| counts[src] += 1);
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
        Ok(FanoutCsr { start, targets })
    }
}

/// The arena-level shortcut for a gate, if any: a channel-less unary
/// gate is a pure span duplicate (`TraceArena::push_duplicate` — in the
/// SoA layout logical NOT is an initial-value flip, so no staging round
/// trip is needed). Returns the source signal and whether to invert.
///
/// The engine and the cone replay consult this **one** predicate
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
/// fused binary-gate pass). Fan-in traces are obtained through
/// `resolve`, so the caller decides where sealed traces live — the
/// serial engine resolves into its single arena, the cone replay into
/// its faulty or the golden arena. (Callers normally peel off [`duplicate_shortcut`]
/// gates first; the channel-less unary arm below remains as the general
/// fallback so the kernel is total over non-input sources.)
///
/// Returns the channel's [`ChannelEvents`] (zeros for a channel-less
/// gate). Recording them is the caller's business: the engine sums
/// them into its run tallies, the cone replay ignores them, so there
/// is exactly **one** kernel for both evaluators and both probe modes.
///
/// # Errors
///
/// Propagates channel failures.
///
/// # Panics
///
/// Panics when `source` is [`SignalSource::Input`] — inputs are sealed
/// before any gate evaluation.
pub(crate) fn eval_signal_into<'a, F>(
    source: SignalSource<'_>,
    resolve: F,
    out: &mut EdgeBuf,
    scratch: &mut EdgeBuf,
) -> Result<ChannelEvents, SimError>
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
                        Ok(ChannelEvents::default())
                    }
                    Some(ch) => ch.apply_into(view, out),
                }
            }
            Some(f) => {
                let va = resolve(inputs[0]);
                let vb = resolve(inputs[1]);
                match channel {
                    None => {
                        gates::combine2_into(f, va, vb, out)?;
                        Ok(ChannelEvents::default())
                    }
                    Some(ch) => {
                        gates::combine2_into(f, va, vb, scratch)?;
                        ch.apply_into(scratch.as_ref(), out)
                    }
                }
            }
        },
        SignalSource::TwoInputChannelGate { inputs, channel } => {
            let va = resolve(inputs[0]);
            let vb = resolve(inputs[1]);
            channel.apply2_into(va, vb, out)
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
    fn csr_rows_group_fanout_by_source() {
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
        assert!(row(y.index()).is_empty());
        assert!(row(3).is_empty());
    }
}
