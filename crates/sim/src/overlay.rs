//! Trace overlays: deterministic per-signal rewrites applied inside an
//! engine run — the injection point `mis-fault` builds its fault model
//! on.
//!
//! An overlay sees a signal's fault-free trace while it is still staged
//! (an input copied into the arena's `scratch` buffer, a gate's kernel
//! output swapped into `scratch`, or the duplicate shortcut's view of
//! its fan-in) and writes its replacement into the arena's `out`
//! buffer. The run then seals `out` once, so signal `s` still has
//! exactly one trace in the arena, and no downstream gate ever sees the
//! fault-free one. [`crate::Simulator`] and the cone replay rewrite at
//! this same point, so the two stay bit-identical under any overlay: a
//! gate's output is still a pure function of its (now rewritten) fan-in
//! traces, evaluated by the shared kernel, so the argument of
//! `crate::kernel` goes through unchanged with "trace of signal `s`"
//! reinterpreted as "rewritten trace of signal `s`".
//!
//! Determinism requires `rewrite` to be a pure function of
//! `(signal, view)` — interior mutability that makes the result depend
//! on call order would break bit-identity between a full replay and a
//! cone replay.

use mis_digital::{SignalId, SimError};
use mis_waveform::{EdgeBuf, TraceRef};

/// A deterministic per-signal trace rewrite, applied to the staged trace
/// before it is sealed (see the module docs).
///
/// [`TraceOverlay::rewrites`] is the cheap pre-filter the engine calls
/// for every signal; only signals it accepts pay the staging round trip
/// through [`TraceOverlay::rewrite`].
pub trait TraceOverlay {
    /// Whether this overlay rewrites signal `id` — called once per
    /// signal per run.
    fn rewrites(&self, id: SignalId) -> bool;

    /// Rewrites signal `id`'s trace: reads the fault-free `view`
    /// and writes the replacement into `out`. The buffer arrives in an
    /// unspecified state — implementations must start with
    /// [`EdgeBuf::clear`]. Must be a pure function of `(id, view)`.
    ///
    /// # Errors
    ///
    /// Implementations surface invalid rewrites (e.g. a non-monotone
    /// edge push) as [`SimError`]; the run aborts with it.
    fn rewrite(&self, id: SignalId, view: TraceRef<'_>, out: &mut EdgeBuf) -> Result<(), SimError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunBudget, Simulator};
    use mis_digital::{GateKind, Network};
    use mis_waveform::{DigitalTrace, TraceArena};

    /// Forces one signal stuck at a constant — the shape `mis-fault`
    /// uses, inlined here to test the engine-side plumbing in isolation.
    struct StuckAt {
        id: SignalId,
        value: bool,
    }

    impl TraceOverlay for StuckAt {
        fn rewrites(&self, id: SignalId) -> bool {
            id == self.id
        }

        fn rewrite(
            &self,
            _id: SignalId,
            _view: TraceRef<'_>,
            out: &mut EdgeBuf,
        ) -> Result<(), SimError> {
            out.clear(self.value);
            Ok(())
        }
    }

    #[test]
    fn overlay_rewrites_feed_downstream_gates() {
        // y = NOT(a): stuck-at-1 on `a` forces y constant-low.
        let mut net = Network::new();
        let a = net.add_input("a");
        let y = net.add_gate("y", GateKind::Not, &[a], None).unwrap();
        let input = DigitalTrace::with_edges(false, vec![(100.0, true), (200.0, false)]).unwrap();
        let overlay = StuckAt { id: a, value: true };
        let mut sim = Simulator::new(&net).unwrap();
        let mut arena = TraceArena::new();
        sim.run_controlled_in(
            std::slice::from_ref(&input),
            &mut arena,
            &RunBudget::UNLIMITED,
            Some(&overlay),
        )
        .unwrap();
        let ya = sim.trace(&arena, a);
        assert!(ya.initial_value() && ya.is_empty(), "input rewritten");
        let yy = sim.trace(&arena, y);
        assert!(!yy.initial_value() && yy.is_empty(), "gate saw the rewrite");
    }

    #[test]
    fn overlay_on_a_gate_output_rewrites_after_evaluation() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let y = net.add_gate("y", GateKind::Not, &[a], None).unwrap();
        let z = net.add_gate("z", GateKind::Not, &[y], None).unwrap();
        let input = DigitalTrace::with_edges(false, vec![(100.0, true)]).unwrap();
        let overlay = StuckAt {
            id: y,
            value: false,
        };
        let mut sim = Simulator::new(&net).unwrap();
        let mut arena = TraceArena::new();
        sim.run_controlled_in(
            std::slice::from_ref(&input),
            &mut arena,
            &RunBudget::UNLIMITED,
            Some(&overlay),
        )
        .unwrap();
        assert!(sim.trace(&arena, a).len() == 1, "untouched signal intact");
        let zy = sim.trace(&arena, z);
        assert!(zy.initial_value() && zy.is_empty(), "z = NOT(stuck-low y)");
    }
}
