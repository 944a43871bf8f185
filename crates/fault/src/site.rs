//! The fault model: where a fault sits and what it does to the trace.
//!
//! A [`FaultSite`] names one signal of a lowered [`Network`] and a
//! [`FaultKind`]:
//!
//! * **Stuck-at-0 / stuck-at-1** — the classic test-generation model:
//!   the signal's trace is replaced by a constant, regardless of what
//!   the fault-free circuit drives.
//! * **Transient glitch** — a pulse of a given start time and width
//!   XOR-merged into the fault-free trace (an SEU-style upset). This is
//!   the interesting one for the paper's regime: the injected pulse
//!   propagates into exactly the inertial/hybrid pulse-filtering paths
//!   whose faithful modeling is the paper's claim, so whether a
//!   downstream gate swallows or propagates the glitch depends on the
//!   delay model under test.
//!
//! [`FaultOverlay`] realizes a site as a [`TraceOverlay`], the rewrite
//! hook the `mis-sim` engine applies before a signal's trace is
//! sealed; the XOR-merge keeps edge times strictly increasing by
//! cancelling coincident edges pairwise, so the rewritten trace is
//! always well-formed. [`FaultSite::window_edit`] gives the static companion:
//! the [`WindowEdit`] under which `mis-analyze`'s arrival windows stay
//! sound for the faulted run (verified by the differential fuzzer in
//! [`crate::fuzz`]).

use std::fmt;

use mis_analyze::{Window, WindowEdit};
use mis_digital::{Network, SignalId, SimError};
use mis_sim::TraceOverlay;
use mis_waveform::{EdgeBuf, TraceRef};

use crate::error::FaultError;

/// What a fault does to its signal's trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The signal is forced to a constant value.
    StuckAt(bool),
    /// A transient pulse starting at `time` (seconds) of duration
    /// `width` (seconds), XOR-merged into the fault-free trace.
    Glitch {
        /// Pulse start time in seconds.
        time: f64,
        /// Pulse width in seconds (strictly positive).
        width: f64,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::StuckAt(false) => f.write_str("sa0"),
            FaultKind::StuckAt(true) => f.write_str("sa1"),
            FaultKind::Glitch { time, width } => {
                write!(f, "glitch@{:.1}ps/{:.1}ps", time / 1e-12, width / 1e-12)
            }
        }
    }
}

/// One injectable fault: a signal plus a [`FaultKind`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSite {
    /// The faulted signal.
    pub signal: SignalId,
    /// What the fault does.
    pub kind: FaultKind,
}

impl FaultSite {
    /// A stuck-at-0 fault on `signal`.
    #[must_use]
    pub fn stuck_at_0(signal: SignalId) -> Self {
        FaultSite {
            signal,
            kind: FaultKind::StuckAt(false),
        }
    }

    /// A stuck-at-1 fault on `signal`.
    #[must_use]
    pub fn stuck_at_1(signal: SignalId) -> Self {
        FaultSite {
            signal,
            kind: FaultKind::StuckAt(true),
        }
    }

    /// A transient glitch on `signal`: a pulse over
    /// `[time, time + width]` XOR-merged into the fault-free trace.
    ///
    /// # Errors
    ///
    /// [`FaultError::Invalid`] for a non-finite `time` or a
    /// non-positive or non-finite `width`.
    pub fn glitch(signal: SignalId, time: f64, width: f64) -> Result<Self, FaultError> {
        if !time.is_finite() || !width.is_finite() || !(width > 0.0) {
            return Err(FaultError::Invalid {
                reason: format!(
                    "glitch needs finite time and positive finite width, got time={time}, width={width}"
                ),
            });
        }
        Ok(FaultSite {
            signal,
            kind: FaultKind::Glitch { time, width },
        })
    }

    /// The [`WindowEdit`] under which statically propagated arrival
    /// windows stay sound for this fault's dynamic runs: a stuck-at
    /// trace has no edges ([`WindowEdit::Replace`] with
    /// [`Window::EMPTY`]); every glitch-rewritten edge is an original
    /// edge or one of the two pulse edges ([`WindowEdit::Widen`] over
    /// the pulse interval).
    #[must_use]
    pub fn window_edit(&self) -> (SignalId, WindowEdit) {
        match self.kind {
            FaultKind::StuckAt(_) => (self.signal, WindowEdit::Replace(Window::EMPTY)),
            FaultKind::Glitch { time, width } => (
                self.signal,
                WindowEdit::Widen(Window::new(time, time + width)),
            ),
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(s{})", self.kind, self.signal.index())
    }
}

/// Every single stuck-at site of `net`: stuck-at-0 and stuck-at-1 on
/// each signal (inputs and gates alike), in ascending signal order —
/// the canonical exhaustive campaign fault list.
#[must_use]
pub fn stuck_at_sites(net: &Network) -> Vec<FaultSite> {
    (0..net.signal_count())
        .filter_map(|s| net.signal_id(s))
        .flat_map(|id| [FaultSite::stuck_at_0(id), FaultSite::stuck_at_1(id)])
        .collect()
}

/// A [`FaultSite`] realized as the [`TraceOverlay`] the engine injects
/// it through. Stateless beyond the site itself, so it is trivially a
/// pure function of `(signal, view)` — the determinism contract the
/// overlay trait requires.
#[derive(Debug, Clone, Copy)]
pub struct FaultOverlay {
    site: FaultSite,
}

impl FaultOverlay {
    /// Wraps a site for injection.
    #[must_use]
    pub fn new(site: FaultSite) -> Self {
        FaultOverlay { site }
    }
}

impl TraceOverlay for FaultOverlay {
    fn rewrites(&self, id: SignalId) -> bool {
        id == self.site.signal
    }

    fn rewrite(
        &self,
        _id: SignalId,
        view: TraceRef<'_>,
        out: &mut EdgeBuf,
    ) -> Result<(), SimError> {
        match self.site.kind {
            FaultKind::StuckAt(value) => {
                out.clear(value);
                Ok(())
            }
            FaultKind::Glitch { time, width } => xor_pulse(view, time, time + width, out),
        }
    }
}

/// XOR-merges the pulse `[t0, t1]` into `view`: a sorted two-way merge
/// of the edge-time sequences in which exactly coincident times cancel
/// pairwise (XOR of two simultaneous toggles is no toggle). Cancelling
/// preserves strict monotonicity and alternation, so the pushes below
/// cannot fail on well-formed input.
fn xor_pulse(view: TraceRef<'_>, t0: f64, t1: f64, out: &mut EdgeBuf) -> Result<(), SimError> {
    out.clear(view.initial_value());
    let a = view.times();
    let b = [t0, t1];
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        if i < a.len() && j < b.len() && a[i] == b[j] {
            i += 1;
            j += 1;
            continue;
        }
        let t = if j >= b.len() || (i < a.len() && a[i] < b[j]) {
            i += 1;
            a[i - 1]
        } else {
            j += 1;
            b[j - 1]
        };
        out.push_time(t)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_digital::{GateKind, Network};

    fn net3() -> (Network, SignalId, SignalId, SignalId) {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let y = net.add_gate("y", GateKind::Nor, &[a, b], None).unwrap();
        (net, a, b, y)
    }

    fn rewrite(site: FaultSite, initial: bool, times: &[f64]) -> (bool, Vec<f64>) {
        let ov = FaultOverlay::new(site);
        assert!(ov.rewrites(site.signal));
        let mut out = EdgeBuf::new();
        ov.rewrite(site.signal, TraceRef::new(initial, times), &mut out)
            .unwrap();
        (out.initial_value(), out.as_ref().times().to_vec())
    }

    #[test]
    fn stuck_at_forces_a_constant() {
        let (_, a, _, _) = net3();
        let (init, times) = rewrite(FaultSite::stuck_at_1(a), false, &[1.0, 2.0, 3.0]);
        assert!(init);
        assert!(times.is_empty());
        let (init, times) = rewrite(FaultSite::stuck_at_0(a), true, &[1.0]);
        assert!(!init);
        assert!(times.is_empty());
    }

    #[test]
    fn glitch_xor_merges_the_pulse() {
        let (_, a, _, _) = net3();
        let site = FaultSite::glitch(a, 5.0, 1.0).unwrap();
        // Pulse lands in quiet space: both edges appear.
        let (init, times) = rewrite(site, false, &[1.0, 2.0]);
        assert!(!init);
        assert_eq!(times, vec![1.0, 2.0, 5.0, 6.0]);
        // Pulse start coincides with an existing edge: both cancel.
        let (init, times) = rewrite(site, false, &[5.0, 9.0]);
        assert!(!init);
        assert_eq!(times, vec![6.0, 9.0]);
        // Both pulse edges coincide with existing edges: pulse erased.
        let (_, times) = rewrite(site, true, &[5.0, 6.0]);
        assert!(times.is_empty());
        // Initial value is never touched by a glitch.
        let (init, _) = rewrite(site, true, &[]);
        assert!(init);
    }

    #[test]
    fn glitch_validation_rejects_degenerate_pulses() {
        let (_, a, _, _) = net3();
        assert!(FaultSite::glitch(a, 1.0, 0.0).is_err());
        assert!(FaultSite::glitch(a, 1.0, -2.0).is_err());
        assert!(FaultSite::glitch(a, f64::NAN, 1.0).is_err());
        assert!(FaultSite::glitch(a, 1.0, f64::INFINITY).is_err());
        assert!(FaultSite::glitch(a, 1.0, f64::NAN).is_err());
    }

    #[test]
    fn stuck_at_sites_cover_every_signal_twice() {
        let (net, a, _, y) = net3();
        let sites = stuck_at_sites(&net);
        assert_eq!(sites.len(), 2 * net.signal_count());
        assert_eq!(sites[0], FaultSite::stuck_at_0(a));
        assert_eq!(sites[1], FaultSite::stuck_at_1(a));
        assert!(sites.contains(&FaultSite::stuck_at_1(y)));
    }

    #[test]
    fn window_edits_match_the_fault_semantics() {
        let (_, a, _, _) = net3();
        let (id, edit) = FaultSite::stuck_at_0(a).window_edit();
        assert_eq!(id, a);
        assert_eq!(edit, WindowEdit::Replace(Window::EMPTY));
        let (_, edit) = FaultSite::glitch(a, 2.0, 3.0).unwrap().window_edit();
        assert_eq!(edit, WindowEdit::Widen(Window::new(2.0, 5.0)));
    }

    #[test]
    fn sites_render_for_reports() {
        let (_, a, _, _) = net3();
        assert_eq!(FaultSite::stuck_at_0(a).to_string(), "sa0(s0)");
        let g = FaultSite::glitch(a, 100e-12, 25e-12).unwrap();
        assert_eq!(g.to_string(), "glitch@100.0ps/25.0ps(s0)");
    }
}
