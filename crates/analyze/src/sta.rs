//! Static timing bounds over a lowered [`Network`]: per-signal arrival
//! *windows* propagated through the DAG using each channel's
//! [`DelayBounds`], plus topological levels and a critical-path report.
//!
//! # The soundness contract
//!
//! This module's guarantee — property-verified in
//! `tests/proptests.rs` against the dynamic engines — is **soundness**,
//! not tightness: every transition the event-driven simulator emits on
//! signal `s` lands inside `s`'s statically computed arrival window.
//! The argument is inductive over the (topological) declaration order:
//!
//! * **Inputs.** An input's window is supplied by the caller, computed
//!   from the stimulus itself ([`Window::from_edge_times`]) — the base
//!   case holds by construction.
//! * **Ideal gates.** A zero-time gate's output transitions only when
//!   some fan-in transitions, at exactly that time, so the fan-in hull
//!   covers it.
//! * **Bounded channels.** Every channel advertising
//!   [`DelayBounds`] `[lo, hi]` guarantees each emitted output edge at
//!   `t_out` has *some* input edge at `t_in` with
//!   `t_in + lo ≤ t_out ≤ t_in + hi` — pure delays exactly, inertial
//!   channels because cancellation only removes edges, the cached
//!   hybrid because its commit rule anchors on an input edge and its
//!   table lookups are bounded by exact per-cell extrema. Shifting the
//!   fan-in hull by `[lo, hi]` therefore covers every output edge.
//! * **Unbounded channels.** The exact involution channel
//!   (`ExpChannel`) advertises no bounds; its outputs
//!   get [`Window::UNBOUNDED`], which contains everything — still
//!   sound, just vacuous. The report counts these separately.
//! * **Quiescence.** Every channel maps a constant trace to a constant
//!   trace, so empty fan-in windows (no edges at all) propagate as
//!   [`Window::EMPTY`], and a gate whose *every* fan-in window is empty
//!   gets an empty window: no input edges, no output edges. Fan-ins
//!   with empty windows are skipped when forming the hull — a constant
//!   side input cannot time an output edge.

use std::fmt;

use mis_digital::{DelayBounds, Network, SignalId, SignalSource};

/// A closed interval of edge times in seconds, possibly empty or
/// unbounded. `lo > hi` encodes "no edges at all".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Earliest possible edge time (seconds).
    pub lo: f64,
    /// Latest possible edge time (seconds).
    pub hi: f64,
}

impl Window {
    /// The empty window: no edges can occur. Propagates through every
    /// bound computation as "stays constant".
    pub const EMPTY: Window = Window {
        lo: f64::INFINITY,
        hi: f64::NEG_INFINITY,
    };

    /// The window containing every time — the sound answer for channels
    /// that advertise no [`DelayBounds`].
    pub const UNBOUNDED: Window = Window {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// The window holding exactly one instant.
    #[must_use]
    pub fn instant(t: f64) -> Self {
        Window { lo: t, hi: t }
    }

    /// A window spanning `lo..=hi`.
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Self {
        Window { lo, hi }
    }

    /// The tightest window containing every time in `times` —
    /// [`Window::EMPTY`] for an empty slice. This is how stimulus
    /// traces become input windows: `times` are a trace's edge times
    /// (already monotone, but this does not rely on that).
    #[must_use]
    pub fn from_edge_times(times: &[f64]) -> Self {
        times.iter().fold(Window::EMPTY, |w, &t| Window {
            lo: w.lo.min(t),
            hi: w.hi.max(t),
        })
    }

    /// `true` when no edge can occur in this window.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        !(self.lo <= self.hi)
    }

    /// `true` when the window is non-empty with at least one infinite
    /// end — the vacuous answer produced by unbounded channels.
    #[must_use]
    pub fn is_unbounded(&self) -> bool {
        !self.is_empty() && (self.lo.is_infinite() || self.hi.is_infinite())
    }

    /// Whether `t` lies inside the window, widened by `tol` on both
    /// sides (containment checks against simulated edge times use a
    /// small absolute tolerance for floating-point slack).
    #[must_use]
    pub fn contains(&self, t: f64, tol: f64) -> bool {
        t >= self.lo - tol && t <= self.hi + tol
    }

    /// The tightest window containing both operands (empty windows are
    /// identities).
    #[must_use]
    pub fn hull(self, other: Window) -> Window {
        Window {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// The window shifted by a delay interval: an edge in `self` fed
    /// through a channel with `bounds` lands here. Empty stays empty.
    #[must_use]
    pub fn shifted(self, bounds: DelayBounds) -> Window {
        if self.is_empty() {
            return Window::EMPTY;
        }
        Window {
            lo: self.lo + bounds.lo,
            hi: self.hi + bounds.hi,
        }
    }
}

impl fmt::Display for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "(quiet)")
        } else if self.is_unbounded() {
            write!(f, "(unbounded)")
        } else {
            write!(f, "[{:.3}, {:.3}] ps", self.lo / 1e-12, self.hi / 1e-12)
        }
    }
}

/// A per-signal override applied during
/// [`TimingAnalysis::arrival_windows_edited`] propagation — the static
/// counterpart of a `mis-sim` trace overlay (see that method's docs for
/// the soundness correspondence).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowEdit {
    /// Replace the signal's propagated window outright. A stuck-at
    /// fault is `Replace(Window::EMPTY)`: the faulted trace is
    /// constant, so no edge can occur.
    Replace(Window),
    /// Hull the signal's propagated window with an extra interval. A
    /// transient glitch at `t` of width `w` is
    /// `Widen(Window::new(t, t + w))`: every faulted edge is either an
    /// original edge or one of the two pulse edges.
    Widen(Window),
}

impl WindowEdit {
    /// The edited window for a signal whose propagated window is `w`.
    #[must_use]
    pub fn apply(self, w: Window) -> Window {
        match self {
            WindowEdit::Replace(r) => r,
            WindowEdit::Widen(x) => w.hull(x),
        }
    }
}

/// The static view of one lowered [`Network`]: per-signal fan-in lists,
/// per-gate delay bounds, and topological levels — everything needed to
/// propagate arrival windows without touching the dynamic engines.
///
/// Construction walks the network once. Windows are then computed per
/// stimulus via [`TimingAnalysis::arrival_windows`], or once with all
/// inputs pinned at `t = 0` via [`TimingAnalysis::report`].
#[derive(Debug, Clone)]
pub struct TimingAnalysis {
    names: Vec<String>,
    /// Fan-in signal indices per signal (empty for inputs).
    fan_ins: Vec<Vec<usize>>,
    /// Channel delay bounds per signal: `Some` for inputs (unused) and
    /// bounded gates, `None` for gates behind unbounded channels.
    bounds: Vec<Option<DelayBounds>>,
    is_input: Vec<bool>,
    /// Signal indices of the primary inputs, in declaration order —
    /// the order `Network::run` expects its stimulus in.
    input_positions: Vec<usize>,
    levels: Vec<u32>,
}

impl TimingAnalysis {
    /// Captures the static structure of `net`.
    ///
    /// Relies on the builder invariant that declaration order is
    /// topological (a gate's operands are declared before it), which
    /// [`Network`] enforces at `add_gate` time.
    #[must_use]
    pub fn new(net: &Network) -> Self {
        let n = net.signal_count();
        let mut names = Vec::with_capacity(n);
        let mut fan_ins: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut bounds = Vec::with_capacity(n);
        let mut is_input = Vec::with_capacity(n);
        let mut input_positions = Vec::new();
        let mut levels = vec![0u32; n];
        for s in 0..n {
            let id = net.signal_id(s).expect("s < signal_count");
            names.push(net.signal_name(id).to_owned());
            match net.source(id) {
                SignalSource::Input => {
                    input_positions.push(s);
                    fan_ins.push(Vec::new());
                    bounds.push(Some(DelayBounds::exact(0.0)));
                    is_input.push(true);
                }
                SignalSource::Gate {
                    inputs, channel, ..
                } => {
                    fan_ins.push(inputs.iter().map(|i| i.index()).collect());
                    // A channel-less gate is zero-time: edges pass
                    // through at their input times exactly.
                    bounds.push(match channel {
                        None => Some(DelayBounds::exact(0.0)),
                        Some(ch) => ch.delay_bounds(),
                    });
                    is_input.push(false);
                }
                SignalSource::TwoInputChannelGate { inputs, channel } => {
                    fan_ins.push(inputs.iter().map(|i| i.index()).collect());
                    bounds.push(channel.delay_bounds());
                    is_input.push(false);
                }
            }
            if !fan_ins[s].is_empty() {
                levels[s] = 1 + fan_ins[s]
                    .iter()
                    .map(|&f| levels[f])
                    .max()
                    .expect("non-empty fan-in");
            }
        }
        TimingAnalysis {
            names,
            fan_ins,
            bounds,
            is_input,
            input_positions,
            levels,
        }
    }

    /// Topological level per signal: `0` for inputs, `1 + max` over
    /// fan-in levels for gates. Indexable by [`SignalId::index`].
    #[must_use]
    pub fn levels(&self) -> &[u32] {
        &self.levels
    }

    /// Propagates arrival windows through the DAG: `input_windows[k]`
    /// bounds the edge times of the `k`-th declared input (the same
    /// order `Network::run` takes its traces in); the returned vector
    /// holds one window per signal, indexable by [`SignalId::index`].
    ///
    /// Fan-ins with empty windows are skipped (a constant side input
    /// times no output edge); a gate whose every fan-in is quiet gets
    /// [`Window::EMPTY`]; a gate behind an unbounded channel whose
    /// fan-in hull is non-empty gets [`Window::UNBOUNDED`].
    ///
    /// # Panics
    ///
    /// Panics when `input_windows.len()` differs from the network's
    /// input count.
    #[must_use]
    pub fn arrival_windows(&self, input_windows: &[Window]) -> Vec<Window> {
        self.arrival_windows_edited(input_windows, &[])
    }

    /// [`TimingAnalysis::arrival_windows`] with per-signal
    /// [`WindowEdit`]s applied *during* propagation: a signal's edit
    /// replaces or widens its window before any downstream gate hulls
    /// it, so the edit's effect flows through the whole fan-out cone.
    ///
    /// This is the static companion of `mis-sim`'s trace overlays — an
    /// overlay rewriting signal `s`'s trace stays sound against the
    /// windows computed here as long as its edit covers the rewrite:
    /// [`WindowEdit::Replace`]`(`[`Window::EMPTY`]`)` for a stuck-at
    /// site (the rewritten trace has no edges), [`WindowEdit::Widen`]
    /// over the pulse interval for a glitch (every rewritten edge is an
    /// original edge or one of the two pulse edges). The inductive
    /// soundness argument in the module docs goes through unchanged
    /// with "window of `s`" read as "edited window of `s`".
    ///
    /// Edits are matched by signal; a signal listed twice gets the
    /// edits applied in list order.
    ///
    /// # Panics
    ///
    /// As [`TimingAnalysis::arrival_windows`].
    #[must_use]
    pub fn arrival_windows_edited(
        &self,
        input_windows: &[Window],
        edits: &[(SignalId, WindowEdit)],
    ) -> Vec<Window> {
        assert_eq!(
            input_windows.len(),
            self.input_positions.len(),
            "one window per declared input"
        );
        let mut w = vec![Window::EMPTY; self.names.len()];
        let mut next_input = 0usize;
        for s in 0..self.names.len() {
            if self.is_input[s] {
                w[s] = input_windows[next_input];
                next_input += 1;
            } else {
                let hull = self.fan_ins[s]
                    .iter()
                    .map(|&f| w[f])
                    .filter(|fw| !fw.is_empty())
                    .fold(Window::EMPTY, Window::hull);
                w[s] = if hull.is_empty() {
                    Window::EMPTY
                } else {
                    match self.bounds[s] {
                        Some(b) => hull.shifted(b),
                        None => Window::UNBOUNDED,
                    }
                };
            }
            for (id, edit) in edits {
                if id.index() == s {
                    w[s] = edit.apply(w[s]);
                }
            }
        }
        w
    }

    /// The standard static-timing summary: all inputs pinned at
    /// `t = 0`, per-output arrival windows, the level census, and the
    /// critical path to the latest-arriving bounded output.
    ///
    /// `outputs` selects which signals to report as outputs (typically
    /// `LoweredNetlist::outputs`).
    #[must_use]
    pub fn report(&self, outputs: &[SignalId]) -> TimingReport {
        let zeros = vec![Window::instant(0.0); self.input_positions.len()];
        let w = self.arrival_windows(&zeros);
        let max_level = self.levels.iter().copied().max().unwrap_or(0);
        let mut level_census = vec![0usize; max_level as usize + 1];
        for &l in &self.levels {
            level_census[l as usize] += 1;
        }
        let unbounded = w.iter().filter(|x| x.is_unbounded()).count();
        // Critical path: the latest finite output arrival, backtracked
        // greedily through the fan-in that realizes each hi bound.
        let critical = outputs
            .iter()
            .map(|id| id.index())
            .filter(|&s| !w[s].is_empty() && w[s].hi.is_finite())
            .max_by(|&a, &b| w[a].hi.total_cmp(&w[b].hi));
        let outputs: Vec<OutputTiming> = outputs
            .iter()
            .map(|id| OutputTiming {
                name: self.names[id.index()].clone(),
                level: self.levels[id.index()],
                window: w[id.index()],
            })
            .collect();
        let mut critical_path = Vec::new();
        if let Some(start) = critical {
            let mut s = start;
            loop {
                critical_path.push(PathStep {
                    name: self.names[s].clone(),
                    level: self.levels[s],
                    latest: w[s].hi,
                });
                if self.is_input[s] {
                    break;
                }
                let Some(&f) = self.fan_ins[s]
                    .iter()
                    .filter(|&&f| !w[f].is_empty())
                    .max_by(|&&a, &&b| w[a].hi.total_cmp(&w[b].hi))
                else {
                    break;
                };
                s = f;
            }
            critical_path.reverse();
        }
        TimingReport {
            max_level,
            level_census,
            outputs,
            unbounded,
            critical_path,
        }
    }
}

/// One output's static timing.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputTiming {
    /// Output signal name.
    pub name: String,
    /// Topological level.
    pub level: u32,
    /// Arrival window with inputs pinned at `t = 0`.
    pub window: Window,
}

/// One hop on the critical path, input first.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// Signal name.
    pub name: String,
    /// Topological level.
    pub level: u32,
    /// Latest possible arrival (seconds, inputs at `t = 0`).
    pub latest: f64,
}

/// The rendered summary [`TimingAnalysis::report`] produces.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Deepest topological level in the network.
    pub max_level: u32,
    /// Signal count per level, index = level (level 0 = inputs).
    pub level_census: Vec<usize>,
    /// Per-output arrivals, in the order the caller listed them.
    pub outputs: Vec<OutputTiming>,
    /// Signals whose window is vacuous because an unbounded channel
    /// feeds them (exact involution channels advertise no bounds).
    pub unbounded: usize,
    /// Input-to-output chain realizing the latest bounded output
    /// arrival; empty when every output is quiet or unbounded.
    pub critical_path: Vec<PathStep>,
}

impl fmt::Display for TimingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "static timing (inputs at t = 0):")?;
        writeln!(
            f,
            "  levels: {} (signals per level: {:?})",
            self.max_level, self.level_census
        )?;
        if self.unbounded > 0 {
            writeln!(f, "  unbounded signals: {}", self.unbounded)?;
        }
        writeln!(f, "  outputs:")?;
        for o in &self.outputs {
            writeln!(f, "    {:<12} level {:<3} {}", o.name, o.level, o.window)?;
        }
        if let Some(last) = self.critical_path.last() {
            writeln!(
                f,
                "  critical path (latest arrival {:.3} ps):",
                last.latest / 1e-12
            )?;
            let chain: Vec<&str> = self.critical_path.iter().map(|s| s.name.as_str()).collect();
            writeln!(f, "    {}", chain.join(" -> "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_digital::{GateKind, Network, PureDelayChannel};

    fn ps(x: f64) -> f64 {
        x * 1e-12
    }

    #[test]
    fn window_algebra() {
        assert!(Window::EMPTY.is_empty());
        assert!(!Window::EMPTY.is_unbounded());
        assert!(Window::UNBOUNDED.is_unbounded());
        assert!(Window::UNBOUNDED.contains(1e300, 0.0));
        assert_eq!(Window::from_edge_times(&[]), Window::EMPTY);
        assert_eq!(
            Window::from_edge_times(&[3.0, 1.0, 2.0]),
            Window::new(1.0, 3.0)
        );
        let w = Window::instant(5.0).hull(Window::EMPTY);
        assert_eq!(w, Window::instant(5.0));
        let s = Window::new(1.0, 2.0).shifted(DelayBounds::new(0.5, 1.5));
        assert_eq!(s, Window::new(1.5, 3.5));
        assert!(Window::EMPTY.shifted(DelayBounds::exact(1.0)).is_empty());
        assert!(Window::instant(1.0).contains(1.0 + 5e-16, 1e-15));
        assert!(!Window::instant(1.0).contains(1.0 + 2e-15, 1e-15));
    }

    #[test]
    fn levels_and_windows_on_a_small_dag() {
        // a, b inputs; n1 = NOR(a, b) ideal; y = NOT(n1) with 7 ps pure.
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let n1 = net.add_gate("n1", GateKind::Nor, &[a, b], None).unwrap();
        let y = net
            .add_gate(
                "y",
                GateKind::Not,
                &[n1],
                Some(Box::new(PureDelayChannel::new(ps(7.0)).unwrap())),
            )
            .unwrap();
        let ta = TimingAnalysis::new(&net);
        assert_eq!(ta.levels(), &[0, 0, 1, 2]);
        let w = ta.arrival_windows(&[
            Window::new(ps(100.0), ps(200.0)),
            Window::EMPTY, // b constant
        ]);
        assert_eq!(w[n1.index()], Window::new(ps(100.0), ps(200.0)));
        let wy = w[y.index()];
        assert!((wy.lo - ps(107.0)).abs() < 1e-24 && (wy.hi - ps(207.0)).abs() < 1e-24);
        // Both inputs quiet: everything quiet.
        let w = ta.arrival_windows(&[Window::EMPTY, Window::EMPTY]);
        assert!(w.iter().all(Window::is_empty));
    }

    #[test]
    fn window_edits_flow_through_the_fanout_cone() {
        // a -> n1 (ideal NOR with b) -> y (NOT, 7 ps pure delay).
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let n1 = net.add_gate("n1", GateKind::Nor, &[a, b], None).unwrap();
        let y = net
            .add_gate(
                "y",
                GateKind::Not,
                &[n1],
                Some(Box::new(PureDelayChannel::new(ps(7.0)).unwrap())),
            )
            .unwrap();
        let ta = TimingAnalysis::new(&net);
        let inputs = [Window::new(ps(100.0), ps(200.0)), Window::EMPTY];

        // Stuck-at on n1: its window empties, and so does everything
        // downstream — but `a` itself is untouched.
        let w = ta.arrival_windows_edited(&inputs, &[(n1, WindowEdit::Replace(Window::EMPTY))]);
        assert_eq!(w[a.index()], Window::new(ps(100.0), ps(200.0)));
        assert!(w[n1.index()].is_empty());
        assert!(w[y.index()].is_empty());

        // Glitch on the quiet input b: the pulse interval appears on b,
        // widens n1's hull, and shifts through y's channel.
        let glitch = Window::new(ps(300.0), ps(310.0));
        let w = ta.arrival_windows_edited(&inputs, &[(b, WindowEdit::Widen(glitch))]);
        assert_eq!(w[b.index()], glitch, "EMPTY hulled with the pulse");
        assert_eq!(w[n1.index()], Window::new(ps(100.0), ps(310.0)));
        let wy = w[y.index()];
        assert!((wy.lo - ps(107.0)).abs() < 1e-24 && (wy.hi - ps(317.0)).abs() < 1e-24);

        // No edits reproduces arrival_windows exactly.
        assert_eq!(
            ta.arrival_windows_edited(&inputs, &[]),
            ta.arrival_windows(&inputs)
        );
    }

    #[test]
    fn report_census_and_critical_path() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let slow = net
            .add_gate(
                "slow",
                GateKind::Not,
                &[a],
                Some(Box::new(PureDelayChannel::new(ps(50.0)).unwrap())),
            )
            .unwrap();
        let y = net.add_gate("y", GateKind::And, &[slow, b], None).unwrap();
        let ta = TimingAnalysis::new(&net);
        let report = ta.report(&[y]);
        assert_eq!(report.max_level, 2);
        assert_eq!(report.level_census, vec![2, 1, 1]);
        assert_eq!(report.unbounded, 0);
        assert_eq!(report.outputs.len(), 1);
        assert_eq!(report.outputs[0].window, Window::new(0.0, ps(50.0)));
        let chain: Vec<&str> = report
            .critical_path
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(chain, vec!["a", "slow", "y"]);
        let text = report.to_string();
        assert!(text.contains("critical path"));
        assert!(text.contains("a -> slow -> y"));
    }
}
