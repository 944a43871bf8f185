//! Per-topological-level time attribution: joining engine trace
//! timelines against static level assignments.
//!
//! The event-tracing layer (`mis_probe::trace`) records one `gate` span
//! per evaluated signal — signal index, output-edge count, wall-clock
//! interval. [`crate::TimingAnalysis::levels`] assigns every signal a
//! topological level. Joining the two answers, with data rather than
//! guesses: *where does evaluation time actually go, level by level?*
//! A level whose signal count is large but whose time share is small is
//! cheap parallelism; a level holding most of the time in few signals
//! bounds any level-barrier schedule from below.
//!
//! [`attribute_levels`] performs the join over a [`TraceSnapshot`] —
//! every `gate` event on every track, so engine runs and campaign
//! timelines attribute the same way — and both returns the per-level table ([`LevelAttribution`],
//! `Display`-renderable) and records per-level `level.L<n>.eval_ns`
//! histograms into a [`Probe`], so the numbers travel in ordinary probe
//! reports too.

use std::fmt;

use mis_probe::{EventKind, Probe, TraceSnapshot};

/// One topological level's share of the traced evaluation work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelRow {
    /// The topological level (0 = primary inputs).
    pub level: u32,
    /// Signals assigned to this level — the maximum wavefront width a
    /// level-sliced schedule could exploit here.
    pub signals: usize,
    /// `gate` trace events joined to this level (inputs seal without a
    /// gate span, so level 0 is normally 0).
    pub gate_events: u64,
    /// Summed wall-clock nanoseconds of those gate spans.
    pub eval_ns: u64,
    /// Summed output edges sealed by those gates.
    pub edges: u64,
}

impl LevelRow {
    /// This level's fraction of `total_eval_ns` (0 when nothing was
    /// attributed anywhere).
    #[must_use]
    pub fn share(&self, total_eval_ns: u64) -> f64 {
        if total_eval_ns == 0 {
            0.0
        } else {
            self.eval_ns as f64 / total_eval_ns as f64
        }
    }
}

/// The per-level attribution table built by [`attribute_levels`]: one
/// row per topological level, plus the join totals. Renders as a
/// deterministic text table via `Display` (timings are wall-clock, so
/// the *values* vary run to run; the shape does not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelAttribution {
    /// One row per level, ascending (always `max_level + 1` rows, even
    /// for levels no gate event landed on).
    pub rows: Vec<LevelRow>,
    /// Total attributed gate-span nanoseconds.
    pub total_eval_ns: u64,
    /// Total attributed gate events.
    pub total_events: u64,
    /// Gate events whose signal index was outside the level table —
    /// zero when the snapshot and the analysis came from the same
    /// network.
    pub unattributed: u64,
}

impl fmt::Display for LevelAttribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<6} {:>8} {:>8} {:>10} {:>12} {:>7}",
            "level", "signals", "gates", "edges", "eval_ns", "share"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "L{:<5} {:>8} {:>8} {:>10} {:>12} {:>6.1}%",
                r.level,
                r.signals,
                r.gate_events,
                r.edges,
                r.eval_ns,
                100.0 * r.share(self.total_eval_ns)
            )?;
        }
        write!(
            f,
            "total: {} gate events, {} ns attributed",
            self.total_events, self.total_eval_ns
        )?;
        if self.unattributed > 0 {
            write!(f, " ({} events unattributed)", self.unattributed)?;
        }
        Ok(())
    }
}

/// Joins every `gate` span in `snap` (across all tracks — engine runs
/// and campaign timelines alike) against the
/// per-signal `levels` table from [`crate::TimingAnalysis::levels`],
/// and records each gate's span duration into that level's
/// `level.L<n>.eval_ns` histogram on `probe` (a no-op on a disabled
/// probe).
///
/// Level 0 rows count input signals but normally attribute no time:
/// inputs are sealed, not evaluated. A signal evaluated several times
/// in the snapshot (several runs, or several tracks) is attributed once
/// per evaluation.
#[must_use]
pub fn attribute_levels(levels: &[u32], snap: &TraceSnapshot, probe: &Probe) -> LevelAttribution {
    let max_level = levels.iter().copied().max().unwrap_or(0);
    let mut rows: Vec<LevelRow> = (0..=max_level)
        .map(|l| LevelRow {
            level: l,
            signals: 0,
            gate_events: 0,
            eval_ns: 0,
            edges: 0,
        })
        .collect();
    for &l in levels {
        rows[l as usize].signals += 1;
    }
    // Histogram handles, registered once per level (cold path).
    let hists: Vec<_> = (0..=max_level)
        .map(|l| probe.histogram(&format!("level.L{l:02}.eval_ns")))
        .collect();
    let mut unattributed = 0u64;
    let (mut total_eval_ns, mut total_events) = (0u64, 0u64);
    for track in &snap.tracks {
        for e in &track.events {
            if e.kind != EventKind::Gate {
                continue;
            }
            let Some(&level) = levels.get(e.a as usize) else {
                unattributed += 1;
                continue;
            };
            let row = &mut rows[level as usize];
            let dur = e.duration_ns();
            row.gate_events += 1;
            row.eval_ns += dur;
            row.edges += u64::from(e.b);
            total_events += 1;
            total_eval_ns += dur;
            hists[level as usize].record(dur);
        }
    }
    LevelAttribution {
        rows,
        total_eval_ns,
        total_events,
        unattributed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_probe::{TraceSink, TraceTrack};

    /// Seals a synthetic gate span on `track` with a fixed edge count.
    fn gate(track: &TraceTrack, signal: u32, edges: u32) {
        track.span(EventKind::Gate, signal, edges, track.start());
    }

    #[test]
    fn joins_gate_events_to_their_levels() {
        // Levels: signals 0,1 inputs (L0); 2 at L1; 3 at L2.
        let levels = vec![0, 0, 1, 2];
        let sink = TraceSink::new();
        let t = sink.track("sim");
        gate(&t, 2, 3);
        gate(&t, 2, 3);
        gate(&t, 3, 5);
        let probe = Probe::new();
        let attr = attribute_levels(&levels, &sink.snapshot(), &probe);
        assert_eq!(attr.rows.len(), 3);
        assert_eq!(attr.rows[0].signals, 2);
        assert_eq!(attr.rows[0].gate_events, 0, "inputs are sealed, not run");
        assert_eq!(attr.rows[1].gate_events, 2);
        assert_eq!(attr.rows[1].edges, 6);
        assert_eq!(attr.rows[2].gate_events, 1);
        assert_eq!(attr.rows[2].edges, 5);
        assert_eq!(attr.total_events, 3);
        assert_eq!(attr.unattributed, 0);
        // The per-level histograms registered and saw the samples.
        let report = probe.report();
        assert!(report.get("level.L01.eval_ns").is_some());
        assert!(report.get("level.L02.eval_ns").is_some());
    }

    #[test]
    fn events_from_every_track_are_joined() {
        let levels = vec![0, 1, 1];
        let sink = TraceSink::new();
        gate(&sink.track("sim"), 1, 2);
        gate(&sink.track("fault.w1"), 2, 4);
        // A second evaluation of signal 1, on another track.
        gate(&sink.track("fault.w1"), 1, 2);
        let attr = attribute_levels(&levels, &sink.snapshot(), &Probe::disabled());
        assert_eq!(attr.rows[1].gate_events, 3, "overlap counts each run");
        assert_eq!(attr.rows[1].edges, 8);
    }

    #[test]
    fn foreign_signals_count_as_unattributed() {
        let levels = vec![0, 1];
        let sink = TraceSink::new();
        gate(&sink.track("sim"), 7, 1);
        let attr = attribute_levels(&levels, &sink.snapshot(), &Probe::disabled());
        assert_eq!(attr.total_events, 0);
        assert_eq!(attr.unattributed, 1);
        let rendered = attr.to_string();
        assert!(rendered.contains("unattributed"), "{rendered}");
    }

    #[test]
    fn display_renders_one_row_per_level() {
        let levels = vec![0, 1, 2, 2];
        let sink = TraceSink::new();
        gate(&sink.track("sim"), 1, 1);
        let attr = attribute_levels(&levels, &sink.snapshot(), &Probe::disabled());
        let rendered = attr.to_string();
        for l in ["L0", "L1", "L2"] {
            assert!(rendered.contains(l), "{rendered}");
        }
        assert!(rendered.contains("100.0%"), "{rendered}");
    }

    #[test]
    fn empty_snapshot_attributes_nothing() {
        let attr = attribute_levels(&[0, 0], &TraceSink::new().snapshot(), &Probe::disabled());
        assert_eq!(attr.total_events, 0);
        assert_eq!(attr.total_eval_ns, 0);
        assert_eq!(attr.rows.len(), 1);
        assert_eq!(attr.rows[0].share(attr.total_eval_ns), 0.0);
    }
}
