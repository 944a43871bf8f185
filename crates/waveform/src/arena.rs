//! Structure-of-arrays trace storage for allocation-free simulation.
//!
//! [`crate::DigitalTrace`] is the *exchange* format of the workspace: an
//! owned, self-validating edge list, convenient at API boundaries but
//! expensive on a simulation hot path, where every gate evaluation would
//! allocate a fresh `Vec<Edge>`. This module provides the *engine*
//! format:
//!
//! * [`TraceRef`] — a borrowed view of a trace as a flat `&[f64]` of edge
//!   times plus an initial value. Because a well-formed trace strictly
//!   alternates polarity, the polarity of edge `k` is implied by the
//!   initial value and the parity of `k`; no per-edge flag is stored,
//!   and logical inversion ([`TraceRef::inverted`]) is free.
//! * [`EdgeBuf`] — a reusable, growable output buffer with the same
//!   implicit-polarity representation, supporting stack-style push/pop
//!   (the shape of every cancellation rule in the delay channels) and an
//!   in-place inertial pulse filter.
//! * [`TraceArena`] — per-signal spans over one shared flat time array,
//!   plus two staging buffers, so an entire multi-gate network evaluation
//!   reuses the same storage run after run: after a warm-up run sizes the
//!   buffers, the steady state performs **zero** heap allocations.
//!
//! # Reuse contract
//!
//! An arena is reset (not shrunk) at the start of every run; capacity is
//! retained, so repeated runs over inputs of similar edge counts never
//! reallocate. Sealed spans are immutable for the rest of the run and are
//! read through [`ArenaTraces`], which borrows only the sealed storage —
//! leaving the staging buffers free to be written simultaneously.
//!
//! # Examples
//!
//! ```
//! use mis_waveform::{DigitalTrace, TraceArena};
//!
//! # fn main() -> Result<(), mis_waveform::WaveformError> {
//! let t = DigitalTrace::with_edges(false, vec![(1.0, true), (3.0, false)])?;
//! let mut arena = TraceArena::new();
//! let id = arena.push_trace(&t);
//! assert_eq!(arena.trace(id).times(), &[1.0, 3.0]);
//! assert!(arena.trace(id).rising(0));
//! assert_eq!(arena.to_trace(id), t);
//! # Ok(())
//! # }
//! ```

use crate::digital::DigitalTrace;
use crate::{Edge, WaveformError};

/// A borrowed structure-of-arrays view of a digital trace: an initial
/// value plus a strictly increasing slice of edge times. Edge polarities
/// are implied: a well-formed trace alternates, so edge `k` is rising iff
/// `k` is even and the initial value is low (and vice versa).
///
/// Equality is exact: same initial value, same edge count, and `f64 ==`
/// per edge time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRef<'a> {
    initial: bool,
    times: &'a [f64],
}

impl<'a> TraceRef<'a> {
    /// Wraps raw parts. The caller asserts `times` is strictly
    /// increasing and finite (checked in debug builds only).
    #[must_use]
    pub fn new(initial: bool, times: &'a [f64]) -> Self {
        debug_assert!(
            times.windows(2).all(|w| w[0] < w[1]) && times.iter().all(|t| t.is_finite()),
            "TraceRef times must be finite and strictly increasing"
        );
        TraceRef { initial, times }
    }

    /// The signal value before the first edge.
    #[inline]
    #[must_use]
    pub fn initial_value(self) -> bool {
        self.initial
    }

    /// The edge times.
    #[inline]
    #[must_use]
    pub fn times(self) -> &'a [f64] {
        self.times
    }

    /// Number of edges.
    #[inline]
    #[must_use]
    pub fn len(self) -> usize {
        self.times.len()
    }

    /// Whether the trace has no edges.
    #[inline]
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.times.is_empty()
    }

    /// The polarity of edge `k` (implied by parity).
    #[inline]
    #[must_use]
    pub fn rising(self, k: usize) -> bool {
        k.is_multiple_of(2) ^ self.initial
    }

    /// The signal value after the last edge.
    #[inline]
    #[must_use]
    pub fn final_value(self) -> bool {
        (self.times.len() % 2 == 1) ^ self.initial
    }

    /// The logical NOT of this trace — same times, flipped initial value.
    /// Free, by the implicit-polarity representation.
    #[inline]
    #[must_use]
    pub fn inverted(self) -> TraceRef<'a> {
        TraceRef {
            initial: !self.initial,
            times: self.times,
        }
    }

    /// Materializes the view as an owned [`DigitalTrace`] (allocates).
    #[must_use]
    pub fn to_trace(self) -> DigitalTrace {
        let edges = self
            .times
            .iter()
            .enumerate()
            .map(|(k, &time)| Edge {
                time,
                rising: self.rising(k),
            })
            .collect();
        DigitalTrace::from_sorted_edges(self.initial, edges)
    }
}

/// A reusable output buffer for building one trace in SoA form.
///
/// Cleared (with a new initial value) rather than dropped between uses,
/// so its backing storage amortizes to zero allocations. Push enforces
/// the trace invariants (finite, strictly increasing times, alternating
/// polarity) exactly like [`DigitalTrace::push_edge`].
#[derive(Debug, Clone, Default)]
pub struct EdgeBuf {
    initial: bool,
    times: Vec<f64>,
}

impl EdgeBuf {
    /// Creates an empty buffer (initial value low).
    #[must_use]
    pub fn new() -> Self {
        EdgeBuf::default()
    }

    /// Creates a buffer with pre-reserved edge capacity.
    #[must_use]
    pub fn with_capacity(edges: usize) -> Self {
        EdgeBuf {
            initial: false,
            times: Vec::with_capacity(edges),
        }
    }

    /// Drops all edges and restarts from `initial`, keeping capacity.
    #[inline]
    pub fn clear(&mut self, initial: bool) {
        self.initial = initial;
        self.times.clear();
    }

    /// The signal value before the first edge.
    #[inline]
    #[must_use]
    pub fn initial_value(&self) -> bool {
        self.initial
    }

    /// The signal value after the last edge.
    #[inline]
    #[must_use]
    pub fn final_value(&self) -> bool {
        (self.times.len() % 2 == 1) ^ self.initial
    }

    /// Number of edges.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the buffer holds no edges.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The time of the most recently pushed edge.
    #[inline]
    #[must_use]
    pub fn last_time(&self) -> Option<f64> {
        self.times.last().copied()
    }

    /// Appends an edge whose polarity is implied by parity, enforcing
    /// finite, strictly increasing times.
    ///
    /// # Errors
    ///
    /// * [`WaveformError::NonFinite`] — NaN/inf time.
    /// * [`WaveformError::NotMonotonic`] — `time` not after the last edge.
    #[inline]
    pub fn push_time(&mut self, time: f64) -> Result<(), WaveformError> {
        if !time.is_finite() {
            return Err(WaveformError::NonFinite {
                index: self.times.len(),
            });
        }
        if let Some(&last) = self.times.last() {
            if !(time > last) {
                return Err(WaveformError::NotMonotonic {
                    index: self.times.len(),
                    reason: format!("edge at {time} not after previous edge at {last}"),
                });
            }
        }
        self.times.push(time);
        Ok(())
    }

    /// Appends an edge with an explicit polarity, additionally checking
    /// that it alternates (the [`DigitalTrace::push_edge`] contract).
    ///
    /// # Errors
    ///
    /// As [`EdgeBuf::push_time`], plus [`WaveformError::NotMonotonic`]
    /// when `rising` equals the current final value.
    #[inline]
    pub fn push(&mut self, time: f64, rising: bool) -> Result<(), WaveformError> {
        if rising == self.final_value() {
            return Err(WaveformError::NotMonotonic {
                index: self.times.len(),
                reason: format!(
                    "edge polarity {} does not alternate (signal already {})",
                    if rising { "rising" } else { "falling" },
                    if self.final_value() { "high" } else { "low" },
                ),
            });
        }
        self.push_time(time)
    }

    /// Removes and returns the most recent edge time (stack-style
    /// cancellation).
    #[inline]
    pub fn pop_time(&mut self) -> Option<f64> {
        self.times.pop()
    }

    /// Logical NOT in place: flips the initial value; the edge times are
    /// unchanged and every parity-implied polarity flips with it. Free,
    /// like [`TraceRef::inverted`].
    #[inline]
    pub fn invert(&mut self) {
        self.initial = !self.initial;
    }

    /// A borrowed view of the current contents.
    #[inline]
    #[must_use]
    pub fn as_ref(&self) -> TraceRef<'_> {
        TraceRef {
            initial: self.initial,
            times: &self.times,
        }
    }

    /// Replaces the contents with a copy of `trace` (no allocation once
    /// capacity suffices).
    pub fn copy_trace(&mut self, trace: &DigitalTrace) {
        self.clear(trace.initial_value());
        self.times.extend(trace.edges().iter().map(|e| e.time));
    }

    /// Replaces the contents with a copy of `view`.
    pub fn copy_ref(&mut self, view: TraceRef<'_>) {
        self.clear(view.initial_value());
        self.times.extend_from_slice(view.times());
    }

    /// Materializes the buffer as an owned [`DigitalTrace`] (allocates).
    #[must_use]
    pub fn to_trace(&self) -> DigitalTrace {
        self.as_ref().to_trace()
    }

    /// Removes pulses shorter than `min_width` in place — the inertial
    /// rejection rule, identical in semantics to
    /// [`DigitalTrace::filter_short_pulses`] but allocation-free: a
    /// single stack pass compacting the time array behind the read
    /// cursor. Cancelling an adjacent pair preserves alternation, so the
    /// implicit polarities stay valid.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::InvalidInput`] for negative `min_width`.
    pub fn filter_short_pulses_in_place(&mut self, min_width: f64) -> Result<(), WaveformError> {
        if min_width < 0.0 {
            return Err(WaveformError::InvalidInput {
                reason: "min_width must be non-negative".into(),
            });
        }
        let ts = &mut self.times;
        let mut kept = 0usize;
        for r in 0..ts.len() {
            let t = ts[r];
            if kept > 0 && t - ts[kept - 1] < min_width {
                // The pulse formed with the previous surviving edge is too
                // short: both vanish, re-exposing the edge before it (the
                // next iteration compares against it, which is exactly the
                // cascade rule of the iterative formulation).
                kept -= 1;
            } else {
                ts[kept] = t;
                kept += 1;
            }
        }
        ts.truncate(kept);
        Ok(())
    }
}

/// Span of one sealed trace inside a [`TraceArena`].
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    len: usize,
    initial: bool,
}

/// Structure-of-arrays storage for a whole network evaluation: one flat
/// time array holding every signal's edges as contiguous spans, plus two
/// staging buffers (`out` for the trace being built, `scratch` for the
/// fused ideal-gate pass). See the module docs for the reuse contract.
#[derive(Debug, Clone, Default)]
pub struct TraceArena {
    times: Vec<f64>,
    spans: Vec<Span>,
    out: EdgeBuf,
    scratch: EdgeBuf,
}

/// Read-only access to the sealed spans of a [`TraceArena`], borrowed
/// disjointly from the staging buffers by [`TraceArena::stage`].
#[derive(Debug, Clone, Copy)]
pub struct ArenaTraces<'a> {
    times: &'a [f64],
    spans: &'a [Span],
}

impl<'a> ArenaTraces<'a> {
    /// The number of sealed traces.
    #[inline]
    #[must_use]
    pub fn len(self) -> usize {
        self.spans.len()
    }

    /// Whether no trace has been sealed yet.
    #[inline]
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.spans.is_empty()
    }

    /// A view of the `i`-th sealed trace.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[inline]
    #[must_use]
    pub fn trace(self, i: usize) -> TraceRef<'a> {
        let s = self.spans[i];
        TraceRef {
            initial: s.initial,
            times: &self.times[s.start..s.start + s.len],
        }
    }
}

impl TraceArena {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        TraceArena::default()
    }

    /// Creates an arena pre-sized for `signals` traces of about
    /// `edges_per_signal` edges each.
    #[must_use]
    pub fn with_capacity(signals: usize, edges_per_signal: usize) -> Self {
        TraceArena {
            times: Vec::with_capacity(signals * edges_per_signal),
            spans: Vec::with_capacity(signals),
            out: EdgeBuf::with_capacity(edges_per_signal),
            scratch: EdgeBuf::with_capacity(edges_per_signal),
        }
    }

    /// Drops all sealed traces and staging content, keeping capacity.
    pub fn reset(&mut self) {
        self.times.clear();
        self.spans.clear();
        self.out.clear(false);
        self.scratch.clear(false);
    }

    /// The number of sealed traces.
    #[inline]
    #[must_use]
    pub fn trace_count(&self) -> usize {
        self.spans.len()
    }

    /// Total number of edges across all sealed traces.
    #[inline]
    #[must_use]
    pub fn total_edges(&self) -> usize {
        self.times.len()
    }

    /// A view of the `i`-th sealed trace.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[inline]
    #[must_use]
    pub fn trace(&self, i: usize) -> TraceRef<'_> {
        ArenaTraces {
            times: &self.times,
            spans: &self.spans,
        }
        .trace(i)
    }

    /// Materializes the `i`-th sealed trace as an owned
    /// [`DigitalTrace`] (allocates).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn to_trace(&self, i: usize) -> DigitalTrace {
        self.trace(i).to_trace()
    }

    /// Copies an owned trace into the arena as the next sealed span,
    /// returning its index.
    pub fn push_trace(&mut self, trace: &DigitalTrace) -> usize {
        let start = self.times.len();
        self.times.extend(trace.edges().iter().map(|e| e.time));
        self.seal_span(start, trace.initial_value())
    }

    /// Copies a borrowed view into the arena as the next sealed span,
    /// returning its index. The view may live in *another* arena — this
    /// is how the `mis-sim` parallel engine merges worker-owned arenas
    /// into one result arena without materializing owned traces.
    pub fn push_view(&mut self, view: TraceRef<'_>) -> usize {
        let start = self.times.len();
        self.times.extend_from_slice(view.times());
        self.seal_span(start, view.initial_value())
    }

    /// Seals a copy of an already-sealed span (optionally inverted — the
    /// zero-time BUF/NOT gates), returning the new index.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn push_duplicate(&mut self, i: usize, invert: bool) -> usize {
        let s = self.spans[i];
        let start = self.times.len();
        self.times.extend_from_within(s.start..s.start + s.len);
        self.seal_span(start, s.initial ^ invert)
    }

    /// Splits the arena into the sealed read-only storage and the two
    /// staging buffers `(sealed, out, scratch)` — the shape of one fused
    /// gate + channel pass: inputs are read from `sealed`, the ideal
    /// gate output streams through `scratch`, the channel writes `out`.
    #[inline]
    pub fn stage(&mut self) -> (ArenaTraces<'_>, &mut EdgeBuf, &mut EdgeBuf) {
        (
            ArenaTraces {
                times: &self.times,
                spans: &self.spans,
            },
            &mut self.out,
            &mut self.scratch,
        )
    }

    /// Seals the current contents of the `out` staging buffer as the next
    /// trace span (one `memcpy` into the flat array), clears `out`, and
    /// returns the new index.
    pub fn seal_out(&mut self) -> usize {
        let start = self.times.len();
        self.times.extend_from_slice(self.out.as_ref().times());
        let initial = self.out.initial_value();
        self.out.clear(false);
        self.seal_span(start, initial)
    }

    fn seal_span(&mut self, start: usize, initial: bool) -> usize {
        self.spans.push(Span {
            start,
            len: self.times.len() - start,
            initial,
        });
        self.spans.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pulse(t0: f64, t1: f64) -> DigitalTrace {
        DigitalTrace::with_edges(false, vec![(t0, true), (t1, false)]).unwrap()
    }

    #[test]
    fn trace_ref_round_trips_polarity_by_parity() {
        let t =
            DigitalTrace::with_edges(true, vec![(1.0, false), (2.0, true), (4.0, false)]).unwrap();
        let mut buf = EdgeBuf::new();
        buf.copy_trace(&t);
        let v = buf.as_ref();
        assert!(!v.rising(0));
        assert!(v.rising(1));
        assert!(!v.rising(2));
        assert!(!v.final_value());
        assert_eq!(v.to_trace(), t);
    }

    #[test]
    fn inverted_view_is_logical_not() {
        let t = pulse(1.0, 2.0);
        let mut buf = EdgeBuf::new();
        buf.copy_trace(&t);
        let inv = buf.as_ref().inverted().to_trace();
        assert!(inv.initial_value());
        assert!(!inv.edges()[0].rising);
        assert_eq!(inv.edges()[0].time, 1.0);
        assert_eq!(inv.edges()[1].time, 2.0);
    }

    #[test]
    fn edgebuf_push_enforces_trace_invariants() {
        let mut buf = EdgeBuf::new();
        buf.clear(false);
        buf.push(1.0, true).unwrap();
        assert!(buf.push(2.0, true).is_err(), "polarity must alternate");
        assert!(buf.push(0.5, false).is_err(), "time must increase");
        assert!(buf.push_time(f64::NAN).is_err());
        buf.push(2.0, false).unwrap();
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.last_time(), Some(2.0));
        assert_eq!(buf.pop_time(), Some(2.0));
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn in_place_filter_matches_owned_filter() {
        let cases: Vec<(bool, Vec<f64>)> = vec![
            (false, vec![]),
            (false, vec![1.0, 1.1, 5.0, 9.0]),
            (false, vec![0.0, 2.0, 2.1, 4.0]),
            (true, vec![0.0, 0.2, 0.3, 0.6, 5.0]),
            (false, vec![0.0, 0.6, 0.9, 1.0]),
        ];
        for (init, times) in cases {
            let trace = TraceRef::new(init, &times).to_trace();
            let want = trace.filter_short_pulses(0.5).unwrap();
            let mut buf = EdgeBuf::new();
            buf.copy_trace(&trace);
            buf.filter_short_pulses_in_place(0.5).unwrap();
            assert_eq!(buf.to_trace(), want, "times {times:?}");
        }
        let mut buf = EdgeBuf::new();
        assert!(buf.filter_short_pulses_in_place(-1.0).is_err());
    }

    #[test]
    fn arena_spans_and_duplicates() {
        let mut arena = TraceArena::new();
        let a = arena.push_trace(&pulse(1.0, 2.0));
        let b = arena.push_trace(&DigitalTrace::constant(true));
        assert_eq!(arena.trace_count(), 2);
        assert_eq!(arena.trace(a).len(), 2);
        assert!(arena.trace(b).is_empty());
        assert!(arena.trace(b).initial_value());
        let c = arena.push_duplicate(a, true);
        assert!(arena.trace(c).initial_value());
        assert_eq!(arena.trace(c).times(), arena.trace(a).times());
        assert_eq!(arena.total_edges(), 4);
    }

    #[test]
    fn push_view_copies_across_arenas() {
        let mut src = TraceArena::new();
        let a = src.push_trace(&pulse(1.0, 2.0));
        let mut dst = TraceArena::new();
        dst.push_trace(&DigitalTrace::constant(true));
        let b = dst.push_view(src.trace(a).inverted());
        assert_eq!(dst.trace(b).times(), &[1.0, 2.0]);
        assert!(dst.trace(b).initial_value());
        assert_eq!(dst.to_trace(b), src.trace(a).inverted().to_trace());
    }

    #[test]
    fn arena_stage_and_seal() {
        let mut arena = TraceArena::new();
        arena.push_trace(&pulse(1.0, 4.0));
        {
            let (sealed, out, scratch) = arena.stage();
            assert_eq!(sealed.len(), 1);
            out.clear(true);
            // Shift the sealed input by 0.5 through the staging buffer.
            for &t in sealed.trace(0).times() {
                out.push_time(t + 0.5).unwrap();
            }
            scratch.clear(false); // staging buffers are independent
        }
        let id = arena.seal_out();
        assert_eq!(arena.trace(id).times(), &[1.5, 4.5]);
        assert!(arena.trace(id).initial_value());
    }

    #[test]
    fn arena_reset_keeps_capacity_and_drops_content() {
        let mut arena = TraceArena::with_capacity(4, 16);
        arena.push_trace(&pulse(1.0, 2.0));
        arena.reset();
        assert_eq!(arena.trace_count(), 0);
        assert_eq!(arena.total_edges(), 0);
    }
}
