//! Batched schedule evaluation: a flat, pre-merged event list the
//! two-input schedulers can consume without interleaving merge
//! bookkeeping into their per-event state machines.
//!
//! The cached hybrid scheduler's per-event cost has two components: the
//! state machine itself (episode tracking, pending-edge management,
//! table lookups) and the *merge bookkeeping* that feeds it — the
//! two-pointer walk over both input edge lists, the bound checks, the
//! parity-to-polarity decode. [`EventBatch`] splits the two: a
//! branch-light merge pass writes the whole application's events into
//! one flat times-plus-metadata buffer, and the scheduler then drains
//! that buffer in a dispatch loop whose only remaining branches are the
//! state machine's own. Callers that evaluate many gates (the `mis-sim`
//! engine and cone replay — one batch per gate evaluation) reuse one
//! warm batch, so the steady state stays allocation-free.
//!
//! The merge order is **exactly** the schedulers' historical two-pointer
//! order (input A wins time ties, polarities decoded from edge parity),
//! so consuming a batch is bit-identical to merging on the fly — the
//! property the unit suite below pins and the engine bit-identity
//! suite inherits.

use mis_waveform::TraceRef;

/// Metadata bit: which input the event belongs to (0 = A, 1 = B).
const META_WHICH: u8 = 0b01;
/// Metadata bit: the input's value after the edge (set = rising).
const META_VALUE: u8 = 0b10;

/// A pre-merged two-input event list: every edge of both inputs in
/// evaluation order, as a flat `f64` time array plus one metadata byte
/// per event (input selector + post-edge value).
///
/// Build with [`EventBatch::fill`], drain with [`EventBatch::events`].
/// The buffers persist across fills, so a warm batch never allocates
/// (the same contract as [`mis_waveform::EdgeBuf`]).
///
/// # Examples
///
/// ```
/// use mis_digital::EventBatch;
/// use mis_waveform::TraceRef;
///
/// let a = TraceRef::new(false, &[1e-12]);
/// let b = TraceRef::new(true, &[2e-12]);
/// let mut batch = EventBatch::new();
/// batch.fill(a, b);
/// let events: Vec<(f64, bool, usize)> = batch.events().collect();
/// assert_eq!(events, vec![(1e-12, true, 0), (2e-12, false, 1)]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct EventBatch {
    times: Vec<f64>,
    meta: Vec<u8>,
}

impl EventBatch {
    /// An empty batch. Allocates nothing until the first
    /// [`EventBatch::fill`].
    #[must_use]
    pub fn new() -> Self {
        EventBatch::default()
    }

    /// Number of merged events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the batch holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Discards the held events, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        self.times.clear();
        self.meta.clear();
    }

    /// Replaces the batch contents with the merged event stream of the
    /// two input views, in the schedulers' canonical order: ascending
    /// time, input A winning ties, each event's value decoded from its
    /// edge parity and the input's initial value.
    pub fn fill(&mut self, a: TraceRef<'_>, b: TraceRef<'_>) {
        self.clear();
        let (ta, tb) = (a.times(), b.times());
        let (ia, ib) = (a.initial_value(), b.initial_value());
        let (na, nb) = (ta.len(), tb.len());
        self.times.reserve(na + nb);
        self.meta.reserve(na + nb);
        let (mut i, mut j) = (0, 0);
        // The same conditional-move merge as the on-the-fly schedulers,
        // minus their per-event state machine: this loop's work is pure
        // data flow, so it pipelines.
        while i < na || j < nb {
            let tai = if i < na { ta[i] } else { f64::INFINITY };
            let tbj = if j < nb { tb[j] } else { f64::INFINITY };
            let take_a = tai <= tbj;
            let t = if take_a { tai } else { tbj };
            let (idx, init) = if take_a { (i, ia) } else { (j, ib) };
            let v = (idx % 2 == 0) ^ init;
            i += usize::from(take_a);
            j += usize::from(!take_a);
            self.times.push(t);
            self.meta.push(u8::from(!take_a) | (u8::from(v) << 1));
        }
    }

    /// The merged events in order, as `(time, value_after_edge, which)`
    /// with `which` 0 for input A and 1 for input B.
    pub fn events(&self) -> impl Iterator<Item = (f64, bool, usize)> + '_ {
        self.times
            .iter()
            .zip(&self.meta)
            .map(|(&t, &m)| (t, m & META_VALUE != 0, usize::from(m & META_WHICH)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_order_matches_the_two_pointer_walk() {
        let a = TraceRef::new(false, &[1.0, 3.0]);
        let b = TraceRef::new(true, &[2.0, 4.0]);
        let mut batch = EventBatch::new();
        batch.fill(a, b);
        let got: Vec<(f64, bool, usize)> = batch.events().collect();
        assert_eq!(
            got,
            vec![
                (1.0, true, 0),
                (2.0, false, 1),
                (3.0, false, 0),
                (4.0, true, 1),
            ]
        );
    }

    #[test]
    fn simultaneous_edges_take_input_a_first() {
        let a = TraceRef::new(false, &[5.0]);
        let b = TraceRef::new(false, &[5.0]);
        let mut batch = EventBatch::new();
        batch.fill(a, b);
        let got: Vec<(f64, bool, usize)> = batch.events().collect();
        assert_eq!(got, vec![(5.0, true, 0), (5.0, true, 1)]);
    }

    #[test]
    fn refill_resets_and_reuses_the_buffers() {
        let a = TraceRef::new(false, &[1.0, 2.0]);
        let empty = TraceRef::new(false, &[]);
        let mut batch = EventBatch::new();
        batch.fill(a, empty);
        assert_eq!(batch.len(), 2);
        batch.fill(empty, empty);
        assert!(batch.is_empty());
        batch.fill(a, a);
        assert_eq!(batch.len(), 4);
        // Parity decoding survives the reuse: edges alternate per input.
        let values: Vec<bool> = batch.events().map(|(_, v, _)| v).collect();
        assert_eq!(values, vec![true, true, false, false]);
    }

    #[test]
    fn inverted_views_decode_inverted_values() {
        let a = TraceRef::new(false, &[1.0]);
        let mut batch = EventBatch::new();
        batch.fill(a.inverted(), a.inverted());
        let values: Vec<bool> = batch.events().map(|(_, v, _)| v).collect();
        assert_eq!(values, vec![false, false]);
    }

    #[test]
    fn empty_inputs_produce_an_empty_batch() {
        let empty = TraceRef::new(true, &[]);
        let mut batch = EventBatch::new();
        batch.fill(empty, empty);
        assert!(batch.is_empty());
        assert_eq!(batch.events().count(), 0);
    }
}
