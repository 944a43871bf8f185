//! Delay channel implementations.

pub mod cached;
pub mod exp;
pub mod hybrid;
pub mod inertial;
pub mod nand;
pub mod pure;

use mis_waveform::{DigitalTrace, EdgeBuf, TraceRef};

use crate::SimError;

/// What one in-place channel application did, returned by
/// [`TraceTransform::apply_into`] and [`TwoInputTransform::apply2_into`].
/// Channels count in plain locals and hand the tallies back; only the
/// engine decides whether to record them (the `chan.*` metrics of a
/// probed `mis-sim` run). Channels that track none of these report
/// zeros.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChannelEvents {
    /// Pending output transitions cancelled before commit — the cached
    /// scheduler's glitch suppressions plus reverted rises.
    pub pending_cancelled: u64,
    /// MIS delay-surface evaluations (the `δ↑`/`δ↓` table walks; the
    /// single-input fall modes use precomputed constants and do not
    /// count).
    pub table_lookups: u64,
    /// Input edges removed by inertial filtering (reorder cancellation
    /// plus pulse rejection).
    pub pulse_filtered: u64,
}

impl std::ops::AddAssign for ChannelEvents {
    fn add_assign(&mut self, rhs: Self) {
        self.pending_cancelled += rhs.pending_cancelled;
        self.table_lookups += rhs.table_lookups;
        self.pulse_filtered += rhs.pulse_filtered;
    }
}

/// A closed interval `[lo, hi]` (seconds) bounding the offset between any
/// output transition a channel commits and *some* input transition of the
/// application that caused it: every output edge at time `t_out` satisfies
/// `t_in + lo ≤ t_out ≤ t_in + hi` for at least one input edge `t_in`
/// (of either input, for two-input channels).
///
/// This is the per-cell contract static timing analysis propagates: if all
/// input edges of a gate lie inside a window `[a, b]`, every output edge
/// lies inside `[a + lo, b + hi]`. Channels whose delay is unbounded (the
/// involution channels, whose `δ(T) → −∞` as `T → 0`) report `None` from
/// [`TraceTransform::delay_bounds`] instead of a `DelayBounds`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayBounds {
    /// Smallest possible edge offset, seconds (may be negative).
    pub lo: f64,
    /// Largest possible edge offset, seconds.
    pub hi: f64,
}

impl DelayBounds {
    /// Bounds with explicit endpoints (`lo ≤ hi` expected; not enforced —
    /// a reversed interval simply bounds nothing).
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Self {
        DelayBounds { lo, hi }
    }

    /// The degenerate interval of a constant-delay channel.
    #[must_use]
    pub fn exact(delay: f64) -> Self {
        DelayBounds {
            lo: delay,
            hi: delay,
        }
    }
}

/// A single-input delay channel: a causal transform from an input binary
/// trace to an output binary trace.
///
/// `Send + Sync` is a supertrait: a channel is immutable table/parameter
/// data during `apply*` (per-application scheduler state lives on the
/// stack), so one instance may be read from many threads at once. This is
/// what lets a [`crate::Network`] — which stores its channels behind
/// `Box<dyn TraceTransform>` — be shared across the `mis-fault` campaign
/// workers by reference.
pub trait TraceTransform: Send + Sync {
    /// Applies the channel to a full input trace.
    ///
    /// # Errors
    ///
    /// Implementation-specific; typically trace-invariant violations or
    /// model failures.
    fn apply(&self, input: &DigitalTrace) -> Result<DigitalTrace, SimError>;

    /// Applies the channel to a borrowed SoA view, writing the result
    /// into `out` (cleared first) — the arena hot path — and returns
    /// the application's [`ChannelEvents`]. Required, with no default
    /// that goes through the allocating [`TraceTransform::apply`], so a
    /// channel cannot allocate on the hot path by omission; it must
    /// produce the same trace as `apply`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TraceTransform::apply`].
    fn apply_into(&self, input: TraceRef<'_>, out: &mut EdgeBuf)
        -> Result<ChannelEvents, SimError>;

    /// A short human-readable name for reports.
    fn name(&self) -> &str;

    /// Sound per-edge delay bounds (see [`DelayBounds`]), or `None` when
    /// the channel's delay is unbounded. The default is `None` — always
    /// sound, never tight.
    fn delay_bounds(&self) -> Option<DelayBounds> {
        None
    }
}

/// A two-input delay channel (the hybrid NOR model): consumes both input
/// traces directly, which is what lets it see the input separation `Δ`
/// that single-input channels structurally cannot.
///
/// `Send + Sync` is a supertrait for the same reason as on
/// [`TraceTransform`]: applications never mutate the channel, so shared
/// cross-thread reads are sound by construction.
pub trait TwoInputTransform: Send + Sync {
    /// Applies the channel to a pair of input traces.
    ///
    /// # Errors
    ///
    /// Implementation-specific.
    fn apply2(&self, a: &DigitalTrace, b: &DigitalTrace) -> Result<DigitalTrace, SimError>;

    /// Applies the channel to a pair of borrowed SoA views, writing the
    /// result into `out` (cleared first) — the arena hot path — and
    /// returns the application's [`ChannelEvents`]. Required for the
    /// same reason as [`TraceTransform::apply_into`]; it must produce
    /// the same trace as `apply2`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TwoInputTransform::apply2`].
    fn apply2_into(
        &self,
        a: TraceRef<'_>,
        b: TraceRef<'_>,
        out: &mut EdgeBuf,
    ) -> Result<ChannelEvents, SimError>;

    /// A short human-readable name for reports.
    fn name(&self) -> &str;

    /// Sound per-edge delay bounds (see [`DelayBounds`]), or `None` when
    /// the channel's delay is unbounded. The default is `None` — always
    /// sound, never tight.
    fn delay_bounds(&self) -> Option<DelayBounds> {
        None
    }
}

// Channels behind shared pointers are channels too: one characterized
// table set (`Arc<CachedHybridChannel>` holds ≈ 100 KiB of resampled
// surfaces and correction curves on the committed library)
// can drive every gate instance of a cell type, instead of each instance
// carrying its own flat copy. This is what cell libraries hand to
// `Network` — `Box::new(Arc::clone(&tables))` costs one refcount bump.
impl<T: TraceTransform + ?Sized> TraceTransform for std::sync::Arc<T> {
    fn apply(&self, input: &DigitalTrace) -> Result<DigitalTrace, SimError> {
        (**self).apply(input)
    }

    fn apply_into(
        &self,
        input: TraceRef<'_>,
        out: &mut EdgeBuf,
    ) -> Result<ChannelEvents, SimError> {
        (**self).apply_into(input, out)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn delay_bounds(&self) -> Option<DelayBounds> {
        (**self).delay_bounds()
    }
}

impl<T: TwoInputTransform + ?Sized> TwoInputTransform for std::sync::Arc<T> {
    fn apply2(&self, a: &DigitalTrace, b: &DigitalTrace) -> Result<DigitalTrace, SimError> {
        (**self).apply2(a, b)
    }

    fn apply2_into(
        &self,
        a: TraceRef<'_>,
        b: TraceRef<'_>,
        out: &mut EdgeBuf,
    ) -> Result<ChannelEvents, SimError> {
        (**self).apply2_into(a, b, out)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn delay_bounds(&self) -> Option<DelayBounds> {
        (**self).delay_bounds()
    }
}

/// Runs the IDM single-history channel algorithm over an input trace,
/// given a delay function `delta(T, rising)` where `T` is the time from
/// the *previous scheduled output transition* to the current input edge
/// (`+∞` for the first).
///
/// Cancellation rule: an output transition scheduled at or before the
/// currently pending one annihilates together with it (both are removed),
/// which is how the IDM removes glitches that the analog waveform would
/// swallow.
///
/// # Errors
///
/// Returns [`SimError::Trace`] if the resulting edge sequence violates
/// trace invariants (cannot happen for a correct delay function, kept as a
/// defensive check).
pub(crate) fn apply_involution<F>(
    input: &DigitalTrace,
    mut delta: F,
) -> Result<DigitalTrace, SimError>
where
    F: FnMut(f64, bool) -> f64,
{
    let mut scheduled: Vec<(f64, bool)> = Vec::with_capacity(input.edges().len());
    for edge in input.edges() {
        let t_prev_out = scheduled.last().map(|&(t, _)| t);
        let t_in = edge.time;
        let big_t = t_prev_out.map_or(f64::INFINITY, |tp| t_in - tp);
        let d = delta(big_t, edge.rising);
        let t_out = t_in + d;
        match scheduled.last() {
            Some(&(t_pending, _)) if t_out <= t_pending => {
                // Cancellation: the new transition catches up with the
                // pending one; both vanish.
                scheduled.pop();
            }
            _ => scheduled.push((t_out, edge.rising)),
        }
    }
    // Defensive polarity cleanup (identical to digitization): keep only
    // value-changing edges starting from the input's initial value.
    let mut value = input.initial_value();
    let mut out = DigitalTrace::constant(value);
    for (t, rising) in scheduled {
        if rising != value {
            out.push_edge(t, rising)?;
            value = rising;
        }
    }
    Ok(out)
}

/// The in-place twin of [`apply_involution`]: identical event
/// semantics, but the schedule stack *is* the output buffer, so the run
/// allocates nothing. The output starts at the input's initial value
/// (every involution channel here is non-inverting): the cancellation
/// rule then removes adjacent opposite-polarity pairs only, so the
/// surviving schedule alternates starting from the opposite value and
/// the buffer's parity-implied polarities are exactly the owned
/// runner's — its defensive polarity cleanup is a no-op.
///
/// # Errors
///
/// Returns [`SimError::Trace`] if the resulting edge sequence violates
/// trace invariants (cannot happen for a correct delay function, kept as
/// a defensive check).
pub(crate) fn apply_involution_into<F>(
    input: TraceRef<'_>,
    mut delta: F,
    out: &mut EdgeBuf,
) -> Result<(), SimError>
where
    F: FnMut(f64, bool) -> f64,
{
    out.clear(input.initial_value());
    for (k, &t_in) in input.times().iter().enumerate() {
        let big_t = out.last_time().map_or(f64::INFINITY, |tp| t_in - tp);
        let d = delta(big_t, input.rising(k));
        let t_out = t_in + d;
        match out.last_time() {
            Some(t_pending) if t_out <= t_pending => {
                // Cancellation: the new transition catches up with the
                // pending one; both vanish.
                out.pop_time();
            }
            _ => out.push_time(t_out)?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_waveform::units::ps;

    #[test]
    fn involution_runner_constant_delay_passthrough() {
        let input =
            DigitalTrace::with_edges(false, vec![(ps(10.0), true), (ps(50.0), false)]).unwrap();
        let out = apply_involution(&input, |_t, _r| ps(5.0)).unwrap();
        assert_eq!(out.transition_count(), 2);
        assert!((out.edges()[0].time - ps(15.0)).abs() < 1e-18);
        assert!((out.edges()[1].time - ps(55.0)).abs() < 1e-18);
    }

    #[test]
    fn involution_runner_cancels_overtaking_transitions() {
        // Second edge overtakes the first scheduled output: both vanish.
        let input =
            DigitalTrace::with_edges(false, vec![(ps(10.0), true), (ps(11.0), false)]).unwrap();
        let out = apply_involution(&input, |t, r| {
            // Rising slow, falling fast: the falling output would be
            // scheduled before the pending rising one.
            let _ = t;
            if r {
                ps(20.0)
            } else {
                ps(2.0)
            }
        })
        .unwrap();
        assert_eq!(out.transition_count(), 0);
    }

    #[test]
    fn involution_runner_first_transition_uses_infinite_t() {
        let input = DigitalTrace::with_edges(false, vec![(ps(10.0), true)]).unwrap();
        let mut seen_t = f64::NAN;
        let _ = apply_involution(&input, |t, _| {
            seen_t = t;
            ps(1.0)
        })
        .unwrap();
        assert!(seen_t.is_infinite());
    }
}
