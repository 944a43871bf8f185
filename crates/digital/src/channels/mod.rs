//! Delay channel implementations.

pub mod batch;
pub mod cached;
pub mod exp;
pub mod hybrid;
pub mod inertial;
pub mod nand;
pub mod pure;
pub mod sumexp;

use mis_waveform::{DigitalTrace, EdgeBuf, TraceRef};

use crate::probe::ChannelCounters;
use crate::SimError;

pub use batch::EventBatch;

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
    /// into `out` (cleared first) — the arena hot path. The default
    /// delegates to the allocating [`TraceTransform::apply`]; the
    /// workspace channels override it with allocation-free kernels.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TraceTransform::apply`].
    fn apply_into(&self, input: TraceRef<'_>, out: &mut EdgeBuf) -> Result<(), SimError> {
        let result = self.apply(&input.to_trace())?;
        out.copy_trace(&result);
        Ok(())
    }

    /// [`TraceTransform::apply_into`] with channel-event accounting:
    /// implementations that track cancellations or pulse rejections
    /// record them into `stats`. The default ignores `stats` and
    /// delegates, so every channel is probed-callable; behavior (the
    /// output trace, the error cases, the zero-allocation guarantee)
    /// is identical to the unprobed path by contract.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TraceTransform::apply_into`].
    fn apply_into_probed(
        &self,
        input: TraceRef<'_>,
        out: &mut EdgeBuf,
        stats: &ChannelCounters,
    ) -> Result<(), SimError> {
        let _ = stats;
        self.apply_into(input, out)
    }

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
    /// result into `out` (cleared first) — the arena hot path. The
    /// default delegates to the allocating
    /// [`TwoInputTransform::apply2`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`TwoInputTransform::apply2`].
    fn apply2_into(
        &self,
        a: TraceRef<'_>,
        b: TraceRef<'_>,
        out: &mut EdgeBuf,
    ) -> Result<(), SimError> {
        let result = self.apply2(&a.to_trace(), &b.to_trace())?;
        out.copy_trace(&result);
        Ok(())
    }

    /// [`TwoInputTransform::apply2_into`] with channel-event
    /// accounting — see [`TraceTransform::apply_into_probed`] for the
    /// contract.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TwoInputTransform::apply2_into`].
    fn apply2_into_probed(
        &self,
        a: TraceRef<'_>,
        b: TraceRef<'_>,
        out: &mut EdgeBuf,
        stats: &ChannelCounters,
    ) -> Result<(), SimError> {
        let _ = stats;
        self.apply2_into(a, b, out)
    }

    /// [`TwoInputTransform::apply2_into_probed`] through a caller-owned
    /// [`EventBatch`] scratch: the input edge lists are merged into
    /// `batch` by one branch-light pass, and the scheduler then drains
    /// the flat batch instead of interleaving merge bookkeeping with its
    /// state machine (see the [`EventBatch`] docs). Bit-identical to
    /// the unbatched entry point by contract; the default ignores the
    /// scratch and delegates, so every channel is batch-callable.
    ///
    /// The `mis-sim` engine and cone replay call this with one warm
    /// batch each, which keeps their steady-state runs allocation-free.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TwoInputTransform::apply2_into`].
    fn apply2_batched_into_probed(
        &self,
        a: TraceRef<'_>,
        b: TraceRef<'_>,
        batch: &mut EventBatch,
        out: &mut EdgeBuf,
        stats: &ChannelCounters,
    ) -> Result<(), SimError> {
        let _ = batch;
        self.apply2_into_probed(a, b, out, stats)
    }

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
// table set (`Arc<CachedHybridChannel>` is ~20 KiB of resampled surfaces)
// can drive every gate instance of a cell type, instead of each instance
// carrying its own flat copy. This is what cell libraries hand to
// `Network` — `Box::new(Arc::clone(&tables))` costs one refcount bump.
impl<T: TraceTransform + ?Sized> TraceTransform for std::sync::Arc<T> {
    fn apply(&self, input: &DigitalTrace) -> Result<DigitalTrace, SimError> {
        (**self).apply(input)
    }

    fn apply_into(&self, input: TraceRef<'_>, out: &mut EdgeBuf) -> Result<(), SimError> {
        (**self).apply_into(input, out)
    }

    fn apply_into_probed(
        &self,
        input: TraceRef<'_>,
        out: &mut EdgeBuf,
        stats: &ChannelCounters,
    ) -> Result<(), SimError> {
        (**self).apply_into_probed(input, out, stats)
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
    ) -> Result<(), SimError> {
        (**self).apply2_into(a, b, out)
    }

    fn apply2_into_probed(
        &self,
        a: TraceRef<'_>,
        b: TraceRef<'_>,
        out: &mut EdgeBuf,
        stats: &ChannelCounters,
    ) -> Result<(), SimError> {
        (**self).apply2_into_probed(a, b, out, stats)
    }

    // Forwarded explicitly: the default would silently drop an inner
    // type's batched override (cells hand `Arc<CachedHybridChannel>`
    // to networks, so the engines only ever see this impl).
    fn apply2_batched_into_probed(
        &self,
        a: TraceRef<'_>,
        b: TraceRef<'_>,
        batch: &mut EventBatch,
        out: &mut EdgeBuf,
        stats: &ChannelCounters,
    ) -> Result<(), SimError> {
        (**self).apply2_batched_into_probed(a, b, batch, out, stats)
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
pub(crate) fn run_involution_channel<F>(
    input: &DigitalTrace,
    initial_output: bool,
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
    // value-changing edges starting from the initial output value.
    let mut out = DigitalTrace::constant(initial_output);
    let mut value = initial_output;
    for (t, rising) in scheduled {
        if rising != value {
            out.push_edge(t, rising)?;
            value = rising;
        }
    }
    Ok(out)
}

/// The in-place twin of [`run_involution_channel`]: identical event
/// semantics, but the schedule stack *is* the output buffer, so the run
/// allocates nothing. Callers must pass `initial_output` equal to the
/// input's initial value (true for every involution channel here): the
/// cancellation rule then removes adjacent opposite-polarity pairs only,
/// so the surviving schedule alternates starting from `!initial_output`
/// and the buffer's parity-implied polarities are exactly the legacy
/// runner's — the legacy defensive polarity cleanup is a no-op.
///
/// # Errors
///
/// Returns [`SimError::Trace`] if the resulting edge sequence violates
/// trace invariants (cannot happen for a correct delay function, kept as
/// a defensive check).
pub(crate) fn run_involution_into<F>(
    input: TraceRef<'_>,
    initial_output: bool,
    mut delta: F,
    out: &mut EdgeBuf,
) -> Result<(), SimError>
where
    F: FnMut(f64, bool) -> f64,
{
    debug_assert_eq!(
        initial_output,
        input.initial_value(),
        "in-place involution runner requires a non-inverting channel"
    );
    out.clear(initial_output);
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
        let out = run_involution_channel(&input, false, |_t, _r| ps(5.0)).unwrap();
        assert_eq!(out.transition_count(), 2);
        assert!((out.edges()[0].time - ps(15.0)).abs() < 1e-18);
        assert!((out.edges()[1].time - ps(55.0)).abs() < 1e-18);
    }

    #[test]
    fn involution_runner_cancels_overtaking_transitions() {
        // Second edge overtakes the first scheduled output: both vanish.
        let input =
            DigitalTrace::with_edges(false, vec![(ps(10.0), true), (ps(11.0), false)]).unwrap();
        let out = run_involution_channel(&input, false, |t, r| {
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
        let _ = run_involution_channel(&input, false, |t, _| {
            seen_t = t;
            ps(1.0)
        })
        .unwrap();
        assert!(seen_t.is_infinite());
    }
}
