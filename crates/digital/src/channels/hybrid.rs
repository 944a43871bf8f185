use mis_core::channel::NorGateModel;
use mis_core::{InputId, NorParams};
use mis_waveform::{DigitalTrace, EdgeBuf, TraceRef};

use crate::channels::{ChannelEvents, TwoInputTransform};
use crate::SimError;

/// The paper's hybrid model as a two-input NOR delay channel.
///
/// Input events are deferred by the pure delay `δ_min` (Section V) and
/// then drive the continuous-state ODE model
/// ([`mis_core::channel::NorGateModel`]); output transitions are the
/// model's threshold crossings. Obsolete crossing predictions are
/// invalidated by later input events, which is how glitch suppression and
/// pulse shortening emerge from the dynamics rather than from an explicit
/// filtering rule.
///
/// Unlike every single-input channel, this transform sees *both* inputs
/// and therefore reproduces MIS delay variations — the whole point of the
/// paper.
///
/// # Examples
///
/// ```
/// use mis_digital::{HybridNorChannel, TwoInputTransform};
/// use mis_core::NorParams;
/// use mis_waveform::{DigitalTrace, units::ps};
///
/// # fn main() -> Result<(), mis_digital::SimError> {
/// let ch = HybridNorChannel::new(&NorParams::paper_table1())?;
/// let a = DigitalTrace::with_edges(false, vec![(ps(100.0), true)])?;
/// let b = DigitalTrace::with_edges(false, vec![(ps(100.0), true)])?;
/// let out = ch.apply2(&a, &b)?;
/// assert!(out.initial_value());           // NOR of (0,0) is high
/// assert_eq!(out.transition_count(), 1);  // one falling transition
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HybridNorChannel {
    params: NorParams,
}

impl HybridNorChannel {
    /// Creates the channel.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Model`] for invalid parameters.
    pub fn new(params: &NorParams) -> Result<Self, SimError> {
        params.validate()?;
        Ok(HybridNorChannel { params: *params })
    }

    /// The underlying model parameters.
    #[must_use]
    pub fn params(&self) -> &NorParams {
        &self.params
    }
}

impl HybridNorChannel {
    /// The event loop of both entry points: the input events, already
    /// deferred by `δ_min` and in time order, drive the ODE model from
    /// the inputs' initial values `a0`/`b0`, and `commit` receives each
    /// output crossing that survives, alternating from NOR(`a0`, `b0`).
    fn drive(
        &self,
        (a0, b0): (bool, bool),
        events: impl IntoIterator<Item = (f64, InputId, bool)>,
        mut commit: impl FnMut(f64, bool) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        let mut gate = NorGateModel::new(&self.params, a0, b0)?;
        let mut value = gate.mode().nor_output();
        let mut commit_until = |gate: &NorGateModel, until: f64| -> Result<(), SimError> {
            for (tc, rising) in gate.output_crossings()? {
                if tc > until {
                    break;
                }
                if rising != value {
                    commit(tc, rising)?;
                    value = rising;
                }
            }
            Ok(())
        };
        for (t, id, v) in events {
            // Crossings predicted strictly before this event are
            // committed; the rest are invalidated by the mode switch.
            commit_until(&gate, t)?;
            // The gate state must not be rewound: if a committed crossing
            // coincides with the event, processing order is still valid
            // because `set_input` advances from the anchor analytically.
            gate.set_input(t, id, v)?;
        }
        // Tail: everything the final trajectory still crosses.
        commit_until(&gate, f64::INFINITY)
    }
}

impl TwoInputTransform for HybridNorChannel {
    fn apply2(&self, a: &DigitalTrace, b: &DigitalTrace) -> Result<DigitalTrace, SimError> {
        let dmin = self.params.delta_min;
        // Merge both inputs' edges, each deferred by δ_min, in time order.
        let mut events: Vec<(f64, InputId, bool)> = a
            .edges()
            .iter()
            .map(|e| (e.time + dmin, InputId::A, e.rising))
            .chain(
                b.edges()
                    .iter()
                    .map(|e| (e.time + dmin, InputId::B, e.rising)),
            )
            .collect();
        events.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite event times"));
        let inputs = (a.initial_value(), b.initial_value());
        let mut out = DigitalTrace::constant(!(inputs.0 || inputs.1));
        self.drive(inputs, events, |t, rising| Ok(out.push_edge(t, rising)?))?;
        Ok(out)
    }

    /// [`TwoInputTransform::apply2`] on the SoA views: the two edge
    /// lists are merged as they are read (A first on equal deferred
    /// times, as the stable sort orders them), and crossings go straight
    /// into `out`, so no event list, sort or owned trace is built.
    fn apply2_into(
        &self,
        a: TraceRef<'_>,
        b: TraceRef<'_>,
        out: &mut EdgeBuf,
    ) -> Result<ChannelEvents, SimError> {
        let dmin = self.params.delta_min;
        let (ta, tb) = (a.times(), b.times());
        let (mut i, mut j) = (0, 0);
        let events = std::iter::from_fn(|| {
            let take_a = match (ta.get(i), tb.get(j)) {
                (Some(&x), Some(&y)) => x + dmin <= y + dmin,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return None,
            };
            Some(if take_a {
                i += 1;
                (ta[i - 1] + dmin, InputId::A, a.rising(i - 1))
            } else {
                j += 1;
                (tb[j - 1] + dmin, InputId::B, b.rising(j - 1))
            })
        });
        let inputs = (a.initial_value(), b.initial_value());
        out.clear(!(inputs.0 || inputs.1));
        self.drive(inputs, events, |t, _| Ok(out.push_time(t)?))?;
        Ok(ChannelEvents::default())
    }

    fn name(&self) -> &str {
        "hybrid-nor"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_core::delay;
    use mis_core::RisingInitialVn;
    use mis_waveform::units::ps;

    fn params() -> NorParams {
        NorParams::paper_table1()
    }

    #[test]
    fn single_falling_transition_matches_delay_function() {
        let ch = HybridNorChannel::new(&params()).unwrap();
        for &delta in &[ps(-40.0), ps(-10.0), 0.0, ps(10.0), ps(40.0)] {
            let (ta, tb) = if delta >= 0.0 {
                (ps(200.0), ps(200.0) + delta)
            } else {
                (ps(200.0) - delta, ps(200.0))
            };
            let a = DigitalTrace::with_edges(false, vec![(ta, true)]).unwrap();
            let b = DigitalTrace::with_edges(false, vec![(tb, true)]).unwrap();
            let out = ch.apply2(&a, &b).unwrap();
            assert_eq!(out.transition_count(), 1, "Δ = {delta:e}");
            let expected = ta.min(tb) + delay::falling_delay(&params(), delta).unwrap();
            let got = out.edges()[0].time;
            assert!(
                (got - expected).abs() < ps(0.001),
                "Δ = {delta:e}: {got:e} vs {expected:e}"
            );
        }
    }

    #[test]
    fn full_pulse_round_trip_rising_and_falling() {
        // Both inputs pulse high simultaneously: output falls, then rises.
        let ch = HybridNorChannel::new(&params()).unwrap();
        let a =
            DigitalTrace::with_edges(false, vec![(ps(200.0), true), (ps(500.0), false)]).unwrap();
        let b =
            DigitalTrace::with_edges(false, vec![(ps(200.0), true), (ps(500.0), false)]).unwrap();
        let out = ch.apply2(&a, &b).unwrap();
        assert_eq!(out.transition_count(), 2);
        assert!(!out.edges()[0].rising);
        assert!(out.edges()[1].rising);
        let fall = out.edges()[0].time - ps(200.0);
        let expected_fall = delay::falling_delay(&params(), 0.0).unwrap();
        assert!((fall - expected_fall).abs() < ps(0.001));
        // The rising delay sees the *tracked* V_N (which a long S11 dwell
        // leaves frozen at its entry value ≈ the S10/S01-less simultaneous
        // switch level, here V_DD because the mode switched directly from
        // S00). It must at least be a sane rising delay.
        let rise = out.edges()[1].time - ps(500.0);
        let gnd = delay::rising_delay(&params(), 0.0, RisingInitialVn::Gnd).unwrap();
        let vdd = delay::rising_delay(&params(), 0.0, RisingInitialVn::Vdd).unwrap();
        assert!(
            rise >= vdd.min(gnd) - ps(0.01) && rise <= vdd.max(gnd) + ps(0.01),
            "rise {rise:e} outside [{:e}, {:e}]",
            vdd.min(gnd),
            vdd.max(gnd)
        );
    }

    #[test]
    fn short_input_pulse_suppressed() {
        // A 1 ps pulse on one input cannot move the output across the
        // threshold: no output transitions at all.
        let ch = HybridNorChannel::new(&params()).unwrap();
        let a =
            DigitalTrace::with_edges(false, vec![(ps(200.0), true), (ps(201.0), false)]).unwrap();
        let b = DigitalTrace::constant(false);
        let out = ch.apply2(&a, &b).unwrap();
        assert_eq!(out.transition_count(), 0, "glitch must be filtered");
    }

    #[test]
    fn medium_pulse_shortened() {
        // An input pulse just above the delay scale survives, shortened.
        let ch = HybridNorChannel::new(&params().without_pure_delay()).unwrap();
        let width = ps(30.0);
        let a =
            DigitalTrace::with_edges(false, vec![(ps(200.0), true), (ps(200.0) + width, false)])
                .unwrap();
        let b = DigitalTrace::constant(false);
        let out = ch.apply2(&a, &b).unwrap();
        assert_eq!(out.transition_count(), 2, "pulse should survive");
        let out_width = out.edges()[1].time - out.edges()[0].time;
        assert!(out_width > 0.0);
    }

    #[test]
    fn pure_delay_defers_everything() {
        let with = HybridNorChannel::new(&params()).unwrap();
        let without = HybridNorChannel::new(&params().without_pure_delay()).unwrap();
        let a = DigitalTrace::with_edges(false, vec![(ps(300.0), true)]).unwrap();
        let b = DigitalTrace::with_edges(false, vec![(ps(310.0), true)]).unwrap();
        let o1 = with.apply2(&a, &b).unwrap();
        let o2 = without.apply2(&a, &b).unwrap();
        assert_eq!(o1.transition_count(), 1);
        let shift = o1.edges()[0].time - o2.edges()[0].time;
        assert!((shift - params().delta_min).abs() < ps(0.001));
    }

    #[test]
    fn starts_in_any_input_state() {
        let ch = HybridNorChannel::new(&params()).unwrap();
        // (1,1) start: output low; both fall simultaneously → one rise.
        let a = DigitalTrace::with_edges(true, vec![(ps(300.0), false)]).unwrap();
        let b = DigitalTrace::with_edges(true, vec![(ps(300.0), false)]).unwrap();
        let out = ch.apply2(&a, &b).unwrap();
        assert!(!out.initial_value());
        assert_eq!(out.transition_count(), 1);
        assert!(out.edges()[0].rising);
        let rise = out.edges()[0].time - ps(300.0);
        let expected = delay::rising_delay(&params(), 0.0, RisingInitialVn::Gnd).unwrap();
        assert!(
            (rise - expected).abs() < ps(0.001),
            "{rise:e} vs {expected:e} (Gnd policy at construction)"
        );
    }

    #[test]
    fn busy_random_traffic_produces_wellformed_trace() {
        // Dense alternating activity on both inputs: output trace must be
        // well-formed (construction enforces it) and causal.
        let ch = HybridNorChannel::new(&params()).unwrap();
        let mut a_edges = Vec::new();
        let mut b_edges = Vec::new();
        let mut va = false;
        let mut vb = false;
        for i in 0..60 {
            let t = ps(200.0 + 37.0 * i as f64);
            if i % 2 == 0 {
                va = !va;
                a_edges.push((t, va));
            } else {
                vb = !vb;
                b_edges.push((t, vb));
            }
        }
        let a = DigitalTrace::with_edges(false, a_edges).unwrap();
        let b = DigitalTrace::with_edges(false, b_edges).unwrap();
        let out = ch.apply2(&a, &b).unwrap();
        // Causality: no output edge before the first input edge + δ_min.
        if let Some(first) = out.edges().first() {
            assert!(first.time > ps(200.0) + params().delta_min);
        }
    }
}
