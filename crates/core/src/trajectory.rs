use mis_waveform::AnalogWaveform;

use crate::{Mode, ModeSystem, ModeTrajectory, ModelError, NorParams};

/// One entry of a mode-switch schedule: at absolute time `at`, the inputs
/// assume the state of `to`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeSwitch {
    /// Absolute switch time, in seconds.
    pub at: f64,
    /// Mode entered at [`ModeSwitch::at`].
    pub to: Mode,
}

/// A continuous piecewise trajectory of the hybrid model across an
/// arbitrary sequence of mode switches.
///
/// This is the machinery behind the paper's Fig. 4 (per-mode switching
/// waveforms), the MIS delay computations (two-switch schedules) and the
/// event-driven channel (incremental switching). Continuity of
/// `V = [V_N, V_O]` at each switch is guaranteed by construction: each
/// segment starts from the previous segment's end state.
///
/// # Examples
///
/// Reproducing one MIS scenario by hand — both inputs rise 10 ps apart:
///
/// ```
/// use mis_core::{HybridTrajectory, Mode, ModeSwitch, NorParams};
/// use mis_waveform::units::ps;
///
/// # fn main() -> Result<(), mis_core::ModelError> {
/// let p = NorParams::paper_table1();
/// let traj = HybridTrajectory::new(
///     &p,
///     Mode::S00,
///     [p.vdd, p.vdd],
///     0.0,
///     &[
///         ModeSwitch { at: 0.0, to: Mode::S10 },
///         ModeSwitch { at: ps(10.0), to: Mode::S11 },
///     ],
/// )?;
/// let t_cross = traj.first_output_crossing(p.vth, ps(500.0))?.expect("falls");
/// assert!(t_cross > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HybridTrajectory {
    /// Segment start times (absolute), parallel to `segments`.
    starts: Vec<f64>,
    segments: Vec<ModeTrajectory>,
    /// End of the last segment's validity (`f64::INFINITY`).
    params: NorParams,
}

impl HybridTrajectory {
    /// Builds a trajectory that starts in `initial_mode` with state `x0` at
    /// absolute time `t0` and then applies `switches` in order.
    ///
    /// Switches earlier than `t0` or out of order are rejected. A switch to
    /// the current mode is allowed and re-anchors the segment (no state
    /// change — useful for uniform schedules).
    ///
    /// # Errors
    ///
    /// * [`ModelError::InvalidParams`] — parameter validation failure.
    /// * [`ModelError::FitFailed`] is never returned here; scheduling
    ///   violations surface as [`ModelError::InvalidParams`] with a
    ///   descriptive reason.
    pub fn new(
        params: &NorParams,
        initial_mode: Mode,
        x0: [f64; 2],
        t0: f64,
        switches: &[ModeSwitch],
    ) -> Result<Self, ModelError> {
        params.validate()?;
        let mut starts = vec![t0];
        let mut segments = vec![ModeSystem::new(params, initial_mode)?.trajectory(x0)];
        let mut t_prev = t0;
        for (i, sw) in switches.iter().enumerate() {
            if !(sw.at >= t_prev) {
                return Err(ModelError::InvalidParams {
                    reason: format!(
                        "switch {i} at {:e} precedes previous segment start {:e}",
                        sw.at, t_prev
                    ),
                });
            }
            let last = segments.last().expect("at least the initial segment");
            let x_at = last.eval(sw.at - starts[starts.len() - 1]);
            segments.push(ModeSystem::new(params, sw.to)?.trajectory(x_at));
            starts.push(sw.at);
            t_prev = sw.at;
        }
        Ok(HybridTrajectory {
            starts,
            segments,
            params: *params,
        })
    }

    /// The state `[V_N, V_O]` at absolute time `t` (clamped to the first
    /// segment's start).
    #[must_use]
    pub fn eval(&self, t: f64) -> [f64; 2] {
        let idx = self.segment_index(t);
        self.segments[idx].eval((t - self.starts[idx]).max(0.0))
    }

    /// First time `> after` at which the output crosses `level`, searching
    /// up to `horizon` past the last switch.
    ///
    /// # Errors
    ///
    /// Propagates crossing-solver failures (non-positive horizon).
    pub fn first_output_crossing(
        &self,
        level: f64,
        horizon: f64,
    ) -> Result<Option<f64>, ModelError> {
        for (i, seg) in self.segments.iter().enumerate() {
            let t_start = self.starts[i];
            let t_end = if i + 1 < self.starts.len() {
                self.starts[i + 1]
            } else {
                self.starts[i] + horizon
            };
            let span = t_end - t_start;
            if !(span > 0.0) {
                continue;
            }
            if let Some(tc) = seg.first_vo_crossing(level, span)? {
                // A crossing exactly at a segment boundary belongs to the
                // next segment (the switch happens first).
                if tc < span || i + 1 == self.segments.len() {
                    return Ok(Some(t_start + tc));
                }
            }
        }
        Ok(None)
    }

    /// Samples the trajectory on `n` uniform points over `[t0, t1]` as a
    /// pair of analog waveforms `(V_N, V_O)` — the paper's Fig. 4 format.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParams`] for a reversed window or
    /// `n < 2`; waveform construction errors are impossible for a uniform
    /// grid but still propagate defensively.
    pub fn sample(
        &self,
        t0: f64,
        t1: f64,
        n: usize,
    ) -> Result<(AnalogWaveform, AnalogWaveform), ModelError> {
        if !(t1 > t0) || n < 2 {
            return Err(ModelError::InvalidParams {
                reason: "sampling needs t1 > t0 and n >= 2".into(),
            });
        }
        let mut ts = Vec::with_capacity(n);
        let mut vn = Vec::with_capacity(n);
        let mut vo = Vec::with_capacity(n);
        for i in 0..n {
            let t = t0 + (t1 - t0) * i as f64 / (n - 1) as f64;
            let x = self.eval(t);
            ts.push(t);
            vn.push(x[0]);
            vo.push(x[1]);
        }
        let wn = AnalogWaveform::from_samples(ts.clone(), vn).map_err(|e| {
            ModelError::InvalidParams {
                reason: format!("V_N sampling failed: {e}"),
            }
        })?;
        let wo = AnalogWaveform::from_samples(ts, vo).map_err(|e| ModelError::InvalidParams {
            reason: format!("V_O sampling failed: {e}"),
        })?;
        Ok((wn, wo))
    }

    /// The parameter set this trajectory was built with.
    #[must_use]
    pub fn params(&self) -> &NorParams {
        &self.params
    }

    fn segment_index(&self, t: f64) -> usize {
        // Last segment whose start is <= t (segments take effect at their
        // start instant).
        self.starts.iter().rposition(|&s| s <= t).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_linalg::approx_eq;
    use mis_waveform::units::ps;

    fn p() -> NorParams {
        NorParams::paper_table1()
    }

    #[test]
    fn continuity_at_switches() {
        let par = p();
        let traj = HybridTrajectory::new(
            &par,
            Mode::S00,
            [par.vdd, par.vdd],
            0.0,
            &[
                ModeSwitch {
                    at: ps(5.0),
                    to: Mode::S10,
                },
                ModeSwitch {
                    at: ps(25.0),
                    to: Mode::S11,
                },
                ModeSwitch {
                    at: ps(60.0),
                    to: Mode::S00,
                },
            ],
        )
        .unwrap();
        for &ts in &[ps(5.0), ps(25.0), ps(60.0)] {
            let before = traj.eval(ts - 1e-18);
            let after = traj.eval(ts + 1e-18);
            assert!(approx_eq(before[0], after[0], 1e-6), "V_N jump at {ts:e}");
            assert!(approx_eq(before[1], after[1], 1e-6), "V_O jump at {ts:e}");
        }
    }

    #[test]
    fn rejects_out_of_order_switches() {
        let par = p();
        let r = HybridTrajectory::new(
            &par,
            Mode::S00,
            [par.vdd, par.vdd],
            0.0,
            &[
                ModeSwitch {
                    at: ps(10.0),
                    to: Mode::S10,
                },
                ModeSwitch {
                    at: ps(5.0),
                    to: Mode::S11,
                },
            ],
        );
        assert!(r.is_err());
    }

    #[test]
    fn crossing_found_across_segment_boundary() {
        // Switch to S11 before the S10 crossing would occur; the crossing
        // must be found inside the S11 segment.
        let par = p();
        let traj = HybridTrajectory::new(
            &par,
            Mode::S00,
            [par.vdd, par.vdd],
            0.0,
            &[
                ModeSwitch {
                    at: 0.0,
                    to: Mode::S10,
                },
                ModeSwitch {
                    at: ps(5.0),
                    to: Mode::S11,
                },
            ],
        )
        .unwrap();
        let tc = traj
            .first_output_crossing(par.vth, ps(1000.0))
            .unwrap()
            .expect("output must fall");
        assert!(tc > ps(5.0), "crossing after the second switch: {tc:e}");
        let vo = traj.eval(tc)[1];
        assert!(approx_eq(vo, par.vth, 1e-9));
    }

    #[test]
    fn crossing_in_first_segment_when_switch_is_late() {
        let par = p();
        let traj = HybridTrajectory::new(
            &par,
            Mode::S00,
            [par.vdd, par.vdd],
            0.0,
            &[
                ModeSwitch {
                    at: 0.0,
                    to: Mode::S10,
                },
                ModeSwitch {
                    at: ps(500.0),
                    to: Mode::S11,
                },
            ],
        )
        .unwrap();
        let tc = traj
            .first_output_crossing(par.vth, ps(1000.0))
            .unwrap()
            .expect("crossing");
        assert!(tc < ps(500.0), "SIS crossing precedes the second switch");
    }

    #[test]
    fn no_crossing_when_output_stays_high() {
        let par = p();
        let traj = HybridTrajectory::new(&par, Mode::S00, [par.vdd, par.vdd], 0.0, &[]).unwrap();
        assert!(traj
            .first_output_crossing(par.vth, ps(1000.0))
            .unwrap()
            .is_none());
    }

    #[test]
    fn sample_produces_fig4_style_waveforms() {
        let par = p();
        // Fig. 4 initial conditions: V_N(0)=V_O(0)=VDD except (0,0) from
        // GND and (1,1) with V_N = VDD/2.
        let traj = HybridTrajectory::new(&par, Mode::S00, [0.0, 0.0], 0.0, &[]).unwrap();
        let (wn, wo) = traj.sample(0.0, ps(150.0), 151).unwrap();
        assert_eq!(wn.len(), 151);
        // (0,0) charges both nodes towards VDD.
        assert!(wo.value_at(ps(150.0)) > 0.9 * par.vdd);
        assert!(wn.value_at(ps(150.0)) > 0.9 * par.vdd);
        assert!(traj.sample(1.0, 0.0, 10).is_err());
        assert!(traj.sample(0.0, 1.0, 1).is_err());
    }

    #[test]
    fn matches_adaptive_integration_across_switches() {
        // Integrate the raw piecewise ODE numerically and compare at the end.
        let par = p();
        let schedule = [
            ModeSwitch {
                at: ps(4.0),
                to: Mode::S10,
            },
            ModeSwitch {
                at: ps(19.0),
                to: Mode::S11,
            },
        ];
        let traj =
            HybridTrajectory::new(&par, Mode::S00, [par.vdd, par.vdd], 0.0, &schedule).unwrap();
        let mut x = [par.vdd, par.vdd];
        let mut t = 0.0;
        let times = [ps(4.0), ps(19.0), ps(80.0)];
        let modes = [Mode::S00, Mode::S10, Mode::S11];
        for (&t_end, &mode) in times.iter().zip(&modes) {
            let sys = ModeSystem::new(&par, mode).unwrap();
            let a = sys.matrix();
            let g = sys.drive();
            let samples = mis_num::ode::integrate_adaptive(
                |_tt, y, dy| {
                    dy[0] = a[0][0] * y[0] + a[0][1] * y[1] + g[0];
                    dy[1] = a[1][0] * y[0] + a[1][1] * y[1] + g[1];
                },
                t,
                t_end,
                &x,
            )
            .unwrap();
            let last = samples.last().unwrap();
            x = [last.y[0], last.y[1]];
            t = t_end;
        }
        let analytic = traj.eval(ps(80.0));
        assert!(approx_eq(analytic[0], x[0], 1e-6), "V_N");
        assert!(approx_eq(analytic[1], x[1], 1e-6), "V_O");
    }
}
