use mis_num::interp;

use crate::{DigitalTrace, WaveformError};

/// A sampled analog voltage waveform: strictly increasing times with one
/// voltage per sample, interpreted piecewise-linearly between samples and
/// as constant outside them.
///
/// # Examples
///
/// ```
/// use mis_waveform::AnalogWaveform;
///
/// # fn main() -> Result<(), mis_waveform::WaveformError> {
/// let w = AnalogWaveform::from_samples(vec![0.0, 1.0, 2.0], vec![0.0, 0.8, 0.0])?;
/// assert_eq!(w.value_at(0.5), 0.4);
/// assert_eq!(w.value_at(-1.0), 0.0); // clamped
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AnalogWaveform {
    ts: Vec<f64>,
    vs: Vec<f64>,
}

impl AnalogWaveform {
    /// Builds a waveform from parallel sample vectors.
    ///
    /// # Errors
    ///
    /// * [`WaveformError::Empty`] — no samples.
    /// * [`WaveformError::InvalidInput`] — length mismatch.
    /// * [`WaveformError::NotMonotonic`] — times not strictly increasing.
    /// * [`WaveformError::NonFinite`] — NaN/inf in either vector.
    pub fn from_samples(ts: Vec<f64>, vs: Vec<f64>) -> Result<Self, WaveformError> {
        if ts.is_empty() {
            return Err(WaveformError::Empty);
        }
        if ts.len() != vs.len() {
            return Err(WaveformError::InvalidInput {
                reason: format!("{} times but {} voltages", ts.len(), vs.len()),
            });
        }
        for (i, (&t, &v)) in ts.iter().zip(&vs).enumerate() {
            if !t.is_finite() || !v.is_finite() {
                return Err(WaveformError::NonFinite { index: i });
            }
        }
        if let Some(i) = (1..ts.len()).find(|&i| !(ts[i] > ts[i - 1])) {
            return Err(WaveformError::NotMonotonic {
                index: i,
                reason: format!("t[{i}] = {} <= t[{}] = {}", ts[i], i - 1, ts[i - 1]),
            });
        }
        Ok(AnalogWaveform { ts, vs })
    }

    /// A constant waveform, useful as a tied-high/tied-low input.
    ///
    /// # Examples
    ///
    /// ```
    /// let w = mis_waveform::AnalogWaveform::constant(0.8, 0.0, 1e-9);
    /// assert_eq!(w.value_at(0.5e-9), 0.8);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `t1 <= t0` or any argument is non-finite (programmer
    /// error, not data).
    #[must_use]
    pub fn constant(v: f64, t0: f64, t1: f64) -> Self {
        assert!(t1 > t0 && v.is_finite(), "invalid constant waveform");
        AnalogWaveform {
            ts: vec![t0, t1],
            vs: vec![v, v],
        }
    }

    /// Sample times.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.ts
    }

    /// Sample voltages.
    #[must_use]
    pub fn voltages(&self) -> &[f64] {
        &self.vs
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Always `false`: construction rejects empty waveforms.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Start of the sampled domain.
    #[must_use]
    pub fn t_start(&self) -> f64 {
        self.ts[0]
    }

    /// End of the sampled domain.
    #[must_use]
    pub fn t_end(&self) -> f64 {
        self.ts[self.ts.len() - 1]
    }

    /// Piecewise-linear value at `t` (constant extrapolation outside the
    /// sampled domain).
    #[must_use]
    pub fn value_at(&self, t: f64) -> f64 {
        interp::lerp_table_unchecked(&self.ts, &self.vs, t)
    }

    /// All crossings of `level`, as `(time, rising)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::Numeric`] if the underlying table scan
    /// fails (cannot happen for a validly constructed waveform).
    pub fn crossings(&self, level: f64) -> Result<Vec<(f64, bool)>, WaveformError> {
        Ok(interp::level_crossings(&self.ts, &self.vs, level)?)
    }

    /// First crossing of `level` at or after `t_from`, if any.
    ///
    /// # Errors
    ///
    /// Same as [`AnalogWaveform::crossings`].
    pub fn first_crossing_after(
        &self,
        level: f64,
        t_from: f64,
    ) -> Result<Option<(f64, bool)>, WaveformError> {
        Ok(self
            .crossings(level)?
            .into_iter()
            .find(|&(t, _)| t >= t_from))
    }

    /// Digitizes against a threshold: the output trace is high whenever the
    /// waveform is above `threshold`, with edges at the interpolated
    /// crossing times. The initial value is taken from the first sample.
    ///
    /// # Errors
    ///
    /// Propagates crossing-extraction failures; returns
    /// [`WaveformError::NotMonotonic`] if the crossing list is degenerate
    /// (repeated crossing times from pathological data).
    pub fn digitize(&self, threshold: f64) -> Result<DigitalTrace, WaveformError> {
        let initial = self.vs[0] > threshold;
        let crossings = self.crossings(threshold)?;
        // Keep only polarity-consistent crossings: digitization of a real
        // waveform can report duplicate same-direction crossings when the
        // curve grazes the threshold; collapse them.
        let mut edges = Vec::with_capacity(crossings.len());
        let mut state = initial;
        for (t, rising) in crossings {
            if rising != state {
                edges.push((t, rising));
                state = rising;
            }
        }
        DigitalTrace::with_edges(initial, edges)
    }

    /// Restricts the waveform to `[t0, t1]`, adding interpolated boundary
    /// samples.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::InvalidInput`] when the window is reversed
    /// or does not intersect the sampled domain.
    pub fn window(&self, t0: f64, t1: f64) -> Result<AnalogWaveform, WaveformError> {
        if !(t1 > t0) {
            return Err(WaveformError::InvalidInput {
                reason: "window must satisfy t1 > t0".into(),
            });
        }
        let mut ts = vec![t0];
        let mut vs = vec![self.value_at(t0)];
        for (&t, &v) in self.ts.iter().zip(&self.vs) {
            if t > t0 && t < t1 {
                ts.push(t);
                vs.push(v);
            }
        }
        ts.push(t1);
        vs.push(self.value_at(t1));
        AnalogWaveform::from_samples(ts, vs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> AnalogWaveform {
        AnalogWaveform::from_samples(vec![0.0, 1.0], vec![0.0, 1.0]).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            AnalogWaveform::from_samples(vec![], vec![]),
            Err(WaveformError::Empty)
        ));
        assert!(AnalogWaveform::from_samples(vec![0.0], vec![]).is_err());
        assert!(matches!(
            AnalogWaveform::from_samples(vec![0.0, 0.0], vec![1.0, 2.0]),
            Err(WaveformError::NotMonotonic { index: 1, .. })
        ));
        assert!(matches!(
            AnalogWaveform::from_samples(vec![0.0, 1.0], vec![1.0, f64::NAN]),
            Err(WaveformError::NonFinite { index: 1 })
        ));
    }

    #[test]
    fn value_interpolates_and_clamps() {
        let w = ramp();
        assert_eq!(w.value_at(0.25), 0.25);
        assert_eq!(w.value_at(-1.0), 0.0);
        assert_eq!(w.value_at(2.0), 1.0);
    }

    #[test]
    fn crossings_on_ramp() {
        let c = ramp().crossings(0.4).unwrap();
        assert_eq!(c.len(), 1);
        assert!((c[0].0 - 0.4).abs() < 1e-15);
        assert!(c[0].1);
    }

    #[test]
    fn first_crossing_after_skips_earlier() {
        let w = AnalogWaveform::from_samples(vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 0.0]).unwrap();
        let c = w.first_crossing_after(0.5, 1.0).unwrap().unwrap();
        assert!((c.0 - 1.5).abs() < 1e-15);
        assert!(!c.1, "the later crossing is falling");
    }

    #[test]
    fn digitize_pulse() {
        let w = AnalogWaveform::from_samples(
            vec![0.0, 1.0, 2.0, 3.0, 4.0],
            vec![0.0, 1.0, 1.0, 0.0, 0.0],
        )
        .unwrap();
        let d = w.digitize(0.5).unwrap();
        assert!(!d.initial_value());
        assert_eq!(d.edges().len(), 2);
        assert!((d.edges()[0].time - 0.5).abs() < 1e-15);
        assert!((d.edges()[1].time - 2.5).abs() < 1e-15);
    }

    #[test]
    fn digitize_initially_high() {
        let w = AnalogWaveform::from_samples(vec![0.0, 1.0], vec![1.0, 0.0]).unwrap();
        let d = w.digitize(0.5).unwrap();
        assert!(d.initial_value());
        assert_eq!(d.edges().len(), 1);
        assert!(!d.edges()[0].rising);
    }

    #[test]
    fn digitize_constant_has_no_edges() {
        let w = AnalogWaveform::constant(0.8, 0.0, 1.0);
        let d = w.digitize(0.4).unwrap();
        assert!(d.initial_value());
        assert!(d.edges().is_empty());
    }

    #[test]
    fn window_clips_and_interpolates() {
        let w = AnalogWaveform::from_samples(vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 0.0]).unwrap();
        let win = w.window(0.5, 1.5).unwrap();
        assert_eq!(win.t_start(), 0.5);
        assert_eq!(win.t_end(), 1.5);
        assert_eq!(win.value_at(0.5), 0.5);
        assert_eq!(win.value_at(1.0), 1.0);
        assert!(w.window(1.0, 1.0).is_err());
    }
}
