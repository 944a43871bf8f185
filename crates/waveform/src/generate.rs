//! Random input-trace generation matching the paper's waveform
//! configurations (Section VI).
//!
//! The paper drives the NOR gate with randomized transition streams
//! described as `µ/σ – LOCAL` or `µ/σ – GLOBAL`:
//!
//! * **LOCAL** — each input receives its own stream; successive
//!   transitions on one input are separated by `N(µ, σ²)`-distributed
//!   intervals. With small µ the two inputs constantly switch in close
//!   temporal proximity, stressing the MIS region of the delay functions.
//! * **GLOBAL** — a single global stream of transition instants (intervals
//!   again `N(µ, σ²)`) is generated and each instant is assigned to one
//!   input at random. Consecutive transitions on *different* inputs are
//!   then typically far apart, probing the SIS tails (`|Δ| ≫ 0`).
//!
//! Intervals are clamped below at `min_gap` to keep traces physical
//! (the normal distribution has unbounded support; SPICE decks need
//! positive, non-overlapping edges). The normals come from Marsaglia's
//! polar method, which needs no trigonometry and yields two normals per
//! accepted point of the unit disc; both are used.

use mis_testkit::rng::TestRng;

use crate::{DigitalTrace, Edge, WaveformError};

/// Whether transition streams are generated per input or shared globally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Assignment {
    /// Independent interval stream per input (`LOCAL` in the paper).
    Local,
    /// One global interval stream, each event assigned to a random input
    /// (`GLOBAL` in the paper).
    Global,
}

/// Configuration of a random two-input trace pair.
///
/// # Examples
///
/// The paper's `100/50 - LOCAL` configuration with 500 transitions:
///
/// ```
/// use mis_waveform::generate::{Assignment, TraceConfig};
/// use mis_waveform::units::ps;
///
/// # fn main() -> Result<(), mis_waveform::WaveformError> {
/// let cfg = TraceConfig::new(ps(100.0), ps(50.0), Assignment::Local, 500);
/// let pair = cfg.generate(42)?;
/// assert_eq!(pair.a.transition_count() + pair.b.transition_count(), 500);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Mean inter-transition interval, in seconds.
    pub mu: f64,
    /// Standard deviation of the interval, in seconds.
    pub sigma: f64,
    /// LOCAL or GLOBAL stream assignment.
    pub assignment: Assignment,
    /// Total number of transitions across both inputs.
    pub transitions: usize,
    /// Time of the first possible transition, in seconds.
    pub start_time: f64,
    /// Smallest allowed interval between consecutive transitions of one
    /// stream, in seconds.
    pub min_gap: f64,
}

impl TraceConfig {
    /// Creates a configuration with the paper's defaults for start time
    /// (100 ps of settled inputs) and minimum gap (1 ps).
    #[must_use]
    pub fn new(mu: f64, sigma: f64, assignment: Assignment, transitions: usize) -> Self {
        TraceConfig {
            mu,
            sigma,
            assignment,
            transitions,
            start_time: 100e-12,
            min_gap: 1e-12,
        }
    }

    /// Human-readable label matching the paper's captions, e.g.
    /// `"100/50 - LOCAL"`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{:.0}/{:.0} - {}",
            self.mu / 1e-12,
            self.sigma / 1e-12,
            match self.assignment {
                Assignment::Local => "LOCAL",
                Assignment::Global => "GLOBAL",
            }
        )
    }

    /// Generates a reproducible trace pair from `seed`: the same seed
    /// always gives the same bits. How many uniform draws a pair takes
    /// varies with the seed, since the normal sampler rejects about a
    /// fifth of its candidate points.
    ///
    /// Both inputs start low (the NOR output therefore starts high), which
    /// is the settled state the paper's SPICE decks use.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::InvalidInput`] for a `mu` that is not
    /// finite and positive, a `sigma` that is not finite and non-negative,
    /// a non-finite `start_time`, a `min_gap` that is not finite and
    /// positive, or zero transitions. Propagates a
    /// [`DigitalTrace::push_edge`] failure, e.g. when `start_time` is so
    /// large that adding an interval no longer advances time.
    pub fn generate(&self, seed: u64) -> Result<TracePair, WaveformError> {
        let finite_positive = |x: f64| x > 0.0 && x.is_finite();
        if !(finite_positive(self.mu) && self.sigma >= 0.0 && self.sigma.is_finite()) {
            return Err(WaveformError::InvalidInput {
                reason: "mu must be finite and positive, sigma finite and non-negative".into(),
            });
        }
        if !(self.start_time.is_finite() && finite_positive(self.min_gap)) {
            return Err(WaveformError::InvalidInput {
                reason: "start_time must be finite, min_gap finite and positive".into(),
            });
        }
        if self.transitions == 0 {
            return Err(WaveformError::InvalidInput {
                reason: "at least one transition required".into(),
            });
        }
        let mut normals = Normals::new(seed);
        let (a, b) = match self.assignment {
            Assignment::Local => {
                // Each input gets ~half the transitions on its own clock,
                // so both edge counts are known before the first draw and
                // each trace is allocated once, at its exact size.
                let n_a = self.transitions / 2 + self.transitions % 2;
                let n_b = self.transitions / 2;
                let a = self.local_stream(self.start_time, n_a, &mut normals)?;
                // Offset B's stream start by an independent draw so the two
                // streams are not phase locked.
                let start_b = self.start_time + 0.5 * self.interval(&mut normals);
                let b = self.local_stream(start_b, n_b, &mut normals)?;
                (a, b)
            }
            Assignment::Global => {
                // The per-input counts are known only after the draws.
                let mut a = DigitalTrace::constant(false);
                let mut b = DigitalTrace::constant(false);
                let mut t = self.start_time;
                for _ in 0..self.transitions {
                    t += self.interval(&mut normals);
                    if normals.rng.gen_bool(0.5) {
                        let v = !a.final_value();
                        a.push_edge(t, v)?;
                    } else {
                        let v = !b.final_value();
                        b.push_edge(t, v)?;
                    }
                }
                (a, b)
            }
        };
        let horizon = a
            .edges()
            .last()
            .map_or(self.start_time, |e| e.time)
            .max(b.edges().last().map_or(self.start_time, |e| e.time))
            + 4.0 * self.mu;
        Ok(TracePair { a, b, horizon })
    }

    /// Draws one `N(µ, σ²)` interval, clamped at `min_gap`.
    fn interval(&self, normals: &mut Normals) -> f64 {
        self.scale(normals.next())
    }

    /// The interval of a standard normal draw `z`.
    fn scale(&self, z: f64) -> f64 {
        (self.mu + self.sigma * z).max(self.min_gap)
    }

    /// One LOCAL stream: `n` edges starting low, each one interval after
    /// the previous, from `start`. The edges are written into a vector
    /// of exactly `n` and checked in one pass
    /// ([`DigitalTrace::from_alternating`]).
    fn local_stream(
        &self,
        start: f64,
        n: usize,
        normals: &mut Normals,
    ) -> Result<DigitalTrace, WaveformError> {
        let mut edges = Vec::with_capacity(n);
        let (mut t, mut rising) = (start, false);
        normals.draw(n, |z| {
            t += self.scale(z);
            rising = !rising;
            edges.push(Edge { time: t, rising });
        });
        DigitalTrace::from_alternating(false, edges)
    }
}

/// Standard normal draws by Marsaglia's polar method over the testkit
/// PRNG (which is uniform-only). A candidate `(u, v)` uniform on the
/// square `[-1, 1)²` is accepted inside the unit disc (`0 < s < 1`,
/// `s = u² + v²`, probability π/4); then `u·f` and `v·f` with
/// `f = √(−2 ln s / s)` are two independent `N(0, 1)` draws. The second
/// is kept as `spare` and returned by the next call, so one `ln`, one
/// `sqrt` and one division serve two intervals, and no `cos` is needed.
struct Normals {
    rng: TestRng,
    spare: Option<f64>,
}

impl Normals {
    fn new(seed: u64) -> Self {
        Normals {
            rng: TestRng::seed_from_u64(seed),
            spare: None,
        }
    }

    /// One draw, as [`Normals::draw`] of one.
    fn next(&mut self) -> f64 {
        let mut z = 0.0;
        self.draw(1, |x| z = x);
        z
    }

    /// Hands the next `n` draws to `sink`: a held spare first, then `u·f`
    /// and `v·f` of each accepted point, an odd count keeping the last
    /// `v·f` as the spare. So `n` draws at once or one at a time give the
    /// same values and leave the same generator state. Points are drawn
    /// in chunks. The candidates come first, each written to the next
    /// free slot, which only an accepted one then claims, so rejection
    /// costs no branch. The chunk's `ln`, `sqrt` and division follow as
    /// independent operations that pipeline, where one point at a time
    /// waits on each.
    fn draw(&mut self, mut n: usize, mut sink: impl FnMut(f64)) {
        const CHUNK: usize = 16;
        if n > 0 {
            if let Some(z) = self.spare.take() {
                sink(z);
                n -= 1;
            }
        }
        while n > 0 {
            let points = n.div_ceil(2).min(CHUNK);
            let mut accepted = [[0.0; 3]; CHUNK];
            let mut k = 0;
            while k < points {
                let u = 2.0 * self.rng.unit_f64() - 1.0;
                let v = 2.0 * self.rng.unit_f64() - 1.0;
                let s = u * u + v * v;
                accepted[k] = [u, v, s];
                k += usize::from(s < 1.0 && s > 0.0);
            }
            for &[u, v, s] in &accepted[..points] {
                let f = (-2.0 * s.ln() / s).sqrt();
                sink(u * f);
                if n == 1 {
                    self.spare = Some(v * f);
                    return;
                }
                sink(v * f);
                n -= 2;
            }
        }
    }
}

/// A generated pair of input traces plus a simulation horizon comfortably
/// covering the last transition.
#[derive(Debug, Clone, PartialEq)]
pub struct TracePair {
    /// Input A.
    pub a: DigitalTrace,
    /// Input B.
    pub b: DigitalTrace,
    /// Suggested end of simulation, in seconds.
    pub horizon: f64,
}

/// The four waveform configurations evaluated in the paper's Fig. 7, with
/// the stated transition counts (500, except 250 for `5000/5 - GLOBAL`).
#[must_use]
pub fn paper_configurations() -> Vec<TraceConfig> {
    use crate::units::ps;
    vec![
        TraceConfig::new(ps(100.0), ps(50.0), Assignment::Local, 500),
        TraceConfig::new(ps(200.0), ps(100.0), Assignment::Local, 500),
        TraceConfig::new(ps(2000.0), ps(1000.0), Assignment::Global, 500),
        TraceConfig::new(ps(5000.0), ps(5.0), Assignment::Global, 250),
    ]
}

/// The netlist stimulus behind every CI `--expect` pin, the netlist
/// tests and the netlist benches: inputs `2k` and `2k + 1` get traces A
/// and B of one 40-transition LOCAL pair (`µ` = 400 ps, `σ` = 150 ps)
/// seeded `seed + k`, so each trace has 20 edges and every generated
/// edge is used (for an odd `inputs` the last pair's B is dropped). The
/// command-line tools use `seed` = `0x5eed`.
///
/// # Errors
///
/// Never for these fixed parameters; propagates
/// [`TraceConfig::generate`] failures.
pub fn netlist_traffic(inputs: usize, seed: u64) -> Result<Vec<DigitalTrace>, WaveformError> {
    use crate::units::ps;
    let cfg = TraceConfig::new(ps(400.0), ps(150.0), Assignment::Local, 40);
    let mut traces = Vec::with_capacity(inputs + 1);
    for k in 0..inputs.div_ceil(2) {
        let pair = cfg.generate(seed + k as u64)?;
        traces.extend([pair.a, pair.b]);
    }
    traces.truncate(inputs);
    Ok(traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::ps;

    #[test]
    fn generation_is_reproducible() {
        let cfg = TraceConfig::new(ps(100.0), ps(50.0), Assignment::Local, 100);
        let p1 = cfg.generate(7).unwrap();
        let p2 = cfg.generate(7).unwrap();
        assert_eq!(p1, p2);
        let p3 = cfg.generate(8).unwrap();
        assert_ne!(p1, p3);
    }

    /// FNV-1a over the bit patterns of every trace's initial value and
    /// edge times, in order: any change to the draw stream, the
    /// normal sampler or the edge layout changes it.
    fn fingerprint<'a>(traces: impl IntoIterator<Item = &'a DigitalTrace>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for t in traces {
            eat(&[u8::from(t.initial_value())]);
            eat(&(t.edges().len() as u64).to_le_bytes());
            for e in t.edges() {
                eat(&e.time.to_bits().to_le_bytes());
            }
        }
        h
    }

    #[test]
    fn generated_streams_match_their_golden_fingerprints() {
        let local = |n: usize| {
            let p = TraceConfig::new(ps(100.0), ps(50.0), Assignment::Local, n)
                .generate(42)
                .unwrap();
            fingerprint([&p.a, &p.b])
        };
        let global = TraceConfig::new(ps(2000.0), ps(1000.0), Assignment::Global, 250)
            .generate(5)
            .unwrap();
        // The stimulus behind every CI `--expect` pin.
        let traffic = netlist_traffic(60, 0x5eed).unwrap();
        let got = [
            local(40),
            local(501),
            fingerprint([&global.a, &global.b]),
            fingerprint(&traffic),
        ];
        // Every `--expect` pin and paper figure rests on these bits: a
        // change here is a change of stimulus, never a refactor.
        let want = [
            0x1c5a_b946_2dde_1716,
            0xc653_20e3_c38f_ed5b,
            0x9af2_dc5d_bcd1_df1a,
            0xf8b1_0fb2_2dae_60be,
        ];
        assert_eq!(got, want, "{got:#018x?}");
    }

    #[test]
    fn normals_have_unit_variance_and_the_normal_one_sigma_share() {
        // 200,000 draws: the standard errors are ≈0.0022 for the mean
        // and the lag-1 correlation, ≈0.0032 for the variance and
        // ≈0.0010 for the ±1σ share; each tolerance is 6–7 of them.
        const N: usize = 200_000;
        let mut normals = Normals::new(2024);
        let z: Vec<f64> = (0..N).map(|_| normals.next()).collect();
        let n = N as f64;
        let mean = z.iter().sum::<f64>() / n;
        let var = z.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        let within = z.iter().filter(|x| x.abs() <= 1.0).count() as f64 / n;
        // Draws 2i and 2i + 1 are the two halves of one accepted point:
        // they must be uncorrelated.
        let lag1 = z.windows(2).map(|w| w[0] * w[1]).sum::<f64>() / (n - 1.0);
        assert!(mean.abs() < 0.015, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
        assert!((within - 0.6827).abs() < 0.007, "±1σ share {within}");
        assert!(lag1.abs() < 0.015, "lag-1 correlation {lag1}");
        assert!(z.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn chunked_draws_equal_one_at_a_time_draws() {
        // Every count across the chunk size and its parity, from a fresh
        // sampler and from one holding a spare, then three lazy draws:
        // the same values, and the same generator state after.
        for seed in 0..8 {
            for n in 0..70 {
                for spare_first in [false, true] {
                    let (mut lazy, mut chunked) = (Normals::new(seed), Normals::new(seed));
                    let mut want = Vec::new();
                    let mut got = Vec::new();
                    if spare_first {
                        want.push(lazy.next());
                        got.push(chunked.next());
                    }
                    want.extend((0..n + 3).map(|_| lazy.next()));
                    chunked.draw(n, |z| got.push(z));
                    got.extend((0..3).map(|_| chunked.next()));
                    let bits = |v: &[f64]| v.iter().map(|z| z.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "seed {seed}, n {n}");
                    assert_eq!(chunked.rng, lazy.rng, "seed {seed}, n {n}");
                }
            }
        }
    }

    #[test]
    fn netlist_traffic_inputs_share_one_pair_per_two_inputs() {
        let cfg = TraceConfig::new(ps(400.0), ps(150.0), Assignment::Local, 40);
        let traffic = netlist_traffic(7, 100).unwrap();
        assert_eq!(traffic.len(), 7);
        for (k, two) in traffic.chunks(2).enumerate() {
            let pair = cfg.generate(100 + k as u64).unwrap();
            assert_eq!(two[0], pair.a, "input {}", 2 * k);
            if let Some(b) = two.get(1) {
                assert_eq!(*b, pair.b, "input {}", 2 * k + 1);
            }
        }
        assert!(traffic.iter().all(|t| t.transition_count() == 20));
    }

    #[test]
    fn local_splits_transitions_between_inputs() {
        let cfg = TraceConfig::new(ps(100.0), ps(50.0), Assignment::Local, 501);
        let p = cfg.generate(1).unwrap();
        assert_eq!(p.a.transition_count(), 251);
        assert_eq!(p.b.transition_count(), 250);
    }

    #[test]
    fn global_total_matches() {
        let cfg = TraceConfig::new(ps(2000.0), ps(1000.0), Assignment::Global, 500);
        let p = cfg.generate(1).unwrap();
        assert_eq!(p.a.transition_count() + p.b.transition_count(), 500);
        // Randomness should give both inputs a reasonable share.
        assert!(p.a.transition_count() > 150);
        assert!(p.b.transition_count() > 150);
    }

    #[test]
    fn intervals_respect_min_gap() {
        // σ ≫ µ forces many clamped draws.
        let cfg = TraceConfig::new(ps(10.0), ps(100.0), Assignment::Local, 400);
        let p = cfg.generate(3).unwrap();
        for w in p.a.pulse_widths() {
            assert!(w >= cfg.min_gap - 1e-24);
        }
    }

    #[test]
    fn mean_interval_is_near_mu() {
        let cfg = TraceConfig::new(ps(1000.0), ps(10.0), Assignment::Local, 2000);
        let p = cfg.generate(11).unwrap();
        let widths: Vec<f64> = p.a.pulse_widths().collect();
        let mean = widths.iter().sum::<f64>() / widths.len() as f64;
        assert!(
            (mean - ps(1000.0)).abs() < ps(20.0),
            "mean interval {mean:e} far from 1000 ps"
        );
    }

    #[test]
    fn global_mixes_inputs_with_large_separations() {
        // In GLOBAL mode with µ = 5000 ps, consecutive events on different
        // inputs should essentially never be within 100 ps.
        let cfg = TraceConfig::new(ps(5000.0), ps(5.0), Assignment::Global, 250);
        let p = cfg.generate(5).unwrap();
        let mut all: Vec<(f64, char)> =
            p.a.edges()
                .iter()
                .map(|e| (e.time, 'a'))
                .chain(p.b.edges().iter().map(|e| (e.time, 'b')))
                .collect();
        all.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
        let close_cross_pairs = all
            .windows(2)
            .filter(|w| w[0].1 != w[1].1 && (w[1].0 - w[0].0) < ps(100.0))
            .count();
        assert_eq!(close_cross_pairs, 0);
    }

    #[test]
    fn horizon_covers_all_edges() {
        let cfg = TraceConfig::new(ps(100.0), ps(50.0), Assignment::Local, 100);
        let p = cfg.generate(9).unwrap();
        let last =
            p.a.edges()
                .last()
                .unwrap()
                .time
                .max(p.b.edges().last().unwrap().time);
        assert!(p.horizon > last);
    }

    #[test]
    fn labels_match_paper_captions() {
        let labels: Vec<String> = paper_configurations().iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec![
                "100/50 - LOCAL",
                "200/100 - LOCAL",
                "2000/1000 - GLOBAL",
                "5000/5 - GLOBAL"
            ]
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(TraceConfig::new(0.0, ps(1.0), Assignment::Local, 10)
            .generate(0)
            .is_err());
        assert!(TraceConfig::new(ps(1.0), -ps(1.0), Assignment::Local, 10)
            .generate(0)
            .is_err());
        assert!(TraceConfig::new(ps(1.0), ps(1.0), Assignment::Local, 0)
            .generate(0)
            .is_err());
    }

    #[test]
    fn a_start_time_past_interval_resolution_reports_the_first_stalled_edge() {
        // At 1e6 s one ulp is ≈116 ps, so an interval below ≈58 ps no
        // longer advances time: the first such draw is a repeated edge
        // time, reported at its index as `push_edge` reports it.
        let cfg = TraceConfig {
            start_time: 1e6,
            ..TraceConfig::new(ps(100.0), ps(50.0), Assignment::Local, 40)
        };
        let stalled = WaveformError::NotMonotonic {
            index: 5,
            reason: "edge at 1000000.0000000007 not after previous edge at 1000000.0000000007"
                .into(),
        };
        assert_eq!(cfg.generate(7), Err(stalled));
    }

    #[test]
    fn non_finite_or_zero_gap_configs_are_typed_errors() {
        let infinite_mu = TraceConfig::new(f64::INFINITY, ps(1.0), Assignment::Local, 10);
        let zero_gap = TraceConfig {
            min_gap: 0.0,
            ..TraceConfig::new(ps(1.0), ps(100.0), Assignment::Local, 400)
        };
        let nan_sigma = TraceConfig::new(ps(100.0), f64::NAN, Assignment::Global, 10);
        for cfg in [infinite_mu, zero_gap, nan_sigma] {
            assert!(
                matches!(cfg.generate(3), Err(WaveformError::InvalidInput { .. })),
                "{cfg:?}"
            );
        }
    }
}
