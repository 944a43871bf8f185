//! Property tests for the log2 histogram: quantile estimates stay
//! within the documented factor-2 bound of the exact order statistic,
//! and the no-sample case yields `None` rather than a fabricated value.

use mis_probe::HistogramSnapshot;

/// A tiny deterministic LCG (Numerical Recipes constants) — the
/// workspace ships no external property-testing crate, so the tests
/// draw their own reproducible sample sets.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0
    }

    /// Uniform-ish in `[0, bound)`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// The exact order statistic matching `quantile`'s rank definition:
/// the sample at 1-based rank `ceil(q * n)`, clamped to `[1, n]`.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[usize::try_from(rank - 1).unwrap()]
}

#[test]
fn quantile_estimates_stay_within_a_factor_of_two() {
    let mut rng = Lcg(0x5eed_0001);
    for round in 0..50 {
        // Mix magnitudes: small counts, mid-range, and wide values, so
        // every bucket regime gets exercised.
        let n = 1 + rng.below(300) as usize;
        let mut samples: Vec<u64> = (0..n)
            .map(|_| match rng.below(3) {
                0 => rng.below(16),
                1 => rng.below(10_000),
                _ => rng.below(u64::MAX / 2),
            })
            .collect();
        let snap = HistogramSnapshot::of_samples(&samples);
        samples.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let est = snap.quantile(q).expect("non-empty histogram");
            let exact = exact_quantile(&samples, q);
            if exact == 0 {
                assert_eq!(est, 0, "round {round} q {q}: zero maps to bucket 0");
            } else {
                // est and exact share a [2^(i-1), 2^i) bucket, so the
                // midpoint estimate is off by less than 2x either way.
                assert!(
                    est <= exact.saturating_mul(2) && exact <= est.saturating_mul(2),
                    "round {round} q {q}: est {est} vs exact {exact} breaks the 2x bound"
                );
            }
        }
    }
}

#[test]
fn empty_histogram_has_no_quantiles() {
    let empty = HistogramSnapshot::empty();
    assert_eq!(empty.count(), 0);
    for q in [0.0, 0.5, 1.0] {
        assert_eq!(empty.quantile(q), None);
    }
}
