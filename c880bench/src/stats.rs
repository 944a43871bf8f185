//! Order statistics for the reports: nearest-rank percentiles and the
//! tail picker that names the highest percentile the sample supports.

/// Candidate tail percentiles, in per-mille, highest first. Per-mille
/// integers keep the rank arithmetic exact (`0.99 * 1000.0` is not).
const TAIL_PER_MILLE: [usize; 5] = [999, 990, 950, 900, 500];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `per_mille` percentile among `n` samples.
fn rank(per_mille: usize, n: usize) -> usize {
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Sorts a copy of `values` ascending (NaN-free input assumed; total
/// order keeps the sort well-defined regardless).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The nearest-rank median of `values` (`NaN` when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let s = sorted(values);
    s[rank(500, s.len()) - 1]
}

/// The arithmetic mean of `values` (`NaN` when empty).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// A tail percentile chosen by [`tail`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in per-mille (990 = p99).
    pub per_mille: usize,
    /// Its nearest-rank value.
    pub value: f64,
    /// How many samples it was picked from.
    pub samples: usize,
}

impl Tail {
    /// `"p99 of 21034 samples"`-style provenance for the report.
    #[must_use]
    pub fn describe(&self) -> String {
        let p = self.per_mille as f64 / 10.0;
        format!("p{p} of {} samples", self.samples)
    }
}

/// The highest candidate percentile (p99.9, p99, p95, p90, p50) with at
/// least ten samples beyond it, or `None` below twenty samples. `sorted`
/// must be ascending.
#[must_use]
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_PER_MILLE
        .iter()
        .find(|&&p| n > 0 && n - rank(p, n) >= MIN_BEYOND)
        .map(|&p| Tail {
            per_mille: p,
            value: sorted[rank(p, n) - 1],
            samples: n,
        })
}

/// The `per_mille` percentile if [`tail`] supports it at that level or
/// higher, so a metric named `..._p99` never silently reports a p50.
#[must_use]
pub fn supported_percentile(sorted: &[f64], per_mille: usize) -> Option<f64> {
    let n = sorted.len();
    tail(sorted)
        .filter(|t| t.per_mille >= per_mille)
        .map(|_| sorted[rank(per_mille, n) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 sits at rank 990, ten beyond; p99.9 has one.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.per_mille, t.value, t.samples), (990, 990.0, 1000));
        assert_eq!(t.describe(), "p99 of 1000 samples");
        // One fewer sample leaves only nine beyond p99: fall to p95.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.per_mille, t.value), (950, 950.0));
        // 10,000 samples support p99.9.
        assert_eq!(tail(&ramp(10_000)).unwrap().per_mille, 999);
        // Twenty samples support only the median; nineteen nothing.
        assert_eq!(tail(&ramp(20)).unwrap().per_mille, 500);
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn named_percentiles_are_reported_only_when_supported() {
        assert_eq!(supported_percentile(&ramp(1000), 990), Some(990.0));
        assert_eq!(supported_percentile(&ramp(999), 990), None);
        assert_eq!(supported_percentile(&ramp(999), 500), Some(500.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
