//! A criterion-free micro-benchmark harness.
//!
//! Each benchmark is calibrated (iterations per sample sized so one
//! sample takes roughly 5 ms, 1 ms in quick mode), warmed up, then timed
//! over 30 samples (10 in quick mode). Reported statistics are
//! per-iteration nanoseconds: median and p95.
//!
//! Results print as an aligned table on stdout, one `<name>/<id>  median
//! … ns` line per benchmark. Nothing is written to disk: `scripts/ab.sh`
//! reads the table lines of a base and a change build in one session,
//! and compares those.
//!
//! ```no_run
//! use mis_testkit::bench::{black_box, Harness};
//!
//! let mut h = Harness::from_args("example");
//! h.bench("sum_1000", || (0..1000u64).fold(0, |a, b| black_box(a + b)));
//! ```

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Harness configuration: the default or the quick one, picked by
/// [`Harness::from_args`].
#[derive(Debug, Clone)]
struct BenchOptions {
    /// Time spent running the routine before measurement begins.
    warmup_time: Duration,
    /// Number of timed samples per benchmark.
    sample_count: usize,
    /// Desired wall-clock duration of one sample; iterations per sample
    /// are calibrated to hit it.
    target_sample_time: Duration,
    /// Upper bound on iterations per sample (also bounds the number of
    /// pre-built inputs a batched benchmark holds in memory).
    max_iters_per_sample: u64,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            warmup_time: Duration::from_millis(300),
            sample_count: 30,
            target_sample_time: Duration::from_millis(5),
            max_iters_per_sample: 4096,
        }
    }
}

impl BenchOptions {
    /// CI-scale options: one short warmup, few samples.
    fn quick() -> Self {
        BenchOptions {
            warmup_time: Duration::from_millis(20),
            sample_count: 10,
            target_sample_time: Duration::from_millis(1),
            max_iters_per_sample: 512,
        }
    }
}

/// Per-iteration timing statistics of one benchmark, in nanoseconds.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Iterations timed per sample (calibration result).
    pub iters_per_sample: u64,
    /// Number of samples taken.
    pub samples: usize,
    /// Median over samples.
    pub median_ns: f64,
    /// 95th percentile over samples.
    pub p95_ns: f64,
}

impl Stats {
    /// Computes statistics from per-sample totals.
    ///
    /// # Panics
    ///
    /// Panics when `sample_totals` is empty or `iters_per_sample` is 0.
    #[must_use]
    pub fn from_sample_totals(sample_totals: &[Duration], iters_per_sample: u64) -> Self {
        assert!(!sample_totals.is_empty() && iters_per_sample > 0);
        let mut per_iter: Vec<f64> = sample_totals
            .iter()
            .map(|d| d.as_secs_f64() * 1e9 / iters_per_sample as f64)
            .collect();
        per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        Stats {
            iters_per_sample,
            samples: per_iter.len(),
            median_ns: percentile(&per_iter, 50.0),
            p95_ns: percentile(&per_iter, 95.0),
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Collects and reports a group of benchmarks.
#[derive(Debug)]
pub struct Harness {
    name: String,
    opts: BenchOptions,
    filter: Option<String>,
}

impl Harness {
    fn new(name: &str, opts: BenchOptions, filter: Option<String>) -> Self {
        Harness {
            name: name.to_owned(),
            opts,
            filter,
        }
    }

    /// Creates a harness configured from the command line and environment,
    /// the entry point for `harness = false` bench targets.
    ///
    /// Recognized: `--quick` (or env `TESTKIT_BENCH_QUICK=1`) for CI-scale
    /// runs, and a positional substring filter for benchmark ids. Flags
    /// cargo passes through (e.g. `--bench`) are ignored.
    #[must_use]
    pub fn from_args(name: &str) -> Self {
        let mut quick = std::env::var("TESTKIT_BENCH_QUICK").is_ok_and(|v| v != "0");
        let mut filter = None;
        for a in std::env::args().skip(1) {
            match a.as_str() {
                "--quick" => quick = true,
                s if !s.starts_with('-') => filter = Some(s.to_owned()),
                _ => {}
            }
        }
        let opts = if quick {
            BenchOptions::quick()
        } else {
            BenchOptions::default()
        };
        Harness::new(name, opts, filter)
    }

    /// Whether `id` passes the command-line filter.
    fn selected(&self, id: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| id.contains(f))
    }

    /// Benchmarks `routine` called back-to-back, and returns its
    /// statistics (`None` when the filter skips `id`).
    pub fn bench<R>(&mut self, id: &str, mut routine: impl FnMut() -> R) -> Option<Stats> {
        if !self.selected(id) {
            return None;
        }
        let iters = self.calibrate(&mut routine);
        // Warmup.
        let start = Instant::now();
        while start.elapsed() < self.opts.warmup_time {
            black_box(routine());
        }
        // Timed samples.
        let totals: Vec<Duration> = (0..self.opts.sample_count)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    black_box(routine());
                }
                t0.elapsed()
            })
            .collect();
        Some(self.report(id, Stats::from_sample_totals(&totals, iters)))
    }

    /// Benchmarks `routine` with a fresh input per call; `setup` runs
    /// outside the timed region (the equivalent of criterion's
    /// `iter_batched`). Returns the statistics as [`Harness::bench`].
    pub fn bench_batched<I, R>(
        &mut self,
        id: &str,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> R,
    ) -> Option<Stats> {
        if !self.selected(id) {
            return None;
        }
        let mut with_setup = || routine(setup());
        let iters = self.calibrate(&mut with_setup);
        let start = Instant::now();
        while start.elapsed() < self.opts.warmup_time {
            black_box(routine(setup()));
        }
        let totals: Vec<Duration> = (0..self.opts.sample_count)
            .map(|_| {
                let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
                let t0 = Instant::now();
                for input in inputs {
                    black_box(routine(input));
                }
                t0.elapsed()
            })
            .collect();
        Some(self.report(id, Stats::from_sample_totals(&totals, iters)))
    }

    /// Sizes iterations-per-sample so one sample lasts about
    /// `target_sample_time`. (For batched benchmarks calibration times
    /// setup + routine, slightly under-filling the sample — harmless, the
    /// reported per-iteration figures come from the timed region only.)
    fn calibrate<R>(&self, routine: &mut impl FnMut() -> R) -> u64 {
        let mut n: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..n {
                black_box(routine());
            }
            let elapsed = t0.elapsed();
            if elapsed >= self.opts.target_sample_time / 2 || n >= self.opts.max_iters_per_sample {
                let per_iter = elapsed.as_secs_f64() / n as f64;
                let target = self.opts.target_sample_time.as_secs_f64();
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let ideal = (target / per_iter.max(1e-9)).ceil() as u64;
                return ideal.clamp(1, self.opts.max_iters_per_sample);
            }
            n = n.saturating_mul(2);
        }
    }

    /// Prints the table line of `id`.
    fn report(&self, id: &str, stats: Stats) -> Stats {
        println!(
            "{:<40} median {:>12.1} ns   p95 {:>12.1} ns   ({} iters x {} samples)",
            format!("{}/{}", self.name, id),
            stats.median_ns,
            stats.p95_ns,
            stats.iters_per_sample,
            stats.samples
        );
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> BenchOptions {
        BenchOptions {
            warmup_time: Duration::from_micros(200),
            sample_count: 5,
            target_sample_time: Duration::from_micros(200),
            max_iters_per_sample: 64,
        }
    }

    #[test]
    fn stats_of_constant_samples_are_flat() {
        let totals = vec![Duration::from_micros(100); 8];
        let s = Stats::from_sample_totals(&totals, 100);
        assert_eq!(s.median_ns, 1000.0);
        assert_eq!(s.p95_ns, 1000.0);
        assert_eq!((s.iters_per_sample, s.samples), (100, 8));
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let totals: Vec<Duration> = (1..=10).map(Duration::from_nanos).collect();
        let s = Stats::from_sample_totals(&totals, 1);
        assert_eq!(s.median_ns, 5.0);
        assert_eq!(s.p95_ns, 10.0);
    }

    #[test]
    fn harness_runs_and_reports_stats() {
        let mut h = Harness::new("selftest", tiny_opts(), None);
        let fast = h.bench("fast", || black_box(1u64 + 1));
        let batched = h.bench_batched("batched", || vec![1u64; 64], |v| v.iter().sum::<u64>());
        for stats in [fast, batched] {
            let s = stats.expect("unfiltered ids run");
            assert!(s.median_ns > 0.0);
            assert!(s.median_ns <= s.p95_ns);
            assert_eq!(s.samples, 5);
        }
    }

    #[test]
    fn filter_skips_unmatched_ids() {
        let mut h = Harness::new("filtered", tiny_opts(), Some(String::from("keep")));
        assert!(h.bench("keep_this", || black_box(1u8)).is_some());
        assert!(h.bench("drop_this", || black_box(1u8)).is_none());
    }
}
