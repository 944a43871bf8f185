//! A criterion-free micro-benchmark harness.
//!
//! Each benchmark is calibrated (iterations per sample sized so one
//! sample takes roughly [`BenchOptions::target_sample_time`]), warmed up,
//! then timed over [`BenchOptions::sample_count`] samples. Reported
//! statistics are per-iteration nanoseconds: mean, median, p95, min, max.
//!
//! Results print as an aligned table, one `<name>/<id>  median … ns` line
//! per benchmark, and then as one JSON line on stdout. Nothing is
//! written to disk: `scripts/ab.sh` reads the table lines of a base and
//! a change build in one session, and compares those.
//!
//! ```no_run
//! use mis_testkit::bench::{black_box, Harness};
//!
//! let mut h = Harness::from_args("example");
//! h.bench("sum_1000", || (0..1000u64).fold(0, |a, b| black_box(a + b)));
//! h.finish();
//! ```

use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Time spent running the routine before measurement begins.
    pub warmup_time: Duration,
    /// Number of timed samples per benchmark.
    pub sample_count: usize,
    /// Desired wall-clock duration of one sample; iterations per sample
    /// are calibrated to hit it.
    pub target_sample_time: Duration,
    /// Upper bound on iterations per sample (also bounds the number of
    /// pre-built inputs a batched benchmark holds in memory).
    pub max_iters_per_sample: u64,
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
    #[must_use]
    pub fn quick() -> Self {
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
    /// Mean over samples.
    pub mean_ns: f64,
    /// Median over samples.
    pub median_ns: f64,
    /// 95th percentile over samples.
    pub p95_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
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
        let n = per_iter.len();
        Stats {
            iters_per_sample,
            samples: n,
            mean_ns: per_iter.iter().sum::<f64>() / n as f64,
            median_ns: percentile(&per_iter, 50.0),
            p95_ns: percentile(&per_iter, 95.0),
            min_ns: per_iter[0],
            max_ns: per_iter[n - 1],
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// One named benchmark and its statistics.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark identifier (unique within a harness).
    pub id: String,
    /// Measured statistics.
    pub stats: Stats,
}

/// Collects and reports a group of benchmarks.
#[derive(Debug)]
pub struct Harness {
    name: String,
    opts: BenchOptions,
    quick: bool,
    filter: Option<String>,
    results: Vec<BenchResult>,
}

impl Harness {
    /// Creates a harness with explicit options.
    #[must_use]
    pub fn new(name: &str, opts: BenchOptions) -> Self {
        Harness {
            name: name.to_owned(),
            opts,
            quick: false,
            filter: None,
            results: Vec::new(),
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
        let mut h = Harness::new(name, opts);
        h.quick = quick;
        h.filter = filter;
        h
    }

    /// Whether `id` passes the command-line filter.
    fn selected(&self, id: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| id.contains(f))
    }

    /// Benchmarks `routine` called back-to-back.
    pub fn bench<R>(&mut self, id: &str, mut routine: impl FnMut() -> R) {
        if !self.selected(id) {
            return;
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
        self.push(id, Stats::from_sample_totals(&totals, iters));
    }

    /// Benchmarks `routine` with a fresh input per call; `setup` runs
    /// outside the timed region (the equivalent of criterion's
    /// `iter_batched`).
    pub fn bench_batched<I, R>(
        &mut self,
        id: &str,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> R,
    ) {
        if !self.selected(id) {
            return;
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
        self.push(id, Stats::from_sample_totals(&totals, iters));
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

    fn push(&mut self, id: &str, stats: Stats) {
        println!(
            "{:<40} median {:>12.1} ns   p95 {:>12.1} ns   ({} iters x {} samples)",
            format!("{}/{}", self.name, id),
            stats.median_ns,
            stats.p95_ns,
            stats.iters_per_sample,
            stats.samples
        );
        self.results.push(BenchResult {
            id: id.to_owned(),
            stats,
        });
    }

    /// Renders all results as a JSON document (schema:
    /// `{"bench", "mode": "quick"|"full", "results": [{"id",
    /// "iters_per_sample", "samples", "mean_ns", "median_ns", "p95_ns",
    /// "min_ns", "max_ns"}]}`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(s, "\"bench\":{}", json_string(&self.name));
        let _ = write!(
            s,
            ",\"mode\":\"{}\"",
            if self.quick { "quick" } else { "full" }
        );
        s.push_str(",\"results\":[");
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"id\":{},\"iters_per_sample\":{},\"samples\":{},\
                 \"mean_ns\":{},\"median_ns\":{},\"p95_ns\":{},\
                 \"min_ns\":{},\"max_ns\":{}}}",
                json_string(&r.id),
                r.stats.iters_per_sample,
                r.stats.samples,
                json_f64(r.stats.mean_ns),
                json_f64(r.stats.median_ns),
                json_f64(r.stats.p95_ns),
                json_f64(r.stats.min_ns),
                json_f64(r.stats.max_ns),
            );
        }
        s.push_str("]}");
        s
    }

    /// Prints the JSON report to stdout and returns the collected
    /// results.
    pub fn finish(self) -> Vec<BenchResult> {
        println!("{}", self.to_json());
        self.results
    }
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a timing as JSON (finite; fixed precision keeps files diffable).
fn json_f64(v: f64) -> String {
    assert!(v.is_finite(), "non-finite timing statistic");
    format!("{v:.3}")
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
        assert!((s.mean_ns - 1000.0).abs() < 1e-6);
        assert_eq!(s.median_ns, 1000.0);
        assert_eq!(s.p95_ns, 1000.0);
        assert_eq!(s.min_ns, s.max_ns);
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let totals: Vec<Duration> = (1..=10).map(Duration::from_nanos).collect();
        let s = Stats::from_sample_totals(&totals, 1);
        assert_eq!(s.median_ns, 5.0);
        assert_eq!(s.p95_ns, 10.0);
        assert_eq!(s.min_ns, 1.0);
        assert_eq!(s.max_ns, 10.0);
    }

    #[test]
    fn harness_runs_and_orders_results() {
        let mut h = Harness::new("selftest", tiny_opts());
        h.bench("fast", || black_box(1u64 + 1));
        h.bench_batched("batched", || vec![1u64; 64], |v| v.iter().sum::<u64>());
        assert_eq!(h.results.len(), 2);
        assert_eq!(h.results[0].id, "fast");
        assert!(h.results.iter().all(|r| r.stats.median_ns > 0.0));
        assert!(h
            .results
            .iter()
            .all(|r| r.stats.min_ns <= r.stats.median_ns && r.stats.median_ns <= r.stats.max_ns));
    }

    #[test]
    fn json_schema_has_all_keys() {
        let mut h = Harness::new("schema \"check\"", tiny_opts());
        h.bench("a", || black_box(0u8));
        let json = h.to_json();
        for key in [
            "\"bench\":",
            "\"mode\":",
            "\"results\":",
            "\"id\":",
            "\"iters_per_sample\":",
            "\"samples\":",
            "\"mean_ns\":",
            "\"median_ns\":",
            "\"p95_ns\":",
            "\"min_ns\":",
            "\"max_ns\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // The quoted name must be escaped into valid JSON.
        assert!(json.contains("schema \\\"check\\\""));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn filter_skips_unmatched_ids() {
        let mut h = Harness::new("filtered", tiny_opts());
        h.filter = Some(String::from("keep"));
        h.bench("keep_this", || black_box(1u8));
        h.bench("drop_this", || black_box(1u8));
        assert_eq!(h.results.len(), 1);
        assert_eq!(h.results[0].id, "keep_this");
    }
}
