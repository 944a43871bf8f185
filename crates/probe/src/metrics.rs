//! The metrics core: atomic metric cells, recording handles, and the
//! [`Probe`] registry. See the crate docs for the registry model and
//! the disabled-mode guarantee.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::report::{MetricValue, ProbeReport, ReportRow};

/// Number of histogram buckets: bucket `0` holds the value `0`, bucket
/// `i ≥ 1` holds values with `ilog2(v) == i - 1`, i.e. the half-open
/// range `[2^(i-1), 2^i)` (the last bucket's upper edge is `u64::MAX`).
pub(crate) const HIST_BUCKETS: usize = 65;

/// The storage cell of a histogram: one atomic per log2 bucket.
#[derive(Debug)]
struct HistCell {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistCell {
    fn new() -> Self {
        HistCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The storage cell of a span timer.
#[derive(Debug)]
struct TimerCell {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

/// One registered metric's shared storage.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<AtomicU64>),
    Histogram(Arc<HistCell>),
    Timer(Arc<TimerCell>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Histogram(_) => "histogram",
            Metric::Timer(_) => "timer",
        }
    }
}

#[derive(Debug)]
struct Entry {
    name: String,
    metric: Metric,
}

#[derive(Debug)]
struct Shared {
    enabled: bool,
    registry: Mutex<Vec<Entry>>,
}

/// A named-metric registry — the handle an engine receives at
/// construction and registers its instrumentation against. Cloning
/// shares the registry; see the crate docs for the cold-registration /
/// hot-recording split and the disabled-mode guarantee.
#[derive(Debug, Clone)]
pub struct Probe {
    shared: Arc<Shared>,
}

impl Probe {
    /// An enabled probe: record calls land, [`Probe::report`] renders
    /// them.
    #[must_use]
    pub fn new() -> Self {
        Probe {
            shared: Arc::new(Shared {
                enabled: true,
                registry: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The no-op mode: registration still hands out working handles
    /// (so instrumented code is written once, unconditionally), but
    /// every record call reduces to one branch on a pre-loaded flag.
    #[must_use]
    pub fn disabled() -> Self {
        Probe {
            shared: Arc::new(Shared {
                enabled: false,
                registry: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Whether record calls through this probe's handles land.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.shared.enabled
    }

    /// Looks `name` up in the registry, inserting via `make` when
    /// absent.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered as a different metric
    /// kind — a programming error, not a runtime condition.
    fn register(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut reg = self
            .shared
            .registry
            .lock()
            .expect("probe registry poisoned");
        if let Some(e) = reg.iter().find(|e| e.name == name) {
            let metric = make();
            assert_eq!(
                e.metric.kind(),
                metric.kind(),
                "metric '{name}' registered as both {} and {}",
                e.metric.kind(),
                metric.kind()
            );
            return e.metric.clone();
        }
        let metric = make();
        reg.push(Entry {
            name: name.to_string(),
            metric: metric.clone(),
        });
        metric
    }

    /// Registers (or re-opens) the counter `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        match self.register(name, || Metric::Counter(Arc::new(AtomicU64::new(0)))) {
            Metric::Counter(cell) => Counter {
                enabled: self.shared.enabled,
                cell,
            },
            _ => unreachable!("register checked the kind"),
        }
    }

    /// Registers (or re-opens) the histogram `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.register(name, || Metric::Histogram(Arc::new(HistCell::new()))) {
            Metric::Histogram(cell) => Histogram {
                enabled: self.shared.enabled,
                cell,
            },
            _ => unreachable!("register checked the kind"),
        }
    }

    /// Registers (or re-opens) the span timer `name`.
    #[must_use]
    pub fn timer(&self, name: &str) -> SpanTimer {
        match self.register(name, || {
            Metric::Timer(Arc::new(TimerCell {
                count: AtomicU64::new(0),
                total_ns: AtomicU64::new(0),
                max_ns: AtomicU64::new(0),
            }))
        }) {
            Metric::Timer(cell) => SpanTimer {
                enabled: self.shared.enabled,
                cell,
            },
            _ => unreachable!("register checked the kind"),
        }
    }

    /// Snapshots every registered metric, sorted by name — the
    /// deterministic basis of both renderers.
    #[must_use]
    pub fn report(&self) -> ProbeReport {
        let reg = self
            .shared
            .registry
            .lock()
            .expect("probe registry poisoned");
        let mut rows: Vec<ReportRow> = reg
            .iter()
            .map(|e| ReportRow {
                name: e.name.clone(),
                value: match &e.metric {
                    Metric::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                    Metric::Histogram(h) => {
                        let snap = HistogramSnapshot::from_cell(h);
                        MetricValue::Histogram {
                            count: snap.count(),
                            p50: snap.quantile(0.50),
                            p90: snap.quantile(0.90),
                            p99: snap.quantile(0.99),
                        }
                    }
                    Metric::Timer(t) => MetricValue::Timer {
                        count: t.count.load(Ordering::Relaxed),
                        total_ns: t.total_ns.load(Ordering::Relaxed),
                        max_ns: t.max_ns.load(Ordering::Relaxed),
                    },
                },
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        ProbeReport::new(rows)
    }
}

impl Default for Probe {
    fn default() -> Self {
        Probe::new()
    }
}

/// A monotonically increasing event count.
#[derive(Debug, Clone)]
pub struct Counter {
    enabled: bool,
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one (no-op when the probe is disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (no-op when the probe is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current count.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Whether record calls land.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }
}

/// A fixed-bucket log2 histogram of `u64` samples: bucket `0` holds
/// zeros, bucket `i ≥ 1` the range `[2^(i-1), 2^i)`. Quantile
/// estimates come from bucket midpoints, so an estimate is always
/// within a factor of two of the true order statistic (property-tested
/// in `tests/histogram.rs`).
#[derive(Debug, Clone)]
pub struct Histogram {
    enabled: bool,
    cell: Arc<HistCell>,
}

/// The bucket index of sample `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        v.ilog2() as usize + 1
    }
}

/// The inclusive value range `[lo, hi]` of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 0)
    } else if i == HIST_BUCKETS - 1 {
        (1 << (i - 1), u64::MAX)
    } else {
        (1 << (i - 1), (1 << i) - 1)
    }
}

impl Histogram {
    /// Records one sample (no-op when the probe is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if self.enabled {
            self.cell.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the bucket counts.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot::from_cell(&self.cell)
    }
}

/// An owned copy of a histogram's bucket counts, queryable for quantile
/// estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; HIST_BUCKETS],
}

impl HistogramSnapshot {
    /// The empty snapshot.
    #[must_use]
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: [0; HIST_BUCKETS],
        }
    }

    fn from_cell(cell: &HistCell) -> Self {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| cell.buckets[i].load(Ordering::Relaxed)),
        }
    }

    /// A snapshot holding the given samples — the test-friendly
    /// constructor.
    #[must_use]
    pub fn of_samples(samples: &[u64]) -> Self {
        let mut s = Self::empty();
        for &v in samples {
            s.buckets[bucket_index(v)] += 1;
        }
        s
    }

    /// Total recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The bucket midpoint estimate of the `q`-quantile (`q` clamped
    /// to `[0, 1]`), or `None` with no samples. The estimate lies in
    /// the same bucket as the true order statistic of rank
    /// `ceil(q · count)`, hence within a factor of two of it.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                let (lo, hi) = bucket_bounds(i);
                return Some(lo + (hi - lo) / 2);
            }
        }
        unreachable!("rank ≤ count ≤ cumulative total")
    }
}

/// A monotonic wall-clock span timer (count / total / max
/// nanoseconds). Spans are measured with [`Instant`]; a disabled probe
/// skips the clock reads entirely.
#[derive(Debug, Clone)]
pub struct SpanTimer {
    enabled: bool,
    cell: Arc<TimerCell>,
}

impl SpanTimer {
    /// Runs `f` inside a timed span.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = self.start();
        let r = f();
        self.stop(t0);
        r
    }

    /// Opens a span: `Some(now)` when enabled, `None` when disabled
    /// (no clock read). Pass the token to [`SpanTimer::stop`].
    #[inline]
    #[must_use]
    pub fn start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Closes a span opened by [`SpanTimer::start`].
    #[inline]
    pub fn stop(&self, started: Option<Instant>) {
        if let Some(t0) = started {
            self.record(t0.elapsed());
        }
    }

    /// Records an already-measured duration.
    pub fn record(&self, d: Duration) {
        if !self.enabled {
            return;
        }
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.cell.count.fetch_add(1, Ordering::Relaxed);
        self.cell.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.cell.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Closed spans so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.cell.count.load(Ordering::Relaxed)
    }

    /// Total nanoseconds across closed spans.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.cell.total_ns.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_record_when_enabled() {
        let p = Probe::new();
        let c = p.counter("a.count");
        c.inc();
        c.add(4);
        assert_eq!(c.value(), 5);
        // Re-opening by name shares storage.
        assert_eq!(p.counter("a.count").value(), 5);
    }

    #[test]
    fn disabled_probe_drops_every_record() {
        let p = Probe::disabled();
        assert!(!p.is_enabled());
        let c = p.counter("x");
        c.inc();
        c.add(10);
        assert_eq!(c.value(), 0);
        let h = p.histogram("z");
        h.record(3);
        assert_eq!(h.snapshot().count(), 0);
        let t = p.timer("w");
        assert!(t.start().is_none());
        t.time(|| ());
        assert_eq!(t.count(), 0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Probe::new().histogram("h");
        for v in [0u64, 1, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 7);
        // Median of {0,1,1,2,3,4,1000}: rank 4 → sample 2, bucket [2,3].
        assert_eq!(s.quantile(0.5), Some(2));
        // Max-ish quantile lands in 1000's bucket [512, 1023].
        let p100 = s.quantile(1.0).unwrap();
        assert!((512..=1023).contains(&p100));
    }

    #[test]
    fn timer_records_spans() {
        let t = Probe::new().timer("t");
        t.time(|| std::hint::black_box(1 + 1));
        let tok = t.start();
        t.stop(tok);
        assert_eq!(t.count(), 2);
    }

    #[test]
    #[should_panic(expected = "registered as both")]
    fn kind_mismatch_panics() {
        let p = Probe::new();
        let _c = p.counter("same");
        let _h = p.histogram("same");
    }

    #[test]
    fn bucket_bounds_cover_u64() {
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        let (lo, hi) = bucket_bounds(HIST_BUCKETS - 1);
        assert_eq!(lo, 1 << 63);
        assert_eq!(hi, u64::MAX);
    }
}
