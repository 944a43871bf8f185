//! Deterministic rendering of a [`crate::Probe`] snapshot: a text
//! table for humans and a single JSON line for machines.

use std::fmt;
use std::fmt::Write as _;

use crate::json;

/// The snapshot value of one registered metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter's current count.
    Counter(u64),
    /// A span timer's aggregates.
    Timer {
        /// Closed spans.
        count: u64,
        /// Total nanoseconds across spans.
        total_ns: u64,
        /// Longest single span, nanoseconds.
        max_ns: u64,
    },
    /// A histogram's aggregates (quantiles are bucket-midpoint
    /// estimates; `None` with no samples).
    Histogram {
        /// Recorded samples.
        count: u64,
        /// Median estimate.
        p50: Option<u64>,
        /// 90th-percentile estimate.
        p90: Option<u64>,
        /// 99th-percentile estimate.
        p99: Option<u64>,
    },
}

impl MetricValue {
    /// The metric kind's stable name (JSON `"kind"` field).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Timer { .. } => "timer",
            MetricValue::Histogram { .. } => "histogram",
        }
    }

    /// The scalar value of a counter; `None` for the aggregate kinds.
    /// The `sim_profile --expect` gate compares against this.
    #[must_use]
    pub fn scalar(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }
}

/// One snapshot row: a metric name and its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportRow {
    /// The registered metric name.
    pub name: String,
    /// The snapshot value.
    pub value: MetricValue,
}

/// A sorted snapshot of every metric in a [`crate::Probe`] registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeReport {
    rows: Vec<ReportRow>,
}

impl ProbeReport {
    /// Wraps pre-sorted rows (the [`crate::Probe::report`] output).
    #[must_use]
    pub fn new(rows: Vec<ReportRow>) -> Self {
        ProbeReport { rows }
    }

    /// The rows, ascending by name.
    #[must_use]
    pub fn rows(&self) -> &[ReportRow] {
        &self.rows
    }

    /// Looks a metric up by exact name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.rows.iter().find(|r| r.name == name).map(|r| &r.value)
    }

    /// Renders the snapshot as one JSON line:
    /// `{"probe":{"<name>":{"kind":...,...},...}}`, keys ascending —
    /// byte-deterministic for a given snapshot.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut s = String::from("{\"probe\":{");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{}:{{\"kind\":\"{}\"",
                json::json_string(&r.name),
                r.value.kind()
            );
            match &r.value {
                MetricValue::Counter(v) => {
                    let _ = write!(s, ",\"value\":{v}");
                }
                MetricValue::Timer {
                    count,
                    total_ns,
                    max_ns,
                } => {
                    let _ = write!(
                        s,
                        ",\"count\":{count},\"total_ns\":{total_ns},\"max_ns\":{max_ns}"
                    );
                }
                MetricValue::Histogram {
                    count,
                    p50,
                    p90,
                    p99,
                } => {
                    let opt = |v: &Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
                    let _ = write!(
                        s,
                        ",\"count\":{count},\"p50\":{},\"p90\":{},\"p99\":{}",
                        opt(p50),
                        opt(p90),
                        opt(p99)
                    );
                }
            }
            s.push('}');
        }
        s.push_str("}}");
        debug_assert!(json::is_wellformed(&s), "renderer emitted malformed JSON");
        s
    }
}

impl fmt::Display for ProbeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "probe report ({} metrics)", self.rows.len())?;
        let width = self.rows.iter().map(|r| r.name.len()).max().unwrap_or(0);
        for r in &self.rows {
            write!(f, "  {:width$}  ", r.name)?;
            match &r.value {
                MetricValue::Counter(v) => writeln!(f, "counter    {v}")?,
                MetricValue::Timer {
                    count,
                    total_ns,
                    max_ns,
                } => writeln!(
                    f,
                    "timer      count {count}  total {total_ns} ns  max {max_ns} ns"
                )?,
                MetricValue::Histogram {
                    count,
                    p50,
                    p90,
                    p99,
                } => {
                    let opt = |v: &Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
                    writeln!(
                        f,
                        "histogram  count {count}  p50 {}  p90 {}  p99 {}",
                        opt(p50),
                        opt(p90),
                        opt(p99)
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Probe;

    fn sample_probe() -> Probe {
        let p = Probe::new();
        p.counter("sim.events").add(42);
        p.counter("sim.gates").add(9);
        p.timer("par.merge")
            .record(std::time::Duration::from_nanos(1500));
        let h = p.histogram("sim.edges_per_gate");
        for v in [1u64, 2, 3, 4, 100] {
            h.record(v);
        }
        p
    }

    #[test]
    fn report_is_sorted_and_queryable() {
        let report = sample_probe().report();
        let names: Vec<&str> = report.rows().iter().map(|r| r.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert_eq!(report.get("sim.events"), Some(&MetricValue::Counter(42)));
        assert_eq!(report.get("sim.events").unwrap().scalar(), Some(42));
        assert!(report.get("missing").is_none());
    }

    #[test]
    fn json_line_is_wellformed_single_line_and_deterministic() {
        let report = sample_probe().report();
        let line = report.to_json_line();
        assert!(!line.contains('\n'));
        assert!(crate::json::is_wellformed(&line), "{line}");
        assert!(line.starts_with("{\"probe\":{"));
        assert!(line.contains("\"sim.events\":{\"kind\":\"counter\",\"value\":42}"));
        assert!(line.contains(
            "\"par.merge\":{\"kind\":\"timer\",\"count\":1,\"total_ns\":1500,\"max_ns\":1500}"
        ));
        assert_eq!(line, report.to_json_line());
    }

    #[test]
    fn empty_histogram_renders_nulls_and_dashes() {
        let p = Probe::new();
        let _ = p.histogram("empty");
        let report = p.report();
        let line = report.to_json_line();
        assert!(line.contains(
            "\"empty\":{\"kind\":\"histogram\",\"count\":0,\"p50\":null,\"p90\":null,\"p99\":null}"
        ));
        assert!(report.to_string().contains("count 0  p50 -"));
    }

    #[test]
    fn text_report_lists_every_metric() {
        let text = sample_probe().report().to_string();
        assert!(text.starts_with("probe report (4 metrics)"));
        for name in ["par.merge", "sim.edges_per_gate", "sim.events", "sim.gates"] {
            assert!(text.contains(name), "{text}");
        }
    }
}
