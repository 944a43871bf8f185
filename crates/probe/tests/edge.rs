//! Edge-case coverage the unit suites skirt: JSON escaping of hostile
//! metric names end-to-end through the report renderer, and concurrent
//! accumulation into *same-named* metrics from many threads — the
//! registry-sharing contract the fault campaign's per-worker counters
//! lean on.

use std::thread;

use mis_probe::json::{is_wellformed, json_string};
use mis_probe::{MetricValue, Probe};

#[test]
fn json_string_escapes_every_control_char() {
    for c in 0u32..0x20 {
        let c = char::from_u32(c).unwrap();
        let escaped = json_string(&format!("x{c}y"));
        // Control chars must never appear raw inside the literal.
        assert!(
            escaped.chars().all(|e| e as u32 >= 0x20),
            "raw control char survived in {escaped:?}"
        );
        assert!(is_wellformed(&escaped), "{escaped:?}");
    }
    // The common ones take the \uXXXX form (no short-form table).
    assert_eq!(json_string("a\nb"), "\"a\\u000ab\"");
    assert_eq!(json_string("a\tb"), "\"a\\u0009b\"");
    assert_eq!(json_string("a\rb"), "\"a\\u000db\"");
}

#[test]
fn json_string_escapes_quotes_and_backslashes_only_once() {
    assert_eq!(json_string(r#"say "hi""#), r#""say \"hi\"""#);
    assert_eq!(json_string(r"a\b"), r#""a\\b""#);
    // A backslash before a quote must yield four escape chars, not a
    // mangled \\" sequence the validator would misparse.
    assert_eq!(json_string(r#"\""#), r#""\\\"""#);
    assert!(is_wellformed(&json_string(r#"\""#)));
}

#[test]
fn json_string_passes_non_ascii_through_unescaped() {
    for s in ["délai", "温度", "λ.eval", "nor₂.τ", "🜁.edge"] {
        let escaped = json_string(s);
        assert_eq!(escaped, format!("\"{s}\""));
        assert!(is_wellformed(&escaped), "{escaped:?}");
    }
}

#[test]
fn hostile_metric_names_survive_the_full_report_path() {
    let probe = Probe::new();
    let names = [
        "ctrl\nchar.name",
        "quote\".name",
        "back\\slash.name",
        "non-ascii.délai.温度",
        "tab\tand\rreturn",
    ];
    for (i, name) in names.iter().enumerate() {
        probe.counter(name).add(i as u64 + 1);
    }
    let report = probe.report();
    let line = report.to_json_line();
    assert!(is_wellformed(&line), "{line}");
    for (i, name) in names.iter().enumerate() {
        assert_eq!(
            report.get(name),
            Some(&MetricValue::Counter(i as u64 + 1)),
            "lookup by raw (unescaped) name must still work"
        );
        // The escaped form, not the raw bytes, is what the line holds.
        assert!(line.contains(&json_string(name)), "{line}");
    }
}

#[test]
fn counters_accumulate_across_threads_on_the_same_name() {
    const THREADS: usize = 8;
    const INCS: u64 = 10_000;
    let probe = Probe::new();
    thread::scope(|scope| {
        for _ in 0..THREADS {
            let probe = probe.clone();
            scope.spawn(move || {
                // Each thread registers the same name itself — the
                // registry must hand every one the same cell.
                let c = probe.counter("cell.nor4.evals");
                for _ in 0..INCS {
                    c.inc();
                }
            });
        }
    });
    assert_eq!(
        probe.counter("cell.nor4.evals").value(),
        THREADS as u64 * INCS
    );
}

#[test]
fn histograms_accumulate_across_threads_on_the_same_name() {
    const THREADS: u64 = 8;
    const SAMPLES: u64 = 1_000;
    let probe = Probe::new();
    thread::scope(|scope| {
        for t in 0..THREADS {
            let probe = probe.clone();
            scope.spawn(move || {
                let h = probe.histogram("cell.nor4.eval_ns");
                for s in 0..SAMPLES {
                    // Distinct per-thread offsets so a lost batch
                    // would shift the quantiles, not just the count.
                    h.record(t * 1_000 + s);
                }
            });
        }
    });
    let report = probe.report();
    let Some(&MetricValue::Histogram { count, p50, .. }) = report.get("cell.nor4.eval_ns") else {
        panic!("histogram registered");
    };
    assert_eq!(count, THREADS * SAMPLES);
    let p50 = p50.expect("samples recorded");
    // True median is ~4000; bucket-midpoint estimates stay well inside
    // an order of magnitude.
    assert!((1_000..=8_000).contains(&p50), "p50 = {p50}");
}

#[test]
fn mixed_kind_metrics_from_threads_render_one_wellformed_line() {
    let probe = Probe::new();
    thread::scope(|scope| {
        for t in 0..4u64 {
            let probe = probe.clone();
            scope.spawn(move || {
                probe.counter("mix.count").add(t + 1);
                probe.histogram("mix.hist").record(t * 10);
            });
        }
    });
    let report = probe.report();
    assert_eq!(report.get("mix.count"), Some(&MetricValue::Counter(10)));
    match report.get("mix.hist") {
        Some(MetricValue::Histogram { count: 4, .. }) => {}
        other => panic!("expected 4-sample histogram, got {other:?}"),
    }
    assert!(is_wellformed(&report.to_json_line()));
}
