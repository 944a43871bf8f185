//! Summarizes and gates the results file of `scripts/ab.sh`, the
//! workspace's one benchmark comparison.
//!
//! ```text
//! bench_diff <results.tsv>
//! ```
//!
//! The file has a header line, then one tab-separated row per measured
//! value: group (a `c880bench` workload or a `mis-bench` suite), id (an
//! end-to-end metric or a bench id), pair, side (`base` or `change`),
//! value, and the run's failed operations (`NA` for both when the run
//! printed no result line).
//!
//! Per group and id it prints each side's median (q1–q3, linear
//! interpolation between order statistics), the ratio change/base of
//! the medians and "change better in k of n" (ties count for neither
//! side); the failed-operation totals close each group. It exits 1 when
//! a change median is worse than the base median by more than the id's
//! bound (`BENCHMARK.json`'s for its end-to-end metrics, 25 % for every
//! bench id, where lower is better), when the change side has failed
//! operations or runs without a result, or when the base reports an id
//! in a pair where the change does not. An id that only the change
//! reports is printed and passes. Exit code 2 on usage or format
//! errors.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::str::FromStr;

/// The end-to-end metrics of `BENCHMARK.json`: name, whether higher is
/// better, and the largest relative worsening of the median that
/// passes.
const END_TO_END: [(&str, bool, f64); 4] = [
    ("op_us_p50", false, 0.25),
    ("runs_per_s", true, 0.25),
    ("setup_s", false, 0.25),
    ("peak_rss_mb", false, 0.15),
];

/// Whether higher is better for `id`, and its bound. Any id that is not
/// an end-to-end metric is a bench time in ns.
fn rule(id: &str) -> (bool, f64) {
    END_TO_END
        .iter()
        .find(|(name, ..)| *name == id)
        .map_or((false, 0.25), |&(_, higher, bound)| (higher, bound))
}

fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// One measured value of one run.
struct Row {
    group: String,
    id: String,
    pair: usize,
    change: bool,
    value: Option<f64>,
    failed: Option<u64>,
}

/// One results row, or `None` when it is malformed.
fn row(line: &str) -> Option<Row> {
    fn field<T: FromStr>(s: &str) -> Option<Option<T>> {
        if s == "NA" {
            Some(None)
        } else {
            s.parse().ok().map(Some)
        }
    }
    let f: Vec<&str> = line.split('\t').collect();
    let [group, id, pair, side @ ("base" | "change"), value, failed] = f[..] else {
        return None;
    };
    Some(Row {
        group: group.to_string(),
        id: id.to_string(),
        pair: pair.parse().ok()?,
        change: side == "change",
        value: field(value)?,
        failed: field(failed)?,
    })
}

/// Parses a results file (header line first).
fn parse(text: &str) -> Result<Vec<Row>, String> {
    let rows = text.lines().enumerate().skip(1);
    rows.filter(|(_, line)| !line.is_empty())
        .map(|(n, line)| row(line).ok_or_else(|| format!("line {}: malformed row {line:?}", n + 1)))
        .collect()
}

/// The distinct items of `items`, in order of first appearance.
fn first_seen<T: PartialEq>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut seen = Vec::new();
    for item in items {
        if !seen.contains(&item) {
            seen.push(item);
        }
    }
    seen
}

/// Linear interpolation between the order statistics of ascending
/// `sorted` at quantile `p`.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let h = (sorted.len() - 1) as f64 * p;
    let lo = h as usize;
    if lo + 1 < sorted.len() {
        sorted[lo] + (h - lo as f64) * (sorted[lo + 1] - sorted[lo])
    } else {
        sorted[lo]
    }
}

/// `v` as C's `%.6g`: six significant digits, trailing zeros dropped,
/// exponent form outside `[1e-4, 1e6)`.
fn fmt_g(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let sci = format!("{v:.5e}");
    let (mantissa, exp) = sci.split_once('e').expect("exponent form");
    let exp: i32 = exp.parse().expect("integer exponent");
    let trim = |s: &str| {
        if s.contains('.') {
            s.trim_end_matches('0').trim_end_matches('.').to_string()
        } else {
            s.to_string()
        }
    };
    if (-4..6).contains(&exp) {
        let decimals = usize::try_from(5 - exp).expect("exp < 6");
        trim(&format!("{v:.decimals$}"))
    } else {
        let sign = if exp < 0 { '-' } else { '+' };
        format!("{}e{sign}{:02}", trim(mantissa), exp.abs())
    }
}

/// `median (q1-q3)` of ascending `sorted`.
fn spread(sorted: &[f64]) -> String {
    let q = |p| fmt_g(quantile(sorted, p));
    format!("{} ({}-{})", q(0.5), q(0.25), q(0.75))
}

/// Summarizes `rows` into `out` and returns what fails the change
/// (empty when it passes).
fn summarize(rows: &[Row], out: &mut String) -> Vec<String> {
    let mut failures = Vec::new();
    for group in first_seen(rows.iter().map(|r| r.group.as_str())) {
        let rows: Vec<&Row> = rows.iter().filter(|r| r.group == group).collect();
        let pairs = first_seen(rows.iter().map(|r| r.pair));
        let ids = first_seen(rows.iter().map(|r| r.id.as_str()));
        let width = ids.iter().map(|id| id.len()).fold(12, usize::max);
        let _ = write!(out, "\n{group} ({} pairs)\n", pairs.len());
        let _ = writeln!(
            out,
            "  {:<width$} {:<32} {:<32} {:<7} change better in",
            "metric", "base median (q1-q3)", "change median (q1-q3)", "ratio"
        );
        for id in ids {
            let (higher, bound) = rule(id);
            let value = |pair: usize, change: bool| {
                rows.iter()
                    .find(|r| r.id == id && r.pair == pair && r.change == change)
                    .and_then(|r| r.value)
            };
            let missing = pairs
                .iter()
                .filter(|&&p| value(p, false).is_some() && value(p, true).is_none())
                .count();
            if missing > 0 {
                let _ = writeln!(
                    out,
                    "  {id:<width$} MISSING: the change lacks it in {missing} pairs"
                );
                failures.push(format!("{group} {id}: missing on the change side"));
                continue;
            }
            let both: Vec<(f64, f64)> = pairs
                .iter()
                .filter_map(|&p| Some((value(p, false)?, value(p, true)?)))
                .collect();
            if both.is_empty() {
                let _ = writeln!(out, "  {id:<width$} not compared: no base value");
                continue;
            }
            let wins = both
                .iter()
                .filter(|&&(b, c)| if higher { c > b } else { c < b })
                .count();
            let (mut base, mut change): (Vec<f64>, Vec<f64>) = both.into_iter().unzip();
            base.sort_by(f64::total_cmp);
            change.sort_by(f64::total_cmp);
            let (bm, cm) = (quantile(&base, 0.5), quantile(&change, 0.5));
            let ratio = if bm == 0.0 { 0.0 } else { cm / bm };
            let _ = write!(
                out,
                "  {id:<width$} {:<32} {:<32} {ratio:<7.3} {wins} of {} ({} is better)",
                spread(&base),
                spread(&change),
                base.len(),
                better(higher)
            );
            if (higher && cm < bm * (1.0 - bound)) || (!higher && cm > bm * (1.0 + bound)) {
                let _ = write!(out, "  REGRESSED (bound {bound})");
                failures.push(format!(
                    "{group} {id}: ratio {ratio:.3}, {} is better, bound {bound}",
                    better(higher)
                ));
            }
            out.push('\n');
        }
        // One failed count per run, from its first row.
        let runs = first_seen(rows.iter().map(|r| (r.pair, r.change)));
        let failed = |change: bool| {
            let side = runs.iter().filter(|&&(_, c)| c == change);
            let counts = side.map(|&(p, c)| {
                let run = rows.iter().find(|r| r.pair == p && r.change == c);
                run.and_then(|r| r.failed)
            });
            counts.fold((0, 0), |(sum, blind), f| {
                f.map_or((sum, blind + 1), |f| (sum + f, blind))
            })
        };
        let ((base_failed, base_blind), (change_failed, change_blind)) =
            (failed(false), failed(true));
        let _ = writeln!(
            out,
            "  failed operations: base {base_failed}, change {change_failed}"
        );
        if base_blind + change_blind > 0 {
            let _ = writeln!(
                out,
                "  runs without a result: base {base_blind}, change {change_blind}"
            );
        }
        if change_failed + change_blind > 0 {
            failures.push(format!(
                "{group}: {change_failed} failed operations and {change_blind} runs \
                 without a result on the change side"
            ));
        }
    }
    failures
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = &args[..] else {
        eprintln!("usage: bench_diff <results.tsv>");
        return ExitCode::from(2);
    };
    let rows = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|text| parse(&text))
        .and_then(|rows| {
            if rows.is_empty() {
                Err(format!("{path}: no results"))
            } else {
                Ok(rows)
            }
        });
    let rows = match rows {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = String::new();
    let failures = summarize(&rows, &mut out);
    print!("{out}");
    if failures.is_empty() {
        println!("\nbench_diff: OK");
        return ExitCode::SUCCESS;
    }
    eprintln!("\nbench_diff: FAILED");
    for f in &failures {
        eprintln!("  {f}");
    }
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A results file: one `(group, id, pair, side, value, failed)`
    /// row per entry.
    fn results(rows: &[(&str, &str, usize, &str, &str, &str)]) -> Vec<Row> {
        let mut text = String::from("group\tid\tpair\tside\tvalue\tfailed\n");
        for (group, id, pair, side, value, failed) in rows {
            let _ = writeln!(text, "{group}\t{id}\t{pair}\t{side}\t{value}\t{failed}");
        }
        parse(&text).unwrap()
    }

    /// Base and change values of one id over consecutive pairs.
    fn ab(id: &str, base: &[&str], change: &[&str]) -> Vec<Row> {
        let mut rows = Vec::new();
        for (p, (b, c)) in base.iter().zip(change).enumerate() {
            rows.push(("g", id, p + 1, "base", *b, "0"));
            rows.push(("g", id, p + 1, "change", *c, "0"));
        }
        results(&rows)
    }

    fn gate(rows: &[Row]) -> (Vec<String>, String) {
        let mut out = String::new();
        (summarize(rows, &mut out), out)
    }

    #[test]
    fn a_ratio_at_the_bound_passes_and_just_over_it_fails() {
        let at = ab("op_us_p50", &["100"], &["125"]);
        assert!(gate(&at).0.is_empty());
        let over = ab("op_us_p50", &["100"], &["125.01"]);
        assert_eq!(gate(&over).0.len(), 1);
        // peak_rss_mb has the tighter 15 % bound.
        assert!(gate(&ab("peak_rss_mb", &["100"], &["114.9"])).0.is_empty());
        assert_eq!(gate(&ab("peak_rss_mb", &["100"], &["115.1"])).0.len(), 1);
        // A bench id is a time with the 25 % bound.
        assert!(gate(&ab("suite/id", &["1000"], &["1250"])).0.is_empty());
        let (failures, out) = gate(&ab("suite/id", &["1000"], &["1251"]));
        assert_eq!(failures.len(), 1);
        assert!(out.contains("REGRESSED"), "{out}");
    }

    #[test]
    fn higher_is_better_for_runs_per_s_only() {
        // runs_per_s may fall 25 % and no more; rising is never a
        // regression.
        assert!(gate(&ab("runs_per_s", &["100"], &["75"])).0.is_empty());
        assert_eq!(gate(&ab("runs_per_s", &["100"], &["74.9"])).0.len(), 1);
        assert!(gate(&ab("runs_per_s", &["100"], &["1000"])).0.is_empty());
        // A lower-better time falling is never a regression.
        assert!(gate(&ab("setup_s", &["100"], &["1"])).0.is_empty());
        let (_, out) = gate(&ab("runs_per_s", &["100", "100"], &["110", "90"]));
        assert!(out.contains("1 of 2 (higher is better)"), "{out}");
    }

    #[test]
    fn failed_operations_on_the_change_side_fail() {
        let mut rows = results(&[
            ("w", "op_us_p50", 1, "base", "100", "3"),
            ("w", "op_us_p50", 1, "change", "100", "0"),
        ]);
        let (failures, out) = gate(&rows);
        assert!(failures.is_empty(), "base failures are not the change's");
        assert!(out.contains("failed operations: base 3, change 0"), "{out}");
        rows[1].failed = Some(2);
        assert_eq!(gate(&rows).0.len(), 1);
        // A change run without a result line fails too.
        rows[1].failed = None;
        rows[1].value = None;
        let (failures, out) = gate(&rows);
        assert!(!failures.is_empty());
        assert!(
            out.contains("runs without a result: base 0, change 1"),
            "{out}"
        );
    }

    #[test]
    fn a_base_only_id_fails_and_a_change_only_id_passes() {
        let base_only = results(&[("s", "old/id", 1, "base", "10", "0")]);
        let (failures, out) = gate(&base_only);
        assert_eq!(failures.len(), 1);
        assert!(out.contains("MISSING"), "{out}");
        let change_only = results(&[("s", "new/id", 1, "change", "10", "0")]);
        let (failures, out) = gate(&change_only);
        assert!(failures.is_empty());
        assert!(
            out.contains("new/id") && out.contains("not compared: no base value"),
            "{out}"
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        let (_, out) = gate(&ab(
            "op_us_p50",
            &["100", "100", "100", "100"],
            &["100", "99", "101", "100"],
        ));
        assert!(out.contains("1 of 4 (lower is better)"), "{out}");
    }

    #[test]
    fn medians_and_quartiles_interpolate_between_order_statistics() {
        let (_, out) = gate(&ab(
            "op_us_p50",
            &["4", "1", "3", "2"],
            &["10", "20", "30", "40"],
        ));
        assert!(
            out.contains("2.5 (1.75-3.25)") && out.contains("25 (17.5-32.5)"),
            "{out}"
        );
    }

    #[test]
    fn numbers_print_as_c_percent_g() {
        let cases = [
            (0.0, "0"),
            (190.5, "190.5"),
            (244_123.0, "244123"),
            (1_234_567.0, "1.23457e+06"),
            (0.004_23, "0.00423"),
            (0.000_012_5, "1.25e-05"),
            (6.931_999, "6.932"),
            (999_999.7, "1e+06"),
        ];
        for (v, want) in cases {
            assert_eq!(fmt_g(v), want, "{v}");
        }
    }

    /// The end-to-end table above is `BENCHMARK.json`'s `end_to_end`
    /// list, so a benchmark change cannot leave the gate behind.
    #[test]
    fn end_to_end_table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let list = &text[text.find("\"end_to_end\"").unwrap()..];
        let list = &list[..list.find(']').unwrap()];
        let field = |entry: &str, key: &str| {
            let rest = &entry[entry.find(&format!("\"{key}\"")).unwrap() + key.len() + 2..];
            let rest = rest.trim_start().trim_start_matches(':').trim_start();
            let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
            rest[..end].trim().trim_matches('"').to_string()
        };
        let entries: Vec<(String, String, f64)> = list
            .split('{')
            .skip(1)
            .map(|entry| {
                (
                    field(entry, "name"),
                    field(entry, "better"),
                    field(entry, "bound").parse().unwrap(),
                )
            })
            .collect();
        let table: Vec<(String, String, f64)> = END_TO_END
            .iter()
            .map(|&(name, higher, bound)| (name.to_string(), better(higher).to_string(), bound))
            .collect();
        assert_eq!(entries, table);
    }
}
