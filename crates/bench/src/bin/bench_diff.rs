//! Compares a fresh `BENCH_*.json` against a committed baseline and fails
//! (exit code 1) when any id present in the baseline regressed by more
//! than the allowed factor against the baseline median, or disappeared
//! from the fresh run. New ids in the fresh run are reported but never
//! fail the check.
//!
//! The fresh side of the comparison is the *fastest sample* (`min_ns`),
//! not the fresh median: CI runs the benches in quick mode on shared
//! machines, where medians carry scheduling noise that would make a 25 %
//! gate flaky, while a genuine code regression lifts the floor of the
//! distribution as reliably as its middle.
//!
//! Usage:
//!
//! ```text
//! bench_diff <baseline.json> <fresh.json> [max_regression_factor]
//! bench_diff --history <history.jsonl> [--env TAG] <snapshot.json>...
//! ```
//!
//! The factor defaults to 1.25 (a >25 % regression of the fresh floor
//! over the committed median fails). The parser is schema-specific to
//! the `mis-testkit` bench JSON — no external JSON dependency needed.
//!
//! `--history` turns the three overwritten `BENCH_*.json` snapshots
//! into a queryable perf trajectory: for each snapshot it appends one
//! self-validated JSON line — suite name (from the `BENCH_<suite>.json`
//! filename), environment tag, the host's `nproc`, the `rustc --version`
//! line, the checkout's `git rev-parse HEAD`, unix timestamp, and every
//! id's median — to the given `.jsonl` log (created if absent). A host
//! field that cannot be read is recorded as an empty string. The
//! committed `BENCH_HISTORY.jsonl` is that log for the committed
//! baselines; CI smoke-appends to a scratch copy.

use std::process::ExitCode;

use mis_probe::json::{is_wellformed, json_f64, json_string};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--history") {
        return match run_history(&args[1..]) {
            Ok(msg) => {
                println!("{msg}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench_diff: {e}");
                eprintln!(
                    "usage: bench_diff --history <history.jsonl> [--env TAG] <snapshot.json>..."
                );
                ExitCode::from(2)
            }
        };
    }
    if args.len() < 2 || args.len() > 3 {
        eprintln!("usage: bench_diff <baseline.json> <fresh.json> [max_regression_factor]");
        eprintln!("       bench_diff --history <history.jsonl> [--env TAG] <snapshot.json>...");
        return ExitCode::from(2);
    }
    let factor: f64 = match args.get(2) {
        Some(s) => match s.parse() {
            Ok(f) if f >= 1.0 => f,
            _ => {
                eprintln!("bench_diff: bad max_regression_factor '{}'", args[2]);
                return ExitCode::from(2);
            }
        },
        None => 1.25,
    };
    let (baseline, fresh) = match (read_results(&args[0]), read_results(&args[1])) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::from(2);
        }
    };

    let mut failed = false;
    for row in &baseline {
        match fresh.iter().find(|f| f.id == row.id) {
            None => {
                println!(
                    "MISSING  {}: present in baseline, absent in fresh run",
                    row.id
                );
                failed = true;
            }
            Some(f) => {
                let ratio = f.min_ns / row.median_ns;
                let verdict = if ratio > factor {
                    failed = true;
                    "REGRESSED"
                } else {
                    "ok"
                };
                println!(
                    "{verdict:<9} {}: baseline median {:.1} ns vs fresh floor {:.1} ns \
                     ({ratio:.2}x, limit {factor:.2}x)",
                    row.id, row.median_ns, f.min_ns
                );
            }
        }
    }
    for f in &fresh {
        if !baseline.iter().any(|b| b.id == f.id) {
            println!(
                "new       {}: median {:.1} ns (no baseline yet)",
                f.id, f.median_ns
            );
        }
    }
    if failed {
        eprintln!(
            "bench_diff: FAILED ({} baseline ids checked)",
            baseline.len()
        );
        ExitCode::FAILURE
    } else {
        println!("bench_diff: OK ({} baseline ids checked)", baseline.len());
        ExitCode::SUCCESS
    }
}

struct Row {
    id: String,
    median_ns: f64,
    min_ns: f64,
}

/// Extracts `(id, median_ns, min_ns)` rows from a `mis-testkit` bench
/// JSON file.
fn read_results(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut out = Vec::new();
    let mut rest = text.as_str();
    while let Some(pos) = rest.find("\"id\":\"") {
        rest = &rest[pos + 6..];
        let end = rest
            .find('"')
            .ok_or_else(|| format!("{path}: unterminated id string"))?;
        let id = rest[..end].to_owned();
        let median_ns = field_after(rest, "\"median_ns\":", path, &id)?;
        let min_ns = field_after(rest, "\"min_ns\":", path, &id)?;
        out.push(Row {
            id,
            median_ns,
            min_ns,
        });
        rest = &rest[end..];
    }
    if out.is_empty() {
        return Err(format!("{path}: no benchmark results found"));
    }
    Ok(out)
}

/// Parses the float following `key` in `text` (searching forward from the
/// current result's id).
fn field_after(text: &str, key: &str, path: &str, id: &str) -> Result<f64, String> {
    let pos = text
        .find(key)
        .ok_or_else(|| format!("{path}: result '{id}' has no {key}"))?;
    let rest = &text[pos + key.len()..];
    let end = rest
        .find(|c: char| {
            c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' && !c.is_ascii_digit()
        })
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .map_err(|_| format!("{path}: bad {key} for '{id}'"))
}

/// Where a history record was measured: core count, compiler and
/// commit. Each field is empty when it cannot be read.
struct Host {
    nproc: String,
    rustc: String,
    git_sha: String,
}

impl Host {
    fn detect() -> Self {
        let command = |program: &str, args: &[&str]| {
            std::process::Command::new(program)
                .args(args)
                .output()
                .ok()
                .filter(|out| out.status.success())
                .and_then(|out| String::from_utf8(out.stdout).ok())
                .map(|text| text.trim().to_string())
                .unwrap_or_default()
        };
        Host {
            nproc: std::thread::available_parallelism()
                .map(|n| n.to_string())
                .unwrap_or_default(),
            rustc: command("rustc", &["--version"]),
            git_sha: command("git", &["rev-parse", "HEAD"]),
        }
    }
}

/// One history record — `{"suite":...,"env":...,"nproc":...,"rustc":...,
/// "git_sha":...,"unix_s":...,"medians":{id:ns}}` — validated before it
/// is returned, same contract as every other JSON emitter in the
/// workspace.
fn history_line(
    suite: &str,
    env_tag: &str,
    host: &Host,
    unix_s: u64,
    rows: &[Row],
) -> Result<String, String> {
    let medians: Vec<String> = rows
        .iter()
        .map(|r| format!("{}:{}", json_string(&r.id), json_f64(r.median_ns)))
        .collect();
    let line = format!(
        "{{\"suite\":{},\"env\":{},\"nproc\":{},\"rustc\":{},\"git_sha\":{},\"unix_s\":{unix_s},\"medians\":{{{}}}}}",
        json_string(suite),
        json_string(env_tag),
        json_string(&host.nproc),
        json_string(&host.rustc),
        json_string(&host.git_sha),
        medians.join(",")
    );
    if !is_wellformed(&line) {
        return Err(format!("internal error: malformed history line: {line}"));
    }
    Ok(line)
}

/// The `--history` mode: appends one [`history_line`] per snapshot file
/// to the history log.
fn run_history(args: &[String]) -> Result<String, String> {
    let mut it = args.iter();
    let history_path = it.next().ok_or("missing <history.jsonl>")?.clone();
    let mut env_tag = "local".to_string();
    let mut snapshots: Vec<String> = Vec::new();
    while let Some(arg) = it.next() {
        if arg == "--env" {
            env_tag = it.next().ok_or("--env needs a value")?.clone();
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag '{arg}'"));
        } else {
            snapshots.push(arg.clone());
        }
    }
    if snapshots.is_empty() {
        return Err("no <snapshot.json> files given".to_string());
    }
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_err(|e| format!("system clock before the epoch: {e}"))?
        .as_secs();
    let host = Host::detect();
    let mut lines = String::new();
    for path in &snapshots {
        let rows = read_results(path)?;
        lines.push_str(&history_line(
            &suite_name(path),
            &env_tag,
            &host,
            unix_s,
            &rows,
        )?);
        lines.push('\n');
    }
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history_path)
        .map_err(|e| format!("open {history_path}: {e}"))?;
    file.write_all(lines.as_bytes())
        .map_err(|e| format!("append {history_path}: {e}"))?;
    Ok(format!(
        "appended {} suite record(s) to {history_path} (env {env_tag})",
        snapshots.len()
    ))
}

/// The suite name encoded in a snapshot path: `BENCH_<suite>.json`
/// yields `<suite>`; anything else falls back to the file stem.
fn suite_name(path: &str) -> String {
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path);
    stem.strip_prefix("BENCH_").unwrap_or(stem).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_line_records_the_host_and_stays_wellformed() {
        let host = Host {
            nproc: "2".to_string(),
            rustc: "rustc 1.90.0 (\"stable\")".to_string(),
            git_sha: String::new(),
        };
        let rows = [Row {
            id: "c432_cached/sim".to_string(),
            median_ns: 1500.0,
            min_ns: 1400.0,
        }];
        let line = history_line("netlist_throughput", "ci", &host, 7, &rows).unwrap();
        assert_eq!(
            line,
            r#"{"suite":"netlist_throughput","env":"ci","nproc":"2","rustc":"rustc 1.90.0 (\"stable\")","git_sha":"","unix_s":7,"medians":{"c432_cached/sim":1.5e3}}"#
        );
        assert!(is_wellformed(&line));
    }
}
