//! Lints `.bench` netlists and prints their static timing summary —
//! the CLI front of `mis-analyze`, and the diagnostic gate CI runs over
//! every committed `data/bench/` fixture.
//!
//! For each file: parse, run every structural lint (`A001`–`A007`),
//! print the findings, then — when the netlist is simulable — lower it
//! under the committed characterized cell library
//! (`data/charlib/nor_paper.mislib`, inertial fallback for the
//! non-hybrid gate kinds, the same realization the benches use) and
//! print the static timing report: level census, per-output arrival
//! windows, critical path.
//!
//! Usage:
//!
//! ```text
//! lint_bench [--deny-warnings] [--json] <netlist.bench> [more.bench ...]
//! ```
//!
//! `--json` replaces the human report with one machine-readable JSON
//! line per file, carrying the lint findings and the static timing
//! summary together; each line is validated against
//! `mis_probe::json::is_wellformed` before printing, so a broken
//! renderer fails the run.
//!
//! Exit code 1 when any file fails to parse or lints with errors — or,
//! under `--deny-warnings`, with any finding at all; 2 for usage
//! errors. The timing report is informational and never fails the run.

use std::fmt::Write as _;
use std::process::ExitCode;

use mis_analyze::{lint, LintConfig, LintReport, TimingAnalysis, TimingReport};
use mis_bench::emit;
use mis_bench::netlist::committed_cells;
use mis_probe::json::{is_wellformed, json_f64, json_string};
use mis_sim::BenchNetlist;

/// Renders one file's lint findings as a JSON object body (no braces).
fn lint_json(report: &LintReport) -> String {
    let mut s = format!(
        "\"clean\":{},\"errors\":{},\"warnings\":{},\"diagnostics\":[",
        report.is_clean(),
        report.error_count(),
        report.warning_count()
    );
    for (i, d) in report.diagnostics().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"code\":{},\"severity\":{},\"line\":{},\"signal\":{},\"message\":{}}}",
            json_string(d.code.code()),
            json_string(&d.severity().to_string()),
            d.line,
            d.signal.as_deref().map_or("null".to_string(), json_string),
            json_string(&d.message)
        );
    }
    s.push(']');
    s
}

/// Renders the static timing summary as a JSON object.
fn timing_json(ta: &TimingReport) -> String {
    let mut s = format!(
        "{{\"max_level\":{},\"level_census\":{:?},\"unbounded\":{},\"outputs\":[",
        ta.max_level, ta.level_census, ta.unbounded
    );
    for (i, o) in ta.outputs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"name\":{},\"level\":{},\"lo\":{},\"hi\":{}}}",
            json_string(&o.name),
            o.level,
            json_f64(o.window.lo),
            json_f64(o.window.hi)
        );
    }
    s.push_str("],\"critical_path\":[");
    for (i, step) in ta.critical_path.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"name\":{},\"level\":{},\"latest\":{}}}",
            json_string(&step.name),
            step.level,
            json_f64(step.latest)
        );
    }
    s.push_str("]}");
    s
}

/// Validates and prints one JSON line; a malformed line is a renderer
/// bug and fails the run instead of reaching a consumer.
fn emit_json_line(line: &str) -> bool {
    if is_wellformed(line) {
        emit(format_args!("{line}\n"));
        true
    } else {
        eprintln!("lint_bench: internal error: malformed JSON output: {line}");
        false
    }
}

fn main() -> ExitCode {
    let mut deny_warnings = false;
    let mut json = false;
    let mut files: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--deny-warnings" => deny_warnings = true,
            "--json" => json = true,
            _ if arg.starts_with("--") => {
                eprintln!("lint_bench: unknown flag '{arg}'");
                eprintln!("usage: lint_bench [--deny-warnings] [--json] <netlist.bench> ...");
                return ExitCode::from(2);
            }
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        eprintln!("usage: lint_bench [--deny-warnings] [--json] <netlist.bench> ...");
        return ExitCode::from(2);
    }

    let cells = match committed_cells() {
        Ok(c) => Some(c),
        Err(e) => {
            // Timing is informational; lint alone still works without
            // the committed tables.
            eprintln!("lint_bench: no timing report: {e}");
            None
        }
    };

    let mut failed = false;
    for file in &files {
        if !json {
            emit(format_args!("== {file}\n"));
        }
        let fail_line = |msg: &str, failed: &mut bool| {
            *failed = true;
            if json {
                let line = format!(
                    "{{\"file\":{},\"error\":{}}}",
                    json_string(file),
                    json_string(msg)
                );
                if !emit_json_line(&line) {
                    *failed = true;
                }
            } else {
                emit(format_args!("error: {msg}\n"));
            }
        };
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                fail_line(&format!("read failed: {e}"), &mut failed);
                continue;
            }
        };
        let nl = match BenchNetlist::parse(&text) {
            Ok(nl) => nl,
            Err(e) => {
                fail_line(&e.to_string(), &mut failed);
                continue;
            }
        };
        let report = lint(&nl, &LintConfig::default());
        if !json {
            if report.is_clean() {
                emit(format_args!(
                    "clean: {} inputs, {} outputs, {} gates\n",
                    nl.input_count(),
                    nl.outputs().len(),
                    nl.gate_count()
                ));
            } else {
                emit(format_args!("{report}"));
                emit(format_args!(
                    "{} error(s), {} warning(s)\n",
                    report.error_count(),
                    report.warning_count()
                ));
            }
        }
        if report.has_errors() || (deny_warnings && !report.is_clean()) {
            failed = true;
        }
        // A007 (a lint error) means lowering is pointless; otherwise
        // run static timing when the committed tables are available.
        let timing = if report.has_errors() {
            None
        } else if let Some(cells) = &cells {
            match nl.lower(cells) {
                Ok(lowered) => {
                    let ta = TimingAnalysis::new(&lowered.net);
                    Some(ta.report(&lowered.outputs))
                }
                Err(e) => {
                    fail_line(&format!("lowering failed: {e}"), &mut failed);
                    continue;
                }
            }
        } else {
            None
        };
        if json {
            let line = format!(
                "{{\"file\":{},\"inputs\":{},\"outputs\":{},\"gates\":{},{},\"timing\":{}}}",
                json_string(file),
                nl.input_count(),
                nl.outputs().len(),
                nl.gate_count(),
                lint_json(&report),
                timing.as_ref().map_or("null".to_string(), timing_json)
            );
            if !emit_json_line(&line) {
                failed = true;
            }
        } else if let Some(ta) = &timing {
            emit(format_args!("{ta}"));
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
