//! Runs a deterministic fault-injection campaign over one `.bench`
//! netlist — the CLI front of `mis-fault`, and the coverage-pinning
//! gate CI runs over the committed fixtures.
//!
//! The netlist is lowered under the committed characterized cell
//! library (or, under `--cells inertial`, onto the committed inertial
//! fallback on every gate) and driven with the same deterministic
//! traffic `sim_profile` uses (seed base `0x5eed`), so the golden run
//! here is byte-for-byte the run CI already pins event counts on. The fault list is the
//! exhaustive single-stuck-at set (two faults per lowered signal), plus
//! `--glitches N` transient pulses placed deterministically across the
//! signals. The campaign report — coverage, per-output detections,
//! budget trips — is a pure function of the netlist, so its numbers can
//! be pinned with `--expect` exactly like `sim_profile`'s counters.
//!
//! Each fault is replayed against the golden run by re-evaluating only
//! the gates it perturbs (`mis_sim::ConeReplay`); the report is
//! identical to full-netlist replay. `fault.cone_gates` counts the gates
//! re-evaluated across the campaign — the campaign's exact work, pinned
//! in CI next to the coverage counters. `fault.report_digest` is the
//! FNV-1a digest of the whole report (`mis_bench::netlist::report_digest`:
//! every fault's site, outcome and detecting outputs, no timers), so a
//! pin on it fails when any single fault's result changes.
//!
//! Usage:
//!
//! ```text
//! fault_sim [--json] [--cells hybrid|inertial] [--workers N] [--glitches N]
//!           [--max-edges N] [--trace <out.json>] [--expect k=v,...]
//!           <netlist.bench>
//! fault_sim --fuzz ITERS [--seed N] [--json]
//! ```
//!
//! Workers claim faults in small blocks from a shared cursor (the
//! calling thread is worker 0), so the input-side faults — the largest
//! cones — spread over every worker. At most one worker per fault
//! runs, so `--workers` above the fault count runs fewer workers; the
//! human report prints the number that ran. The per-worker
//! `fault.w<i>.busy` utilization timers appear in the `--json` line,
//! and from them and the campaign's wall time (golden run included)
//! both the human report and the `--json` line derive `busy_share`
//! (Σ busy / (workers × wall)) and `imbalance` (max busy / mean busy).
//! These are timings, not pinnable with `--expect`.
//!
//! `--trace` records the campaign on a live `mis_probe::TraceSink` —
//! the golden run's gate spans plus, per worker, a span over its whole
//! claim loop, a `fault_run` span per replay and coverage-over-time
//! samples — and writes the timeline as checker-validated Chrome Trace
//! Format JSON. Which worker runs which fault varies from run to run;
//! the report does not.
//!
//! `--fuzz` ignores the campaign flags and instead runs the
//! differential fuzz harness (random circuits, stimuli and faults;
//! engine-vs-`Network::run` and serial-vs-cone-replay bit-identity,
//! campaign-vs-memo-less-replay outcomes, faulted-STA soundness,
//! graceful budgets) for the given iteration count — CI's smoke leg.
//!
//! Exit code 1 on campaign, fuzz, or expectation failure; 2 on usage
//! errors.

use std::process::ExitCode;
use std::time::Instant;

use mis_bench::emit;
use mis_bench::netlist::{check_expect, parse_expect, report_digest, traffic, Cells};
use mis_fault::{
    fuzz_differential, run_campaign_traced, stuck_at_sites, CampaignConfig, FaultOutcome,
    FaultSite, FuzzConfig,
};
use mis_probe::json::{is_wellformed, json_f64, json_string};
use mis_probe::{MetricValue, Probe, ProbeReport, TraceSink};
use mis_sim::{BenchNetlist, RunBudget};
use mis_waveform::units::ps;

struct Args {
    json: bool,
    cells: Cells,
    workers: usize,
    glitches: usize,
    max_edges: Option<u64>,
    fuzz: Option<u32>,
    seed: u64,
    trace: Option<String>,
    expect: Vec<(String, u64)>,
    file: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        json: false,
        cells: Cells::Hybrid,
        workers: 4,
        glitches: 0,
        max_edges: None,
        fuzz: None,
        seed: 0x5eed,
        trace: None,
        expect: Vec::new(),
        file: None,
    };
    let mut argv = std::env::args().skip(1);
    let value = |flag: &str, argv: &mut dyn Iterator<Item = String>| {
        argv.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--json" => args.json = true,
            "--cells" => args.cells = Cells::parse(&value("--cells", &mut argv)?)?,
            "--workers" => {
                args.workers = value("--workers", &mut argv)?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--glitches" => {
                args.glitches = value("--glitches", &mut argv)?
                    .parse()
                    .map_err(|e| format!("--glitches: {e}"))?;
            }
            "--max-edges" => {
                args.max_edges = Some(
                    value("--max-edges", &mut argv)?
                        .parse()
                        .map_err(|e| format!("--max-edges: {e}"))?,
                );
            }
            "--fuzz" => {
                args.fuzz = Some(
                    value("--fuzz", &mut argv)?
                        .parse()
                        .map_err(|e| format!("--fuzz: {e}"))?,
                );
            }
            "--seed" => {
                args.seed = value("--seed", &mut argv)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--trace" => {
                args.trace = Some(value("--trace", &mut argv)?);
            }
            "--expect" => {
                let spec = value("--expect", &mut argv)?;
                args.expect.extend(parse_expect(&spec)?);
            }
            _ if arg.starts_with("--") => return Err(format!("unknown flag '{arg}'")),
            _ if args.file.is_none() => args.file = Some(arg),
            _ => return Err("expected at most one <netlist.bench>".to_string()),
        }
    }
    if args.workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    match (&args.fuzz, &args.file) {
        (None, None) => Err("expected a <netlist.bench> (or --fuzz ITERS)".to_string()),
        (Some(_), Some(_)) => Err("--fuzz takes no <netlist.bench>".to_string()),
        _ => Ok(args),
    }
}

/// `n` transient glitches spread deterministically across the lowered
/// signals: strided signal picks, staggered start times, cycling
/// widths. No randomness — the same flag always names the same faults,
/// so glitch coverage is pinnable too.
fn glitch_sites(net: &mis_digital::Network, n: usize) -> Result<Vec<FaultSite>, String> {
    let signals = net.signal_count();
    (0..n)
        .map(|i| {
            let idx = (i * 7 + 3) % signals;
            let id = net
                .signal_id(idx)
                .ok_or_else(|| format!("signal index {idx} out of range"))?;
            FaultSite::glitch(
                id,
                ps(100.0 + 83.0 * i as f64),
                ps(20.0 + 10.0 * (i % 5) as f64),
            )
            .map_err(|e| e.to_string())
        })
        .collect()
}

/// The `fault.w<i>.busy` totals of every worker that ran (a campaign
/// runs at most one worker per fault, so this can be fewer than
/// `--workers`), in report (name) order.
fn busy_totals(report: &ProbeReport) -> Vec<u64> {
    report
        .rows()
        .iter()
        .filter(|r| r.name.starts_with("fault.w") && r.name.ends_with(".busy"))
        .filter_map(|r| match r.value {
            MetricValue::Timer { total_ns, .. } => Some(total_ns),
            _ => None,
        })
        .collect()
}

/// Worker balance from the per-worker busy totals and the campaign's
/// wall time: `(busy_share, imbalance)` = (Σ busy / (workers × wall),
/// max busy / mean busy). A perfectly balanced campaign with no serial
/// part reads `(1, 1)`.
fn worker_balance(busy_ns: &[u64], wall_ns: u64) -> (f64, f64) {
    let workers = busy_ns.len() as f64;
    let total: f64 = busy_ns.iter().map(|&b| b as f64).sum();
    let max = busy_ns.iter().copied().max().unwrap_or(0) as f64;
    (total / (workers * wall_ns as f64), max / (total / workers))
}

fn run_fuzz(args: &Args, iterations: u32) -> Result<(), String> {
    let report = fuzz_differential(&FuzzConfig {
        iterations,
        seed: args.seed,
    })?;
    if args.json {
        let line = format!(
            "{{\"fuzz\":{{\"iterations\":{},\"edges_checked\":{},\"runs_compared\":{},\
             \"faults_compared\":{}}}}}",
            report.iterations, report.edges_checked, report.runs_compared, report.faults_compared
        );
        if !is_wellformed(&line) {
            return Err(format!("internal error: malformed JSON output: {line}"));
        }
        emit(format_args!("{line}\n"));
    } else {
        emit(format_args!(
            "fuzz ok: {} iterations, {} engine runs compared, {} edges checked \
             against faulted STA windows, {} campaign outcomes compared\n",
            report.iterations, report.runs_compared, report.edges_checked, report.faults_compared
        ));
    }
    Ok(())
}

fn run_campaign_cli(args: &Args, file: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("read {file}: {e}"))?;
    let nl = BenchNetlist::parse(&text).map_err(|e| format!("parse {file}: {e}"))?;
    let cells = args.cells.library()?;
    let lowered = nl.lower(&cells).map_err(|e| format!("lowering: {e}"))?;
    let inputs = traffic(lowered.inputs.len())?;

    let mut faults = stuck_at_sites(&lowered.net);
    let stuck = faults.len();
    faults.extend(glitch_sites(&lowered.net, args.glitches)?);

    let probe = Probe::new();
    let sink = if args.trace.is_some() {
        TraceSink::new()
    } else {
        TraceSink::disabled()
    };
    let config = CampaignConfig {
        workers: args.workers,
        budget: RunBudget {
            max_edges: args.max_edges,
        },
    };
    let started = Instant::now();
    let report = run_campaign_traced(
        &lowered.net,
        &lowered.outputs,
        &inputs,
        &faults,
        &config,
        &probe,
        &sink,
    )
    .map_err(|e| format!("campaign: {e}"))?;
    let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    probe
        .counter("fault.report_digest")
        .add(report_digest(&report));
    let snap = probe.report();
    let busy_ns = busy_totals(&snap);
    let (busy_share, imbalance) = worker_balance(&busy_ns, wall_ns);

    if let Some(path) = &args.trace {
        let chrome = sink.snapshot().to_chrome_json();
        if !is_wellformed(&chrome) {
            return Err(format!("internal error: malformed trace JSON for {path}"));
        }
        std::fs::write(path, &chrome).map_err(|e| format!("write {path}: {e}"))?;
        if !args.json {
            emit(format_args!("wrote campaign timeline to {path}\n"));
        }
    }

    if args.json {
        // Compose the file header with the probe object's body; the
        // probe line is `{"probe":{...}}`, so splice past its braces.
        let probe_line = snap.to_json_line();
        let line = format!(
            "{{\"file\":{},\"outputs\":{},\"faults\":{},\"stuck_at\":{},\"glitch\":{},\
             \"detected\":{},\"undetected\":{},\"budget_trips\":{},\"coverage\":{},\
             \"busy_share\":{},\"imbalance\":{},{}",
            json_string(file),
            lowered.outputs.len(),
            report.total(),
            stuck,
            args.glitches,
            report.detected,
            report.total() - report.detected - report.budget_trips,
            report.budget_trips,
            json_f64(report.coverage()),
            json_f64(busy_share),
            json_f64(imbalance),
            &probe_line[1..],
        );
        if !is_wellformed(&line) {
            return Err(format!("internal error: malformed JSON output: {line}"));
        }
        emit(format_args!("{line}\n"));
    } else {
        emit(format_args!(
            "== {file} ({} inputs, {} outputs, {} gates)\n",
            nl.input_count(),
            nl.outputs().len(),
            nl.gate_count()
        ));
        emit(format_args!(
            "faults: {} ({stuck} stuck-at + {} glitch), workers: {}\n",
            report.total(),
            args.glitches,
            busy_ns.len()
        ));
        emit(format_args!(
            "coverage: {:.2}% ({} detected, {} undetected, {} budget-tripped)\n",
            100.0 * report.coverage(),
            report.detected,
            report.total() - report.detected - report.budget_trips,
            report.budget_trips
        ));
        emit(format_args!(
            "workers: busy share {busy_share:.2}, imbalance {imbalance:.2}\n"
        ));
        emit(format_args!("per-output detections:\n"));
        for (k, &id) in lowered.outputs.iter().enumerate() {
            emit(format_args!(
                "  {:<12} {}\n",
                lowered.net.signal_name(id),
                report.per_output[k]
            ));
        }
        let undetected: Vec<String> = report
            .results
            .iter()
            .filter(|r| r.outcome == FaultOutcome::Undetected)
            .map(|r| format!("{}@{}", r.site.kind, lowered.net.signal_name(r.site.signal)))
            .collect();
        if !undetected.is_empty() {
            const SHOW: usize = 12;
            emit(format_args!(
                "undetected ({}): {}{}\n",
                undetected.len(),
                undetected[..undetected.len().min(SHOW)].join(", "),
                if undetected.len() > SHOW { ", ..." } else { "" }
            ));
        }
    }

    check_expect(&snap, &args.expect, &format!("fault_sim: {file}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fault_sim: {e}");
            eprintln!(
                "usage: fault_sim [--json] [--cells hybrid|inertial] [--workers N] \
                 [--glitches N] [--max-edges N] [--trace <out.json>] [--expect k=v,...] \
                 <netlist.bench>"
            );
            eprintln!("       fault_sim --fuzz ITERS [--seed N] [--json]");
            return ExitCode::from(2);
        }
    };
    let result = match (args.fuzz, &args.file) {
        (Some(iterations), _) => run_fuzz(&args, iterations),
        (None, Some(file)) => run_campaign_cli(&args, file),
        (None, None) => unreachable!("parse_args requires a file or --fuzz"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fault_sim: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::worker_balance;

    #[test]
    fn worker_balance_ratios_on_fixed_timers() {
        // Two workers busy the whole 10 ns wall: balanced and saturated.
        assert_eq!(worker_balance(&[10, 10], 10), (1.0, 1.0));
        // 6 + 2 ns busy of 2 × 10 ns: share 0.4, max/mean = 6/4.
        assert_eq!(worker_balance(&[6, 2], 10), (0.4, 1.5));
        // One worker is balanced by definition; share is busy / wall.
        assert_eq!(worker_balance(&[3], 4), (0.75, 1.0));
        // 4 workers, one idle: share 9/(4·5), imbalance 4/(9/4).
        let (share, imbalance) = worker_balance(&[4, 3, 2, 0], 5);
        assert!((share - 0.45).abs() < 1e-12);
        assert!((imbalance - 16.0 / 9.0).abs() < 1e-12);
    }
}
