//! Profiles one `.bench` netlist through the probed engine
//! and prints the instrumentation report — the CLI front of `mis-probe`
//! and the count-pinning gate CI runs over the committed fixtures.
//!
//! The netlist is lowered under the committed characterized cell
//! library (the same realization `lint_bench` and the benches use),
//! driven once with deterministic local-assignment traffic
//! (seed base `0x5eed`), and the probe registry snapshot is printed as
//! a text table — or, under `--json`, as one machine-readable line the
//! binary validates against `mis_probe::json::is_wellformed` before
//! printing, so a broken renderer fails the run instead of feeding
//! garbage downstream.
//!
//! Usage:
//!
//! ```text
//! sim_profile [--json] [--vcd <out.vcd>] [--trace <out.json>]
//!             [--expect k=v,...] <netlist.bench>
//! ```
//!
//! `--vcd` additionally dumps every named (non-synthetic) signal's
//! simulated trace as an IEEE-1364 VCD file for waveform viewers.
//! `--trace` runs the engine with a live `mis_probe::TraceSink`, writes
//! the captured timeline as checker-validated Chrome Trace Format JSON
//! (loadable by `chrome://tracing` / Perfetto), and joins the gate
//! spans against `mis_analyze` topological levels — the per-level
//! attribution table in text mode, `level.L<n>.eval_ns` histograms in
//! the probe report either way.
//! `--expect` compares named counter/gauge scalars against pinned
//! values (comma-separated `metric=value` pairs) and fails on any
//! drift — the mechanism behind CI's frozen per-fixture event counts.
//!
//! Exit code 1 on simulation, validation, or expectation failure; 2 on
//! usage errors.

use std::process::ExitCode;

use mis_analyze::{attribute_levels, TimingAnalysis};
use mis_bench::emit;
use mis_bench::netlist::{committed_cells, traffic};
use mis_probe::json::{is_wellformed, json_string};
use mis_probe::vcd::{write_vcd, VcdSignal};
use mis_probe::{Probe, TraceSink};
use mis_sim::{BenchNetlist, Simulator};
use mis_waveform::TraceArena;

/// Parsed `--expect` pairs: metric name and pinned scalar.
fn parse_expect(spec: &str) -> Result<Vec<(String, u64)>, String> {
    spec.split(',')
        .map(|pair| {
            let (name, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("--expect pair '{pair}' is not metric=value"))?;
            let value: u64 = value
                .parse()
                .map_err(|e| format!("--expect value in '{pair}': {e}"))?;
            Ok((name.to_string(), value))
        })
        .collect()
}

struct Args {
    json: bool,
    vcd: Option<String>,
    trace: Option<String>,
    expect: Vec<(String, u64)>,
    file: String,
}

fn parse_args() -> Result<Args, String> {
    let mut json = false;
    let mut vcd = None;
    let mut trace = None;
    let mut expect = Vec::new();
    let mut files = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--vcd" => {
                vcd = Some(argv.next().ok_or("--vcd needs an output path")?);
            }
            "--trace" => {
                trace = Some(argv.next().ok_or("--trace needs an output path")?);
            }
            "--expect" => {
                let spec = argv.next().ok_or("--expect needs metric=value,...")?;
                expect.extend(parse_expect(&spec)?);
            }
            _ if arg.starts_with("--") => return Err(format!("unknown flag '{arg}'")),
            _ => files.push(arg),
        }
    }
    match <[String; 1]>::try_from(files) {
        Ok([file]) => Ok(Args {
            json,
            vcd,
            trace,
            expect,
            file,
        }),
        Err(_) => Err("expected exactly one <netlist.bench>".to_string()),
    }
}

fn run(args: &Args) -> Result<(), String> {
    let text =
        std::fs::read_to_string(&args.file).map_err(|e| format!("read {}: {e}", args.file))?;
    let nl = BenchNetlist::parse(&text).map_err(|e| format!("parse {}: {e}", args.file))?;
    let cells = committed_cells()?;
    let lowered = nl.lower(&cells).map_err(|e| format!("lowering: {e}"))?;
    let inputs = traffic(lowered.inputs.len())?;

    let probe = Probe::new();
    let sink = if args.trace.is_some() {
        TraceSink::new()
    } else {
        TraceSink::disabled()
    };
    let mut sim =
        Simulator::new_traced(&lowered.net, &probe, &sink).map_err(|e| format!("engine: {e}"))?;
    let mut arena = TraceArena::new();
    sim.run_in(&inputs, &mut arena)
        .map_err(|e| format!("simulation: {e}"))?;

    // The timeline export and the per-level join come before the probe
    // snapshot so the `level.L<n>.eval_ns` histograms land in the
    // report alongside the engine counters.
    let attribution = args.trace.as_ref().map(|path| {
        let snap = sink.snapshot();
        let chrome = snap.to_chrome_json();
        if !is_wellformed(&chrome) {
            return Err(format!("internal error: malformed trace JSON for {path}"));
        }
        std::fs::write(path, &chrome).map_err(|e| format!("write {path}: {e}"))?;
        let ta = TimingAnalysis::new(&lowered.net);
        Ok(attribute_levels(ta.levels(), &snap, &probe))
    });
    let attribution = attribution.transpose()?;

    let report = probe.report();
    if args.json {
        // Compose the file header with the probe object's body; the
        // probe line is `{"probe":{...}}`, so splice past its braces.
        let probe_line = report.to_json_line();
        let line = format!(
            "{{\"file\":{},\"inputs\":{},\"outputs\":{},\"gates\":{},{}",
            json_string(&args.file),
            nl.inputs().len(),
            nl.outputs().len(),
            nl.gates().len(),
            &probe_line[1..],
        );
        if !is_wellformed(&line) {
            return Err(format!("internal error: malformed JSON output: {line}"));
        }
        emit(format_args!("{line}\n"));
    } else {
        emit(format_args!(
            "== {} ({} inputs, {} outputs, {} gates)\n",
            args.file,
            nl.inputs().len(),
            nl.outputs().len(),
            nl.gates().len()
        ));
        emit(format_args!("{report}"));
        if let Some(attr) = &attribution {
            emit(format_args!("per-level attribution:\n{attr}\n"));
        }
    }

    if let Some(path) = &args.vcd {
        let net = &lowered.net;
        let ids: Vec<_> = (0..net.signal_count())
            .map(|s| net.signal_id(s).expect("s < signal_count"))
            .filter(|&id| !net.signal_name(id).contains('#'))
            .collect();
        let signals: Vec<VcdSignal<'_>> = ids
            .iter()
            .map(|&id| VcdSignal {
                name: net.signal_name(id),
                trace: sim.trace(&arena, id),
            })
            .collect();
        let mut out = Vec::new();
        write_vcd(&mut out, &signals).map_err(|e| format!("vcd export: {e}"))?;
        std::fs::write(path, &out).map_err(|e| format!("write {path}: {e}"))?;
        if !args.json {
            emit(format_args!("wrote {} signals to {path}\n", signals.len()));
        }
    }

    let mut drifted = false;
    for (name, want) in &args.expect {
        let got = report.get(name).and_then(mis_probe::MetricValue::scalar);
        if got != Some(*want) {
            eprintln!(
                "sim_profile: {}: expected {name}={want}, got {}",
                args.file,
                got.map_or("<missing>".to_string(), |v| v.to_string())
            );
            drifted = true;
        }
    }
    if drifted {
        return Err("pinned metric expectations failed".to_string());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sim_profile: {e}");
            eprintln!(
                "usage: sim_profile [--json] [--vcd <out.vcd>] [--trace <out.json>] \
                 [--expect k=v,...] <netlist.bench>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sim_profile: {e}");
            ExitCode::from(1)
        }
    }
}
