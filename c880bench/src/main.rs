//! The C880 benchmark: end-to-end host time of the hybrid-delay netlist
//! simulator and, in a separate traced run, where that time goes.
//!
//! ```text
//! c880bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! c880bench/Cargo.toml -- ...`). Workloads, metrics and the layer →
//! end-to-end map are described in `c880bench/README.md`. All load is
//! closed-loop with one client: each operation starts after the
//! previous one returns. The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! give every metric by name with its unit, and the run's environment.
//! Any output mismatch makes the command exit 1.

mod replay;
mod setup;
mod stats;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use mis_fault::{run_campaign, run_campaign_traced, CampaignConfig, CampaignReport};
use mis_probe::json::{is_wellformed, json_string};
use mis_probe::{EventKind, Probe, TraceSink};
use mis_sim::Simulator;
use mis_waveform::TraceArena;

use replay::{KernelTimes, Replay};
use setup::{oracle, outputs_match, Expected, Fixture, Library, SetupTimes};
use stats::{mean, median, sorted, supported_percentile, tail};

/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 21;
/// Stimulus sets the campaign workload cycles through (each needs a
/// one-worker reference report, computed before timing starts).
const CAMPAIGN_SETS: usize = 4;
/// Campaign workers: the machine's CPU count when the benchmark was
/// written, fixed so results do not depend on where it runs.
const CAMPAIGN_WORKERS: usize = 2;
/// Fewest timed campaigns per run, however short `--seconds` is.
const MIN_CAMPAIGNS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    EvalCached,
    EvalInertial,
    Campaign,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "c880-eval-cached" => Ok(Workload::EvalCached),
            "c880-eval-inertial" => Ok(Workload::EvalInertial),
            "c880-campaign" => Ok(Workload::Campaign),
            _ => Err(format!(
                "unknown workload '{name}' (c880-eval-cached | c880-eval-inertial | c880-campaign)"
            )),
        }
    }

    fn library(self) -> Library {
        match self {
            Workload::EvalInertial => Library::Inertial,
            Workload::EvalCached | Workload::Campaign => Library::Cached,
        }
    }
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&name)?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one run reports: the result-line metrics and the tally of
/// checked operations.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// A metric that goes into the result line (and is printed).
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        println!("{name} = {value} {unit}");
        self.metrics.push((name, value, unit));
    }

    /// Counts one checked operation.
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("c880bench: output check failed: {what}");
            }
        }
    }

    fn result_line(&self) -> Result<String, String> {
        let mut fields = Vec::with_capacity(self.metrics.len());
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            fields.push(format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_string(name),
                json_string(unit)
            ));
        }
        let line = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(",")
        );
        if is_wellformed(&line) {
            Ok(line)
        } else {
            Err(format!("internal error: malformed result line {line}"))
        }
    }
}

/// Prints a metric that only the human-readable block carries.
fn note(name: &str, value: impl std::fmt::Display, unit: &str) {
    println!("{name} = {value} {unit}");
}

/// The p99 of ascending `sorted` when at least ten samples lie beyond
/// it; the highest tail the sample does support is printed with it.
fn p99_with_tail(what: &str, sorted: &[f64]) -> Option<f64> {
    if let Some(t) = tail(sorted) {
        println!(
            "# {what}: highest supported tail is the {} = {}",
            t.describe(),
            t.value
        );
    }
    supported_percentile(sorted, 990)
}

/// First line of a command's stdout, or `"unknown"`. The command is
/// waited for.
fn command_line(program: &str, args: &[&str]) -> String {
    let root = setup::repo_root();
    let mut cmd = std::process::Command::new(program);
    cmd.args(args).current_dir(&root);
    // Only the checkout itself may answer `git`, never a repository
    // enclosing it.
    let canonical = root.canonicalize().unwrap_or(root);
    if let Some(parent) = canonical.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The environment record printed with every result.
fn env_record(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let clocksource =
        std::fs::read_to_string("/sys/devices/system/clocksource/clocksource0/current_clocksource")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    format!(
        "{{\"env\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"git_sha\":{},\"rustc\":{},\"clocksource\":{}}}}}",
        json_string(&args.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_string(&command_line("git", &["rev-parse", "HEAD"])),
        json_string(&command_line("rustc", &["--version"])),
        json_string(&clocksource),
    )
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// `SETUP_REPEATS` full set-ups, spread evenly over the timed loop:
/// host speed drifts over seconds, and a burst of set-ups would sample
/// one moment of it where the timed operations average the whole run.
struct SetupSampler {
    library: Library,
    seed: u64,
    /// Seconds of timed loop between two samples (0: take them at once).
    spacing: f64,
    times: Vec<SetupTimes>,
}

impl SetupSampler {
    fn new(library: Library, seed: u64, seconds: f64) -> Self {
        SetupSampler {
            library,
            seed,
            spacing: seconds / SETUP_REPEATS as f64,
            times: Vec::with_capacity(SETUP_REPEATS),
        }
    }

    /// The first set-up, whose fixture the run uses.
    fn first(&mut self) -> Result<Fixture, String> {
        let (fx, t) = Fixture::build(self.library, self.seed)?;
        self.times.push(t);
        Ok(fx)
    }

    /// Takes the next sample once the timed loop has run `elapsed`
    /// seconds past its slot; called between timed operations.
    fn tick(&mut self, elapsed: f64) -> Result<(), String> {
        if self.times.len() < SETUP_REPEATS && elapsed >= self.times.len() as f64 * self.spacing {
            self.times.push(Fixture::build(self.library, self.seed)?.1);
        }
        Ok(())
    }

    /// Every sample, taking any still missing now.
    fn finish(mut self) -> Result<Vec<SetupTimes>, String> {
        while self.times.len() < SETUP_REPEATS {
            self.times.push(Fixture::build(self.library, self.seed)?.1);
        }
        Ok(self.times)
    }
}

fn campaign_config() -> CampaignConfig {
    CampaignConfig {
        workers: CAMPAIGN_WORKERS,
        ..Default::default()
    }
}

/// One-worker reference reports for the first `CAMPAIGN_SETS` pool sets.
fn campaign_references(fx: &Fixture) -> Result<Vec<CampaignReport>, String> {
    fx.pool[..CAMPAIGN_SETS]
        .iter()
        .map(|set| {
            let lo = &fx.lowered;
            run_campaign(
                &lo.net,
                &lo.outputs,
                set,
                &fx.sites,
                &CampaignConfig::default(),
            )
            .map_err(|e| format!("reference campaign: {e}"))
        })
        .collect()
}

fn print_campaign_reference(refs: &[CampaignReport]) {
    let r = &refs[0];
    println!(
        "# campaign reference: {} faults, {} detected, {} budget trips (set 0 of {})",
        r.total(),
        r.detected,
        r.budget_trips,
        refs.len()
    );
}

/// Back-to-back `Simulator::run_in` on a warm arena, cycling the pool.
fn eval_untraced(
    fx: &Fixture,
    expected: &[Expected],
    seconds: f64,
    setups: &mut SetupSampler,
    rep: &mut Report,
) -> Result<(), String> {
    let lo = &fx.lowered;
    let mut sim = Simulator::new(&lo.net).map_err(|e| format!("engine: {e}"))?;
    let mut arena = TraceArena::new();
    for set in &fx.pool {
        sim.run_in(set, &mut arena)
            .map_err(|e| format!("warm-up run: {e}"))?;
    }
    // Sized past any plausible rate up front, so growing the sample
    // vector never reallocates into the peak-RSS reading.
    let mut lat = Vec::with_capacity((seconds * 50_000.0) as usize);
    let mut edges = 0u64;
    let start = Instant::now();
    for k in 0.. {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= seconds {
            break;
        }
        setups.tick(elapsed)?;
        let i = k % fx.pool.len();
        let t0 = Instant::now();
        let run = sim.run_in(black_box(&fx.pool[i]), &mut arena);
        lat.push(t0.elapsed().as_secs_f64());
        let ok = run.is_ok()
            && outputs_match(
                &lo.outputs,
                |id| sim.trace(&arena, id),
                &expected[i].outputs,
            );
        edges += if ok { expected[i].gate_edges } else { 0 };
        rep.check(ok, &format!("eval of stimulus set {i}"));
    }
    let busy: f64 = lat.iter().sum();
    let us: Vec<f64> = sorted(&lat).iter().map(|t| t * 1e6).collect();
    rep.metric("op_us_p50", median(&us), "us");
    rep.metric("runs_per_s", lat.len() as f64 / busy, "1/s");
    note("eval_us_p50", median(&us), "us");
    match p99_with_tail("eval latency (us)", &us) {
        Some(p99) => note(
            "eval_us_p99",
            p99,
            &format!("us (p99 of {} samples)", us.len()),
        ),
        None => note(
            "eval_us_p99",
            "n/a",
            &format!("(only {} samples)", us.len()),
        ),
    }
    note("sim_edges_per_s", edges as f64 / busy, "1/s");
    note("faulty_runs_per_s", "n/a", "(eval workload)");
    note("campaign_ms_p50", "n/a", "(eval workload)");
    Ok(())
}

/// Back-to-back exhaustive stuck-at campaigns, cycling the campaign sets.
fn campaign_untraced(
    fx: &Fixture,
    refs: &[CampaignReport],
    seconds: f64,
    setups: &mut SetupSampler,
    rep: &mut Report,
) -> Result<(), String> {
    let lo = &fx.lowered;
    let config = campaign_config();
    let mut lat = Vec::new();
    let start = Instant::now();
    for k in 0.. {
        let elapsed = start.elapsed().as_secs_f64();
        if k >= MIN_CAMPAIGNS && elapsed >= seconds {
            break;
        }
        setups.tick(elapsed)?;
        let i = k % refs.len();
        let t0 = Instant::now();
        let report = run_campaign(
            &lo.net,
            &lo.outputs,
            black_box(&fx.pool[i]),
            &fx.sites,
            &config,
        );
        lat.push(t0.elapsed().as_secs_f64());
        rep.check(
            report.as_ref() == Ok(&refs[i]),
            &format!("campaign on stimulus set {i}"),
        );
    }
    let busy: f64 = lat.iter().sum();
    let faulty_runs_per_s = (lat.len() * fx.sites.len()) as f64 / busy;
    rep.metric("op_us_p50", median(&lat) * 1e6, "us");
    rep.metric("runs_per_s", faulty_runs_per_s, "1/s");
    note("faulty_runs_per_s", faulty_runs_per_s, "1/s");
    note(
        "campaign_ms_p50",
        median(&lat) * 1e3,
        &format!("ms (of {} campaigns)", lat.len()),
    );
    for name in ["eval_us_p50", "eval_us_p99", "sim_edges_per_s"] {
        note(name, "n/a", "(campaign workload)");
    }
    Ok(())
}

/// The traced eval phase: untraced and traced engines plus the kernel
/// replay, interleaved per stimulus set over whole pool passes.
fn eval_traced(
    fx: &Fixture,
    expected: &[Expected],
    seconds: f64,
    rep: &mut Report,
) -> Result<(), String> {
    let lo = &fx.lowered;
    let net = &lo.net;
    let (probe, sink) = (Probe::new(), TraceSink::new());
    let engine = |e| format!("engine: {e}");
    let mut plain = Simulator::new(net).map_err(engine)?;
    let mut traced = Simulator::new_traced(net, &probe, &sink).map_err(engine)?;
    let mut replay = Replay::new(net);
    let (mut arena, mut traced_arena) = (TraceArena::new(), TraceArena::new());
    let (mut run_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut kernels = KernelTimes::default();
    let start = Instant::now();
    // Pass 0 warms arenas and replay buffers and is left out of the
    // times; counts are per-run averages over whole passes either way.
    for pass in 0.. {
        if pass > 1 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        for (i, set) in fx.pool.iter().enumerate() {
            let want = &expected[i].outputs;
            let t0 = Instant::now();
            let run = plain.run_in(black_box(set), &mut arena);
            let t1 = Instant::now();
            let traced_run = traced.run_in(black_box(set), &mut traced_arena);
            let t2 = Instant::now();
            let ok = run.is_ok() && outputs_match(&lo.outputs, |id| plain.trace(&arena, id), want);
            rep.check(ok, &format!("eval of stimulus set {i}"));
            let ok = traced_run.is_ok()
                && outputs_match(&lo.outputs, |id| traced.trace(&traced_arena, id), want);
            rep.check(ok, &format!("traced eval of stimulus set {i}"));
            let replayed = replay.run(&plain, &arena);
            if let Err(e) = &replayed {
                eprintln!("c880bench: {e}");
            }
            rep.check(
                replayed.is_ok(),
                &format!("kernel replay of stimulus set {i}"),
            );
            if pass > 0 {
                run_s.push((t1 - t0).as_secs_f64());
                traced_s.push((t2 - t1).as_secs_f64());
                kernels.add(&replayed.unwrap_or_default());
            }
        }
    }
    let n = run_s.len() as f64;
    let run_us = mean(&run_s) * 1e6;
    let per_eval = |s: f64| s / n * 1e6;
    let (combine, single, pair) = (
        per_eval(kernels.combine),
        per_eval(kernels.single),
        per_eval(kernels.pair),
    );
    // Self time by difference, so the parts add up to `engine.run_us`
    // exactly; the self-test checks that no part comes out negative.
    let sched = run_us - per_eval(kernels.total());
    let (nc, ns, np) = replay.counts();
    println!(
        "# kernel replay over {n} evals: {nc} combine, {ns} single-input-channel, {np} two-input-channel gates"
    );
    println!(
        "# reconciliation: {combine:.2} + {single:.2} + {pair:.2} + sched {sched:.2} = engine.run_us {run_us:.2}"
    );
    rep.metric("engine.run_us", run_us, "us");
    rep.metric("engine.sched_us", sched, "us");
    rep.metric("gates.combine_us", combine, "us");
    rep.metric("inertial.apply_us", single, "us");
    rep.metric("cached.apply2_us", pair, "us");
    rep.metric(
        "trace.overhead_ratio",
        median(&traced_s) / median(&run_s),
        "ratio",
    );

    let c = traced.counters();
    let runs = c.runs() as f64;
    let count = |name: &str| probe.counter(name).value() as f64 / runs;
    let gate_edges: f64 = ["buf", "not", "and", "or", "nand", "nor", "xor", "mis"]
        .iter()
        .map(|k| count(&format!("sim.edges.{k}")))
        .sum();
    rep.metric(
        "engine.gates_evaluated",
        c.gates_evaluated() as f64 / runs,
        "count",
    );
    rep.metric(
        "engine.events_popped",
        c.events_popped() as f64 / runs,
        "count",
    );
    rep.metric(
        "engine.heap_high_water",
        c.heap_high_water() as f64,
        "count",
    );
    rep.metric("engine.edges", gate_edges, "count");
    rep.metric("cached.table_lookups", count("chan.table_lookups"), "count");
    rep.metric(
        "cached.pending_cancelled",
        count("chan.pending_cancelled"),
        "count",
    );
    rep.metric(
        "inertial.pulse_filtered",
        count("chan.pulse_filtered"),
        "count",
    );
    Ok(())
}

/// The traced campaign phase: `run_campaign_traced` with a fresh probe
/// and sink per campaign, read back from the `sim` and `fault.w<i>`
/// tracks and the per-worker busy timers.
fn campaign_traced(
    fx: &Fixture,
    refs: &[CampaignReport],
    seconds: f64,
    rep: &mut Report,
) -> Result<(), String> {
    let lo = &fx.lowered;
    let config = campaign_config();
    let (mut golden, mut replays, mut share, mut imbalance) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut detected, mut total, mut trips) = (0usize, 0usize, 0usize);
    let start = Instant::now();
    for k in 0.. {
        if k > 0 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let i = k % refs.len();
        let (probe, sink) = (Probe::new(), TraceSink::new());
        let t0 = Instant::now();
        let report = run_campaign_traced(
            &lo.net,
            &lo.outputs,
            &fx.pool[i],
            &fx.sites,
            &config,
            &probe,
            &sink,
        );
        let wall = t0.elapsed().as_secs_f64();
        rep.check(
            report.as_ref() == Ok(&refs[i]),
            &format!("traced campaign on stimulus set {i}"),
        );
        let Ok(report) = report else { continue };
        detected += report.detected;
        total += report.total();
        trips += report.budget_trips;
        let snap = sink.snapshot();
        let spans = |track: &str, kind: EventKind| -> Vec<f64> {
            snap.track(track).map_or_else(Vec::new, |t| {
                t.events
                    .iter()
                    .filter(|e| e.kind == kind)
                    .map(|e| e.duration_ns() as f64 / 1e3)
                    .collect()
            })
        };
        golden.extend(spans("sim", EventKind::Run));
        let busy: Vec<f64> = (0..CAMPAIGN_WORKERS)
            .map(|w| {
                replays.extend(spans(&format!("fault.w{w}"), EventKind::FaultRun));
                probe.timer(&format!("fault.w{w}.busy")).total_ns() as f64 / 1e9
            })
            .collect();
        let busy_sum: f64 = busy.iter().sum();
        share.push(busy_sum / (CAMPAIGN_WORKERS as f64 * wall));
        imbalance.push(busy.iter().copied().fold(0.0, f64::max) / mean(&busy));
    }
    let s = sorted(&replays);
    rep.metric("campaign.golden_us", median(&golden), "us");
    rep.metric("campaign.replay_us_p50", median(&s), "us");
    let p99 =
        p99_with_tail("fault-run latency (us)", &s).ok_or("too few fault runs for a replay p99")?;
    rep.metric("campaign.replay_us_p99", p99, "us");
    rep.metric("campaign.busy_share", median(&share), "ratio");
    rep.metric("campaign.imbalance", median(&imbalance), "ratio");
    rep.metric(
        "campaign.detected_ratio",
        detected as f64 / total.max(1) as f64,
        "ratio",
    );
    rep.metric("campaign.budget_trips", trips as f64, "count");
    Ok(())
}

fn setup_metrics(times: &[SetupTimes], rep: &mut Report) {
    let layer = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>()) * 1e6;
    rep.metric("charlib.load_us", layer(|t| t.charlib_load), "us");
    rep.metric("cells.build_us", layer(|t| t.cells_build), "us");
    rep.metric("bench.parse_us", layer(|t| t.bench_parse), "us");
    rep.metric("bench.lower_us", layer(|t| t.bench_lower), "us");
    rep.metric("engine.build_us", layer(|t| t.engine_build), "us");
    rep.metric("stimulus.generate_us", layer(|t| t.stimulus), "us");
    rep.metric("site.enumerate_us", layer(|t| t.site_enumerate), "us");
}

fn run(args: &Args) -> Result<Report, String> {
    let mut rep = Report::default();
    let library = args.workload.library();
    let campaign = args.workload == Workload::Campaign;
    let mut setups = SetupSampler::new(library, args.seed, args.seconds);
    let fx = setups.first()?;
    println!(
        "== {} seed {} ({} s, trace {})",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", env_record(args));
    if args.trace {
        let expected = oracle(library, &fx.pool)?;
        let refs = campaign_references(&fx)?;
        print_campaign_reference(&refs);
        setup_metrics(&setups.finish()?, &mut rep);
        eval_traced(&fx, &expected, args.seconds / 2.0, &mut rep)?;
        campaign_traced(&fx, &refs, args.seconds / 2.0, &mut rep)?;
        return Ok(rep);
    }
    if campaign {
        let refs = campaign_references(&fx)?;
        print_campaign_reference(&refs);
        campaign_untraced(&fx, &refs, args.seconds, &mut setups, &mut rep)?;
    } else {
        let expected = oracle(library, &fx.pool)?;
        eval_untraced(&fx, &expected, args.seconds, &mut setups, &mut rep)?;
    }
    let totals: Vec<f64> = setups.finish()?.iter().map(|t| t.total(campaign)).collect();
    rep.metric("setup_s", median(&totals), "s");
    rep.metric("peak_rss_mb", peak_rss_mb()?, "MiB");
    let failed_ratio = rep.failed as f64 / rep.attempted.max(1) as f64;
    note(
        "failed_ratio",
        failed_ratio,
        &format!("({} of {} operations)", rep.failed, rep.attempted),
    );
    Ok(rep)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("c880bench: {e}");
            eprintln!("usage: c880bench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let rep = match run(&args) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("c880bench: {e}");
            return ExitCode::from(1);
        }
    };
    match rep.result_line() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("c880bench: {e}");
            return ExitCode::from(1);
        }
    }
    if rep.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(rep: &Report, name: &str) -> f64 {
        rep.metrics
            .iter()
            .find(|m| m.0 == name)
            .map(|m| m.1)
            .unwrap_or_else(|| panic!("metric {name} missing"))
    }

    #[test]
    fn kernel_sums_and_sched_reconcile_to_engine_run() {
        for library in [Library::Cached, Library::Inertial] {
            let (fx, _) = Fixture::build(library, 3).unwrap();
            let expected = oracle(library, &fx.pool).unwrap();
            let mut rep = Report::default();
            eval_traced(&fx, &expected, 0.0, &mut rep).unwrap();
            assert_eq!(rep.failed, 0, "{library:?}: replay or eval mismatch");
            let parts = [
                "gates.combine_us",
                "inertial.apply_us",
                "cached.apply2_us",
                "engine.sched_us",
            ]
            .map(|n| metric(&rep, n));
            let run = metric(&rep, "engine.run_us");
            let sum: f64 = parts.iter().sum();
            assert!(
                (sum - run).abs() <= 1e-9 * run,
                "{library:?}: {parts:?} vs {run}"
            );
            // The replay must not cost more than the engine run it was
            // taken from, or the self time would be negative.
            assert!(parts.iter().all(|&p| p >= 0.0), "{library:?}: {parts:?}");
        }
    }
}
