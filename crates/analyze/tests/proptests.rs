//! Property-based tests for `mis-analyze`: the **soundness** guarantee.
//!
//! Static timing promises that every transition the dynamic engine
//! emits on a signal lands inside that signal's statically computed
//! arrival window. This suite enforces the promise two ways:
//!
//! * randomized feed-forward DAGs over *every* channel kind (zero-time,
//!   pure, inertial, exact involution — which is unbounded — and cached
//!   hybrid NOR/NAND), with grid-aligned stimuli that include empty
//!   traces and exactly-simultaneous edges;
//! * the committed ISCAS fixtures (C17, C432, C880) under the ideal,
//!   inertial and characterized-hybrid cell libraries.
//!
//! The linter is held to a name-based reference: on random `.bench`
//! texts full of findings and on the committed fixtures, [`lint`]
//! reports exactly what the string-set formulation reports.
//!
//! Tolerance: window containment is checked with 1 fs of absolute
//! slack (`TOL`), absorbing the ~ulp discrepancies between the fp
//! sequences the scheduler and the bound computation execute.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::OnceLock;

use mis_analyze::{lint, DiagCode, Diagnostic, LintConfig, LintReport, TimingAnalysis, Window};
use mis_charlib::{CharConfig, CharLib};
use mis_core::NorParams;
use mis_digital::{
    CachedHybridChannel, ExpChannel, GateKind, InertialChannel, NandChannel, Network,
    PureDelayChannel, TraceTransform, TwoInputTransform,
};
use mis_sim::{BenchFunc, BenchNetlist, CellLibrary, Simulator};
use mis_testkit::prelude::*;
use mis_testkit::rng::TestRng;
use mis_waveform::units::ps;
use mis_waveform::{DigitalTrace, TraceArena};

const CASES: u32 = 48;

/// Absolute containment slack: 1 fs, far above the ~ulp rounding
/// differences between the scheduler's and the analyzer's arithmetic,
/// far below the 5 ps stimulus grid.
const TOL: f64 = 1e-15;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Characterized NOR library (quick config — soundness compares the
/// *same* channel objects' bounds against their own dynamic behavior,
/// so the characterization budget is irrelevant).
fn shared_lib() -> &'static CharLib {
    static LIB: OnceLock<CharLib> = OnceLock::new();
    LIB.get_or_init(|| {
        CharLib::nor(&NorParams::paper_table1(), &CharConfig::quick()).expect("characterization")
    })
}

/// Random trace on a 5 ps grid, empty traces included (same generator
/// shape as the mis-sim bit-identity suite, so the two properties
/// exercise the same stimulus space).
fn grid_trace(rng: &mut TestRng, max_edges: u64) -> DigitalTrace {
    let n = rng.gen_u64_below(max_edges + 1);
    let init = rng.gen_bool(0.5);
    let mut trace = DigitalTrace::constant(init);
    let mut ticks: u64 = 0;
    let mut v = init;
    for _ in 0..n {
        ticks += 1 + rng.gen_u64_below(40);
        v = !v;
        trace
            .push_edge(ps(100.0) + ticks as f64 * ps(5.0), v)
            .expect("monotone");
    }
    trace
}

/// Channel palette index → fresh channel (`None` = zero-time). Palette
/// 3 and 4 are exact involution channels (an asymmetric and a symmetric
/// `ExpChannel`), which advertise no
/// [`mis_digital::DelayBounds`] — their windows must come out unbounded
/// and the property holds vacuously for them.
fn spec_channel(ch: usize) -> Option<Box<dyn TraceTransform>> {
    match ch {
        0 => None,
        1 => Some(Box::new(PureDelayChannel::new(ps(7.0)).unwrap())),
        2 => Some(Box::new(
            InertialChannel::symmetric(ps(40.0), ps(30.0)).unwrap(),
        )),
        3 => Some(Box::new(
            ExpChannel::from_sis_delays(ps(50.0), ps(38.0), ps(15.0)).unwrap(),
        )),
        _ => Some(Box::new(
            ExpChannel::from_sis_delays(ps(50.0), ps(50.0), ps(15.0)).unwrap(),
        )),
    }
}

/// Random feed-forward network over every channel kind, mirroring the
/// mis-sim generator: unary and binary gates with optional channels,
/// plus cached hybrid NOR/NAND two-input channel gates.
fn random_network(rng: &mut TestRng) -> Network {
    const BINARY: [GateKind; 5] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
    ];
    let n_inputs = 1 + rng.gen_u64_below(3) as usize;
    let n_gates = 1 + rng.gen_u64_below(8) as usize;
    let mut net = Network::new();
    let mut ids = Vec::new();
    for i in 0..n_inputs {
        ids.push(net.add_input(&format!("in{i}")));
    }
    for g in 0..n_gates {
        let name = format!("g{g}");
        let pick = |rng: &mut TestRng| ids[rng.gen_u64_below(ids.len() as u64) as usize];
        let id = match rng.gen_u64_below(4) {
            0 => {
                let kind = if rng.gen_bool(0.5) {
                    GateKind::Not
                } else {
                    GateKind::Buf
                };
                let src = pick(rng);
                net.add_gate(
                    &name,
                    kind,
                    &[src],
                    spec_channel(rng.gen_u64_below(5) as usize),
                )
                .unwrap()
            }
            1 | 2 => {
                let kind = BINARY[rng.gen_u64_below(5) as usize];
                let (a, b) = (pick(rng), pick(rng));
                net.add_gate(
                    &name,
                    kind,
                    &[a, b],
                    spec_channel(rng.gen_u64_below(5) as usize),
                )
                .unwrap()
            }
            _ => {
                let channel: Box<dyn TwoInputTransform> = if rng.gen_bool(0.5) {
                    Box::new(NandChannel::new(
                        CachedHybridChannel::new(shared_lib()).unwrap(),
                    ))
                } else {
                    Box::new(CachedHybridChannel::new(shared_lib()).unwrap())
                };
                let (a, b) = (pick(rng), pick(rng));
                net.add_two_input_channel_gate(&name, [a, b], channel)
                    .unwrap()
            }
        };
        ids.push(id);
    }
    net
}

/// A trace's edge times, for window construction and containment.
fn edge_times(trace: &DigitalTrace) -> Vec<f64> {
    trace.edges().iter().map(|e| e.time).collect()
}

/// Every signal's trace after one engine run, in signal order.
fn engine_traces(net: &Network, inputs: &[DigitalTrace]) -> Vec<DigitalTrace> {
    let mut sim = Simulator::new(net).expect("engine construction");
    let mut arena = TraceArena::new();
    sim.run_in(inputs, &mut arena).expect("engine run");
    (0..arena.trace_count())
        .map(|s| arena.trace(s).to_trace())
        .collect()
}

/// Input windows straight from the stimulus: the tightest interval
/// holding each trace's edge times ([`Window::EMPTY`] for constants).
fn input_windows(inputs: &[DigitalTrace]) -> Vec<Window> {
    inputs
        .iter()
        .map(|t| Window::from_edge_times(&edge_times(t)))
        .collect()
}

/// Asserts every edge of every simulated signal lands inside its
/// statically computed window. `traces` is one trace per signal,
/// indexable by signal index (the engines' output convention).
fn assert_sound(net: &Network, windows: &[Window], traces: &[DigitalTrace], context: &str) {
    assert_eq!(windows.len(), traces.len());
    for (s, (w, trace)) in windows.iter().zip(traces).enumerate() {
        for t in edge_times(trace) {
            assert!(
                w.contains(t, TOL),
                "{context}: signal {s} ('{}') has an edge at {:.6} ps outside \
                 its static window {w}",
                net.signal_name(net.signal_id(s).unwrap()),
                t / 1e-12,
            );
        }
    }
}

#[test]
fn windows_contain_event_engine_edges_on_random_dags() {
    // The core soundness property: random wiring, every channel kind,
    // empty traces and simultaneous edges included.
    Config::with_cases(CASES).run(&(0u64..u64::MAX), |&seed| {
        let mut rng = TestRng::seed_from_u64(seed);
        let net = random_network(&mut rng);
        let inputs: Vec<DigitalTrace> = (0..net.input_count())
            .map(|_| grid_trace(&mut rng, 8))
            .collect();
        let ta = TimingAnalysis::new(&net);
        let windows = ta.arrival_windows(&input_windows(&inputs));
        let traces = engine_traces(&net, &inputs);
        assert_sound(&net, &windows, &traces, &format!("seed {seed}"));
        Ok(())
    });
}

#[test]
fn quiet_inputs_produce_quiet_windows_and_quiet_traces() {
    // Quiescence, both ways: constant stimulus means every window is
    // empty AND the engine emits no edges — the static and dynamic
    // pictures agree exactly, not just by containment.
    Config::with_cases(CASES).run(&(0u64..u64::MAX), |&seed| {
        let mut rng = TestRng::seed_from_u64(seed);
        let net = random_network(&mut rng);
        let inputs: Vec<DigitalTrace> = (0..net.input_count())
            .map(|_| DigitalTrace::constant(rng.gen_bool(0.5)))
            .collect();
        let windows = TimingAnalysis::new(&net).arrival_windows(&input_windows(&inputs));
        prop_assert!(windows.iter().all(Window::is_empty));
        let traces = engine_traces(&net, &inputs);
        prop_assert!(traces.iter().all(|t| t.edges().is_empty()));
        Ok(())
    });
}

/// Loads a committed fixture and checks soundness under one cell
/// library.
fn assert_fixture_sound(file: &str, cells: &CellLibrary, context: &str) {
    let path = workspace_root().join("data/bench").join(file);
    let text = std::fs::read_to_string(&path).expect("committed fixture");
    let nl = BenchNetlist::parse(&text).expect("fixture parses");
    let report = lint(&nl, &LintConfig::default());
    assert!(
        report.is_clean(),
        "{file}: committed fixture must lint clean, got:\n{report}"
    );
    let lowered = nl.lower(cells).expect("fixture lowers");
    let ta = TimingAnalysis::new(&lowered.net);
    let mut rng = TestRng::seed_from_u64(0xA11A);
    let inputs: Vec<DigitalTrace> = (0..lowered.net.input_count())
        .map(|_| grid_trace(&mut rng, 4))
        .collect();
    let windows = ta.arrival_windows(&input_windows(&inputs));
    let traces = engine_traces(&lowered.net, &inputs);
    assert_sound(&lowered.net, &windows, &traces, context);
    // The report is well-formed: finite critical path under bounded
    // libraries, level census sums to the signal count.
    let timing = ta.report(&lowered.outputs);
    assert_eq!(
        timing.level_census.iter().sum::<usize>(),
        lowered.net.signal_count()
    );
    assert_eq!(timing.unbounded, 0, "{context}: all channels are bounded");
    assert!(
        !timing.critical_path.is_empty(),
        "{context}: bounded library must yield a critical path"
    );
}

#[test]
fn fixtures_are_sound_under_every_cell_library() {
    let hybrid = CellLibrary::hybrid(
        shared_lib(),
        Some(InertialChannel::symmetric(ps(50.0), ps(38.0)).unwrap()),
    )
    .expect("hybrid library");
    let libraries: [(&str, CellLibrary); 3] = [
        ("ideal", CellLibrary::ideal()),
        (
            "inertial",
            CellLibrary::inertial(InertialChannel::symmetric(ps(40.0), ps(30.0)).unwrap()),
        ),
        ("hybrid", hybrid),
    ];
    for file in ["c17.bench", "c432.bench", "c880.bench"] {
        for (label, cells) in &libraries {
            assert_fixture_sound(file, cells, &format!("{file} under {label} cells"));
        }
    }
}

#[test]
fn unbounded_channels_surface_as_unbounded_windows() {
    // A gate behind an exact involution channel gets the vacuous
    // window — soundness must not silently claim finite bounds there.
    let mut net = Network::new();
    let a = net.add_input("a");
    let y = net
        .add_gate(
            "y",
            GateKind::Not,
            &[a],
            Some(Box::new(
                ExpChannel::from_sis_delays(ps(50.0), ps(38.0), ps(15.0)).unwrap(),
            )),
        )
        .unwrap();
    let ta = TimingAnalysis::new(&net);
    let w = ta.arrival_windows(&[Window::instant(ps(100.0))]);
    assert!(w[y.index()].is_unbounded());
    let report = ta.report(&[y]);
    assert_eq!(report.unbounded, 1);
    assert!(
        report.critical_path.is_empty(),
        "no finite output arrival to backtrack"
    );
}

/// The linter as it was written over names: string sets for the read,
/// exported and input names, a name → gate map for the dead-gate walk.
/// Kept as the oracle for the index-based [`lint`]. `A007`, a size
/// check that reads no names, is left out: no test netlist comes near
/// the index width.
fn reference_lint(nl: &BenchNetlist, config: &LintConfig) -> LintReport {
    let ni = nl.input_count();
    let input_names: Vec<&str> = (0..ni).map(|d| nl.name(d)).collect();
    let output_names: Vec<&str> = nl.outputs().iter().map(|&d| nl.name(d)).collect();
    let gates: Vec<(&str, BenchFunc, Vec<&str>)> = (0..nl.gate_count())
        .map(|g| {
            let ops = nl.operands(g).iter().map(|&d| nl.name(d)).collect();
            (nl.name(ni + g), nl.func(g), ops)
        })
        .collect();
    let mut out: Vec<Diagnostic> = Vec::new();
    let outputs: HashSet<&str> = output_names.iter().copied().collect();
    let inputs: HashSet<&str> = input_names.iter().copied().collect();
    let read: HashSet<&str> = gates.iter().flat_map(|g| g.2.iter().copied()).collect();
    let finding = |code, line, name: &str, message| Diagnostic {
        code,
        line,
        signal: Some(name.to_owned()),
        message,
    };
    for (&name, &line) in input_names.iter().zip(nl.input_lines()) {
        if !read.contains(name) && !outputs.contains(name) {
            let message = format!("input '{name}' is never read by a gate nor exported");
            out.push(finding(DiagCode::UnusedSignal, line, name, message));
        }
    }
    for (g, &line) in gates.iter().zip(nl.gate_lines()) {
        if !read.contains(g.0) && !outputs.contains(g.0) {
            let message = format!("gate output '{}' is never read nor exported", g.0);
            out.push(finding(DiagCode::UnusedSignal, line, g.0, message));
        }
    }
    for (&name, &line) in output_names.iter().zip(nl.output_lines()) {
        if inputs.contains(name) {
            let message = format!(
                "output '{name}' is a primary input: no gate drives it, it only \
                 echoes the input"
            );
            out.push(finding(DiagCode::OutputWithoutCone, line, name, message));
        }
    }
    for ((name, func, ops), &line) in gates.iter().zip(nl.gate_lines()) {
        let mut seen: HashSet<&str> = HashSet::new();
        let mut dup: Option<&str> = None;
        for &op in ops {
            if !seen.insert(op) && dup.is_none() {
                dup = Some(op);
            }
        }
        if let Some(d) = dup {
            let message = format!("gate '{name}' lists operand '{d}' more than once");
            out.push(finding(DiagCode::DuplicateOperand, line, name, message));
        }
        if seen.len() == 1 && !func.is_unary() {
            let message = format!(
                "gate '{name}' = {}({}, ...) reduces to a constant or a copy of its \
                 single distinct operand",
                func.name(),
                ops[0]
            );
            out.push(finding(DiagCode::ConstantFoldableGate, line, name, message));
        }
        if ops.len() > config.max_fan_in {
            let message = format!(
                "gate '{name}' has fan-in {} (limit {}): the delay model covers the \
                 timed root cell, not a reduction tree this deep",
                ops.len(),
                config.max_fan_in
            );
            out.push(finding(DiagCode::ExcessiveFanIn, line, name, message));
        }
    }
    let gate_of: HashMap<&str, usize> = gates.iter().enumerate().map(|(i, g)| (g.0, i)).collect();
    let mut alive: HashSet<&str> = HashSet::new();
    let mut stack: Vec<&str> = output_names.clone();
    while let Some(name) = stack.pop() {
        if alive.insert(name) {
            if let Some(&gi) = gate_of.get(name) {
                stack.extend(gates[gi].2.iter().copied());
            }
        }
    }
    for (g, &line) in gates.iter().zip(nl.gate_lines()) {
        if !alive.contains(g.0) {
            let message = format!(
                "gate '{}' feeds no OUTPUT: it is simulated but unobservable",
                g.0
            );
            out.push(finding(DiagCode::DeadGate, line, g.0, message));
        }
    }
    LintReport::new(out)
}

/// Random `.bench` text built to trip every warning: inputs left
/// unread, operands listed twice, gates over one distinct operand,
/// gates outside every output cone, fan-ins above the limit, and
/// `OUTPUT`s naming inputs. Gates may be written against dependency
/// order and `OUTPUT`s before or after them.
fn findings_bench(rng: &mut TestRng) -> String {
    const FUNCS: [BenchFunc; 8] = [
        BenchFunc::And,
        BenchFunc::Or,
        BenchFunc::Nand,
        BenchFunc::Nor,
        BenchFunc::Xor,
        BenchFunc::Xnor,
        BenchFunc::Not,
        BenchFunc::Buff,
    ];
    let n_inputs = 1 + rng.gen_u64_below(5) as usize;
    let mut defined: Vec<String> = (0..n_inputs).map(|i| format!("i{i}")).collect();
    let mut gates = Vec::new();
    for g in 0..1 + rng.gen_u64_below(12) {
        let func = FUNCS[rng.gen_u64_below(8) as usize];
        let arity = if func.is_unary() {
            1
        } else if rng.gen_bool(0.15) {
            17 + rng.gen_u64_below(4) as usize
        } else {
            2 + rng.gen_u64_below(3) as usize
        };
        let fold = rng.gen_bool(0.1);
        let mut ops: Vec<String> = Vec::with_capacity(arity);
        for k in 0..arity {
            let op = if k > 0 && (fold || rng.gen_bool(0.2)) {
                ops[rng.gen_u64_below(k as u64) as usize].clone()
            } else {
                defined[rng.gen_u64_below(defined.len() as u64) as usize].clone()
            };
            ops.push(op);
        }
        gates.push(format!("g{g} = {}({})\n", func.name(), ops.join(", ")));
        defined.push(format!("g{g}"));
    }
    if rng.gen_bool(0.5) {
        gates.reverse();
    }
    let outputs: String = (0..rng.gen_u64_below(4))
        .map(|_| {
            let name = &defined[rng.gen_u64_below(defined.len() as u64) as usize];
            format!("OUTPUT({name})\n")
        })
        .collect();
    let mut text: String = (0..n_inputs).map(|i| format!("INPUT(i{i})\n")).collect();
    let gates = gates.concat();
    if rng.gen_bool(0.5) {
        text += &outputs;
        text += &gates;
    } else {
        text += &gates;
        text += &outputs;
    }
    text
}

#[test]
fn lint_matches_the_name_based_reference_on_random_netlists() {
    Config::with_cases(CASES * 4).run(&(0u64..u64::MAX), |&seed| {
        let mut rng = TestRng::seed_from_u64(seed);
        let text = findings_bench(&mut rng);
        let nl = BenchNetlist::parse(&text).expect("generator emits valid netlists");
        let config = LintConfig {
            max_fan_in: 2 + rng.gen_u64_below(20) as usize,
        };
        prop_assert_eq!(
            lint(&nl, &config),
            reference_lint(&nl, &config),
            "seed {seed}:\n{text}"
        );
        Ok(())
    });
}

#[test]
fn lint_matches_the_name_based_reference_on_the_fixtures() {
    for file in ["c17.bench", "c432.bench", "c880.bench"] {
        let text = std::fs::read_to_string(workspace_root().join("data/bench").join(file))
            .expect("committed fixture");
        let nl = BenchNetlist::parse(&text).expect("fixture parses");
        for max_fan_in in [2, 4, 16] {
            let config = LintConfig { max_fan_in };
            assert_eq!(
                lint(&nl, &config),
                reference_lint(&nl, &config),
                "{file}, fan-in limit {max_fan_in}"
            );
        }
    }
}
