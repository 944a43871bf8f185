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
//! Tolerance: window containment is checked with 1 fs of absolute
//! slack (`TOL`), absorbing the ~ulp discrepancies between the fp
//! sequences the scheduler and the bound computation execute.

use std::path::PathBuf;
use std::sync::OnceLock;

use mis_analyze::{lint, LintConfig, TimingAnalysis, Window};
use mis_charlib::{CharConfig, CharLib};
use mis_core::NorParams;
use mis_digital::{
    CachedHybridChannel, CachedHybridNandChannel, ExpChannel, GateKind, InertialChannel, Network,
    PureDelayChannel, SumExpChannel, TraceTransform, TwoInputTransform,
};
use mis_sim::{BenchNetlist, CellLibrary, Simulator};
use mis_testkit::prelude::*;
use mis_testkit::rng::TestRng;
use mis_waveform::units::ps;
use mis_waveform::DigitalTrace;

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
/// 3 and 4 are the exact involution channels, which advertise no
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
            SumExpChannel::from_sis_delay(ps(50.0), ps(15.0), 0.7, 3.0).unwrap(),
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
                    Box::new(CachedHybridNandChannel::from_dual(shared_lib()).unwrap())
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
        prop_assert_eq!(ta.input_count(), net.input_count());
        prop_assert_eq!(ta.signal_count(), net.signal_count());
        let windows = ta.arrival_windows(&input_windows(&inputs));
        let mut sim = Simulator::new(&net).expect("engine construction");
        let traces = sim.run(&inputs).expect("engine run");
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
        let mut sim = Simulator::new(&net).expect("engine construction");
        let traces = sim.run(&inputs).expect("run");
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
    let mut sim = Simulator::new(&lowered.net).expect("engine construction");
    let traces = sim.run(&inputs).expect("run");
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
