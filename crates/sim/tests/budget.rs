//! Boundary behavior of [`RunBudget`] on the engine, against the
//! committed fixtures: the budget trips strictly *past* its limit
//! (exactly-enough succeeds, one-less errors), a zero budget trips on
//! the first unit of work, a tripped run leaves the engine and arena fully
//! reusable, below-budget runs stay bit-identical to unbudgeted ones,
//! and a tripped run publishes no metric.

use std::path::PathBuf;

use mis_charlib::CharLib;
use mis_digital::{InertialChannel, SimError};
use mis_probe::{MetricValue, Probe, ProbeReport, TraceSink};
use mis_sim::{BenchNetlist, CellLibrary, LoweredNetlist, RunBudget, Simulator};
use mis_waveform::generate::netlist_traffic;
use mis_waveform::units::ps;
use mis_waveform::{DigitalTrace, TraceArena};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn committed_lib() -> CharLib {
    let lib_text = std::fs::read_to_string(workspace_root().join("data/charlib/nor_paper.mislib"))
        .expect("committed NOR library");
    CharLib::from_text(&lib_text).expect("library parses")
}

fn lowered(name: &str) -> LoweredNetlist {
    let text =
        std::fs::read_to_string(workspace_root().join("data/bench").join(name)).expect("fixture");
    let nl = BenchNetlist::parse(&text).expect("fixture parses");
    let cells = CellLibrary::hybrid(
        &committed_lib(),
        Some(InertialChannel::symmetric(ps(50.0), ps(38.0)).expect("channel")),
    )
    .expect("cell library");
    nl.lower(&cells).expect("lowering")
}

fn traffic(n: usize, seed: u64) -> Vec<DigitalTrace> {
    netlist_traffic(n, seed).expect("trace generation")
}

/// What one unbudgeted run of `name` emits: gate-output edges, measured
/// the same way the meter charges them — the sealed trace length per
/// evaluated gate (inputs are caller data and free).
fn run_edges(name: &str, seed: u64) -> u64 {
    let lowered = lowered(name);
    let inputs = traffic(lowered.inputs.len(), seed);
    let mut sim = Simulator::new(&lowered.net).expect("engine");
    let mut arena = TraceArena::new();
    sim.run_in(&inputs, &mut arena).expect("unbudgeted run");
    (0..lowered.net.signal_count())
        .filter_map(|s| lowered.net.signal_id(s))
        .filter(|id| !lowered.inputs.contains(id))
        .map(|id| sim.trace(&arena, id).len() as u64)
        .sum()
}

#[test]
fn exact_edge_budget_passes_and_one_less_trips() {
    for (file, seed) in [("c17.bench", 0xC17), ("c432.bench", 0x432)] {
        let edges = run_edges(file, seed);
        let lowered = lowered(file);
        let inputs = traffic(lowered.inputs.len(), seed);
        let mut sim = Simulator::new(&lowered.net).expect("engine");
        let mut arena = TraceArena::new();
        sim.run_controlled_in(
            &inputs,
            &mut arena,
            &RunBudget::UNLIMITED.with_max_edges(edges),
            None,
        )
        .expect("exactly-enough edge budget must succeed");
        match sim.run_controlled_in(
            &inputs,
            &mut arena,
            &RunBudget::UNLIMITED.with_max_edges(edges - 1),
            None,
        ) {
            Err(SimError::BudgetExceeded { limit }) => assert_eq!(limit, edges - 1, "{file}"),
            other => panic!("{file}: one-less edge budget returned {other:?}"),
        }
    }
}

#[test]
fn zero_budgets_trip_on_the_first_unit_of_work() {
    let lowered = lowered("c17.bench");
    let inputs = traffic(lowered.inputs.len(), 0xC17);
    let mut arena = TraceArena::new();
    let mut sim = Simulator::new(&lowered.net).expect("engine");
    let budget = RunBudget::UNLIMITED.with_max_edges(0);
    match sim.run_controlled_in(&inputs, &mut arena, &budget, None) {
        Err(SimError::BudgetExceeded { limit: 0 }) => {}
        other => panic!("zero edge budget returned {other:?}"),
    }
}

#[test]
fn a_tripped_run_leaves_engine_and_arena_reusable() {
    let lowered = lowered("c432.bench");
    let inputs = traffic(lowered.inputs.len(), 0x432);
    let mut sim = Simulator::new(&lowered.net).expect("engine");
    let mut arena = TraceArena::new();
    // Reference edges from a clean engine+arena pair.
    let mut fresh = Simulator::new(&lowered.net).expect("engine");
    let mut fresh_arena = TraceArena::new();
    fresh.run_in(&inputs, &mut fresh_arena).expect("reference");
    // Trip mid-circuit (enough budget to do real work first), then run
    // unbudgeted with the same engine and arena: the result must match
    // the clean pair's bit for bit.
    for tripped_edges in [1, 70, 500] {
        match sim.run_controlled_in(
            &inputs,
            &mut arena,
            &RunBudget::UNLIMITED.with_max_edges(tripped_edges),
            None,
        ) {
            Err(SimError::BudgetExceeded { .. }) => {}
            other => panic!("budget of {tripped_edges} edges returned {other:?}"),
        }
        sim.run_in(&inputs, &mut arena).expect("run after a trip");
        assert_eq!(arena.total_edges(), fresh_arena.total_edges());
        for s in 0..lowered.net.signal_count() {
            let id = lowered.net.signal_id(s).expect("s < signal_count");
            let a = sim.trace(&arena, id);
            let b = fresh.trace(&fresh_arena, id);
            assert_eq!(a.initial_value(), b.initial_value(), "signal {s}");
            assert_eq!(a.times(), b.times(), "signal {s}");
        }
    }
}

#[test]
fn below_budget_runs_are_bit_identical_to_unbudgeted_ones() {
    for (file, seed) in [("c432.bench", 0x432), ("c880.bench", 0x880)] {
        let edges = run_edges(file, seed);
        let lowered = lowered(file);
        let inputs = traffic(lowered.inputs.len(), seed);
        let budget = RunBudget::UNLIMITED.with_max_edges(edges);
        let mut budgeted = Simulator::new(&lowered.net).expect("engine");
        let mut budgeted_arena = TraceArena::new();
        budgeted
            .run_controlled_in(&inputs, &mut budgeted_arena, &budget, None)
            .expect("run under exact budget");
        let want = lowered.net.run(&inputs).expect("reference run");
        for (s, w) in want.iter().enumerate() {
            let id = lowered.net.signal_id(s).expect("s < signal_count");
            assert_eq!(
                &budgeted.trace(&budgeted_arena, id).to_trace(),
                w,
                "{file} s{s}"
            );
        }
    }
}

/// The `sim.*` and `chan.*` rows of `report` as comparable numbers:
/// counter values, and the sample counts of timers and histograms.
fn engine_tallies(report: &ProbeReport) -> Vec<(String, u64)> {
    report
        .rows()
        .iter()
        .filter(|r| r.name.starts_with("sim.") || r.name.starts_with("chan."))
        .map(|r| {
            let v = match r.value {
                MetricValue::Counter(v) => v,
                MetricValue::Timer { count, .. } | MetricValue::Histogram { count, .. } => count,
            };
            (r.name.clone(), v)
        })
        .collect()
}

#[test]
fn a_tripped_run_publishes_no_metrics() {
    // Counters describe completed runs: a run stopped by its budget
    // after real channel work must leave every `sim.*` and `chan.*`
    // metric untouched, and the next unlimited run must publish exactly
    // one run's tallies.
    let cells = CellLibrary::hybrid(&committed_lib(), None).expect("cell library");
    let chain = BenchNetlist::parse(
        "INPUT(a)\nINPUT(b)\nOUTPUT(s3)\n\
         s0 = NOR(a, b)\ns1 = NOR(s0, b)\ns2 = NOR(s1, b)\ns3 = NOR(s2, b)\n",
    )
    .expect("netlist parses")
    .lower(&cells)
    .expect("lowering");
    let inputs = traffic(chain.net.input_count(), 0xB0D);
    let mut arena = TraceArena::new();

    let fresh_probe = Probe::new();
    let mut fresh =
        Simulator::new_traced(&chain.net, &fresh_probe, &TraceSink::disabled()).expect("engine");
    fresh.run_in(&inputs, &mut arena).expect("reference run");
    let one_run = engine_tallies(&fresh_probe.report());
    let lookups = one_run.iter().find(|(n, _)| n == "chan.table_lookups");
    assert!(
        matches!(lookups, Some((_, v)) if *v > 0),
        "the chain must walk the MIS surfaces: {one_run:?}"
    );

    let probe = Probe::new();
    let mut sim =
        Simulator::new_traced(&chain.net, &probe, &TraceSink::disabled()).expect("engine");
    // Trip at the last gate, after the chain's MIS gates did their
    // table walks.
    let edges = (chain.net.input_count()..chain.net.signal_count())
        .map(|s| arena.trace(s).len() as u64)
        .sum::<u64>();
    assert!(edges > 0);
    match sim.run_controlled_in(
        &inputs,
        &mut arena,
        &RunBudget::UNLIMITED.with_max_edges(edges - 1),
        None,
    ) {
        Err(SimError::BudgetExceeded { .. }) => {}
        other => panic!("expected an edge-budget trip, got {other:?}"),
    }
    let tripped = engine_tallies(&probe.report());
    assert!(
        !tripped.is_empty(),
        "the probe registers the engine metrics"
    );
    for (name, v) in &tripped {
        assert_eq!(*v, 0, "{name} after a tripped run");
    }

    sim.run_in(&inputs, &mut arena).expect("run after a trip");
    assert_eq!(engine_tallies(&probe.report()), one_run);
}
