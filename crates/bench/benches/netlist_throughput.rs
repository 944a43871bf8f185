//! Circuit-scale throughput: whole netlist evaluations over multi-gate
//! benchmark circuits, the workload of the interconnected-gates
//! follow-up paper (Ferdowsi et al., arXiv:2403.10540).
//!
//! Two evaluators over the same circuits and channel objects:
//!
//! * `run_in` ids — `Network::run_in`, the levelized topological sweep
//!   into a warm `TraceArena` (zero heap allocations, asserted by
//!   `crates/digital/tests/alloc.rs`);
//! * `sim` ids — `mis_sim::Simulator::run_in`, the signal-order engine
//!   (the same sweep over the same fused kernels, plus the per-gate
//!   budget, overlay, probe and trace hooks; zero allocations asserted
//!   by `crates/sim/tests/alloc.rs`). The gap between a `sim` id and its
//!   `run_in` twin is the price of those hooks. The `sim_probed` ids
//!   re-run the C432
//!   workloads with a live `mis_probe::Probe` registry attached; the
//!   gap to the plain `sim` twin is the price of *enabled*
//!   instrumentation (the disabled-probe price is already inside `sim`,
//!   which carries a disabled bundle through the same code).
//!
//! Circuits: the eight-stage reconvergent NOR chain and the ISCAS-85
//! C17 cut (from `mis_digital::netlists`), the depth-4 inverter tree,
//! and the committed C432-scale (36 inputs, 132 gates) and C880-scale
//! (60 inputs, 365 gates) `.bench` fixtures under both the Arc-shared
//! cached-hybrid cell library and the inertial baseline. The
//! characterized NOR tables come from the committed
//! `data/charlib/nor_paper.mislib` — no re-characterization at bench
//! startup.
//!
//! The `run_alloc` ids measure the legacy allocating `Network::run`
//! wrapper; the gap to the `run_in` twin is the allocation cost a warm
//! arena amortizes away.
//!
//! Runs on the in-repo `mis-testkit` bench harness; JSON results land in
//! `BENCH_netlist_throughput.json`.

use std::path::PathBuf;

use mis_charlib::CharLib;
use mis_digital::netlists::{self, CachedHybridFactory, ChannelPerGate};
use mis_digital::{GateKind, InertialChannel, Network, TraceTransform};
use mis_sim::{BenchNetlist, CellLibrary, Simulator};
use mis_testkit::bench::Harness;
use mis_waveform::generate::{Assignment, TraceConfig};
use mis_waveform::units::ps;
use mis_waveform::{DigitalTrace, TraceArena};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn inertial_proto() -> InertialChannel {
    InertialChannel::symmetric(ps(50.0), ps(38.0)).expect("channel")
}

fn inertial() -> Option<Box<dyn TraceTransform>> {
    Some(Box::new(inertial_proto()))
}

/// Two 100-transition-per-input streams (the netlists re-use input `b`
/// at every chain stage, so edge counts grow along the chain).
fn pair_inputs(seed: u64) -> Vec<DigitalTrace> {
    let pair = TraceConfig::new(ps(200.0), ps(80.0), Assignment::Local, 200)
        .generate(seed)
        .expect("trace generation");
    vec![pair.a, pair.b]
}

/// One moderately busy stream per primary input (C432's 36 inputs).
fn wide_inputs(n: usize, seed: u64) -> Vec<DigitalTrace> {
    (0..n)
        .map(|i| {
            let pair = TraceConfig::new(ps(400.0), ps(150.0), Assignment::Local, 40)
                .generate(seed + i as u64)
                .expect("trace generation");
            if i % 2 == 0 {
                pair.a
            } else {
                pair.b
            }
        })
        .collect()
}

/// Benchmarks one steady-state `Network::run_in` sweep on a warm arena.
fn bench_run_in(
    h: &mut Harness,
    arena: &mut TraceArena,
    id: &str,
    net: &Network,
    inputs: &[DigitalTrace],
) {
    net.run_in(inputs, arena).expect("warm-up run");
    h.bench(id, || {
        net.run_in(inputs, arena).expect("run_in");
        arena.total_edges()
    });
}

/// Benchmarks one steady-state engine evaluation on a warm arena.
fn bench_sim(
    h: &mut Harness,
    arena: &mut TraceArena,
    id: &str,
    net: &Network,
    inputs: &[DigitalTrace],
) {
    let mut sim = Simulator::new(net).expect("engine construction");
    sim.run_in(inputs, arena).expect("warm-up run");
    h.bench(id, move || {
        sim.run_in(inputs, arena).expect("sim run");
        arena.total_edges()
    });
}

/// Benchmarks the engine with a *live* probe registry attached — the
/// cost of instrumentation when it is actually on. The gap to the plain
/// `sim` twin is what enabled counters, the run span, and the post-run
/// census walk cost per evaluation; the disabled-probe cost is the
/// `sim` id itself, since every engine carries a (disabled) bundle
/// through the same code.
fn bench_sim_probed(
    h: &mut Harness,
    arena: &mut TraceArena,
    id: &str,
    net: &Network,
    inputs: &[DigitalTrace],
) {
    let probe = mis_probe::Probe::new();
    let mut sim = Simulator::new_probed(net, &probe).expect("engine construction");
    sim.run_in(inputs, arena).expect("warm-up run");
    h.bench(id, move || {
        sim.run_in(inputs, arena).expect("sim run");
        arena.total_edges()
    });
}

fn main() {
    let mut h = Harness::from_args("netlist_throughput");

    let lib_text = std::fs::read_to_string(workspace_root().join("data/charlib/nor_paper.mislib"))
        .expect("committed NOR library (regenerate: cargo run -p mis-bench --bin make_data)");
    let lib = CharLib::from_text(&lib_text).expect("committed library parses");
    let mut cached = CachedHybridFactory::new(&lib).expect("factory");

    let chain_cached = netlists::ripple_chain(GateKind::Nor, 8, &mut cached).expect("netlist");
    let chain_inertial =
        netlists::ripple_chain(GateKind::Nor, 8, &mut ChannelPerGate(inertial)).expect("netlist");
    let c17_cached = netlists::c17(&mut cached).expect("netlist");
    let c17_inertial = netlists::c17(&mut ChannelPerGate(inertial)).expect("netlist");
    let tree = netlists::fanout_tree(4, &mut inertial).expect("netlist");

    let load_fixture = |name: &str| {
        let text = std::fs::read_to_string(workspace_root().join("data/bench").join(name))
            .expect("committed fixture");
        BenchNetlist::parse(&text).expect("fixture parses")
    };
    let c432 = load_fixture("c432.bench");
    let c432_cached = c432
        .lower(&CellLibrary::hybrid_shared(
            std::sync::Arc::clone(cached.shared()),
            Some(inertial_proto()),
        ))
        .expect("lowering");
    let c432_inertial = c432
        .lower(&CellLibrary::inertial(inertial_proto()))
        .expect("lowering");
    let c880 = load_fixture("c880.bench");
    let c880_cached = c880
        .lower(&CellLibrary::hybrid_shared(
            std::sync::Arc::clone(cached.shared()),
            Some(inertial_proto()),
        ))
        .expect("lowering");
    let c880_inertial = c880
        .lower(&CellLibrary::inertial(inertial_proto()))
        .expect("lowering");

    let chain_in = pair_inputs(0xc4a1);
    let c17_in: Vec<DigitalTrace> = vec![
        pair_inputs(0xc17).remove(0),
        pair_inputs(0xc18).remove(0),
        pair_inputs(0xc19).remove(0),
        pair_inputs(0xc1a).remove(0),
        pair_inputs(0xc1b).remove(0),
    ];
    let tree_in = vec![pair_inputs(0x7ee).remove(0)];
    let c432_in = wide_inputs(36, 0x432);
    let c880_in = wide_inputs(60, 0x880);

    let mut arena = TraceArena::new();

    bench_run_in(
        &mut h,
        &mut arena,
        "nor_chain8_cached/run_in",
        &chain_cached.net,
        &chain_in,
    );
    bench_run_in(
        &mut h,
        &mut arena,
        "nor_chain8_inertial/run_in",
        &chain_inertial.net,
        &chain_in,
    );
    bench_run_in(
        &mut h,
        &mut arena,
        "c17_cached/run_in",
        &c17_cached.net,
        &c17_in,
    );
    bench_run_in(
        &mut h,
        &mut arena,
        "c17_inertial/run_in",
        &c17_inertial.net,
        &c17_in,
    );
    bench_run_in(
        &mut h,
        &mut arena,
        "fanout_tree_d4_inertial/run_in",
        &tree.net,
        &tree_in,
    );

    // The engine over the same circuits and channels: the sweep-vs-engine
    // comparison at identical outputs (bit-identity is property-tested
    // in crates/sim).
    bench_sim(
        &mut h,
        &mut arena,
        "c17_cached/sim",
        &c17_cached.net,
        &c17_in,
    );
    bench_sim(
        &mut h,
        &mut arena,
        "c432_cached/sim",
        &c432_cached.net,
        &c432_in,
    );
    bench_sim(
        &mut h,
        &mut arena,
        "c432_inertial/sim",
        &c432_inertial.net,
        &c432_in,
    );

    // The probed twins: same circuits, same traffic, live registry.
    bench_sim_probed(
        &mut h,
        &mut arena,
        "c432_cached/sim_probed",
        &c432_cached.net,
        &c432_in,
    );
    bench_sim_probed(
        &mut h,
        &mut arena,
        "c432_inertial/sim_probed",
        &c432_inertial.net,
        &c432_in,
    );

    bench_run_in(
        &mut h,
        &mut arena,
        "c432_cached/run_in",
        &c432_cached.net,
        &c432_in,
    );
    bench_run_in(
        &mut h,
        &mut arena,
        "c432_inertial/run_in",
        &c432_inertial.net,
        &c432_in,
    );

    // C880-scale: the engine under both cell libraries.
    for (tag, lowered) in [("cached", &c880_cached), ("inertial", &c880_inertial)] {
        bench_sim(
            &mut h,
            &mut arena,
            &format!("c880_{tag}/sim"),
            &lowered.net,
            &c880_in,
        );
    }

    h.bench("nor_chain8_cached/run_alloc", || {
        chain_cached.net.run(&chain_in).expect("run").len()
    });
    h.bench("nor_chain8_inertial/run_alloc", || {
        chain_inertial.net.run(&chain_in).expect("run").len()
    });

    h.finish();
}
