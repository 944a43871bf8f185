//! Circuit-scale throughput: whole netlist evaluations over multi-gate
//! benchmark circuits, the workload of the interconnected-gates
//! follow-up paper (Ferdowsi et al., arXiv:2403.10540).
//!
//! Every circuit id times `mis_sim::Simulator::run_in`, the
//! signal-order engine, into a warm `TraceArena` (zero heap
//! allocations, asserted by `crates/sim/tests/alloc.rs`):
//!
//! * `sim` ids — the engine with its disabled probe, the cost of a
//!   plain evaluation;
//! * `sim_probed` ids — the C432 workloads again with a live
//!   `mis_probe::Probe` registry attached; the gap to the plain `sim`
//!   twin is the price of *enabled* instrumentation (the disabled-probe
//!   price is already inside `sim`, which carries a disabled bundle
//!   through the same code).
//!
//! The `pipeline` ids time the set-up layers every C880 run pays before
//! its first evaluation: `pipeline/c880_cells` (`CellLibrary::hybrid`
//! on the committed library, parsed once outside the timed closure: the
//! cached NOR tables tabulated at their recorded counts),
//! `pipeline/c880_parse` (`BenchNetlist::parse`, file read excluded),
//! `pipeline/c880_lower` (`BenchNetlist::lower` onto the Arc-shared
//! cached-hybrid cells) and
//! `pipeline/stimulus_pool_32x60` (32 stimulus sets for C880's 60
//! inputs, one generated LOCAL pair per two inputs, alternating the
//! dense 100/50 ps and sparse 400/150 ps spacings). Two more price the
//! `.bench` front end itself: `pipeline/chain50k_parse` parses a
//! 50,000-gate `NOT` chain written last gate first (50,002 lines, so
//! the median over 50,002 is the per-line parse cost at scale), and
//! `pipeline/c880_lint` runs every `mis_analyze::lint` check on the
//! parsed C880.
//!
//! Circuits, all lowered from `.bench` text: the eight-stage
//! reconvergent NOR chain and the depth-4 inverter tree (generated
//! below), and the committed ISCAS-85 C17 cut, C432-scale (36 inputs,
//! 132 gates) and C880-scale (60 inputs, 366 gates) fixtures under both
//! the Arc-shared cached-hybrid cell library and the inertial baseline. The
//! characterized NOR tables come from the committed
//! `data/charlib/nor_paper.mislib` — no re-characterization at bench
//! startup.
//!
//! Runs on the in-repo `mis-testkit` bench harness, which prints a table
//! and writes no file; `scripts/ab.sh` compares every id against a base
//! revision in one session.

use std::path::PathBuf;

use mis_analyze::{lint, LintConfig};
use mis_charlib::CharLib;
use mis_digital::{InertialChannel, Network};
use mis_sim::{BenchNetlist, CellLibrary, Simulator};
use mis_testkit::bench::Harness;
use mis_waveform::generate::{netlist_traffic, Assignment, TraceConfig};
use mis_waveform::units::ps;
use mis_waveform::{DigitalTrace, TraceArena};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn inertial_proto() -> InertialChannel {
    InertialChannel::symmetric(ps(50.0), ps(38.0)).expect("channel")
}

/// Two 100-transition-per-input streams (the netlists re-use input `b`
/// at every chain stage, so edge counts grow along the chain).
fn pair_inputs(seed: u64) -> Vec<DigitalTrace> {
    let pair = TraceConfig::new(ps(200.0), ps(80.0), Assignment::Local, 200)
        .generate(seed)
        .expect("trace generation");
    vec![pair.a, pair.b]
}

/// One moderately busy stream per primary input: the CI traffic.
fn wide_inputs(n: usize, seed: u64) -> Vec<DigitalTrace> {
    netlist_traffic(n, seed).expect("trace generation")
}

/// `sets` stimulus sets of `inputs` traces, one generated 40-transition
/// LOCAL pair per two inputs, alternating dense and sparse spacing.
fn stimulus_pool(sets: usize, inputs: usize, seed: u64) -> Vec<Vec<DigitalTrace>> {
    let dense = TraceConfig::new(ps(100.0), ps(50.0), Assignment::Local, 40);
    let sparse = TraceConfig::new(ps(400.0), ps(150.0), Assignment::Local, 40);
    let mut k = seed;
    (0..sets)
        .map(|_| {
            let mut set = Vec::with_capacity(inputs + 1);
            for p in 0..inputs.div_ceil(2) {
                let cfg = if p % 2 == 0 { &dense } else { &sparse };
                k += 1;
                let pair = cfg.generate(k).expect("trace generation");
                set.extend([pair.a, pair.b]);
            }
            set.truncate(inputs);
            set
        })
        .collect()
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
    let mut sim = Simulator::new_traced(net, &probe, &mis_probe::TraceSink::disabled())
        .expect("engine construction");
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
    let cached = CellLibrary::hybrid(&lib, None).expect("cell library");
    let inertial = CellLibrary::inertial(inertial_proto());

    // The eight-stage NOR chain: every stage after the first takes the
    // previous stage and input `b`.
    let mut chain_text = String::from("INPUT(a)\nINPUT(b)\nOUTPUT(s7)\ns0 = NOR(a, b)\n");
    for s in 1..8 {
        chain_text += &format!("s{s} = NOR(s{}, b)\n", s - 1);
    }
    // The depth-4 inverter tree: input `x` drives 2 + 4 + 8 + 16 NOTs.
    let mut tree_text = String::from("INPUT(x)\n");
    for d in 0..4 {
        for j in 0..2 << d {
            let src = if d == 0 {
                "x".into()
            } else {
                format!("n{}_{}", d - 1, j / 2)
            };
            tree_text += &format!("n{d}_{j} = NOT({src})\n");
        }
    }
    let parse = |text: &str| BenchNetlist::parse(text).expect("netlist parses");
    let load_fixture = |name: &str| {
        let text = std::fs::read_to_string(workspace_root().join("data/bench").join(name))
            .expect("committed fixture");
        parse(&text)
    };
    let chain = parse(&chain_text);
    let c17 = load_fixture("c17.bench");
    let chain_cached = chain.lower(&cached).expect("lowering");
    let chain_inertial = chain.lower(&inertial).expect("lowering");
    let c17_cached = c17.lower(&cached).expect("lowering");
    let c17_inertial = c17.lower(&inertial).expect("lowering");
    let tree = parse(&tree_text).lower(&inertial).expect("lowering");

    let c432 = load_fixture("c432.bench");
    let c432_cached = c432
        .lower(&CellLibrary::hybrid_shared(
            std::sync::Arc::clone(cached.shared_tables().expect("hybrid tables")),
            Some(inertial_proto()),
        ))
        .expect("lowering");
    let c432_inertial = c432.lower(&inertial).expect("lowering");
    let c880_text = std::fs::read_to_string(workspace_root().join("data/bench/c880.bench"))
        .expect("committed fixture");
    let c880 = parse(&c880_text);
    let c880_cells = CellLibrary::hybrid_shared(
        std::sync::Arc::clone(cached.shared_tables().expect("hybrid tables")),
        Some(inertial_proto()),
    );
    let c880_cached = c880.lower(&c880_cells).expect("lowering");
    let c880_inertial = c880.lower(&inertial).expect("lowering");

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

    // Set-up layers: what every C880 run pays before its first
    // evaluation.
    h.bench("pipeline/c880_cells", || {
        CellLibrary::hybrid(&lib, Some(inertial_proto())).expect("cell library")
    });
    h.bench("pipeline/c880_parse", || {
        BenchNetlist::parse(&c880_text).expect("netlist parses")
    });
    h.bench("pipeline/c880_lower", || {
        c880.lower(&c880_cells).expect("lowering")
    });
    h.bench("pipeline/stimulus_pool_32x60", || {
        stimulus_pool(32, 60, 0x880)
    });
    let mut chain50k_text = String::from("INPUT(a)\nOUTPUT(g50000)\n");
    for k in (2..=50_000).rev() {
        chain50k_text += &format!("g{k} = NOT(g{})\n", k - 1);
    }
    chain50k_text += "g1 = NOT(a)\n";
    h.bench("pipeline/chain50k_parse", || {
        BenchNetlist::parse(&chain50k_text).expect("netlist parses")
    });
    h.bench("pipeline/c880_lint", || lint(&c880, &LintConfig::default()));

    let mut arena = TraceArena::new();

    for (id, net, inputs) in [
        ("nor_chain8_cached/sim", &chain_cached.net, &chain_in),
        ("nor_chain8_inertial/sim", &chain_inertial.net, &chain_in),
        ("c17_cached/sim", &c17_cached.net, &c17_in),
        ("c17_inertial/sim", &c17_inertial.net, &c17_in),
        ("fanout_tree_d4_inertial/sim", &tree.net, &tree_in),
        ("c432_cached/sim", &c432_cached.net, &c432_in),
        ("c432_inertial/sim", &c432_inertial.net, &c432_in),
    ] {
        bench_sim(&mut h, &mut arena, id, net, inputs);
    }

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
}
