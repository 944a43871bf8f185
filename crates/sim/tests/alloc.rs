//! Steady-state allocation-freedom of the signal-order engine, asserted
//! with the `mis-testkit` counting allocator: after one warm-up run has
//! sized the arena and the span map, re-running
//! [`Simulator::run_in`] over same-shaped inputs performs **zero** heap
//! allocations — on the committed C432- and C880-scale fixtures with
//! `Arc`-shared cached-hybrid cells, the exact workloads of the
//! `netlist_throughput` bench tier, on the NOR chain, C17 and inverter
//! tree lowered from `.bench` text, and on a small network that reaches
//! every channel kernel. Warm `ConeReplay` fault replays are held to the
//! same bar. The set-up layers get exact counts instead: a LOCAL trace
//! pair is two allocations, and `.bench` parsing (C880 and a 50k-gate
//! chain) and C880's parse + lower stay within recorded bounds. The counter is thread-local — see
//! `worker_thread_allocations_stay_off_this_threads_count` below, which
//! pins down that serial-scoped contract.
//!
//! An integration test (its own binary) so the counting allocator can be
//! installed globally without touching any other target.

use std::path::PathBuf;

use mis_charlib::CharLib;
use mis_digital::{
    CachedHybridChannel, ExpChannel, GateKind, InertialChannel, Network, PureDelayChannel,
    SignalId, SimError,
};
use mis_probe::{Probe, TraceSink};
use mis_sim::{
    BenchNetlist, CellLibrary, ConeReplay, GoldenRun, RunBudget, Simulator, TraceOverlay,
};
use mis_testkit::alloc::{self, CountingAllocator};
use mis_waveform::generate::{netlist_traffic, Assignment, TraceConfig};
use mis_waveform::units::ps;
use mis_waveform::{DigitalTrace, EdgeBuf, TraceArena, TraceRef};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn committed_lib() -> CharLib {
    let text = std::fs::read_to_string(workspace_root().join("data/charlib/nor_paper.mislib"))
        .expect("committed NOR library");
    CharLib::from_text(&text).expect("library parses")
}

fn committed_cells() -> CellLibrary {
    CellLibrary::hybrid(
        &committed_lib(),
        Some(InertialChannel::symmetric(ps(50.0), ps(38.0)).expect("channel")),
    )
    .expect("cell library")
}

fn fixture(name: &str) -> BenchNetlist {
    let text =
        std::fs::read_to_string(workspace_root().join("data/bench").join(name)).expect("fixture");
    BenchNetlist::parse(&text).expect("fixture parses")
}

fn traffic(n: usize, seed: u64) -> Vec<DigitalTrace> {
    netlist_traffic(n, seed).expect("trace generation")
}

#[test]
fn warm_simulator_run_in_is_allocation_free() {
    let cells = committed_cells();
    for (file, seed) in [
        ("c432.bench", 0x432),
        ("c880.bench", 0x880),
        ("c17.bench", 0xC17),
    ] {
        let lowered = fixture(file).lower(&cells).expect("lowering");
        let inputs = traffic(lowered.inputs.len(), seed);
        let mut sim = Simulator::new(&lowered.net).expect("engine construction");
        let mut arena = TraceArena::new();
        // Warm-up: sizes the arena storage; also pins down the edge
        // counts a repeat run must hit.
        sim.run_in(&inputs, &mut arena).expect("warm-up run");
        let warm_edges = arena.total_edges();
        let (allocations, ()) = alloc::count_in(|| {
            for _ in 0..5 {
                sim.run_in(&inputs, &mut arena).expect("steady-state run");
            }
        });
        assert_eq!(
            allocations, 0,
            "{file}: steady-state Simulator::run_in allocated {allocations} times"
        );
        assert_eq!(arena.total_edges(), warm_edges, "{file}: reproducible");
    }
}

/// A network exercising every kernel the engine dispatches to: input
/// copy-in, zero-time unary and binary gates, fused gate + channel
/// passes (pure, inertial, exp involution), and the cached hybrid
/// two-input scheduler.
fn mixed_network(lib: &CharLib) -> Network {
    let mut net = Network::new();
    let a = net.add_input("a");
    let b = net.add_input("b");
    let buf = net
        .add_gate(
            "buf",
            GateKind::Buf,
            &[a],
            Some(Box::new(PureDelayChannel::new(ps(5.0)).unwrap())),
        )
        .unwrap();
    let inv = net.add_gate("inv", GateKind::Not, &[b], None).unwrap();
    let nor = net
        .add_gate(
            "nor",
            GateKind::Nor,
            &[buf, inv],
            Some(Box::new(
                InertialChannel::symmetric(ps(45.0), ps(35.0)).unwrap(),
            )),
        )
        .unwrap();
    let nand = net
        .add_gate(
            "nand",
            GateKind::Nand,
            &[nor, a],
            Some(Box::new(
                ExpChannel::from_sis_delays(ps(50.0), ps(38.0), ps(20.0)).unwrap(),
            )),
        )
        .unwrap();
    let hybrid = net
        .add_two_input_channel_gate(
            "hybrid",
            [a, b],
            Box::new(CachedHybridChannel::new(lib).unwrap()),
        )
        .unwrap();
    net.add_gate("xor", GateKind::Xor, &[nand, hybrid], None)
        .unwrap();
    net
}

/// One dense generated input pair.
fn pair_traffic(seed: u64) -> Vec<DigitalTrace> {
    let pair = TraceConfig::new(ps(160.0), ps(60.0), Assignment::Local, 120)
        .generate(seed)
        .expect("trace generation");
    vec![pair.a, pair.b]
}

#[test]
fn warm_simulator_is_allocation_free_on_every_channel_kind() {
    let lib = committed_lib();
    let net = mixed_network(&lib);
    let inputs = pair_traffic(0xA11);
    let mut sim = Simulator::new(&net).expect("engine construction");
    let mut arena = TraceArena::new();
    // Warm-up: sizes the flat time array, span list, staging buffers.
    sim.run_in(&inputs, &mut arena).expect("warm-up run");
    let warm_edges = arena.total_edges();
    let (allocations, ()) = alloc::count_in(|| {
        for _ in 0..10 {
            sim.run_in(&inputs, &mut arena).expect("steady-state run");
        }
    });
    assert_eq!(
        allocations, 0,
        "steady-state Simulator::run_in allocated {allocations} times"
    );
    assert_eq!(arena.total_edges(), warm_edges, "runs are reproducible");
}

#[test]
fn warm_simulator_is_allocation_free_on_netlists_topologies() {
    let lib = committed_lib();
    let cells = CellLibrary::hybrid(&lib, None).unwrap();
    let mut chain_text = String::from("INPUT(a)\nINPUT(b)\nOUTPUT(s7)\ns0 = NOR(a, b)\n");
    for s in 1..8 {
        chain_text += &format!("s{s} = NOR(s{}, b)\n", s - 1);
    }
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
    let lower = |text: &str, cells: &CellLibrary| {
        BenchNetlist::parse(text)
            .expect("netlist parses")
            .lower(cells)
            .expect("lowering")
    };
    let chain = lower(&chain_text, &cells);
    let c17 = fixture("c17.bench").lower(&cells).expect("lowering");
    let tree = lower(
        &tree_text,
        &CellLibrary::inertial(InertialChannel::symmetric(ps(30.0), ps(30.0)).unwrap()),
    );

    let chain_in = pair_traffic(0xC41);
    let c17_in: Vec<DigitalTrace> = (0..5)
        .flat_map(|i| pair_traffic(0xC17 + i))
        .take(5)
        .collect();
    let tree_in = vec![pair_traffic(0x7EE).remove(0)];

    let mut arena = TraceArena::new();
    for (built, inputs) in [(&chain, &chain_in), (&c17, &c17_in), (&tree, &tree_in)] {
        let mut sim = Simulator::new(&built.net).expect("engine construction");
        sim.run_in(inputs, &mut arena).expect("warm-up");
        let (allocations, ()) = alloc::count_in(|| {
            sim.run_in(inputs, &mut arena).expect("steady state");
        });
        assert_eq!(
            allocations, 0,
            "netlist Simulator::run_in allocated {allocations} times"
        );
    }
}

#[test]
fn warm_probed_simulator_run_in_is_allocation_free_and_counts_events() {
    // The zero-allocation contract must survive with a *live* probe
    // attached: counters are preallocated at registration, the census
    // walk reads the sealed arena without building anything, and the
    // span timer records into fixed atomics. Same fixtures, same
    // traffic as the unprobed gate above.
    let cells = committed_cells();
    for (file, seed) in [
        ("c432.bench", 0x432),
        ("c880.bench", 0x880),
        ("c17.bench", 0xC17),
    ] {
        let lowered = fixture(file).lower(&cells).expect("lowering");
        let inputs = traffic(lowered.inputs.len(), seed);
        let probe = Probe::new();
        let mut sim = Simulator::new_traced(&lowered.net, &probe, &TraceSink::disabled())
            .expect("engine construction");
        let mut arena = TraceArena::new();
        sim.run_in(&inputs, &mut arena).expect("warm-up run");
        let warm_pops = sim.counters().events_popped();
        assert!(warm_pops > 0, "{file}: probe saw the warm-up run");
        let (allocations, ()) = alloc::count_in(|| {
            for _ in 0..5 {
                sim.run_in(&inputs, &mut arena).expect("steady-state run");
            }
        });
        assert_eq!(
            allocations, 0,
            "{file}: steady-state probed run_in allocated {allocations} times"
        );
        // Identical inputs pop identical event counts every run.
        assert_eq!(
            sim.counters().events_popped(),
            warm_pops * 6,
            "{file}: per-run pop count is reproducible"
        );
        assert_eq!(sim.counters().runs(), 6, "{file}: six runs recorded");
    }
}

#[test]
fn warm_traced_simulator_run_in_is_allocation_free() {
    // Tracing is held to the same bar as the probe: with a *live*
    // TraceSink attached, a warm run writes every run/gate/seal event
    // into the track's ring buffer — preallocated at registration, so
    // the steady state allocates nothing. (The ring wraps rather than
    // grow: "allocation-bounded" means bounded at construction.)
    let cells = committed_cells();
    for (file, seed) in [
        ("c432.bench", 0x432),
        ("c880.bench", 0x880),
        ("c17.bench", 0xC17),
    ] {
        let lowered = fixture(file).lower(&cells).expect("lowering");
        let inputs = traffic(lowered.inputs.len(), seed);
        let probe = Probe::new();
        let sink = TraceSink::new();
        let mut sim =
            Simulator::new_traced(&lowered.net, &probe, &sink).expect("engine construction");
        let mut arena = TraceArena::new();
        sim.run_in(&inputs, &mut arena).expect("warm-up run");
        let (allocations, ()) = alloc::count_in(|| {
            for _ in 0..5 {
                sim.run_in(&inputs, &mut arena).expect("steady-state run");
            }
        });
        assert_eq!(
            allocations, 0,
            "{file}: steady-state traced run_in allocated {allocations} times"
        );
        let snap = sink.snapshot();
        let track = snap.track("sim").expect("sim track registered");
        assert!(
            !track.events.is_empty(),
            "{file}: traced runs recorded events"
        );
    }
}

#[test]
fn tripped_budget_runs_stay_allocation_free() {
    // The graceful-degradation path is held to the same standard as the
    // happy path: a warm engine re-run under a too-small RunBudget must
    // return SimError::BudgetExceeded without a single heap allocation
    // — the error variant is allocation-free by construction (an
    // integer limit, no String), and tripping mid-run must not
    // disturb the arena's reset-not-shrink reuse. A full unbudgeted run
    // after each trip stays allocation-free too.
    let cells = committed_cells();
    for (file, seed) in [("c432.bench", 0x432), ("c880.bench", 0x880)] {
        let lowered = fixture(file).lower(&cells).expect("lowering");
        let inputs = traffic(lowered.inputs.len(), seed);
        let mut sim = Simulator::new(&lowered.net).expect("engine construction");
        let mut arena = TraceArena::new();
        sim.run_in(&inputs, &mut arena).expect("warm-up run");
        let warm_edges = arena.total_edges();
        let budget = mis_sim::RunBudget::UNLIMITED.with_max_edges(250);
        let (allocations, ()) = alloc::count_in(|| {
            for _ in 0..5 {
                match sim.run_controlled_in(&inputs, &mut arena, &budget, None) {
                    Err(mis_digital::SimError::BudgetExceeded { .. }) => {}
                    _ => panic!("a 250-edge budget must trip on {file}"),
                }
                sim.run_in(&inputs, &mut arena).expect("run after a trip");
            }
        });
        assert_eq!(
            allocations, 0,
            "{file}: tripped-budget cycling allocated {allocations} times"
        );
        assert_eq!(arena.total_edges(), warm_edges, "{file}: reproducible");
    }
}

/// The two fault shapes campaigns replay: a signal held at a constant,
/// or a pulse `[t0, t1]` merged into its trace (the times are chosen
/// off every stimulus edge, so no edges coincide).
enum Fault {
    Stuck(SignalId, bool),
    Glitch(SignalId, f64, f64),
}

impl Fault {
    fn site(&self) -> SignalId {
        match *self {
            Fault::Stuck(id, _) | Fault::Glitch(id, ..) => id,
        }
    }
}

impl TraceOverlay for Fault {
    fn rewrites(&self, id: SignalId) -> bool {
        id == self.site()
    }

    fn rewrite(
        &self,
        _id: SignalId,
        view: TraceRef<'_>,
        out: &mut EdgeBuf,
    ) -> Result<(), SimError> {
        match *self {
            Fault::Stuck(_, value) => out.clear(value),
            Fault::Glitch(_, t0, t1) => {
                out.clear(view.initial_value());
                let mut pulse = [t0, t1].into_iter().peekable();
                for &t in view.times() {
                    while let Some(p) = pulse.next_if(|&p| p < t) {
                        out.push_time(p)?;
                    }
                    out.push_time(t)?;
                }
                for p in pulse {
                    out.push_time(p)?;
                }
            }
        }
        Ok(())
    }
}

#[test]
fn warm_cone_replay_is_allocation_free_including_budget_trips() {
    // A campaign worker's steady state: one ConeReplay and one faulty
    // arena reused across faults. Once each fault has sized the arena,
    // replaying it again allocates nothing — stuck-at and glitch sites
    // alike, and runs that trip an edge budget after walking the cone.
    let cells = committed_cells();
    for (file, seed) in [("c432.bench", 0x432), ("c880.bench", 0x880)] {
        let lowered = fixture(file).lower(&cells).expect("lowering");
        let net = &lowered.net;
        let inputs = traffic(lowered.inputs.len(), seed);
        let golden = GoldenRun::record(&mut Simulator::new(net).expect("engine"), &inputs)
            .expect("golden run");
        let input = net.signal_id(0).expect("an input");
        let gate = net.signal_id(net.input_count() + 3).expect("a gate");
        let faults = [
            Fault::Stuck(input, !golden.trace(input).initial_value()),
            Fault::Glitch(gate, ps(1234.567), ps(1281.123)),
        ];
        let tight = RunBudget::UNLIMITED.with_max_edges(1);
        let mut cone = ConeReplay::new(net).expect("replay construction");
        let mut arena = TraceArena::new();
        for fault in &faults {
            cone.run(
                &golden,
                fault.site(),
                fault,
                &mut arena,
                &RunBudget::UNLIMITED,
            )
            .expect("warm-up replay");
            assert!(
                cone.gates_evaluated() > 0,
                "{file}: the fault reaches gates"
            );
        }
        let (allocations, ()) = alloc::count_in(|| {
            for _ in 0..5 {
                for fault in &faults {
                    cone.run(
                        &golden,
                        fault.site(),
                        fault,
                        &mut arena,
                        &RunBudget::UNLIMITED,
                    )
                    .expect("steady-state replay");
                    match cone.run(&golden, fault.site(), fault, &mut arena, &tight) {
                        Err(SimError::BudgetExceeded { .. }) => {}
                        other => panic!("{file}: a 1-edge budget must trip, got {other:?}"),
                    }
                }
            }
        });
        assert_eq!(
            allocations, 0,
            "{file}: steady-state cone replay allocated {allocations} times"
        );
    }
}

#[test]
fn worker_thread_allocations_stay_off_this_threads_count() {
    // The counting allocator is thread-local by design: a zero-allocation
    // assertion is a claim about the asserting thread's own hot path, not
    // about the process. Pin that down — a spawned worker allocating
    // freely must not disturb a serial-scoped `count_in`, which is
    // exactly why campaign worker threads (and the parallel test runner)
    // cannot pollute the engine's gate above.
    let (allocations, ()) = alloc::count_in(|| {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let v: Vec<u64> = (0..4096).collect();
                assert_eq!(v.len(), 4096);
            });
        });
    });
    // The scope machinery itself allocates on this thread (thread spawn),
    // but the worker's 4096-element Vec must not be attributed here.
    assert!(
        allocations < 32,
        "worker-thread allocations leaked into the spawning thread's count: {allocations}"
    );
}

#[test]
fn local_trace_generation_allocates_each_trace_once() {
    // LOCAL edge counts are known before the first draw, so each trace
    // of the pair is allocated once at its exact size: no regrowth, and
    // no scratch buffer for the batched normal draws. The dense spacing
    // is the other half of the c880bench pool.
    for (mu, sigma, transitions, seed) in [
        (400.0, 150.0, 40, 0x5eed),
        (100.0, 50.0, 40, 7),
        (400.0, 150.0, 2, 1),
        (400.0, 150.0, 501, 42),
    ] {
        let cfg = TraceConfig::new(ps(mu), ps(sigma), Assignment::Local, transitions);
        let (allocations, pair) = alloc::count_in(|| cfg.generate(seed).expect("generation"));
        assert_eq!(
            allocations, 2,
            "{transitions} transitions: LOCAL generate() allocated {allocations} times"
        );
        assert_eq!(
            pair.a.edges().len() + pair.b.edges().len(),
            transitions,
            "{transitions} transitions"
        );
    }
}

#[test]
fn c880_parse_and_lower_stay_within_their_allocation_bound() {
    // Names are interned once, gate operands are stored inline and the
    // network is sized up front. What remains is the parser's doubling
    // tables (72 allocations, pinned below), one box per channel and a
    // few tables. The bound is exact, so a per-gate `Vec`, a per-signal
    // name `String` or a per-stage name map coming back fails it
    // (C880: 60 inputs, 366 gates, 570 lowered signals).
    let text =
        std::fs::read_to_string(workspace_root().join("data/bench/c880.bench")).expect("fixture");
    let cells = committed_cells();
    let (allocations, lowered) = alloc::count_in(|| {
        BenchNetlist::parse(&text)
            .expect("fixture parses")
            .lower(&cells)
            .expect("lowering")
    });
    assert_eq!(lowered.net.signal_count(), 570);
    assert!(
        allocations <= 456,
        "C880 parse + lower allocated {allocations} times, bound 456"
    );
}

/// A 50,000-gate `NOT` chain written last gate first (every operand is
/// defined later in the file): 50,002 lines against C880's 459.
fn reversed_chain_text() -> String {
    const GATES: usize = 50_000;
    let mut text = format!("INPUT(a)\nOUTPUT(g{GATES})\n");
    for k in (2..=GATES).rev() {
        text += &format!("g{k} = NOT(g{})\n", k - 1);
    }
    text + "g1 = NOT(a)\n"
}

#[test]
fn parse_allocations_grow_with_doubling_tables_only() {
    // `parse` interns each name once into one name table and stores
    // indices in vectors grown by doubling, so its allocation count
    // grows with the log of the netlist, not with its lines. A per-name
    // `String` or a per-gate `Vec` coming back fails the chain's bound
    // by tens of thousands.
    let c880 =
        std::fs::read_to_string(workspace_root().join("data/bench/c880.bench")).expect("fixture");
    let chain = reversed_chain_text();
    let (small, nl) = alloc::count_in(|| BenchNetlist::parse(&c880).expect("fixture parses"));
    assert_eq!(nl.gate_count(), 366);
    let (large, nl) = alloc::count_in(|| BenchNetlist::parse(&chain).expect("chain parses"));
    assert_eq!(nl.gate_count(), 50_000);
    // Both bounds are exact. The chain has 109× C880's lines but makes
    // only 1.3× its allocations: one more doubling of each table per
    // factor of two in size (the name table is sized from the text up
    // front and does not double).
    assert!(small <= 72, "C880 parse allocated {small} times, bound 72");
    assert!(large <= 91, "chain parse allocated {large} times, bound 91");
}
