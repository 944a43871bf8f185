//! Steady-state allocation-freedom of the event-queue engine, asserted
//! with the `mis-testkit` counting allocator: after one warm-up run has
//! sized the arena, the ready queue and the span map, re-running
//! [`Simulator::run_in`] over same-shaped inputs performs **zero** heap
//! allocations — on the committed C432- and C880-scale fixtures with
//! `Arc`-shared cached-hybrid cells, the exact workloads of the
//! `netlist_throughput` bench tier. Warm `ConeReplay` fault replays are
//! held to the same bar. The parallel engine is deliberately
//! *not* under this gate: its steady-state allocations are the scoped
//! thread spawns themselves (worker arenas are warm and reused), and
//! the counter is thread-local — see
//! `worker_thread_allocations_stay_off_this_threads_count` below, which
//! pins down that serial-scoped contract.
//!
//! An integration test (its own binary) so the counting allocator can be
//! installed globally without touching any other target.

use std::path::PathBuf;

use mis_charlib::CharLib;
use mis_digital::{InertialChannel, SignalId, SimError};
use mis_probe::{Probe, TraceSink};
use mis_sim::{
    BenchNetlist, CellLibrary, ConeReplay, GoldenRun, RunBudget, Simulator, TraceOverlay,
    WavefrontSimulator,
};
use mis_testkit::alloc::{self, CountingAllocator};
use mis_waveform::generate::{Assignment, TraceConfig};
use mis_waveform::units::ps;
use mis_waveform::{DigitalTrace, EdgeBuf, TraceArena, TraceRef};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn committed_cells() -> CellLibrary {
    let text = std::fs::read_to_string(workspace_root().join("data/charlib/nor_paper.mislib"))
        .expect("committed NOR library");
    let lib = CharLib::from_text(&text).expect("library parses");
    CellLibrary::hybrid(
        &lib,
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
        // Warm-up: sizes the arena storage, the ready queue and the span
        // map; also pins down the edge counts a repeat run must hit.
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
        let mut sim = Simulator::new_probed(&lowered.net, &probe).expect("engine construction");
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
fn warm_wavefront_serial_paths_are_allocation_free_probed_and_traced() {
    // The wavefront engine's zero-allocation claim is scoped to its
    // serial paths — one worker, or a cutover that routes every front
    // through the serial tail. (Parallel fronts spend their steady-state
    // allocations on the scoped thread spawns themselves, exactly like
    // the per-cone engine; worker arenas are warm and reused.) Both a
    // live probe and a live trace sink are attached: gauges, span
    // timers, level spans and seal instants all land in storage sized at
    // registration.
    let cells = committed_cells();
    for (file, seed) in [("c432.bench", 0x432), ("c880.bench", 0x880)] {
        let lowered = fixture(file).lower(&cells).expect("lowering");
        let inputs = traffic(lowered.inputs.len(), seed);
        for (workers, cutover) in [(1usize, 0usize), (3, usize::MAX)] {
            let probe = Probe::new();
            let sink = TraceSink::new();
            let mut wave = WavefrontSimulator::new_traced(&lowered.net, workers, &probe, &sink)
                .expect("engine construction")
                .with_cutover(cutover);
            let mut arena = TraceArena::new();
            wave.run_in(&inputs, &mut arena).expect("warm-up run");
            let warm_edges = arena.total_edges();
            let warm_pops = wave.counters().events_popped();
            assert!(warm_pops > 0, "{file}: probe saw the warm-up run");
            let (allocations, ()) = alloc::count_in(|| {
                for _ in 0..5 {
                    wave.run_in(&inputs, &mut arena).expect("steady-state run");
                }
            });
            assert_eq!(
                allocations, 0,
                "{file}: steady-state wavefront run_in ({workers} workers, \
                 cutover {cutover}) allocated {allocations} times"
            );
            assert_eq!(arena.total_edges(), warm_edges, "{file}: reproducible");
            assert_eq!(
                wave.counters().events_popped(),
                warm_pops * 6,
                "{file}: per-run pop count is reproducible"
            );
            let snap = sink.snapshot();
            let track = snap.track("wave").expect("wave track registered");
            assert!(
                !track.events.is_empty(),
                "{file}: traced wavefront runs recorded events"
            );
        }
    }
}

#[test]
fn tripped_budget_runs_stay_allocation_free() {
    // The graceful-degradation path is held to the same standard as the
    // happy path: a warm engine re-run under a too-small RunBudget must
    // return SimError::BudgetExceeded without a single heap allocation
    // — the error variant is allocation-free by construction (resource
    // tag + integer limit, no String), and tripping mid-run must not
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
        let budget = mis_sim::RunBudget::UNLIMITED.with_max_events(25);
        let (allocations, ()) = alloc::count_in(|| {
            for _ in 0..5 {
                match sim.run_budgeted_in(&inputs, &mut arena, &budget) {
                    Err(mis_digital::SimError::BudgetExceeded { .. }) => {}
                    _ => panic!("a 25-event budget must trip on {file}"),
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
    // exactly why the parallel engine's worker threads (and any parallel
    // test runner) cannot pollute the serial engine's gate above.
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
