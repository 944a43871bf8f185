//! Property-based tests for the `mis-sim` subsystem: bit-identity of the
//! signal-order engine against the owned-trace `Network::run` reference
//! (on reconvergent chains, C17 and inverter trees lowered from `.bench`
//! text, and on randomized DAGs
//! over all channel kinds, empty traces included, cold and on a warm
//! arena), a check that the reference does not share the engine's
//! in-place kernels, the one-trace-per-signal arena invariant under
//! random overlays, `.bench` parse→write→parse round trips with comment/
//! whitespace/CRLF/BOM torture, one malformed-input test per parser
//! error variant, and round trips of the committed `data/charlib` text
//! libraries and `data/bench` fixtures (C432 and C880 against
//! independent reference models). On the in-repo `mis-testkit` harness.

use std::path::PathBuf;
use std::sync::OnceLock;

use mis_charlib::{CharConfig, CharLib};
use mis_core::NorParams;
use mis_digital::{
    CachedHybridChannel, ChannelEvents, ExpChannel, GateKind, InertialChannel, NandChannel,
    Network, PureDelayChannel, SignalId, SimError, TraceTransform, TwoInputTransform,
};
use mis_sim::{
    BenchError, BenchFunc, BenchNetlist, CellLibrary, LoweredNetlist, RunBudget, Simulator,
    TraceOverlay,
};
use mis_testkit::prelude::*;
use mis_testkit::rng::TestRng;
use mis_waveform::units::ps;
use mis_waveform::{DigitalTrace, EdgeBuf, TraceArena, TraceRef};

const CASES: u32 = 48;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Characterized NOR library (quick config — bit-identity tests compare
/// the same channel objects along two engine paths, not against the
/// exact model, so the loose budget is irrelevant).
fn shared_lib() -> &'static CharLib {
    static LIB: OnceLock<CharLib> = OnceLock::new();
    LIB.get_or_init(|| {
        CharLib::nor(&NorParams::paper_table1(), &CharConfig::quick()).expect("characterization")
    })
}

/// Random trace on a 5 ps grid, so exactly-simultaneous edges across
/// independently generated traces are common, including empty traces.
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

/// Asserts the engine reproduces `Network::run` bit for bit on `net`,
/// including a second run on the warm arena (reuse contract).
fn assert_engine_matches(net: &Network, inputs: &[DigitalTrace]) {
    let want = net.run(inputs).expect("reference run");
    let mut sim = Simulator::new(net).expect("engine construction");
    let got = sim.run(inputs).expect("engine run");
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "signal {i} ('{}')", {
            let id = net.signal_id(i).unwrap();
            net.signal_name(id).to_owned()
        });
    }
    let mut arena = TraceArena::new();
    sim.run_in(inputs, &mut arena).expect("warm-up");
    sim.run_in(inputs, &mut arena).expect("warm rerun");
    for (i, w) in want.iter().enumerate() {
        let id = net.signal_id(i).unwrap();
        assert_eq!(&sim.trace(&arena, id).to_trace(), w, "warm signal {i}");
    }
}

/// `.bench` text of a chain of `stages` two-input `func` gates: stage 0
/// combines inputs `a` and `b`, every later stage the previous stage and
/// `b` (a reconvergent side input). The output is the last stage.
fn chain_bench(func: &str, stages: usize) -> String {
    let mut text = format!(
        "INPUT(a)\nINPUT(b)\nOUTPUT(s{})\ns0 = {func}(a, b)\n",
        stages - 1
    );
    for s in 1..stages {
        text += &format!("s{s} = {func}(s{}, b)\n", s - 1);
    }
    text
}

/// `.bench` text of a complete inverter tree: input `x` drives
/// `2^depth − 1` NOT gates, level by level; the leaves are the outputs.
fn tree_bench(depth: usize) -> String {
    let mut text = String::from("INPUT(x)\n");
    for j in 0..1 << depth {
        text += &format!("OUTPUT(n{}_{j})\n", depth - 1);
    }
    for d in 0..depth {
        for j in 0..2 << d {
            let src = if d == 0 {
                "x".into()
            } else {
                format!("n{}_{}", d - 1, j / 2)
            };
            text += &format!("n{d}_{j} = NOT({src})\n");
        }
    }
    text
}

fn lower(text: &str, cells: &CellLibrary) -> LoweredNetlist {
    BenchNetlist::parse(text)
        .expect("netlist parses")
        .lower(cells)
        .expect("lowering")
}

#[test]
fn engine_bit_identical_on_all_netlists_topologies() {
    let lib = shared_lib();
    let mut rng = TestRng::seed_from_u64(0x51B);
    let inertial = CellLibrary::inertial(InertialChannel::symmetric(ps(50.0), ps(38.0)).unwrap());
    let cached = CellLibrary::hybrid(lib, None).unwrap();
    let c17 = std::fs::read_to_string(workspace_root().join("data/bench/c17.bench")).unwrap();
    let builds = [
        lower(&chain_bench("NOR", 8), &inertial),
        lower(&chain_bench("NOR", 8), &cached),
        lower(&chain_bench("NAND", 5), &cached),
        lower(&c17, &inertial),
        lower(&c17, &cached),
        lower(&tree_bench(4), &inertial),
        lower(&tree_bench(3), &CellLibrary::ideal()),
    ];
    for built in &builds {
        let inputs: Vec<DigitalTrace> = (0..built.net.input_count())
            .map(|_| grid_trace(&mut rng, 14))
            .collect();
        assert_engine_matches(&built.net, &inputs);
    }
}

/// Channel palette index → fresh channel (`None` = zero-time).
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

/// Builds a random feed-forward network over every channel kind: unary
/// and binary zero-time gates with optional single-input channels, plus
/// cached hybrid NOR/NAND two-input channel gates.
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

#[test]
fn engine_bit_identical_on_random_dags() {
    // For any acyclic wiring and any channel kind, the engine's outputs
    // equal the reference's bit for bit, cold and on a warm arena — on
    // empty traces and exactly-simultaneous edges too. (A panic in the
    // helper fails the case like a `prop_assert!`, seed included.)
    Config::with_cases(CASES).run(&(0u64..u64::MAX), |&seed| {
        let mut rng = TestRng::seed_from_u64(seed);
        let net = random_network(&mut rng);
        let inputs: Vec<DigitalTrace> = (0..net.input_count())
            .map(|_| grid_trace(&mut rng, 8))
            .collect();
        assert_engine_matches(&net, &inputs);
        Ok(())
    });
}

/// One site's rewrite: held at a constant, or a pulse `[t0, t1]`
/// XOR-merged into its trace (coincident edges cancel pairwise).
#[derive(Debug, Clone, Copy)]
enum Rewrite {
    Stuck(bool),
    Glitch(f64, f64),
}

/// Rewrites a few distinct sites, inputs and gates alike, one
/// [`Rewrite`] each.
struct SitesOverlay(Vec<(SignalId, Rewrite)>);

impl TraceOverlay for SitesOverlay {
    fn rewrites(&self, id: SignalId) -> bool {
        self.0.iter().any(|&(s, _)| s == id)
    }

    fn rewrite(&self, id: SignalId, view: TraceRef<'_>, out: &mut EdgeBuf) -> Result<(), SimError> {
        let &(_, rewrite) = self
            .0
            .iter()
            .find(|&&(s, _)| s == id)
            .expect("called for a rewritten site");
        match rewrite {
            Rewrite::Stuck(v) => out.clear(v),
            Rewrite::Glitch(t0, t1) => {
                let mut times = view.times().to_vec();
                times.extend([t0, t1]);
                times.sort_by(f64::total_cmp);
                out.clear(view.initial_value());
                let mut k = 0;
                while k < times.len() {
                    if times.get(k + 1) == Some(&times[k]) {
                        k += 2;
                    } else {
                        out.push_time(times[k])?;
                        k += 1;
                    }
                }
            }
        }
        Ok(())
    }
}

#[test]
fn every_run_seals_one_trace_per_signal_under_overlays() {
    // Arena trace `s` is signal `s`'s trace in every run: an overlay
    // rewrites the staged trace before the one seal, so no rewrite
    // leaves a second trace behind.
    Config::with_cases(CASES).run(&(0u64..u64::MAX), |&seed| {
        let mut rng = TestRng::seed_from_u64(seed);
        let net = random_network(&mut rng);
        let inputs: Vec<DigitalTrace> = (0..net.input_count())
            .map(|_| grid_trace(&mut rng, 8))
            .collect();
        let n = net.signal_count();
        let mut sites: Vec<(SignalId, Rewrite)> = Vec::new();
        for _ in 0..1 + rng.gen_u64_below(3) {
            let id = net.signal_id(rng.gen_u64_below(n as u64) as usize).unwrap();
            let rewrite = if rng.gen_bool(0.5) {
                Rewrite::Stuck(rng.gen_bool(0.5))
            } else {
                let t0 = ps(100.0 + rng.gen_u64_below(300) as f64 + 0.5);
                Rewrite::Glitch(t0, t0 + ps(20.0))
            };
            if !sites.iter().any(|&(s, _)| s == id) {
                sites.push((id, rewrite));
            }
        }
        let overlay = SitesOverlay(sites);
        let mut sim = Simulator::new(&net).unwrap();
        let mut arena = TraceArena::new();
        for ov in [Some(&overlay as &dyn TraceOverlay), None, Some(&overlay)] {
            sim.run_controlled_in(&inputs, &mut arena, &RunBudget::UNLIMITED, ov)
                .unwrap();
            prop_assert_eq!(arena.trace_count(), n, "seed {seed}");
        }
        // A stuck site reads back as its constant.
        for &(id, rewrite) in &overlay.0 {
            if let Rewrite::Stuck(v) = rewrite {
                let got = sim.trace(&arena, id);
                prop_assert!(got.is_empty() && got.initial_value() == v, "seed {seed}");
            }
        }
        Ok(())
    });
}

/// A channel whose owned and in-place paths disagree on purpose: `apply`
/// is the identity, `apply_into` delays every edge by 1 ps.
struct SplitChannel;

impl TraceTransform for SplitChannel {
    fn apply(&self, input: &DigitalTrace) -> Result<DigitalTrace, SimError> {
        Ok(input.clone())
    }

    fn apply_into(
        &self,
        input: TraceRef<'_>,
        out: &mut EdgeBuf,
    ) -> Result<ChannelEvents, SimError> {
        out.clear(input.initial_value());
        for &t in input.times() {
            out.push_time(t + ps(1.0))?;
        }
        Ok(ChannelEvents::default())
    }

    fn name(&self) -> &str {
        "split"
    }
}

#[test]
fn reference_does_not_share_the_engines_channel_kernels() {
    // `Network::run` composes owned `apply` calls and the engine runs
    // the in-place `apply_into` kernels. A channel whose two paths
    // disagree must therefore show up as a divergence: an oracle that
    // shared the engine's kernels would agree with it by construction.
    let mut net = Network::new();
    let a = net.add_input("a");
    let b = net.add_input("b");
    let y = net
        .add_gate("y", GateKind::Nor, &[a, b], Some(Box::new(SplitChannel)))
        .unwrap();
    let inputs = [
        DigitalTrace::with_edges(false, vec![(ps(100.0), true)]).unwrap(),
        DigitalTrace::constant(false),
    ];
    let want = net.run(&inputs).unwrap();
    let got = Simulator::new(&net).unwrap().run(&inputs).unwrap();
    assert_eq!(want[y.index()].edges()[0].time, ps(100.0));
    assert_eq!(got[y.index()].edges()[0].time, ps(101.0));
    assert_ne!(got[y.index()], want[y.index()]);
}

/// Random `.bench` netlist with safe names, wide gates, and forward
/// references (gates are written in reverse definition order half the
/// time), written as `.bench` lines and parsed.
fn random_bench(rng: &mut TestRng) -> BenchNetlist {
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
    let n_inputs = 1 + rng.gen_u64_below(4) as usize;
    let n_gates = 1 + rng.gen_u64_below(8) as usize;
    let mut defined: Vec<String> = (0..n_inputs).map(|i| format!("in{i}")).collect();
    let mut gates = Vec::new();
    for g in 0..n_gates {
        let func = FUNCS[rng.gen_u64_below(8) as usize];
        let arity = if func.is_unary() {
            1
        } else {
            2 + rng.gen_u64_below(4) as usize
        };
        let ops: Vec<&str> = (0..arity)
            .map(|_| defined[rng.gen_u64_below(defined.len() as u64) as usize].as_str())
            .collect();
        // Lower-case names stay fixed under the torture test's random
        // line-case flips (only keywords are case-insensitive).
        gates.push(format!("s{g} = {}({})\n", func.name(), ops.join(", ")));
        defined.push(format!("s{g}"));
    }
    if rng.gen_bool(0.5) {
        gates.reverse(); // forward references stay legal
    }
    let n_out = 1 + rng.gen_u64_below(3) as usize;
    let mut text: String = (0..n_inputs).map(|i| format!("INPUT(in{i})\n")).collect();
    for _ in 0..n_out {
        let name = &defined[rng.gen_u64_below(defined.len() as u64) as usize];
        text += &format!("OUTPUT({name})\n");
    }
    text += &gates.concat();
    BenchNetlist::parse(&text).expect("generator emits valid netlists")
}

#[test]
fn bench_write_parse_round_trip_is_identity() {
    Config::with_cases(CASES).run(&(0u64..u64::MAX), |&seed| {
        let mut rng = TestRng::seed_from_u64(seed);
        let nl = random_bench(&mut rng);
        let text = nl.to_text();
        let parsed = BenchNetlist::parse(&text).expect("canonical text parses");
        prop_assert_eq!(&parsed, &nl, "round trip (seed {seed})");
        // The writer is idempotent through a parse.
        prop_assert_eq!(parsed.to_text(), text);
        Ok(())
    });
}

#[test]
fn bench_parse_survives_comment_and_whitespace_torture() {
    // Injecting comments, blank lines, indentation, trailing whitespace
    // and random keyword case changes nothing semantically.
    Config::with_cases(CASES).run(&(0u64..u64::MAX), |&seed| {
        let mut rng = TestRng::seed_from_u64(seed);
        let nl = random_bench(&mut rng);
        let mut tortured = String::from("# header comment\n\n");
        for line in nl.to_text().lines() {
            match rng.gen_u64_below(4) {
                0 => tortured.push_str("   \t\n"),
                1 => tortured.push_str("# interleaved comment, with (parens) = and , commas\n"),
                _ => {}
            }
            let line = if rng.gen_bool(0.3) {
                line.to_ascii_lowercase()
            } else {
                line.to_owned()
            };
            let line = line.replace('(', " ( ").replace(',', " ,\t");
            tortured.push('\t');
            tortured.push_str(&line);
            if rng.gen_bool(0.5) {
                tortured.push_str("  # trailing");
            }
            tortured.push('\n');
        }
        let parsed = BenchNetlist::parse(&tortured).expect("tortured text parses");
        prop_assert_eq!(&parsed, &nl, "torture changed the parse (seed {seed})");
        Ok(())
    });
}

#[test]
fn bench_parse_survives_crlf_and_bom_torture() {
    // Files exported from Windows tooling arrive with a UTF-8 BOM and
    // CRLF line endings (sometimes mixed with bare LF after hand edits);
    // both must round-trip to the same netlist as the canonical text.
    Config::with_cases(CASES).run(&(0u64..u64::MAX), |&seed| {
        let mut rng = TestRng::seed_from_u64(seed);
        let nl = random_bench(&mut rng);
        let mut tortured = String::new();
        if rng.gen_bool(0.7) {
            tortured.push('\u{FEFF}');
        }
        for line in nl.to_text().lines() {
            tortured.push_str(line);
            // Mixed line-ending torture: CRLF mostly, bare LF sometimes,
            // and the occasional trailing whitespace before the ending.
            if rng.gen_bool(0.2) {
                tortured.push(' ');
            }
            if rng.gen_bool(0.8) {
                tortured.push_str("\r\n");
            } else {
                tortured.push('\n');
            }
        }
        if rng.gen_bool(0.3) {
            tortured.push('\r'); // stray final CR, no newline
        }
        let parsed = BenchNetlist::parse(&tortured).expect("CRLF/BOM text parses");
        prop_assert_eq!(
            &parsed,
            &nl,
            "CRLF/BOM torture changed the parse (seed {seed})"
        );
        // And the canonical writer round-trips the re-parse (identity).
        prop_assert_eq!(parsed.to_text(), nl.to_text());
        Ok(())
    });
}

// ---- one malformed-input test per parser error variant ----

#[test]
fn error_syntax() {
    for bad in [
        "INPUT(a)\nOUTPUT(a)\nbogus line",
        "INPUT(a)\ny = NOT(a",
        "INPUT(a)\ny = NOT(a) trailing",
        "INPUT(a)\ny = NOT()",
        "INPUT(a, b)\n",
        "INPUT(a)\nWIBBLE(a)\n",
        "INPUT(a)\nx y = NOT(a)",
    ] {
        assert!(
            matches!(BenchNetlist::parse(bad), Err(BenchError::Syntax { .. })),
            "expected Syntax error for {bad:?}, got {:?}",
            BenchNetlist::parse(bad)
        );
    }
}

#[test]
fn error_unknown_function() {
    let r = BenchNetlist::parse("INPUT(a)\nOUTPUT(y)\ny = DFF(a, a)");
    match r {
        Err(BenchError::UnknownFunction { line, name }) => {
            assert_eq!(line, 3);
            assert_eq!(name, "DFF");
        }
        other => panic!("expected UnknownFunction, got {other:?}"),
    }
}

#[test]
fn error_bad_arity() {
    for (bad, func) in [
        ("INPUT(a)\ny = NOT(a, a)", "NOT"),
        ("INPUT(a)\ny = BUFF(a, a)", "BUFF"),
        ("INPUT(a)\ny = NAND(a)", "NAND"),
        ("INPUT(a)\ny = XOR(a)", "XOR"),
    ] {
        match BenchNetlist::parse(bad) {
            Err(BenchError::BadArity { function, .. }) => assert_eq!(function, func),
            other => panic!("expected BadArity for {bad:?}, got {other:?}"),
        }
    }
}

#[test]
fn error_duplicate() {
    for bad in [
        "INPUT(a)\nINPUT(a)",
        "INPUT(a)\ny = NOT(a)\ny = BUFF(a)",
        "INPUT(a)\na = NOT(a)",
    ] {
        assert!(
            matches!(BenchNetlist::parse(bad), Err(BenchError::Duplicate { .. })),
            "expected Duplicate for {bad:?}"
        );
    }
}

#[test]
fn error_undefined() {
    match BenchNetlist::parse("INPUT(a)\nOUTPUT(y)\ny = NAND(a, ghost)") {
        Err(BenchError::Undefined { line, name }) => {
            assert_eq!(name, "ghost");
            assert_eq!(line, 3, "reported at the referencing gate line");
        }
        other => panic!("expected Undefined, got {other:?}"),
    }
    assert!(matches!(
        BenchNetlist::parse("INPUT(a)\nOUTPUT(nowhere)"),
        Err(BenchError::Undefined { .. })
    ));
}

#[test]
fn error_cycle() {
    let r = BenchNetlist::parse("INPUT(a)\nx = NAND(a, y)\ny = NAND(a, x)");
    assert!(matches!(r, Err(BenchError::Cycle { .. })), "got {r:?}");
    // Self-loop.
    assert!(matches!(
        BenchNetlist::parse("INPUT(a)\nx = NAND(a, x)"),
        Err(BenchError::Cycle { .. })
    ));
}

#[test]
fn error_empty() {
    assert!(matches!(BenchNetlist::parse(""), Err(BenchError::Empty)));
    assert!(matches!(
        BenchNetlist::parse("# only comments\n\n  # here\n"),
        Err(BenchError::Empty)
    ));
}

// ---- committed fixtures ----

#[test]
fn committed_charlib_text_libraries_round_trip() {
    let file = "data/charlib/nor_paper.mislib";
    let path = workspace_root().join(file);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let lib = CharLib::from_text(&text).expect("committed library parses");
    // Loader round trip is the identity on the committed bytes, so
    // `load → save` can never silently reformat a committed library.
    assert_eq!(lib.to_text(), text, "{file} round trip");
    // And the loaded tables drive the cached fast path directly.
    let cells = CellLibrary::hybrid(&lib, None).expect("loaded NOR library builds cells");
    assert!(cells.shared_tables().is_some());
}

#[test]
fn c17_fixture_truth_table_on_constant_inputs() {
    let text = std::fs::read_to_string(workspace_root().join("data/bench/c17.bench")).unwrap();
    let nl = BenchNetlist::parse(&text).expect("c17 fixture parses");
    assert_eq!(nl.input_count(), 5);
    assert_eq!(nl.outputs().len(), 2);
    assert_eq!(nl.gate_count(), 6);

    let lowered = nl.lower(&CellLibrary::ideal()).unwrap();
    let nand = |x: bool, y: bool| !(x && y);
    // Exhaustive over all 32 input vectors: constant traces propagate
    // as initial values through zero-time NANDs.
    for bits in 0..32u32 {
        let v: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
        let inputs: Vec<DigitalTrace> = v.iter().map(|&x| DigitalTrace::constant(x)).collect();
        let traces = lowered.net.run(&inputs).unwrap();
        let g10 = nand(v[0], v[2]);
        let g11 = nand(v[2], v[3]);
        let g16 = nand(v[1], g11);
        let g19 = nand(g11, v[4]);
        let got = [0, 1].map(|k| traces[lowered.outputs[k].index()].initial_value());
        assert_eq!(
            got,
            [nand(g10, g16), nand(g16, g19)],
            "outputs 22, 23 for bits {bits:05b}"
        );
    }
}

/// Constant-input reference model of the committed C432-scale circuit
/// (priority interrupt controller, see `make_data.rs`).
fn c432_reference(e: u16, a: u16, b: u16, c: u16) -> [bool; 7] {
    let va = a & e;
    let vb = b & e;
    let vc = c & e;
    let pa = va != 0;
    let pb = !pa && vb != 0;
    let pc = !pa && !pb && vc != 0;
    let r = if pa {
        va
    } else if pb {
        vb
    } else if pc {
        vc
    } else {
        0
    };
    let chan = if r == 0 { 0 } else { r.trailing_zeros() };
    [
        pa,
        pb,
        pc,
        chan & 8 != 0,
        chan & 4 != 0,
        chan & 2 != 0,
        chan & 1 != 0,
    ]
}

#[test]
fn c432_fixture_loads_runs_and_encodes_priorities() {
    let text = std::fs::read_to_string(workspace_root().join("data/bench/c432.bench")).unwrap();
    let nl = BenchNetlist::parse(&text).expect("c432 fixture parses");
    assert_eq!(nl.input_count(), 36);
    assert_eq!(nl.outputs().len(), 7);
    assert_eq!(nl.gate_count(), 132);

    let lowered = nl.lower(&CellLibrary::ideal()).unwrap();
    let mut sim = Simulator::new(&lowered.net).expect("engine construction");
    let mut rng = TestRng::seed_from_u64(0xC432);
    let mut check = |e: u16, a: u16, b: u16, c: u16| {
        let mut inputs = Vec::with_capacity(36);
        for mask in [e, a, b, c] {
            for i in 0..9 {
                inputs.push(DigitalTrace::constant(mask >> i & 1 == 1));
            }
        }
        let traces = sim.run(&inputs).unwrap();
        let want = c432_reference(e, a, b, c);
        for (k, out) in lowered.outputs.iter().enumerate() {
            assert_eq!(
                traces[out.index()].initial_value(),
                want[k],
                "output {k} for e={e:09b} a={a:09b} b={b:09b} c={c:09b}"
            );
        }
    };
    check(0, 0, 0, 0);
    check(0x1FF, 0x1FF, 0x1FF, 0x1FF);
    check(0x1FF, 0, 0, 0x100);
    check(0x0F0, 0x100, 0x0F0, 0);
    for _ in 0..60 {
        let m = |rng: &mut TestRng| (rng.next_u64() & 0x1FF) as u16;
        check(m(&mut rng), m(&mut rng), m(&mut rng), m(&mut rng));
    }
}

/// Constant-input reference model of the committed C880-scale 8-bit ALU
/// (see `make_data.rs`): buses as bit masks, controls as booleans,
/// returns the 27 outputs in declaration order.
#[allow(clippy::too_many_arguments)]
fn c880_reference(
    a: u16,
    b: u16,
    c: u16,
    d: u16,
    e: u16,
    g: u16,
    f: u8,
    cin: bool,
    inv: bool,
    ps0: bool,
    ps1: bool,
    ten: bool,
    zen: bool,
    pen: bool,
    oen: bool,
) -> Vec<bool> {
    let mask = |v: u16| v & 0xFF;
    let xb = mask(b ^ if inv { 0xFF } else { 0 });
    let mut cy = [false; 9];
    cy[0] = cin;
    let mut s: u16 = 0;
    for i in 0..8 {
        let ai = a >> i & 1 == 1;
        let xbi = xb >> i & 1 == 1;
        let p = ai ^ xbi;
        let gn = ai && xbi;
        if p ^ cy[i] {
            s |= 1 << i;
        }
        cy[i + 1] = gn || (p && cy[i]);
    }
    let cout = cy[8];
    let ovf = oen && (cy[7] ^ cy[8]);
    let sel = f >> 1 & 7; // F3 F2 F1
    let m = mask(match sel {
        0 => s,
        1 => a & b,
        2 => a | b,
        3 => a ^ b,
        4 => !(a & b),
        5 => !(a | b),
        6 => !(a ^ b),
        _ => a,
    });
    let y = mask(m ^ if f & 1 == 1 { 0xFF } else { 0 });
    let r = y & mask(g);
    let zero = zen && y == 0;
    let par = pen && y.count_ones() % 2 == 1;
    let pdec0 = ten && !ps0;
    let pdec1 = ten && ps0;
    let tv = (if pdec0 { mask(c) } else { 0 }) | (if pdec1 { mask(d) } else { 0 });
    let t = tv & mask(e);
    let pt = (t.count_ones() % 2 == 1) ^ ps1;
    let eq = mask(a) == mask(b);
    let agb = mask(a) > mask(b);
    let k = if t == 0 { 0 } else { 15 - t.leading_zeros() };
    let mut out: Vec<bool> = (0..8).map(|i| r >> i & 1 == 1).collect();
    out.extend([cout, ovf, par, zero]);
    out.extend((0..8).map(|i| t >> i & 1 == 1));
    out.extend([pt, eq, agb, k & 4 != 0, k & 2 != 0, k & 1 != 0, t != 0]);
    out
}

#[test]
fn c880_fixture_loads_runs_and_matches_the_alu_reference() {
    let text = std::fs::read_to_string(workspace_root().join("data/bench/c880.bench")).unwrap();
    let nl = BenchNetlist::parse(&text).expect("c880 fixture parses");
    assert_eq!(nl.input_count(), 60);
    assert_eq!(nl.outputs().len(), 27);
    assert_eq!(nl.gate_count(), 366);

    let lowered = nl.lower(&CellLibrary::ideal()).unwrap();
    let mut sim = Simulator::new(&lowered.net).expect("engine construction");
    let mut rng = TestRng::seed_from_u64(0x880);
    let mut check = |a: u16, b: u16, c: u16, d: u16, e: u16, g: u16, f: u8, ctl: u8| {
        let bit = |v: u16, i: usize| v >> i & 1 == 1;
        let (cin, inv, ps0, ps1) = (ctl & 1 != 0, ctl & 2 != 0, ctl & 4 != 0, ctl & 8 != 0);
        let (ten, zen, pen, oen) = (ctl & 16 != 0, ctl & 32 != 0, ctl & 64 != 0, ctl & 128 != 0);
        let mut inputs = Vec::with_capacity(60);
        for mask in [a, b, c, d, e, g] {
            for i in 0..8 {
                inputs.push(DigitalTrace::constant(bit(mask, i)));
            }
        }
        for i in 0..4 {
            inputs.push(DigitalTrace::constant(f >> i & 1 == 1));
        }
        for v in [cin, inv, ps0, ps1, ten, zen, pen, oen] {
            inputs.push(DigitalTrace::constant(v));
        }
        let traces = sim.run(&inputs).unwrap();
        let want = c880_reference(a, b, c, d, e, g, f, cin, inv, ps0, ps1, ten, zen, pen, oen);
        for (k, out) in lowered.outputs.iter().enumerate() {
            assert_eq!(
                traces[out.index()].initial_value(),
                want[k],
                "output {k} ('{}') for a={a:08b} b={b:08b} c={c:08b} d={d:08b} e={e:08b} \
                 g={g:08b} f={f:04b} ctl={ctl:08b}",
                nl.name(nl.outputs()[k])
            );
        }
    };
    // Corners: all-zero, all-ones, add overflow, subtract-to-zero, pass
    // bus selects, every function code.
    check(0, 0, 0, 0, 0, 0, 0, 0);
    check(0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xF, 0xFF);
    check(0x80, 0x80, 0, 0, 0, 0xFF, 0, 0b1000_0000);
    check(0x55, 0x55, 0, 0, 0, 0xFF, 0, 0b0000_0011); // A - B = 0 with INV+CIN
    check(0, 0, 0xAA, 0x55, 0xFF, 0, 0, 0b0001_0000); // pass C
    check(0, 0, 0xAA, 0x55, 0xFF, 0, 0, 0b0001_0100); // pass D
    for f in 0..16u8 {
        check(0xC3, 0x5A, 0, 0, 0, 0xFF, f, 0);
    }
    for _ in 0..60 {
        let m = |rng: &mut TestRng| (rng.next_u64() & 0xFF) as u16;
        let (a, b, c, d) = (m(&mut rng), m(&mut rng), m(&mut rng), m(&mut rng));
        let (e, g) = (m(&mut rng), m(&mut rng));
        let f = (rng.next_u64() & 0xF) as u8;
        let ctl = (rng.next_u64() & 0xFF) as u8;
        check(a, b, c, d, e, g, f, ctl);
    }
}

#[test]
fn c880_engines_match_sweep_under_timed_cells() {
    // The engine (via assert_engine_matches) on the C880-scale fixture
    // under both timed cell libraries.
    let text = std::fs::read_to_string(workspace_root().join("data/bench/c880.bench")).unwrap();
    let nl = BenchNetlist::parse(&text).unwrap();
    let fallback = InertialChannel::symmetric(ps(50.0), ps(38.0)).unwrap();
    let cells = [
        CellLibrary::inertial(fallback.clone()),
        CellLibrary::hybrid(shared_lib(), Some(fallback)).unwrap(),
    ];
    let mut rng = TestRng::seed_from_u64(0x880);
    for cells in cells {
        let lowered = nl.lower(&cells).unwrap();
        let inputs: Vec<DigitalTrace> = (0..60).map(|_| grid_trace(&mut rng, 6)).collect();
        assert_engine_matches(&lowered.net, &inputs);
    }
}

#[test]
fn c432_event_engine_matches_sweep_under_timed_cells() {
    let text = std::fs::read_to_string(workspace_root().join("data/bench/c432.bench")).unwrap();
    let nl = BenchNetlist::parse(&text).unwrap();
    let fallback = InertialChannel::symmetric(ps(50.0), ps(38.0)).unwrap();
    let cells = [
        CellLibrary::inertial(fallback.clone()),
        CellLibrary::hybrid(shared_lib(), Some(fallback)).unwrap(),
    ];
    let mut rng = TestRng::seed_from_u64(0x432);
    for cells in cells {
        let lowered = nl.lower(&cells).unwrap();
        let inputs: Vec<DigitalTrace> = (0..36).map(|_| grid_trace(&mut rng, 10)).collect();
        assert_engine_matches(&lowered.net, &inputs);
    }
}
