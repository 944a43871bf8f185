//! Property-based tests for the delay channels: involution axioms,
//! cancellation sanity, well-formedness of channel outputs under random
//! traffic, hybrid-channel causality, and bit-identity of the in-place
//! kernels (`*_into` channels, `gates::combine2_into`) against their
//! owned twins. Whole-netlist bit-identity of the `mis-sim` engine
//! against the owned-trace `Network::run` reference lives in
//! `crates/sim/tests/proptests.rs`. On the in-repo `mis-testkit` harness
//! (offline replacement for `proptest`).

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

use mis_charlib::{CharConfig, CharLib};
use mis_core::NorParams;
use mis_digital::{
    gates, CachedHybridChannel, ExpChannel, HybridNorChannel, InertialChannel, NandChannel,
    PureDelayChannel, TraceTransform, TwoInputTransform,
};
use mis_testkit::prelude::*;
use mis_testkit::rng::TestRng;
use mis_waveform::units::ps;
use mis_waveform::{DigitalTrace, EdgeBuf};

/// The original proptest suite ran these properties at 48 cases each.
const CASES: u32 = 48;

/// Random well-formed trace with gaps on the gate-delay scale.
fn trace(max_edges: usize) -> impl Strategy<Value = DigitalTrace> {
    (any_bool(), vec(5e-12..400e-12f64, 0..max_edges)).prop_map(|(init, gaps)| {
        let mut t = 100e-12;
        let mut v = init;
        let mut trace = DigitalTrace::constant(init);
        for g in gaps {
            t += g;
            v = !v;
            trace.push_edge(t, v).expect("monotone");
        }
        trace
    })
}

#[test]
fn exp_channel_involution_for_random_parameters() {
    Config::with_cases(CASES).run(
        &(20e-12..120e-12f64, 20e-12..120e-12f64, 0.0..15e-12f64),
        |&(sis_up, sis_down, dp)| {
            prop_assume!(sis_up > dp + 1e-12 && sis_down > dp + 1e-12);
            let ch = ExpChannel::from_sis_delays(sis_up, sis_down, dp).unwrap();
            for i in 0..20 {
                let t = -20e-12 + 10e-12 * i as f64;
                let d = ch.delta_up(t);
                if d.is_finite() {
                    let back = -ch.delta_down(-d);
                    // Tolerance: the ln/exp round trip amplifies f64 rounding
                    // when T ≫ τ; one attosecond absolute + 1e-6 relative is
                    // far below any physical significance.
                    prop_assert!(
                        (back - t).abs() < 1e-18 + 1e-6 * t.abs(),
                        "pair involution broken at T={t:e}: {back:e}"
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn channels_produce_wellformed_output_on_random_traffic() {
    Config::with_cases(CASES).run(&trace(12), |input| {
        // Well-formedness is enforced by DigitalTrace construction inside
        // each channel; additionally: outputs are causal.
        let first_in = input.edges().first().map(|e| e.time);
        let channels: Vec<Box<dyn TraceTransform>> = vec![
            Box::new(InertialChannel::symmetric(ps(40.0), ps(30.0)).unwrap()),
            Box::new(ExpChannel::from_sis_delays(ps(50.0), ps(38.0), ps(15.0)).unwrap()),
        ];
        for ch in &channels {
            let out = ch.apply(input).unwrap();
            prop_assert_eq!(out.initial_value(), input.initial_value(), "{}", ch.name());
            if let (Some(t_in), Some(first_out)) = (first_in, out.edges().first()) {
                prop_assert!(first_out.time > t_in, "{} output precedes input", ch.name());
            }
            prop_assert!(
                out.transition_count() <= input.transition_count(),
                "{} created transitions",
                ch.name()
            );
        }
        Ok(())
    });
}

#[test]
fn hybrid_channel_causal_and_wellformed() {
    Config::with_cases(CASES).run(&(trace(8), trace(8)), |(a, b)| {
        let ch = HybridNorChannel::new(&NorParams::paper_table1()).unwrap();
        let out = ch.apply2(a, b).unwrap();
        // Initial value consistent with NOR of initial inputs.
        prop_assert_eq!(
            out.initial_value(),
            !(a.initial_value() || b.initial_value())
        );
        // Causality: no output edge before the first input edge + δ_min.
        let first_in = a
            .edges()
            .first()
            .map(|e| e.time)
            .into_iter()
            .chain(b.edges().first().map(|e| e.time))
            .fold(f64::INFINITY, f64::min);
        if let Some(first_out) = out.edges().first() {
            prop_assert!(first_out.time >= first_in + NorParams::paper_table1().delta_min - 1e-18);
        }
        Ok(())
    });
}

#[test]
fn hybrid_channel_monotone_under_time_shift() {
    Config::with_cases(CASES).run(
        &(trace(6), trace(6), 0.0..1e-9f64),
        |&(ref a, ref b, dt)| {
            // Time-invariance: shifting both inputs shifts the output.
            let ch = HybridNorChannel::new(&NorParams::paper_table1()).unwrap();
            let out = ch.apply2(a, b).unwrap();
            let out_shifted = ch.apply2(&a.shifted(dt), &b.shifted(dt)).unwrap();
            prop_assert_eq!(out.transition_count(), out_shifted.transition_count());
            for (e1, e2) in out.edges().iter().zip(out_shifted.edges()) {
                prop_assert!(
                    (e2.time - e1.time - dt).abs() < 1e-15,
                    "shift broken: {:e} vs {:e} + {dt:e}",
                    e2.time,
                    e1.time
                );
                prop_assert_eq!(e1.rising, e2.rising);
            }
            Ok(())
        },
    );
}

/// Characterized NOR library for the cached channels, built once (quick
/// config — enough for bit-identity checks, which compare the cached
/// channel against itself along two code paths, not against the exact
/// model).
fn shared_lib() -> &'static CharLib {
    static LIB: OnceLock<CharLib> = OnceLock::new();
    LIB.get_or_init(|| {
        CharLib::nor(&NorParams::paper_table1(), &CharConfig::quick()).expect("characterization")
    })
}

/// Random trace on a 5 ps grid, so exactly-simultaneous edges across
/// independently generated traces are common (the tie-handling paths of
/// the gate merge), including empty traces.
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

/// Length-skewed input pairs: a short trace (0–3 edges), held high and
/// held low after its last edge (it and its inverse), against a trace
/// of up to `long_edges` edges, in both orders, so the long input
/// mostly runs on past the short input's last edge.
fn skewed_pairs(rng: &mut TestRng, long_edges: u64) -> Vec<(DigitalTrace, DigitalTrace)> {
    let short = grid_trace(rng, 3);
    let long = grid_trace(rng, long_edges);
    let inverse = gates::not(&short).unwrap();
    [short, inverse]
        .into_iter()
        .flat_map(|s| [(s.clone(), long.clone()), (long.clone(), s)])
        .collect()
}

/// Channel palette index → fresh allocating channel (`None` = no channel).
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

#[test]
fn apply_into_bit_identical_to_apply_for_every_channel() {
    Config::with_cases(CASES).run(&(0u64..u64::MAX), |&seed| {
        let mut rng = TestRng::seed_from_u64(seed);
        let input = grid_trace(&mut rng, 12);
        let mut view = EdgeBuf::new();
        view.copy_trace(&input);
        let mut out = EdgeBuf::new();
        for ch in 1..5 {
            let c = spec_channel(ch).unwrap();
            let want = c.apply(&input).unwrap();
            c.apply_into(view.as_ref(), &mut out).unwrap();
            prop_assert_eq!(out.to_trace(), want, "channel {}", c.name());
        }
        Ok(())
    });
}

/// Every two-input channel's in-place path against its owned one: the
/// cached NOR, the exact hybrid NOR, and the NAND adapter over each
/// (the cached one is what cell libraries build).
#[test]
fn apply2_into_bit_identical_to_apply2() {
    let nor = Arc::new(CachedHybridChannel::new(shared_lib()).unwrap());
    let nand = NandChannel::new(Arc::clone(&nor));
    let exact = HybridNorChannel::new(&NorParams::paper_table1()).unwrap();
    let exact_nand = NandChannel::new(exact.clone());
    // Each channel called directly and as the engine calls it: through
    // a box (the `Arc` forwarding, for the NOR, that cell libraries hand
    // to networks). The forwarding must keep both the output and the
    // scheduler's returned tallies.
    let channels: [(&dyn TwoInputTransform, Box<dyn TwoInputTransform>); 4] = [
        (&*nor, Box::new(Arc::clone(&nor))),
        (&nand, Box::new(nand.clone())),
        (&exact, Box::new(exact.clone())),
        (&exact_nand, Box::new(exact_nand.clone())),
    ];
    Config::with_cases(CASES).run(&(0u64..u64::MAX), |&seed| {
        let mut rng = TestRng::seed_from_u64(seed);
        let mut pairs = vec![(grid_trace(&mut rng, 10), grid_trace(&mut rng, 10))];
        // The held-high stop and the held-low tail, in both input slots.
        pairs.extend(skewed_pairs(&mut rng, 30));
        let (mut va, mut vb) = (EdgeBuf::new(), EdgeBuf::new());
        let mut out = EdgeBuf::new();
        for (k, (a, b)) in pairs.iter().enumerate() {
            va.copy_trace(a);
            vb.copy_trace(b);
            for (direct, boxed) in &channels {
                let want = direct.apply2(a, b).unwrap();
                let events = direct
                    .apply2_into(va.as_ref(), vb.as_ref(), &mut out)
                    .unwrap();
                prop_assert_eq!(&out.to_trace(), &want, "{}, pair {}", direct.name(), k);
                let boxed_events = boxed
                    .apply2_into(va.as_ref(), vb.as_ref(), &mut out)
                    .unwrap();
                prop_assert_eq!(&out.to_trace(), &want, "{} boxed, pair {}", boxed.name(), k);
                prop_assert_eq!(
                    boxed_events,
                    events,
                    "{} events boxed, pair {}",
                    boxed.name(),
                    k
                );
            }
        }
        Ok(())
    });
}

/// The in-place ideal-gate merge against the owned `combine2` oracle
/// (sort + dedup + `value_at`), over all 16 two-input truth tables. The
/// 5 ps grid makes simultaneous edges common, `(a, a)` makes every edge
/// a tie, and one warm buffer is reused across every case, so a merge
/// that leaves stale slots from a longer earlier output fails. The
/// length-skewed pairs give every case long tails past the short
/// input's last edge, held high and held low, so across the tables
/// each case copies some tails and drops others.
#[test]
fn combine2_into_matches_owned_combine2_for_every_truth_table() {
    let out = RefCell::new(EdgeBuf::new());
    Config::with_cases(CASES).run(&(0u64..u64::MAX), |&seed| {
        let mut rng = TestRng::seed_from_u64(seed);
        let (a, b) = (grid_trace(&mut rng, 200), grid_trace(&mut rng, 200));
        let (lo, hi) = (DigitalTrace::constant(false), DigitalTrace::constant(true));
        let skewed = skewed_pairs(&mut rng, 200);
        let mut pairs = vec![
            (&a, &b),
            (&b, &a),
            (&a, &a),
            (&a, &lo),
            (&hi, &b),
            (&lo, &hi),
        ];
        pairs.extend(skewed.iter().map(|(x, y)| (x, y)));
        let mut out = out.borrow_mut();
        let (mut va, mut vb) = (EdgeBuf::new(), EdgeBuf::new());
        for table in 0..16usize {
            let f =
                move |x: bool, y: bool| (table >> (usize::from(x) | usize::from(y) << 1)) & 1 == 1;
            for (k, &(x, y)) in pairs.iter().enumerate() {
                let want = gates::combine2(f, x, y).unwrap();
                va.copy_trace(x);
                vb.copy_trace(y);
                let got = gates::combine2_into(f, va.as_ref(), vb.as_ref(), &mut out);
                prop_assert!(got.is_ok(), "table {table:04b} pair {k}: {got:?}");
                prop_assert_eq!(out.to_trace(), want, "table {:04b} pair {}", table, k);
            }
        }
        Ok(())
    });
}

#[test]
fn zero_time_gates_satisfy_boolean_algebra() {
    Config::with_cases(CASES).run(&(trace(6), trace(6)), |(a, b)| {
        // De Morgan over traces: NOR(a,b) == AND(¬a, ¬b).
        let lhs = gates::nor(a, b).unwrap();
        let (not_a, not_b) = (gates::not(a).unwrap(), gates::not(b).unwrap());
        let rhs = gates::combine2(|x, y| x && y, &not_a, &not_b).unwrap();
        prop_assert_eq!(lhs, rhs);
        // Idempotence: OR(a, a) == a.
        prop_assert_eq!(&gates::combine2(|x, y| x || y, a, a).unwrap(), a);
        Ok(())
    });
}

#[test]
fn pure_delay_commutes_with_gates() {
    Config::with_cases(CASES).run(
        &(trace(6), trace(6), 0.0..100e-12f64),
        |&(ref a, ref b, d)| {
            // Delaying both inputs then NOR-ing equals NOR-ing then delaying.
            let ch = mis_digital::PureDelayChannel::new(d).unwrap();
            let path1 = gates::nor(&ch.apply(a).unwrap(), &ch.apply(b).unwrap()).unwrap();
            let path2 = ch.apply(&gates::nor(a, b).unwrap()).unwrap();
            prop_assert_eq!(path1, path2);
            Ok(())
        },
    );
}
