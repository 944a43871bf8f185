//! The paper's runtime experiment (Section VI, last paragraph): "a minor
//! overhead of the hybrid model compared to the simple inertial delay
//! model or the Exp-Channel of 6 %".
//!
//! We measure the time for one *NOR gate model* to consume a
//! 500-transition random trace pair, on the engine's steady-state arena
//! path (warm `EdgeBuf`s, amortized-zero allocation — what
//! `mis_sim::Simulator` executes per gate):
//!
//! * single-input channels run as the fused pass they get inside a
//!   network: zero-time ideal NOR (`gates::combine2_into`) streaming into
//!   the channel kernel (`apply_into`) — both halves are part of the
//!   model's cost, exactly as the Involution Tool pays them;
//! * the hybrid channels consume the input pair directly
//!   (`apply2_into` for the cached fast path; the exact ODE channel keeps
//!   the allocating `apply2`, it is the accuracy reference, not a
//!   throughput contender).
//!
//! The absolute numbers are implementation-specific; the claim under
//! test is that the hybrid gate model's cost is the same order as the
//! inertial gate model's, not multiples of it.
//!
//! Runs on the in-repo `mis-testkit` bench harness (offline replacement
//! for `criterion`), which prints a table and a JSON line and writes no
//! file; `scripts/ab.sh` compares every id against a base revision in
//! one session.

use mis_charlib::{CharConfig, CharLib};
use mis_core::NorParams;
use mis_digital::{
    gates, CachedHybridChannel, ExpChannel, HybridNorChannel, InertialChannel, SumExpChannel,
    TraceTransform, TwoInputTransform,
};
use mis_testkit::bench::Harness;
use mis_waveform::generate::{Assignment, TraceConfig};
use mis_waveform::units::ps;
use mis_waveform::EdgeBuf;

fn main() {
    let mut h = Harness::from_args("channel_throughput");

    let pair = TraceConfig::new(ps(150.0), ps(60.0), Assignment::Local, 500)
        .generate(0xbe7)
        .expect("trace generation");

    let inertial = InertialChannel::symmetric(ps(50.0), ps(38.0)).expect("channel");
    let exp = ExpChannel::from_sis_delays(ps(50.0), ps(38.0), ps(20.0)).expect("channel");
    let sumexp = SumExpChannel::from_sis_delay(ps(50.0), ps(20.0), 0.7, 4.0).expect("channel");
    let hybrid = HybridNorChannel::new(&NorParams::paper_table1()).expect("channel");
    let lib =
        CharLib::nor(&NorParams::paper_table1(), &CharConfig::default()).expect("characterization");
    let cached = CachedHybridChannel::new(&lib).expect("channel");

    // Warm SoA views of the input pair + reusable staging buffers: the
    // steady state of a warm `TraceArena`.
    let (mut abuf, mut bbuf) = (EdgeBuf::new(), EdgeBuf::new());
    abuf.copy_trace(&pair.a);
    bbuf.copy_trace(&pair.b);
    let mut scratch = EdgeBuf::new();
    let mut out = EdgeBuf::new();

    let nor = |x: bool, y: bool| !(x || y);

    h.bench("channel_500_transitions/inertial", || {
        gates::combine2_into(nor, abuf.as_ref(), bbuf.as_ref(), &mut scratch).expect("ideal");
        inertial
            .apply_into(scratch.as_ref(), &mut out)
            .expect("inertial");
        out.len()
    });
    h.bench("channel_500_transitions/exp_involution", || {
        gates::combine2_into(nor, abuf.as_ref(), bbuf.as_ref(), &mut scratch).expect("ideal");
        exp.apply_into(scratch.as_ref(), &mut out).expect("exp");
        out.len()
    });
    h.bench("channel_500_transitions/sumexp_involution", || {
        gates::combine2_into(nor, abuf.as_ref(), bbuf.as_ref(), &mut scratch).expect("ideal");
        sumexp
            .apply_into(scratch.as_ref(), &mut out)
            .expect("sumexp");
        out.len()
    });
    h.bench_batched(
        "channel_500_transitions/hybrid_nor",
        || (pair.a.clone(), pair.b.clone()),
        |(a, b)| hybrid.apply2(&a, &b).expect("hybrid"),
    );
    h.bench("channel_500_transitions/hybrid_nor_cached", || {
        cached
            .apply2_into(abuf.as_ref(), bbuf.as_ref(), &mut out)
            .expect("cached hybrid");
        out.len()
    });

    h.finish();
}
