//! Steady-state allocation-freedom of the in-place channel kernels,
//! asserted with the `mis-testkit` counting allocator: once the output
//! buffer is warm, re-applying a channel (probed or not) performs
//! **zero** heap allocations. The whole-netlist gates on a warm
//! `mis_sim::Simulator` live in `crates/sim/tests/alloc.rs`.
//!
//! This is an integration test (its own binary) precisely so the counting
//! allocator can be installed globally without touching any other target.

use mis_charlib::{CharConfig, CharLib};
use mis_core::NorParams;
use mis_digital::{CachedHybridChannel, InertialChannel, TraceTransform};
use mis_testkit::alloc::{self, CountingAllocator};
use mis_waveform::generate::{Assignment, TraceConfig};
use mis_waveform::units::ps;
use mis_waveform::{DigitalTrace, EdgeBuf};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn quick_lib() -> CharLib {
    CharLib::nor(&NorParams::paper_table1(), &CharConfig::quick()).expect("characterization")
}

fn traffic(seed: u64) -> Vec<DigitalTrace> {
    let pair = TraceConfig::new(ps(160.0), ps(60.0), Assignment::Local, 120)
        .generate(seed)
        .expect("trace generation");
    vec![pair.a, pair.b]
}

#[test]
fn warm_channel_apply_into_is_allocation_free() {
    let lib = quick_lib();
    let cached = CachedHybridChannel::new(&lib).unwrap();
    let inertial = InertialChannel::symmetric(ps(45.0), ps(35.0)).unwrap();
    let inputs = traffic(0xF00);
    let (mut abuf, mut bbuf) = (EdgeBuf::new(), EdgeBuf::new());
    abuf.copy_trace(&inputs[0]);
    bbuf.copy_trace(&inputs[1]);
    let mut out = EdgeBuf::new();
    // Warm-up.
    use mis_digital::TwoInputTransform;
    cached
        .apply2_into(abuf.as_ref(), bbuf.as_ref(), &mut out)
        .unwrap();
    inertial.apply_into(abuf.as_ref(), &mut out).unwrap();
    let (allocations, ()) = alloc::count_in(|| {
        cached
            .apply2_into(abuf.as_ref(), bbuf.as_ref(), &mut out)
            .unwrap();
        inertial.apply_into(abuf.as_ref(), &mut out).unwrap();
    });
    assert_eq!(
        allocations, 0,
        "warm apply_into allocated {allocations} times"
    );
}

#[test]
fn warm_probed_channel_applies_are_allocation_free_and_count_events() {
    // The probed entry points carry the same zero-allocation guarantee
    // as the unprobed ones: metric *registration* is the cold path that
    // may allocate; *recording* is atomic updates only.
    use mis_digital::{ChannelCounters, TwoInputTransform};
    let lib = quick_lib();
    let cached = CachedHybridChannel::new(&lib).unwrap();
    let inertial = InertialChannel::symmetric(ps(45.0), ps(35.0)).unwrap();
    let probe = mis_probe::Probe::new();
    let stats = ChannelCounters::register(&probe);
    let inputs = traffic(0xB0B);
    let (mut abuf, mut bbuf) = (EdgeBuf::new(), EdgeBuf::new());
    abuf.copy_trace(&inputs[0]);
    bbuf.copy_trace(&inputs[1]);
    let mut out = EdgeBuf::new();
    // Warm-up (also sizes the buffers).
    cached
        .apply2_into_probed(abuf.as_ref(), bbuf.as_ref(), &mut out, &stats)
        .unwrap();
    inertial
        .apply_into_probed(abuf.as_ref(), &mut out, &stats)
        .unwrap();
    let before_lookups = stats.table_lookups();
    assert!(
        before_lookups > 0,
        "dense traffic must walk the MIS surfaces"
    );
    let (allocations, ()) = alloc::count_in(|| {
        for _ in 0..5 {
            cached
                .apply2_into_probed(abuf.as_ref(), bbuf.as_ref(), &mut out, &stats)
                .unwrap();
            inertial
                .apply_into_probed(abuf.as_ref(), &mut out, &stats)
                .unwrap();
        }
    });
    assert_eq!(
        allocations, 0,
        "warm probed applies allocated {allocations} times"
    );
    // Counters are cumulative and deterministic: five identical
    // applications add five times the warm-up's totals.
    assert_eq!(stats.table_lookups(), 6 * before_lookups);
}

#[test]
fn probed_and_unprobed_paths_produce_identical_traces() {
    use mis_digital::{ChannelCounters, TwoInputTransform};
    let lib = quick_lib();
    let cached = CachedHybridChannel::new(&lib).unwrap();
    let probe = mis_probe::Probe::new();
    let stats = ChannelCounters::register(&probe);
    for seed in [0x1u64, 0x2, 0x3, 0x44] {
        let inputs = traffic(seed);
        let (mut abuf, mut bbuf) = (EdgeBuf::new(), EdgeBuf::new());
        abuf.copy_trace(&inputs[0]);
        bbuf.copy_trace(&inputs[1]);
        let (mut plain, mut probed) = (EdgeBuf::new(), EdgeBuf::new());
        cached
            .apply2_into(abuf.as_ref(), bbuf.as_ref(), &mut plain)
            .unwrap();
        cached
            .apply2_into_probed(abuf.as_ref(), bbuf.as_ref(), &mut probed, &stats)
            .unwrap();
        assert_eq!(plain.to_trace(), probed.to_trace(), "seed {seed:#x}");
    }
}

#[test]
fn counting_allocator_observes_allocations() {
    // Sanity of the harness itself: an allocating closure counts > 0 and
    // the deallocation counter moves with frees.
    let before_dealloc = alloc::thread_deallocations();
    let (n, v) = alloc::count_in(|| vec![1u64; 1000]);
    assert!(n >= 1, "vec allocation must be observed");
    drop(v);
    assert!(alloc::thread_deallocations() > before_dealloc);
}
