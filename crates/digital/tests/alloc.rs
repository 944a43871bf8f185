//! Steady-state allocation-freedom of the in-place channel kernels,
//! asserted with the `mis-testkit` counting allocator: once the output
//! buffer is warm, re-applying a channel performs **zero** heap
//! allocations and returns the same event tallies every time. The
//! whole-netlist gates on a warm `mis_sim::Simulator` live in
//! `crates/sim/tests/alloc.rs`. Building the cached channel from the
//! committed library gets an exact count instead.
//!
//! This is an integration test (its own binary) precisely so the counting
//! allocator can be installed globally without touching any other target.

use mis_charlib::{CharConfig, CharLib};
use mis_core::NorParams;
use mis_digital::{
    CachedHybridChannel, ChannelEvents, HybridNorChannel, InertialChannel, TraceTransform,
    TwoInputTransform,
};
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
    // One in-place entry per channel: once the output buffer is warm,
    // re-applying allocates nothing, and the returned tallies are a
    // pure function of the input — five identical applications return
    // five times the warm-up's events.
    let lib = quick_lib();
    let cached = CachedHybridChannel::new(&lib).unwrap();
    let exact = HybridNorChannel::new(&NorParams::paper_table1()).unwrap();
    let inertial = InertialChannel::symmetric(ps(45.0), ps(35.0)).unwrap();
    let inputs = traffic(0xB0B);
    let (mut abuf, mut bbuf) = (EdgeBuf::new(), EdgeBuf::new());
    abuf.copy_trace(&inputs[0]);
    bbuf.copy_trace(&inputs[1]);
    let mut out = EdgeBuf::new();
    // Warm-up (also sizes the buffer).
    let warm_cached = cached
        .apply2_into(abuf.as_ref(), bbuf.as_ref(), &mut out)
        .unwrap();
    let warm_inertial = inertial.apply_into(abuf.as_ref(), &mut out).unwrap();
    // The exact ODE channel tracks no tallies; its crossings come back
    // inline from the two-exponential root finder.
    let warm_exact = exact
        .apply2_into(abuf.as_ref(), bbuf.as_ref(), &mut out)
        .unwrap();
    assert!(
        warm_cached.table_lookups > 0,
        "dense traffic must walk the MIS surfaces"
    );
    let (allocations, (sum_cached, sum_inertial, sum_exact)) = alloc::count_in(|| {
        let mut c = ChannelEvents::default();
        let (mut i, mut e) = (c, c);
        for _ in 0..5 {
            c += cached
                .apply2_into(abuf.as_ref(), bbuf.as_ref(), &mut out)
                .unwrap();
            i += inertial.apply_into(abuf.as_ref(), &mut out).unwrap();
            e += exact
                .apply2_into(abuf.as_ref(), bbuf.as_ref(), &mut out)
                .unwrap();
        }
        (c, i, e)
    });
    assert_eq!(
        allocations, 0,
        "warm apply_into allocated {allocations} times"
    );
    let times5 = |e: ChannelEvents| ChannelEvents {
        pending_cancelled: 5 * e.pending_cancelled,
        table_lookups: 5 * e.table_lookups,
        pulse_filtered: 5 * e.pulse_filtered,
    };
    assert_eq!(sum_cached, times5(warm_cached));
    assert_eq!(sum_inertial, times5(warm_inertial));
    assert_eq!(sum_exact, times5(warm_exact));
    assert!(!out.is_empty(), "dense traffic must cross the threshold");
    // Each channel reports only the events it tracks.
    assert_eq!(warm_cached.pulse_filtered, 0);
    assert_eq!(warm_inertial.table_lookups, 0);
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

#[test]
fn cached_channel_construction_allocates_a_pinned_count() {
    // The committed library records its resample counts (format 2), so
    // each family is tabulated once: one table per family plus the
    // correction curves and the voltage tables, 12 allocations where
    // the doubling search made 25 (one per intermediate table). A
    // search coming back, or a per-slice scratch table, fails here.
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../data/charlib/nor_paper.mislib");
    let text = std::fs::read_to_string(path).expect("committed NOR library");
    let lib = CharLib::from_text(&text).expect("library parses");
    let (allocations, _channel) =
        alloc::count_in(|| CachedHybridChannel::new(&lib).expect("channel"));
    assert_eq!(
        allocations, 12,
        "CachedHybridChannel::new allocated {allocations} times"
    );
}
