//! Thread-local allocation counting, so "this hot path performs zero
//! heap allocations" is an *asserted* property rather than an eyeballed
//! one. Only compiled with the `counting-alloc` feature — the one module
//! of the testkit that needs `unsafe` (implementing
//! [`std::alloc::GlobalAlloc`]).
//!
//! # Usage
//!
//! The counter only observes allocations when [`CountingAllocator`] is
//! installed as the global allocator of the *test binary* (integration
//! tests are separate binaries, so installing it there leaves every other
//! target on the system allocator):
//!
//! ```ignore
//! use mis_testkit::alloc::{self, CountingAllocator};
//!
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator;
//!
//! #[test]
//! fn steady_state_is_allocation_free() {
//!     warm_up();
//!     let (allocations, _) = alloc::count_in(|| hot_path());
//!     assert_eq!(allocations, 0);
//! }
//! ```
//!
//! Counters are per-thread, so concurrently running tests do not pollute
//! each other's counts. [`count_in`] first verifies — via a canary
//! allocation — that the counting allocator is actually installed, and
//! panics otherwise: a zero-allocation assertion that silently counted
//! nothing would always pass.
//!
//! # Thread scope
//!
//! Thread-locality cuts both ways and is the *intended* semantics: a
//! [`count_in`] assertion is **serial-scoped** — it observes exactly the
//! allocations of the closure on the calling thread. Work the closure
//! fans out to other threads (e.g. the `mis-fault` campaign's scoped
//! workers) is invisible to the count, apart from the spawn
//! machinery itself, which allocates on the calling thread. Zero-
//! allocation guarantees in this workspace are therefore claims about
//! *serial* hot paths; asserting one across a multi-threaded region
//! would be vacuous by construction, not a measurement. (Asserted in
//! `crates/sim/tests/alloc.rs`.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A `#[global_allocator]` wrapper around [`System`] that bumps
/// thread-local counters on every allocation and deallocation.
pub struct CountingAllocator;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static DEALLOCS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: counting must never abort a thread that is tearing
    // down its TLS while the runtime frees memory.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc acquires fresh storage (even when it grows in place
        // it *may* move): count it as an allocation — the steady-state
        // claim is "no Vec ever outgrows its warmed capacity".
        bump(&ALLOCS);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&DEALLOCS);
        System.dealloc(ptr, layout)
    }
}

/// Number of allocations (alloc, `alloc_zeroed`, realloc) observed on
/// this thread since it started.
#[must_use]
pub fn thread_allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Number of deallocations observed on this thread since it started.
#[must_use]
pub fn thread_deallocations() -> u64 {
    DEALLOCS.with(Cell::get)
}

/// Runs `f` and returns `(allocations, result)` where `allocations` is
/// the number of heap allocations `f` performed on this thread.
///
/// # Panics
///
/// Panics when [`CountingAllocator`] is not installed as the global
/// allocator of the current binary — without it the count would be a
/// vacuous zero.
pub fn count_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let canary_before = thread_allocations();
    drop(std::hint::black_box(Box::new(0u8)));
    assert!(
        thread_allocations() > canary_before,
        "CountingAllocator is not installed: add `#[global_allocator] static A: \
         CountingAllocator = CountingAllocator;` to the test binary"
    );
    let before = thread_allocations();
    let result = f();
    (thread_allocations() - before, result)
}
