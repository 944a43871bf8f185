//! **mis-testkit** — zero-dependency test infrastructure for the
//! `mis-delay` workspace.
//!
//! The workspace builds and tests in fully offline environments, so the
//! usual external crates are off the table. This crate replaces the three
//! the sources historically relied on:
//!
//! * [`rng`] — a seedable, reproducible PRNG (SplitMix64-seeded
//!   xoshiro256++) covering the `rand` API surface the workspace uses:
//!   [`rng::TestRng::seed_from_u64`], [`rng::TestRng::gen_bool`],
//!   [`rng::TestRng::gen_range`].
//! * [`prop`] — a proptest-style property-test harness: composable
//!   [`prop::Strategy`] input generators, configurable case counts,
//!   failing-input reporting and basic greedy shrinking.
//! * [`mod@bench`] — a criterion-free micro-bench harness: warmup,
//!   auto-calibrated timed iterations, median/p95 statistics, printed
//!   as a table.
//!
//! With the `counting-alloc` feature, `alloc` additionally provides a
//! thread-local counting `#[global_allocator]` wrapper so zero-allocation
//! claims about hot paths are asserted in tests, not eyeballed.
//!
//! # Property-test quickstart
//!
//! ```
//! use mis_testkit::prelude::*;
//!
//! Config::with_cases(128).run(&(0.0..10.0f64, any_bool()), |&(x, up)| {
//!     let y = if up { x + 1.0 } else { x };
//!     prop_assert!(y >= x, "transform must not decrease: {y} < {x}");
//!     Ok(())
//! });
//! ```

#![deny(missing_docs)]
// `unsafe` is forbidden everywhere except the opt-in counting-allocator
// module, which must implement `GlobalAlloc` (an `unsafe` trait); that
// module carries its own narrowly scoped `#[allow(unsafe_code)]`.
#![cfg_attr(not(feature = "counting-alloc"), forbid(unsafe_code))]
#![cfg_attr(feature = "counting-alloc", deny(unsafe_code))]

#[cfg(feature = "counting-alloc")]
pub mod alloc;
pub mod bench;
pub mod prop;
pub mod rng;

/// The common imports for writing property tests.
pub mod prelude {
    pub use crate::prop::{any_bool, oneof, select, vec, CaseError, CaseResult, Config, Strategy};
    pub use crate::rng::TestRng;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume};
}
