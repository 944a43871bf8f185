//! A small proptest-style property-testing harness.
//!
//! A property test draws many random inputs from a [`Strategy`], runs an
//! assertion closure on each, and — on failure — greedily shrinks the
//! offending input before reporting it. Compared to the `proptest` crate
//! this harness is deliberately minimal (no persistence files, no
//! regression corpus, shrinking is best-effort), but it is dependency-free
//! and fully deterministic: the default seed is fixed, so an offline CI
//! run is reproducible bit-for-bit.
//!
//! # Writing a test
//!
//! ```
//! use mis_testkit::prelude::*;
//!
//! #[derive(Debug, Clone)]
//! struct P(f64);
//!
//! Config::with_cases(64).run(
//!     &(0.1..5.0f64).prop_map(P),
//!     |p| {
//!         prop_assert!(p.0 > 0.0, "constructor must stay positive");
//!         Ok(())
//!     },
//! );
//! ```

use std::fmt::Debug;
use std::ops::Range;

use crate::rng::TestRng;

/// Why a single test case did not pass.
#[derive(Debug, Clone)]
pub enum CaseError {
    /// The drawn input is outside the property's domain
    /// (see [`prop_assume!`](crate::prop_assume)); draw another.
    Reject,
    /// The property is false for this input; the message describes how.
    Fail(String),
}

/// The outcome of one property evaluation.
pub type CaseResult = Result<(), CaseError>;

/// A generator of random test inputs, with optional shrinking.
pub trait Strategy {
    /// The input type this strategy produces.
    type Value: Debug + Clone;

    /// Draws one random value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Proposes candidate "smaller" values for a failing input, all within
    /// the strategy's domain. An empty list ends shrinking.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Transforms generated values with `f` (shrinking does not propagate
    /// through the mapping).
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        U: Debug + Clone,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Erases the concrete strategy type, for heterogeneous collections
    /// such as [`oneof`].
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T: Debug + Clone> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        (**self).sample(rng)
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        (**self).shrink(value)
    }
}

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }

    fn shrink(&self, value: &f64) -> Vec<f64> {
        let mut out = Vec::new();
        if *value != self.start {
            out.push(self.start);
            let mid = self.start + (value - self.start) / 2.0;
            if mid != *value && mid != self.start {
                out.push(mid);
            }
        }
        out
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                let mut out = Vec::new();
                if *value != self.start {
                    out.push(self.start);
                    let mid = self.start + (value - self.start) / 2;
                    if mid != *value && mid != self.start {
                        out.push(mid);
                    }
                    // Halving can jump past the pass/fail boundary; the
                    // predecessor guarantees convergence to the minimal
                    // failing value.
                    if *value - 1 != mid && *value - 1 != self.start {
                        out.push(*value - 1);
                    }
                }
                out
            }
        }
    )*};
}

impl_int_strategy!(u32, u64, usize, i32, i64);

/// A fair coin. Shrinks `true` to `false`.
#[derive(Debug, Clone, Copy)]
pub struct AnyBool;

/// Uniformly random booleans (the equivalent of proptest's `any::<bool>()`).
#[must_use]
pub fn any_bool() -> AnyBool {
    AnyBool
}

impl Strategy for AnyBool {
    type Value = bool;

    fn sample(&self, rng: &mut TestRng) -> bool {
        rng.gen_bool(0.5)
    }

    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    U: Debug + Clone,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`select`].
#[derive(Debug, Clone)]
pub struct Select<T> {
    items: Vec<T>,
}

/// Draws uniformly from a fixed list of values; shrinks toward the first
/// item (the equivalent of proptest's `prop::sample::select`).
///
/// # Panics
///
/// Panics when `items` is empty.
#[must_use]
pub fn select<T: Debug + Clone + PartialEq>(items: Vec<T>) -> Select<T> {
    assert!(!items.is_empty(), "select: no items");
    Select { items }
}

impl<T: Debug + Clone + PartialEq> Strategy for Select<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        self.items[rng.gen_range(0..self.items.len())].clone()
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        if self.items[0] != *value {
            vec![self.items[0].clone()]
        } else {
            Vec::new()
        }
    }
}

/// See [`oneof`].
pub struct OneOf<T> {
    choices: Vec<BoxedStrategy<T>>,
}

/// Each sample picks one of `choices` uniformly and draws from it (the
/// equivalent of proptest's `prop_oneof!`).
///
/// # Panics
///
/// Panics when `choices` is empty.
#[must_use]
pub fn oneof<T: Debug + Clone>(choices: Vec<BoxedStrategy<T>>) -> OneOf<T> {
    assert!(!choices.is_empty(), "oneof: no choices");
    OneOf { choices }
}

impl<T: Debug + Clone> Strategy for OneOf<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        self.choices[rng.gen_range(0..self.choices.len())].sample(rng)
    }

    // No shrinking: the generating branch is unknown, and another branch's
    // shrinks could propose values outside every branch's domain (e.g. the
    // midpoint between two disjoint ranges), which would violate the
    // `Strategy::shrink` in-domain contract.
}

/// Length specification for [`fn@vec`]: an exact `usize` or a half-open
/// `Range<usize>`.
#[derive(Debug, Clone, Copy)]
pub struct LenRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for LenRange {
    fn from(n: usize) -> Self {
        LenRange { lo: n, hi: n + 1 }
    }
}

impl From<Range<usize>> for LenRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "vec: empty length range");
        LenRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

/// See [`fn@vec`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    elem: S,
    len: LenRange,
}

/// Vectors of values from `elem`, with length drawn from `len` (the
/// equivalent of proptest's `prop::collection::vec`).
#[must_use]
pub fn vec<S: Strategy>(elem: S, len: impl Into<LenRange>) -> VecStrategy<S> {
    VecStrategy {
        elem,
        len: len.into(),
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = if self.len.hi - self.len.lo <= 1 {
            self.len.lo
        } else {
            rng.gen_range(self.len.lo..self.len.hi)
        };
        (0..n).map(|_| self.elem.sample(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        // Shorter first: drop the tail, then drop one element.
        if value.len() > self.len.lo {
            out.push(value[..self.len.lo].to_vec());
            let mut popped = value.clone();
            popped.pop();
            if popped.len() > self.len.lo {
                out.push(popped);
            }
        }
        // Then element-wise: first shrink candidate at each position.
        for (i, v) in value.iter().enumerate() {
            if let Some(s) = self.elem.shrink(v).into_iter().next() {
                let mut next = value.clone();
                next[i] = s;
                out.push(next);
            }
        }
        out
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident / $v:ident / $idx:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut next = value.clone();
                        next.$idx = cand;
                        out.push(next);
                    }
                )+
                out
            }
        }
    )+};
}

impl_tuple_strategy! {
    (A/a/0, B/b/1)
    (A/a/0, B/b/1, C/c/2)
    (A/a/0, B/b/1, C/c/2, D/d/3)
    (A/a/0, B/b/1, C/c/2, D/d/3, E/e/4)
    (A/a/0, B/b/1, C/c/2, D/d/3, E/e/4, F/f/5)
    (A/a/0, B/b/1, C/c/2, D/d/3, E/e/4, F/f/5, G/g/6)
    (A/a/0, B/b/1, C/c/2, D/d/3, E/e/4, F/f/5, G/g/6, H/h/7)
}

/// Property-runner configuration: case count, seed, reject and shrink
/// budgets.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of passing cases required (proptest's default is 256).
    pub cases: u32,
    /// PRNG seed. Fixed by default so offline CI is reproducible;
    /// override via the `TESTKIT_SEED` environment variable or this
    /// field.
    pub seed: u64,
    /// Total rejected draws tolerated before the run aborts.
    pub max_rejects: u32,
    /// Upper bound on property evaluations spent shrinking a failure.
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Self {
        let seed = std::env::var("TESTKIT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x006d_6973_5f74_6573_u64);
        Config {
            cases: 256,
            seed,
            max_rejects: 20_000,
            max_shrink_steps: 400,
        }
    }
}

impl Config {
    /// A default configuration requiring `cases` passing cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Config {
            cases,
            ..Config::default()
        }
    }

    /// Runs `property` on `self.cases` inputs drawn from `strategy`.
    ///
    /// A panic inside the property (e.g. an `.unwrap()` on a model error)
    /// is caught and treated as a failing case, so the report still names
    /// the offending input and shrinking still runs.
    ///
    /// # Panics
    ///
    /// Panics (failing the enclosing `#[test]`) when the property fails
    /// for some input — the report names the original and the shrunk
    /// offending input plus the seed to reproduce — or when the reject
    /// budget is exhausted.
    pub fn run<S, P>(&self, strategy: &S, property: P)
    where
        S: Strategy,
        P: Fn(&S::Value) -> CaseResult,
    {
        let mut rng = TestRng::seed_from_u64(self.seed);
        let mut passed: u32 = 0;
        let mut rejected: u32 = 0;
        while passed < self.cases {
            let input = strategy.sample(&mut rng);
            match eval(&property, &input) {
                Ok(()) => passed += 1,
                Err(CaseError::Reject) => {
                    rejected += 1;
                    assert!(
                        rejected <= self.max_rejects,
                        "property rejected {} inputs (passed {passed}/{} cases); \
                         the assume-condition is too narrow for its strategy",
                        rejected,
                        self.cases
                    );
                }
                Err(CaseError::Fail(msg)) => {
                    let report = self.shrink_report(strategy, &property, input, msg, passed);
                    panic!("{report}");
                }
            }
        }
    }

    /// Greedily shrinks a failing input and formats the failure report.
    fn shrink_report<S, P>(
        &self,
        strategy: &S,
        property: &P,
        original: S::Value,
        original_msg: String,
        passed: u32,
    ) -> String
    where
        S: Strategy,
        P: Fn(&S::Value) -> CaseResult,
    {
        let mut best = original.clone();
        let mut best_msg = original_msg.clone();
        let mut steps: u32 = 0;
        'shrinking: while steps < self.max_shrink_steps {
            for cand in strategy.shrink(&best) {
                steps += 1;
                if let Err(CaseError::Fail(msg)) = eval(property, &cand) {
                    best = cand;
                    best_msg = msg;
                    continue 'shrinking; // restart from the smaller input
                }
                if steps >= self.max_shrink_steps {
                    break;
                }
            }
            break;
        }
        format!(
            "property failed after {passed} passing case(s) [seed = {:#x}]\n\
             -- original input: {:?}\n\
             -- original error: {}\n\
             -- shrunk input ({} shrink evals): {:?}\n\
             -- shrunk error: {}",
            self.seed, original, original_msg, steps, best, best_msg
        )
    }
}

/// Evaluates a property on one input, converting a panic (e.g. a failed
/// `.unwrap()` in the property body) into a failing case so the runner
/// can still report and shrink the offending input.
fn eval<V, P>(property: &P, input: &V) -> CaseResult
where
    P: Fn(&V) -> CaseResult,
{
    // Silence the default panic hook for the duration of the call: a
    // failing property panics once per shrink candidate, and hundreds of
    // "thread panicked" backtraces would bury the actual shrink report.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| property(input)));
    std::panic::set_hook(prev_hook);
    match outcome {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            Err(CaseError::Fail(format!("property panicked: {msg}")))
        }
    }
}

/// Fails the current case when `cond` is false; an optional trailing
/// format string is appended to the report.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::prop::CaseError::Fail(format!(
                "{} is false ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::prop::CaseError::Fail(format!(
                "{} is false ({}:{}): {}",
                stringify!($cond),
                file!(),
                line!(),
                format!($($fmt)+)
            )));
        }
    };
}

/// Fails the current case when the two expressions are unequal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            l == r,
            "{} != {}: {:?} vs {:?}",
            stringify!($lhs),
            stringify!($rhs),
            l,
            r
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            l == r,
            "{} != {}: {:?} vs {:?} — {}",
            stringify!($lhs),
            stringify!($rhs),
            l,
            r,
            format!($($fmt)+)
        );
    }};
}

/// Fails the current case when the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            l != r,
            "{} == {}: both {:?}",
            stringify!($lhs),
            stringify!($rhs),
            l
        );
    }};
}

/// Rejects the current case (without failing) when `cond` is false: the
/// input is outside the property's domain and another is drawn.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::prop::CaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut seen = 0u32;
        let counter = std::cell::Cell::new(0u32);
        Config::with_cases(100).run(&(0.0..1.0f64), |x| {
            counter.set(counter.get() + 1);
            prop_assert!((0.0..1.0).contains(x));
            Ok(())
        });
        seen += counter.get();
        assert_eq!(seen, 100);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let collect = |seed| {
            let vals = std::cell::RefCell::new(Vec::new());
            let config = Config {
                seed,
                ..Config::with_cases(20)
            };
            config.run(&(0.0..1.0f64), |x| {
                vals.borrow_mut().push(*x);
                Ok(())
            });
            vals.into_inner()
        };
        assert_eq!(collect(9), collect(9));
        assert_ne!(collect(9), collect(10));
    }

    #[test]
    fn failure_report_names_offending_input() {
        // A deliberately falsified property: fails for x >= 25.
        let err = std::panic::catch_unwind(|| {
            Config::with_cases(256).run(&(0u64..1000), |&x| {
                prop_assert!(x < 25, "x = {x} is too big");
                Ok(())
            });
        })
        .expect_err("the falsified property must fail");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic payload is the report");
        assert!(msg.contains("property failed"), "report: {msg}");
        assert!(msg.contains("shrunk input"), "report: {msg}");
        assert!(msg.contains("is too big"), "report: {msg}");
        // Greedy shrinking on u64 ranges converges to the boundary.
        assert!(
            msg.contains("shrunk input (") && msg.contains(": 25"),
            "report: {msg}"
        );
    }

    #[test]
    fn panicking_property_is_reported_with_its_input() {
        // An .unwrap()-style panic inside the property must not escape the
        // runner raw: it becomes a failing case with the input named.
        let err = std::panic::catch_unwind(|| {
            Config::with_cases(64).run(&(0u64..100), |&x| {
                assert!(x < 30, "boom at {x}");
                Ok(())
            });
        })
        .expect_err("must fail");
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("property panicked"), "report: {msg}");
        assert!(msg.contains("boom at"), "report: {msg}");
        assert!(msg.contains("shrunk input"), "report: {msg}");
    }

    #[test]
    fn negative_and_zero_ended_ranges_stay_half_open() {
        let mut rng = TestRng::seed_from_u64(17);
        for _ in 0..20_000 {
            let v = rng.gen_range(-1.0..0.0);
            assert!((-1.0..0.0).contains(&v), "out of range: {v}");
            let w = rng.gen_range(-20.0..-0.1);
            assert!((-20.0..-0.1).contains(&w), "out of range: {w}");
        }
        // The rounding nudge itself must step toward the range start.
        assert!(0.0f64.next_down() < 0.0);
        assert!((-0.1f64).next_down() < -0.1);
    }

    #[test]
    fn oneof_does_not_shrink_out_of_domain() {
        // Disjoint branches: shrinking must never propose a value (like
        // the midpoint -1.5) that neither branch can generate.
        let s = oneof(vec![(-10.0..-5.0f64).boxed(), (5.0..10.0f64).boxed()]);
        assert!(s.shrink(&7.0).is_empty());
    }

    #[test]
    fn shrinking_respects_strategy_domain() {
        // Inputs come from 10..100; shrinks must never leave that range,
        // so the reported minimum is the range start, not 0.
        let err = std::panic::catch_unwind(|| {
            Config::with_cases(64).run(&(10u64..100), |&x| {
                prop_assert!(false, "always fails, x = {x}");
                Ok(())
            });
        })
        .expect_err("must fail");
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains(": 10"), "should shrink to range start: {msg}");
    }

    #[test]
    fn assume_rejects_without_failing() {
        Config::with_cases(50).run(&(0.0..1.0f64), |&x| {
            prop_assume!(x < 0.9);
            prop_assert!(x < 0.9);
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "assume-condition is too narrow")]
    fn unsatisfiable_assume_aborts() {
        Config::with_cases(10).run(&(0.0..1.0f64), |&x| {
            prop_assume!(x > 2.0);
            Ok(())
        });
    }

    #[test]
    fn vec_strategy_respects_length_spec() {
        Config::with_cases(100).run(&vec(0.0..1.0f64, 0..8), |v| {
            prop_assert!(v.len() < 8);
            Ok(())
        });
        Config::with_cases(20).run(&vec(0.0..1.0f64, 5usize), |v| {
            prop_assert_eq!(v.len(), 5);
            Ok(())
        });
    }

    #[test]
    fn oneof_and_select_stay_in_domain() {
        Config::with_cases(200).run(
            &oneof(vec![(-10.0..-5.0f64).boxed(), (5.0..10.0f64).boxed()]),
            |&x| {
                prop_assert!((-10.0..-5.0).contains(&x) || (5.0..10.0).contains(&x));
                Ok(())
            },
        );
        Config::with_cases(50).run(&select(std::vec![1u64, 3, 7]), |&x| {
            prop_assert!(x == 1 || x == 3 || x == 7);
            Ok(())
        });
    }

    #[test]
    fn map_applies_transform() {
        Config::with_cases(50).run(&(1.0..2.0f64).prop_map(|x| x * x), |&y| {
            prop_assert!((1.0..4.0).contains(&y));
            Ok(())
        });
    }

    #[test]
    fn tuple_shrink_components_stay_in_range() {
        let s = (5.0..6.0f64, 10u64..20, any_bool());
        let mut rng = TestRng::seed_from_u64(1);
        let v = s.sample(&mut rng);
        for cand in s.shrink(&v) {
            assert!((5.0..6.0).contains(&cand.0));
            assert!((10..20).contains(&cand.1));
        }
    }
}
