//! Run budgets: graceful bounds on how much work one engine run may do.
//!
//! The engine and the cone replay in this crate are total over
//! well-formed feed-forward networks — every run terminates — but *how
//! long* a run takes, and how much trace storage it commits, scales
//! with the stimulus and the netlist. A service tier accepting
//! untrusted netlists and stimuli (see `ROADMAP.md`) needs a
//! degradation contract stronger than "eventually finishes":
//! [`RunBudget`] caps the number of output edges emitted and
//! (best-effort) the wall-clock time of a single run. A run that would
//! exceed a limit stops at a well-defined point and returns
//! [`SimError::BudgetExceeded`] — never a panic, never unbounded work —
//! and leaves the arena in its ordinary reusable state (the next run
//! resets it, exactly as after a successful run).
//!
//! # Accounting semantics
//!
//! * **Edges** — the edge count of each evaluated gate's sealed output
//!   trace (after any overlay rewrite), summed. Input traces are caller
//!   data, already bounded by the caller, and are not charged.
//! * **Deadline** — checked before the first evaluated gate and then
//!   before every 64th (by the gate's ordinal in the run), so a
//!   pathological single-gate evaluation can overshoot; the guarantee
//!   is "stops within a bounded number of gate evaluations past the
//!   deadline", not hard real time.
//!
//! There is no gate-count limit: every run evaluates each gate once, so
//! such a limit could only say "this network has more than N gates",
//! which a caller reads off `signal_count() - input_count()` before
//! running.
//!
//! [`crate::ConeReplay`] evaluates only a fault's perturbed gates but
//! charges what a full [`crate::Simulator`] replay would: the full
//! run's edge total (golden gate edges with each re-evaluated, changed
//! gate's golden count swapped for its faulty one) once the cone is
//! done. The total is exact, so a cone replay trips on edges if and
//! only if the full replay would; its deadline ticks count the gates it
//! actually evaluates. A replay that splices in a recorded replay
//! ([`crate::ConeMemo`]) takes the recorded suffix's edges from the
//! record, so its edge total is exact too.
//!
//! A limit trips when the tally *exceeds* it: a run that emits exactly
//! `max_edges` edges succeeds, one more edge fails. The error variant
//! is allocation-free by design, so a tripped budget keeps the engines'
//! zero-allocation guarantee (asserted in `crates/sim/tests/alloc.rs`).

use std::time::{Duration, Instant};

use mis_digital::{BudgetResource, SimError};

/// Resource limits for one engine run. The default ([`RunBudget::UNLIMITED`])
/// imposes no limits and adds only a few predictable branches to the
/// gate loop.
///
/// # Examples
///
/// ```
/// use mis_sim::RunBudget;
/// use std::time::Duration;
///
/// let budget = RunBudget::UNLIMITED
///     .with_max_edges(1_000_000)
///     .with_deadline(Duration::from_millis(50));
/// assert_eq!(budget.max_edges, Some(1_000_000));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Maximum emitted output edges, summed over evaluated gates;
    /// `None` for unlimited.
    pub max_edges: Option<u64>,
    /// Best-effort wall-clock deadline for the run; `None` for
    /// unlimited.
    pub deadline: Option<Duration>,
}

impl RunBudget {
    /// No limits — the budget [`crate::Simulator::run_in`] runs under.
    pub const UNLIMITED: RunBudget = RunBudget {
        max_edges: None,
        deadline: None,
    };

    /// Returns the budget with an emitted-edge limit.
    #[must_use]
    pub const fn with_max_edges(mut self, max: u64) -> Self {
        self.max_edges = Some(max);
        self
    }

    /// Returns the budget with a wall-clock deadline.
    #[must_use]
    pub const fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// How often the meter consults the wall clock: before the first gate
/// and then every `DEADLINE_STRIDE`-th, keeping `Instant::now` off the
/// per-gate path.
const DEADLINE_STRIDE: u64 = 64;

/// Per-run accounting against one [`RunBudget`] — each engine run owns
/// one. Allocation-free: construction reads the clock at most once, and
/// every check is tally-and-compare.
#[derive(Debug, Clone)]
pub(crate) struct BudgetMeter<'b> {
    budget: &'b RunBudget,
    /// Absolute deadline, resolved once at meter start.
    deadline_at: Option<Instant>,
    edges: u64,
}

impl<'b> BudgetMeter<'b> {
    /// Starts metering a run: resolves the deadline against the current
    /// clock (the only clock read unless a deadline is set).
    pub(crate) fn start(budget: &'b RunBudget) -> Self {
        BudgetMeter {
            budget,
            deadline_at: budget.deadline.map(|d| Instant::now() + d),
            edges: 0,
        }
    }

    /// Checks the deadline before the `k`-th evaluated gate (1-based): on
    /// the first and on every [`DEADLINE_STRIDE`]-th, so `Instant::now`
    /// stays off the per-gate path.
    #[inline]
    pub(crate) fn tick_deadline(&self, k: u64) -> Result<(), SimError> {
        if let Some(at) = self.deadline_at {
            if (k == 1 || k.is_multiple_of(DEADLINE_STRIDE)) && Instant::now() > at {
                let deadline = self.budget.deadline.unwrap_or_default();
                return Err(SimError::BudgetExceeded {
                    resource: BudgetResource::Deadline,
                    limit: u64::try_from(deadline.as_nanos()).unwrap_or(u64::MAX),
                });
            }
        }
        Ok(())
    }

    /// Charges `n` emitted output edges.
    #[inline]
    pub(crate) fn on_edges(&mut self, n: u64) -> Result<(), SimError> {
        self.edges += n;
        if let Some(max) = self.budget.max_edges {
            if self.edges > max {
                return Err(SimError::BudgetExceeded {
                    resource: BudgetResource::Edges,
                    limit: max,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let mut meter = BudgetMeter::start(&RunBudget::UNLIMITED);
        for k in 1..=10_000 {
            meter.tick_deadline(k).unwrap();
            meter.on_edges(1_000).unwrap();
        }
    }

    #[test]
    fn edges_accumulate_across_charges() {
        let budget = RunBudget::UNLIMITED.with_max_edges(10);
        let mut meter = BudgetMeter::start(&budget);
        meter.on_edges(4).unwrap();
        meter.on_edges(6).unwrap();
        let err = meter.on_edges(1).unwrap_err();
        assert_eq!(
            err,
            SimError::BudgetExceeded {
                resource: BudgetResource::Edges,
                limit: 10
            }
        );
    }

    #[test]
    fn elapsed_deadline_trips_on_the_first_gate() {
        let budget = RunBudget::UNLIMITED.with_deadline(Duration::ZERO);
        let meter = BudgetMeter::start(&budget);
        // A zero deadline has always already passed by the first check.
        std::thread::sleep(Duration::from_millis(1));
        let err = meter.tick_deadline(1).unwrap_err();
        assert!(matches!(
            err,
            SimError::BudgetExceeded {
                resource: BudgetResource::Deadline,
                ..
            }
        ));
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let budget = RunBudget::UNLIMITED.with_deadline(Duration::from_secs(3600));
        let meter = BudgetMeter::start(&budget);
        for k in 1..=1_000 {
            meter.tick_deadline(k).unwrap();
        }
    }
}
