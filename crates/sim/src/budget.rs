//! Run budgets: graceful bounds on how much work one engine run may do.
//!
//! The engine and the cone replay in this crate are total over
//! well-formed feed-forward networks — every run terminates — but *how
//! long* a run takes, and how much trace storage it commits, scales
//! with the stimulus and the netlist. A service tier accepting
//! untrusted netlists and stimuli (see `ROADMAP.md`) needs a
//! degradation contract stronger than "eventually finishes":
//! [`RunBudget`] caps the number of gate evaluation events, the number
//! of output edges emitted, and (best-effort) the wall-clock time of a
//! single run. A run that would exceed a limit
//! stops at a well-defined point and returns
//! [`SimError::BudgetExceeded`] — never a panic, never unbounded work —
//! and leaves the arena in its ordinary reusable state (the next run
//! resets it, exactly as after a successful run).
//!
//! # Accounting semantics
//!
//! * **Events** — one per non-input signal evaluation, charged before
//!   the gate is evaluated.
//! * **Edges** — the edge count of each evaluated gate's sealed output
//!   span (after any overlay rewrite), summed. Input traces are caller
//!   data, already bounded by the caller, and are not charged.
//! * **Deadline** — checked on the first event and then every 64th, so
//!   a pathological single-gate evaluation can overshoot; the guarantee
//!   is "stops within a bounded number of gate evaluations past the
//!   deadline", not hard real time.
//!
//! [`crate::ConeReplay`] evaluates only a fault's perturbed gates but
//! charges what a full [`crate::Simulator`] replay would: every gate's
//! event up front, and the full run's edge total (golden gate edges
//! with each re-evaluated, changed gate's golden count swapped for its
//! faulty one) once the cone is done. Both totals are exact, so a cone replay
//! trips if and only if the full replay would; its deadline ticks
//! count the gates it actually evaluates. A replay that splices in a
//! recorded replay ([`crate::ConeMemo`]) takes the recorded suffix's
//! edges from the record, so its edge total is exact too.
//!
//! A limit trips when the tally *exceeds* it: a run that needs exactly
//! `max_events` events succeeds, one more event fails. A zero budget
//! therefore trips on the first event — useful as a "validate only"
//! probe. The error variant is allocation-free by design, so a tripped
//! budget keeps the engines' zero-allocation guarantee (asserted in
//! `crates/sim/tests/alloc.rs`).

use std::time::{Duration, Instant};

use mis_digital::{BudgetResource, SimError};

/// Resource limits for one engine run. The default ([`RunBudget::UNLIMITED`])
/// imposes no limits and adds only a few predictable branches to the
/// event loop.
///
/// # Examples
///
/// ```
/// use mis_sim::RunBudget;
/// use std::time::Duration;
///
/// let budget = RunBudget::UNLIMITED
///     .with_max_events(10_000)
///     .with_max_edges(1_000_000)
///     .with_deadline(Duration::from_millis(50));
/// assert_eq!(budget.max_events, Some(10_000));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Maximum evaluation events (non-input signal evaluations); `None`
    /// for unlimited.
    pub max_events: Option<u64>,
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
        max_events: None,
        max_edges: None,
        deadline: None,
    };

    /// Returns the budget with an event limit.
    #[must_use]
    pub const fn with_max_events(mut self, max: u64) -> Self {
        self.max_events = Some(max);
        self
    }

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

    /// Whether no limit is set (the [`RunBudget::UNLIMITED`] shape).
    #[must_use]
    pub const fn is_unlimited(&self) -> bool {
        self.max_events.is_none() && self.max_edges.is_none() && self.deadline.is_none()
    }
}

/// How often the meter consults the wall clock: on the first event and
/// then every `DEADLINE_STRIDE`-th, keeping `Instant::now` off the
/// per-event path.
const DEADLINE_STRIDE: u64 = 64;

/// Per-run accounting against one [`RunBudget`] — each engine run owns
/// one. Allocation-free: construction reads the clock at most once, and
/// every check is tally-and-compare.
#[derive(Debug, Clone)]
pub(crate) struct BudgetMeter<'b> {
    budget: &'b RunBudget,
    /// Absolute deadline, resolved once at meter start.
    deadline_at: Option<Instant>,
    events: u64,
    edges: u64,
}

impl<'b> BudgetMeter<'b> {
    /// Starts metering a run: resolves the deadline against the current
    /// clock (the only clock read unless a deadline is set).
    pub(crate) fn start(budget: &'b RunBudget) -> Self {
        BudgetMeter {
            budget,
            deadline_at: budget.deadline.map(|d| Instant::now() + d),
            events: 0,
            edges: 0,
        }
    }

    /// Charges one evaluation event; checks the deadline on the first
    /// event and every [`DEADLINE_STRIDE`]-th thereafter.
    #[inline]
    pub(crate) fn on_event(&mut self) -> Result<(), SimError> {
        self.on_events(1)?;
        self.tick_deadline(self.events)
    }

    /// Charges `n` evaluation events at once, without a deadline check
    /// (the cone replay charges a full replay's event count up front).
    #[inline]
    pub(crate) fn on_events(&mut self, n: u64) -> Result<(), SimError> {
        self.events += n;
        if let Some(max) = self.budget.max_events {
            if self.events > max {
                return Err(SimError::BudgetExceeded {
                    resource: BudgetResource::Events,
                    limit: max,
                });
            }
        }
        Ok(())
    }

    /// Checks the deadline for the `k`-th unit of work (1-based): on the
    /// first and on every [`DEADLINE_STRIDE`]-th, so `Instant::now`
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
        let budget = RunBudget::UNLIMITED;
        assert!(budget.is_unlimited());
        let mut meter = BudgetMeter::start(&budget);
        for _ in 0..10_000 {
            meter.on_event().unwrap();
            meter.on_edges(1_000).unwrap();
        }
    }

    #[test]
    fn events_trip_strictly_past_the_limit() {
        let budget = RunBudget::UNLIMITED.with_max_events(3);
        let mut meter = BudgetMeter::start(&budget);
        for _ in 0..3 {
            meter.on_event().unwrap();
        }
        let err = meter.on_event().unwrap_err();
        assert_eq!(
            err,
            SimError::BudgetExceeded {
                resource: BudgetResource::Events,
                limit: 3
            }
        );
    }

    #[test]
    fn zero_event_budget_trips_immediately() {
        let budget = RunBudget::UNLIMITED.with_max_events(0);
        let mut meter = BudgetMeter::start(&budget);
        assert!(meter.on_event().is_err());
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
    fn elapsed_deadline_trips_on_the_first_event() {
        let budget = RunBudget::UNLIMITED.with_deadline(Duration::ZERO);
        let mut meter = BudgetMeter::start(&budget);
        // A zero deadline has always already passed by the first check.
        std::thread::sleep(Duration::from_millis(1));
        let err = meter.on_event().unwrap_err();
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
        let mut meter = BudgetMeter::start(&budget);
        for _ in 0..1_000 {
            meter.on_event().unwrap();
        }
    }
}
