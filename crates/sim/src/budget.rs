//! Run budgets: a graceful bound on how much work one engine run may do.
//!
//! The engine and the cone replay in this crate are total over
//! well-formed feed-forward networks — every run terminates — but *how
//! long* a run takes, and how much trace storage it commits, scales
//! with the stimulus and the netlist. A service tier accepting
//! untrusted netlists and stimuli (see `ROADMAP.md`) needs a
//! degradation contract stronger than "eventually finishes":
//! [`RunBudget`] caps the number of output edges emitted by a single
//! run. A run that would exceed the limit stops at a well-defined point
//! and returns [`SimError::BudgetExceeded`] — never a panic, never
//! unbounded work — and leaves the arena in its ordinary reusable state
//! (the next run resets it, exactly as after a successful run).
//!
//! # Accounting semantics
//!
//! The tally is the edge count of each evaluated gate's sealed output
//! trace (after any overlay rewrite), summed. Input traces are caller
//! data, already bounded by the caller, and are not charged.
//!
//! The edge limit bounds a run's work too: every run evaluates each
//! gate once, at a cost bounded by the gate's input and output edges.
//! So there is no gate-count limit (it could only say "this network has
//! more than N gates", which a caller reads off `signal_count() -
//! input_count()` before running) and no wall-clock deadline.
//!
//! [`crate::ConeReplay`] evaluates only a fault's perturbed gates but
//! charges what a full [`crate::Simulator`] replay would: the full
//! run's edge total (golden gate edges with each re-evaluated, changed
//! gate's golden count swapped for its faulty one) once the cone is
//! done. The total is exact, so a cone replay trips if and only if the
//! full replay would. A replay that splices in a recorded replay
//! ([`crate::ConeMemo`]) takes the recorded suffix's edges from the
//! record, so its edge total is exact too.
//!
//! The limit trips when the tally *exceeds* it: a run that emits
//! exactly `max_edges` edges succeeds, one more edge fails. The error
//! variant is allocation-free by design, so a tripped budget keeps the
//! engines' zero-allocation guarantee (asserted in
//! `crates/sim/tests/alloc.rs`).

use mis_digital::SimError;

/// The resource limit for one engine run. The default
/// ([`RunBudget::UNLIMITED`]) imposes no limit and adds only a
/// predictable branch to the gate loop.
///
/// # Examples
///
/// ```
/// use mis_sim::RunBudget;
///
/// let budget = RunBudget::UNLIMITED.with_max_edges(1_000_000);
/// assert_eq!(budget.max_edges, Some(1_000_000));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Maximum emitted output edges, summed over evaluated gates;
    /// `None` for unlimited.
    pub max_edges: Option<u64>,
}

impl RunBudget {
    /// No limit — the budget [`crate::Simulator::run_in`] runs under.
    pub const UNLIMITED: RunBudget = RunBudget { max_edges: None };

    /// Returns the budget with an emitted-edge limit.
    #[must_use]
    pub const fn with_max_edges(mut self, max: u64) -> Self {
        self.max_edges = Some(max);
        self
    }
}

/// Per-run accounting against one [`RunBudget`] — each engine run owns
/// one. Allocation-free: every check is tally-and-compare.
#[derive(Debug, Clone)]
pub(crate) struct BudgetMeter<'b> {
    budget: &'b RunBudget,
    edges: u64,
}

impl<'b> BudgetMeter<'b> {
    /// Starts metering a run.
    pub(crate) fn start(budget: &'b RunBudget) -> Self {
        BudgetMeter { budget, edges: 0 }
    }

    /// Charges `n` emitted output edges.
    #[inline]
    pub(crate) fn on_edges(&mut self, n: u64) -> Result<(), SimError> {
        self.edges += n;
        if let Some(max) = self.budget.max_edges {
            if self.edges > max {
                return Err(SimError::BudgetExceeded { limit: max });
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
        for _ in 0..10_000 {
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
        assert_eq!(err, SimError::BudgetExceeded { limit: 10 });
    }
}
