//! The characterized fast path of the hybrid model: a two-input NOR
//! channel that schedules output transitions from `mis-charlib` lookup
//! tables instead of re-solving the delay equation per event.

use mis_charlib::{CharLib, ResampleCounts, SurfaceFamily};
use mis_core::{Mode, ModeConstants, ModeSystem, ModeTrajectory, NorParams};
use mis_waveform::{DigitalTrace, EdgeBuf, TraceRef};

use crate::channels::{ChannelEvents, DelayBounds, TwoInputTransform};
use crate::SimError;

/// A cached two-input NOR delay channel driven by characterized delay
/// surfaces ([`mis_charlib::CharLib`]).
///
/// Where [`crate::HybridNorChannel`] advances the continuous-state ODE
/// model and root-finds every output crossing, this channel runs a pure
/// event-scheduling loop: per input event it performs O(1) bookkeeping
/// plus at most one uniform-grid table lookup (the characterized
/// monotone-cubic surfaces are resampled at construction), which brings
/// the cost per transition to the same order as the trivial inertial
/// channel.
///
/// Approximations relative to the exact channel (all bounded by the
/// library's interpolation budget for well-separated, full-swing traffic):
///
/// * delays come from the characterized `δ↓(Δ)` / `δ↑(Δ, V_N)` surfaces,
///   so they carry the library's interpolation error;
/// * the frozen internal-node voltage is *estimated* from the event
///   history (exact for the settled `(0,0) → (1,0)/(0,1) → (1,1)` paths
///   that dominate real traffic) instead of continuously integrated;
/// * glitches are cancelled whole (pending-edge annihilation) rather than
///   shortened through partial-swing dynamics; delays of edges scheduled
///   while the output is still slewing are adjusted by a first-order
///   analytic partial-swing correction (tabulated at construction, a
///   clamped lookup per scheduled edge), which brings dense-traffic
///   residuals from picoseconds down to the second order.
///
/// # Examples
///
/// ```
/// use mis_charlib::{CharConfig, CharLib};
/// use mis_core::NorParams;
/// use mis_digital::{CachedHybridChannel, TwoInputTransform};
/// use mis_waveform::{units::ps, DigitalTrace};
///
/// # fn main() -> Result<(), mis_digital::SimError> {
/// let lib = CharLib::nor(&NorParams::paper_table1(), &CharConfig::default())
///     .expect("characterization");
/// let ch = CachedHybridChannel::new(&lib)?;
/// let a = DigitalTrace::with_edges(false, vec![(ps(100.0), true)])?;
/// let b = DigitalTrace::with_edges(false, vec![(ps(110.0), true)])?;
/// let out = ch.apply2(&a, &b)?;
/// assert_eq!(out.transition_count(), 1); // one falling transition
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CachedHybridChannel {
    falling: UniformFamily,
    rising: UniformFamily,
    /// Single-input falling delays — the `Δ = +∞` (S10) and `Δ = −∞`
    /// (S01) clamps of the falling surface, precomputed because the
    /// first-rising-input fall is the most common schedule in real
    /// traffic and needs no table walk at all.
    fall_s10: f64,
    fall_s01: f64,
    vdd: f64,
    delta_min: f64,
    /// `V_N` assumed when the trace *starts* in `(1,1)` (no history).
    policy_v: f64,
    /// `V_N(dwell)` during an A-first discharge episode entered from the
    /// settled `(0,0)` state, tabulated from the exact S10 trajectory.
    vn_decay: UniformCurve,
    /// Partial-swing fall corrections per pull-down mode
    /// (`[S10, S01, S11]`), tabulated over the settle time since the
    /// previous rise crossing.
    fall_corr: [UniformCurve; 3],
    /// Partial-swing rise corrections per *previous fall's* pull-down
    /// mode, tabulated over the settle time since the fall crossing.
    rise_corr: [UniformCurve; 3],
    /// Sound per-edge delay bounds, computed once at construction from
    /// the exact extrema of the resampled tables and correction curves
    /// (see [`CachedHybridChannel::delay_bounds`]).
    bounds: DelayBounds,
}

/// Pull-down mode index for the correction tables.
const FALL_S10: usize = 0;
const FALL_S01: usize = 1;
const FALL_S11: usize = 2;

/// A clamped uniform-step sampling of a smooth scalar curve: the hot-loop
/// replacement for per-event `exp`/`ln` evaluations.
#[derive(Debug, Clone)]
struct UniformCurve {
    lo: f64,
    inv_h: f64,
    ys: Vec<f64>,
}

impl UniformCurve {
    fn tabulate(lo: f64, hi: f64, n: usize, f: impl Fn(f64) -> f64) -> Self {
        let h = (hi - lo) / (n - 1) as f64;
        let ys = (0..n).map(|i| f(lo + h * i as f64)).collect();
        UniformCurve {
            lo,
            inv_h: 1.0 / h,
            ys,
        }
    }

    #[inline]
    fn eval(&self, x: f64) -> f64 {
        let u = (x - self.lo) * self.inv_h;
        if u <= 0.0 {
            return self.ys[0];
        }
        let max = (self.ys.len() - 1) as f64;
        if u >= max {
            return self.ys[self.ys.len() - 1];
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let i = u as usize;
        let t = u - i as f64;
        self.ys[i] + t * (self.ys[i + 1] - self.ys[i])
    }

    /// Exact range of [`UniformCurve::eval`]: linear interpolation stays
    /// between its endpoints and extrapolation clamps, so the sample
    /// extrema are the curve extrema.
    fn value_range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &y in &self.ys {
            lo = lo.min(y);
            hi = hi.max(y);
        }
        (lo, hi)
    }
}

/// Starting resampled points per slice (~4.7 ps step over the default
/// ±300 ps range — cubic Hermite cells converge orders of magnitude
/// faster than the piecewise-linear sampling this replaced; on the
/// committed library the validated tables reach 513–1,025 points, about
/// 100 KiB per cell type, see `UniformFamily`).
const MIN_RESAMPLE_POINTS: usize = 129;

/// Hard cap on resampled points per slice (memory guard for extreme
/// error budgets).
const MAX_RESAMPLE_POINTS: usize = 16_385;

/// Resamples a family at the coarsest density whose secondary
/// interpolation error (uniform Hermite cells vs the monotone-cubic
/// surfaces) stays within `tol`, validated at every cell midpoint and
/// doubling until the cap. This ties the uniform table to the library's
/// declared budget instead of assuming a fixed step suffices. A library
/// that records its counts ([`CharLib::resample_counts`]) skips the
/// search: [`resample_at`] tabulates once at the recorded count.
fn search_resample(fam: &SurfaceFamily, tol: f64) -> UniformFamily {
    let mut n = MIN_RESAMPLE_POINTS;
    loop {
        let table = UniformFamily::resample(fam, n);
        if n >= MAX_RESAMPLE_POINTS || resample_error(fam, &table) <= tol {
            return table;
        }
        n = 2 * n - 1;
    }
}

/// Tabulates `family` once at a recorded count `n`, and checks the
/// table once against `tol` as the search would have.
///
/// # Errors
///
/// [`SimError::ResampleTooCoarse`] when the table misses `tol`, and
/// [`SimError::InvalidChannel`] for a count beyond the cap.
fn resample_at(
    fam: &SurfaceFamily,
    family: &'static str,
    n: usize,
    tol: f64,
) -> Result<UniformFamily, SimError> {
    if !(2..=MAX_RESAMPLE_POINTS).contains(&n) {
        return Err(SimError::InvalidChannel {
            reason: format!("{family} resample count {n} outside 2..={MAX_RESAMPLE_POINTS}"),
        });
    }
    let table = UniformFamily::resample(fam, n);
    let error = resample_error(fam, &table);
    if error <= tol {
        Ok(table)
    } else {
        Err(SimError::ResampleTooCoarse {
            family,
            points: n,
            error,
            tolerance: tol,
        })
    }
}

/// Worst |uniform − cubic| over all cell midpoints of all slices.
fn resample_error(fam: &SurfaceFamily, table: &UniformFamily) -> f64 {
    let (lo, hi) = fam.delta_range();
    let n = table.last + 1;
    let h = (hi - lo) / (n - 1) as f64;
    let mut worst = 0.0_f64;
    for (s, slice) in fam.slices().iter().enumerate() {
        let mut cubic = slice.walk();
        for i in 0..n - 1 {
            let x = lo + h * (i as f64 + 0.5);
            worst = worst.max((table.eval_slice(s, x) - cubic(x)).abs());
        }
    }
    worst
}

/// A uniform-step **cubic Hermite** resampling of a [`SurfaceFamily`]
/// for branch-light O(1) lookups on the event hot path: index arithmetic
/// plus one Hermite evaluation instead of a binary search over the
/// non-uniform characterization grid.
///
/// Each grid point stores `(value, h·derivative)` — the derivative taken
/// from the monotone-cubic surface itself, pre-scaled by the grid step —
/// laid out point-major (`ys[(i·m + s)·2 ..]`), so the slice pair
/// bracketing a voltage reads adjacent memory. Cubic cells converge as
/// `h⁴` where the previous piecewise-linear table converged as `h²`,
/// which shrinks the validated tables at a given error budget. On the
/// committed `nor_paper.mislib` the rising family resamples to 1,025
/// points × 5 slices (80 KiB of `(value, h·slope)` pairs) and the
/// falling family to 513 × 1 (8 KiB); with the seven 257-point
/// correction curves (14 KiB) a cell type holds ≈ 100 KiB of tables,
/// more than a typical 32–48 KiB L1d. A lookup touches two adjacent
/// points of one or two slices.
#[derive(Debug, Clone)]
struct UniformFamily {
    lo: f64,
    inv_h: f64,
    /// Slice count `m`.
    m: usize,
    /// Index of the last grid point.
    last: usize,
    /// Slice voltages (strictly increasing; one slice means ignored).
    voltages: Vec<f64>,
    /// Reciprocal voltage gaps, `inv_dv[i] = 1/(voltages[i+1]−voltages[i])`.
    inv_dv: Vec<f64>,
    /// Point-major `(value, h·derivative)` matrix, `n × m × 2`.
    ys: Vec<f64>,
}

impl UniformFamily {
    fn resample(fam: &SurfaceFamily, n: usize) -> Self {
        let (lo, hi) = fam.delta_range();
        let h = (hi - lo) / (n - 1) as f64;
        let m = fam.slices().len();
        // Central-difference step for the surface derivative: small
        // against the cell, large against f64 cancellation.
        let eps = h * 1e-4;
        let mut ys = vec![0.0; n * m * 2];
        // Slice by slice, so the grid points and each of the ±eps probe
        // sequences ascend and every one walks its slice's knots with a
        // forward cursor.
        for (s, slice) in fam.slices().iter().enumerate() {
            let (mut at, mut below, mut above) = (slice.walk(), slice.walk(), slice.walk());
            for i in 0..n {
                let delta = lo + h * i as f64;
                let value = at(delta);
                // One-sided at the grid ends (the surface clamps outside
                // its range, which would flatten a centered difference).
                let d = if i == 0 {
                    (above(delta + eps) - value) / eps
                } else if i == n - 1 {
                    (value - below(delta - eps)) / eps
                } else {
                    (above(delta + eps) - below(delta - eps)) / (2.0 * eps)
                };
                let p = (i * m + s) * 2;
                ys[p] = value;
                ys[p + 1] = d * h;
            }
        }
        let voltages = fam.voltages().to_vec();
        let inv_dv = voltages.windows(2).map(|w| 1.0 / (w[1] - w[0])).collect();
        UniformFamily {
            lo,
            inv_h: 1.0 / h,
            m,
            last: n - 1,
            voltages,
            inv_dv,
            ys,
        }
    }

    /// Grid cell and intra-cell fraction for `delta`, clamped to the grid.
    #[inline]
    fn locate(&self, delta: f64) -> (usize, f64) {
        let x = (delta - self.lo) * self.inv_h;
        if x <= 0.0 {
            return (0, 0.0);
        }
        if x >= self.last as f64 {
            return (self.last - 1, 1.0);
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let i = x as usize;
        (i, x - i as f64)
    }

    /// Cubic Hermite over one cell from `(v0, dh0)` at its left point and
    /// `(v1, dh1)` at its right, `t ∈ [0, 1]`. Written in Estrin form —
    /// `(v0 + t·dh0) + t²·(b + t·a)` — rather than Horner: the event loop
    /// is one serial dependency chain (each lookup feeds the pending edge
    /// the next event compares against), so the two shorter parallel
    /// sub-chains beat the three nested multiply-adds.
    #[inline]
    fn hermite(v0: f64, dh0: f64, v1: f64, dh1: f64, t: f64) -> f64 {
        let dv = v1 - v0;
        let a = dh0 + dh1 - 2.0 * dv;
        let b = 3.0 * dv - 2.0 * dh0 - dh1;
        let t2 = t * t;
        (v0 + t * dh0) + t2 * (b + t * a)
    }

    /// Exact range of [`UniformFamily::eval`] over all `(Δ, v)`. Per
    /// Hermite cell the extrema are the endpoint values plus the interior
    /// stationary points (roots of the derivative quadratic); the voltage
    /// blend is a convex combination of two slice evaluations, and
    /// clamping (in Δ and v) never leaves the cell/slice hull — so the
    /// cell-wise extrema over all slices bound every lookup. Unlike the
    /// raw characterization samples, this accounts for the resampled
    /// cubic's overshoot exactly.
    fn value_range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut fold = |v: f64| {
            lo = lo.min(v);
            hi = hi.max(v);
        };
        for i in 0..self.last {
            for s in 0..self.m {
                let p0 = (i * self.m + s) * 2;
                let p1 = ((i + 1) * self.m + s) * 2;
                let (v0, dh0) = (self.ys[p0], self.ys[p0 + 1]);
                let (v1, dh1) = (self.ys[p1], self.ys[p1 + 1]);
                fold(v0);
                fold(v1);
                // H'(t) = dh0 + 2bt + 3at², stationary points in (0, 1).
                let dv = v1 - v0;
                let a = dh0 + dh1 - 2.0 * dv;
                let b = 3.0 * dv - 2.0 * dh0 - dh1;
                let (qa, qb, qc) = (3.0 * a, 2.0 * b, dh0);
                if qa == 0.0 {
                    if qb != 0.0 {
                        let t = -qc / qb;
                        if t > 0.0 && t < 1.0 {
                            fold(Self::hermite(v0, dh0, v1, dh1, t));
                        }
                    }
                } else {
                    let disc = qb * qb - 4.0 * qa * qc;
                    if disc >= 0.0 {
                        let sq = disc.sqrt();
                        for r in [(-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)] {
                            if r > 0.0 && r < 1.0 {
                                fold(Self::hermite(v0, dh0, v1, dh1, r));
                            }
                        }
                    }
                }
            }
        }
        (lo, hi)
    }

    #[inline]
    fn eval_slice(&self, s: usize, delta: f64) -> f64 {
        let (i, t) = self.locate(delta);
        let p0 = (i * self.m + s) * 2;
        let p1 = ((i + 1) * self.m + s) * 2;
        Self::hermite(
            self.ys[p0],
            self.ys[p0 + 1],
            self.ys[p1],
            self.ys[p1 + 1],
            t,
        )
    }

    #[inline]
    fn eval(&self, delta: f64, v: f64) -> f64 {
        let m = self.m;
        if m == 1 || v <= self.voltages[0] {
            return self.eval_slice(0, delta);
        }
        if v >= self.voltages[m - 1] {
            return self.eval_slice(m - 1, delta);
        }
        // Linear scan: slice counts are single-digit.
        let mut hi = 1;
        while self.voltages[hi] <= v {
            hi += 1;
        }
        let s = hi - 1;
        let tv = (v - self.voltages[s]) * self.inv_dv[s];
        let (i, t) = self.locate(delta);
        // Two Hermite cells from two adjacent point-major rows (the
        // bracketing slices are contiguous within each row).
        let p0 = (i * m + s) * 2;
        let p1 = ((i + 1) * m + s) * 2;
        let lo_v = Self::hermite(
            self.ys[p0],
            self.ys[p0 + 1],
            self.ys[p1],
            self.ys[p1 + 1],
            t,
        );
        let hi_v = Self::hermite(
            self.ys[p0 + 2],
            self.ys[p0 + 3],
            self.ys[p1 + 2],
            self.ys[p1 + 3],
            t,
        );
        lo_v + tv * (hi_v - lo_v)
    }
}

impl CachedHybridChannel {
    /// The resample counts the doubling search picks for `lib`'s
    /// families. A library that records them
    /// ([`CharLib::with_resample_counts`], text format 2) lets
    /// [`CachedHybridChannel::new`] tabulate each family once, with the
    /// same bits.
    #[must_use]
    pub fn search_resample_counts(lib: &CharLib) -> ResampleCounts {
        let tol = 0.25 * lib.budget();
        ResampleCounts {
            falling: search_resample(lib.falling(), tol).last + 1,
            rising: search_resample(lib.rising(), tol).last + 1,
        }
    }

    /// Builds the channel from a characterized NOR library. Each surface
    /// family is resampled onto a uniform table at the count the library
    /// records, checked once against a quarter of the budget; a library
    /// without counts searches for them by doubling.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation failures ([`SimError::Model`]).
    /// A recorded count whose table misses the quarter budget is
    /// [`SimError::ResampleTooCoarse`], naming the family.
    pub fn new(lib: &CharLib) -> Result<Self, SimError> {
        let params: &NorParams = lib.params();
        let sys = ModeSystem::new(params, Mode::S10)?;
        // λ₁ = γ + β is the slow (dominant) eigenvalue of a coupled mode.
        let k00 = ModeConstants::for_mode(params, Mode::S00).expect("S00 is coupled");
        let k10 = ModeConstants::for_mode(params, Mode::S10).expect("S10 is coupled");
        let r_par = params.r3 * params.r4 / (params.r3 + params.r4);
        let tau_rise = -1.0 / k00.lambda1;
        let tau_fall = [
            -1.0 / k10.lambda1,    // S10
            params.co * params.r4, // S01
            params.co * r_par,     // S11
        ];
        let s10_from_rails: ModeTrajectory = sys.trajectory([params.vdd, params.vdd]);
        let (vdd, vth) = (params.vdd, params.vth);
        const CURVE_POINTS: usize = 257;
        let fall_corr = tau_fall.map(|tau_f| {
            UniformCurve::tabulate(0.0, 12.0 * tau_rise, CURVE_POINTS, |settle| {
                let frac = (vdd - vth) / vdd * (-settle / tau_rise).exp();
                tau_f * (1.0 - frac).ln()
            })
        });
        let rise_corr = tau_fall.map(|tau_f| {
            UniformCurve::tabulate(0.0, 12.0 * tau_f, CURVE_POINTS, |settle| {
                let vo0_over_vdd = vth / vdd * (-settle / tau_f).exp();
                tau_rise * (1.0 - vo0_over_vdd).ln()
            })
        });
        let vn_decay = UniformCurve::tabulate(0.0, 16.0 * tau_fall[FALL_S10], CURVE_POINTS, |d| {
            s10_from_rails.vn(d)
        });
        let tol = 0.25 * lib.budget();
        let (falling, rising) = match lib.resample_counts() {
            Some(n) => (
                resample_at(lib.falling(), "falling", n.falling, tol)?,
                resample_at(lib.rising(), "rising", n.rising, tol)?,
            ),
            None => (
                search_resample(lib.falling(), tol),
                search_resample(lib.rising(), tol),
            ),
        };
        // Sound per-edge bounds, from the scheduler's two commit forms:
        // a fall commits at `anchor + base + fall_corr` and a rise at
        // `t + rising(Δ, v) + rise_corr`, where `anchor`/`t` are input
        // edge times, the table lookups stay within the resampled cells'
        // exact extrema (`value_range`), and the correction lookups stay
        // within their sample extrema. The slack absorbs the `push()`
        // monotonicity nudge (1e-18 per committed edge — 10⁶ consecutive
        // nudged edges fit, orders beyond any realizable trace).
        const NUDGE_SLACK: f64 = 1e-12;
        let curve_range = |curves: &[UniformCurve; 3]| {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for c in curves {
                let (a, b) = c.value_range();
                lo = lo.min(a);
                hi = hi.max(b);
            }
            (lo, hi)
        };
        let (fall_lo, fall_hi) = falling.value_range();
        let (rise_lo, rise_hi) = rising.value_range();
        let (cf_lo, cf_hi) = curve_range(&fall_corr);
        let (cr_lo, cr_hi) = curve_range(&rise_corr);
        let bounds = DelayBounds::new(
            (fall_lo + cf_lo).min(rise_lo + cr_lo),
            (fall_hi + cf_hi).max(rise_hi + cr_hi) + NUDGE_SLACK,
        );
        Ok(CachedHybridChannel {
            fall_s10: falling.eval(f64::INFINITY, 0.0),
            fall_s01: falling.eval(f64::NEG_INFINITY, 0.0),
            falling,
            rising,
            vdd,
            delta_min: params.delta_min,
            policy_v: params.vn_policy.voltage(params.vdd),
            vn_decay,
            fall_corr,
            rise_corr,
            bounds,
        })
    }

    /// The body of [`TwoInputTransform::apply2_into`], which also returns
    /// how many input events the held-high stop skipped.
    fn schedule_into(
        &self,
        a: TraceRef<'_>,
        b: TraceRef<'_>,
        out: &mut EdgeBuf,
    ) -> Result<(ChannelEvents, usize), SimError> {
        let mut s = Scheduler::new(self, a.initial_value(), b.initial_value(), out);
        // Same two-pointer merge as `apply2`, over the SoA views,
        // polarities by parity, while both inputs have edges left. Which
        // input fires next is a coin flip to the branch predictor, so
        // the selection is arranged as data flow (conditional moves on
        // one compare) rather than control flow — only `handle`'s own
        // state machine branches remain.
        let (ta, tb) = (a.times(), b.times());
        let (ia, ib) = (a.initial_value(), b.initial_value());
        let (na, nb) = (ta.len(), tb.len());
        let (mut i, mut j) = (0, 0);
        while i < na && j < nb {
            let (tai, tbj) = (ta[i], tb[j]);
            let take_a = tai <= tbj;
            let t = if take_a { tai } else { tbj };
            let (idx, init) = if take_a { (i, ia) } else { (j, ib) };
            let v = (idx % 2 == 0) ^ init;
            let which = usize::from(!take_a);
            i += usize::from(take_a);
            j += usize::from(!take_a);
            s.handle_dyn(t, which, v)?;
        }
        let skipped = if i < na {
            s.feed_tail(a, i, 0, b.final_value())?
        } else {
            s.feed_tail(b, j, 1, a.final_value())?
        };
        Ok((s.finish()?, skipped))
    }
}

/// Mutable scheduling state of one channel run. The output is written to
/// a borrowed [`EdgeBuf`] (the arena hot path owns it; the allocating
/// compatibility path wraps a temporary), with polarities implied by the
/// buffer's parity representation — the scheduler's own value tracking
/// guarantees alternation.
///
/// The state layout is chosen for the event hot loop, where the dominant
/// cost is unpredictable branches, not arithmetic: the input values are
/// one bit mask (`high`), the per-input edge times are indexed by
/// `[polarity][input]` so recording an event is a single branchless
/// store, and the at-most-one pending edge is a plain time with `+∞` as
/// the "none" sentinel — every "is a pending edge due?" question is one
/// float compare instead of an `Option` match.
struct Scheduler<'a, 'o> {
    ch: &'a CachedHybridChannel,
    /// Input-high bit mask: bit 0 = A, bit 1 = B.
    high: u32,
    /// Last edge time per `[polarity][input]`: `t_edges[1]` holds rise
    /// times, `t_edges[0]` fall times, each `[A, B]`.
    t_edges: [[f64; 2]; 2],
    /// `V_N` frozen at the most recent `(1,1)` entry.
    frozen_vn: f64,
    /// Start of the current output-low episode (first rising input).
    ep_start: f64,
    /// Whether the current episode passed through `(1,1)`.
    ep_s11: bool,
    /// Committed output value.
    value: bool,
    /// Scheduled, not-yet-committed output crossing (`+∞` = none).
    pending_t: f64,
    /// Polarity of the pending crossing (meaningless when none).
    pending_pol: bool,
    /// Pull-down mode index of the most recent fall, selecting the rise
    /// partial-swing correction table.
    last_fall_idx: usize,
    /// Mirror of `out.last_time()` (`−∞` while empty), so the nudge guard
    /// and the partial-swing corrections read a register instead of
    /// chasing the buffer.
    last_out_t: f64,
    out: &'o mut EdgeBuf,
    /// Pending transitions annihilated this run (a local tally: the
    /// event hot loop only bumps a register, and `finish` returns it).
    n_cancelled: u64,
    /// MIS delay-surface evaluations this run (local tally).
    n_lookups: u64,
}

impl<'a, 'o> Scheduler<'a, 'o> {
    /// Prepares a run: clears `out` to the NOR of the initial input
    /// values and seeds the event-history state.
    fn new(ch: &'a CachedHybridChannel, a0: bool, b0: bool, out: &'o mut EdgeBuf) -> Self {
        let initial = !(a0 || b0);
        out.clear(initial);
        Scheduler {
            ch,
            high: u32::from(a0) | u32::from(b0) << 1,
            t_edges: [[f64::NEG_INFINITY; 2]; 2],
            frozen_vn: if a0 && b0 { ch.policy_v } else { ch.vdd },
            ep_start: f64::NEG_INFINITY,
            ep_s11: a0 && b0,
            value: initial,
            pending_t: f64::INFINITY,
            pending_pol: false,
            last_fall_idx: FALL_S11,
            last_out_t: f64::NEG_INFINITY,
            out,
            n_cancelled: 0,
            n_lookups: 0,
        }
    }

    /// Flushes the pending edge at the end of the event stream and
    /// returns the run's event tallies.
    fn finish(mut self) -> Result<ChannelEvents, SimError> {
        if self.pending_t < f64::INFINITY {
            let (tp, pol) = (self.pending_t, self.pending_pol);
            self.pending_t = f64::INFINITY;
            self.push(tp, pol)?;
        }
        Ok(ChannelEvents {
            pending_cancelled: self.n_cancelled,
            table_lookups: self.n_lookups,
            pulse_filtered: 0,
        })
    }

    #[inline]
    fn push(&mut self, t: f64, rising: bool) -> Result<(), SimError> {
        // Guard against pathological reschedules landing at or before the
        // previously committed edge: nudge forward by one trace quantum.
        let t = if t <= self.last_out_t {
            self.last_out_t + 1e-18
        } else {
            t
        };
        self.last_out_t = t;
        // The nudge already enforced monotonicity and the scheduler's own
        // value tracking guarantees alternation, so the parity-implied
        // polarity matches `rising` by construction (debug-checked).
        debug_assert_eq!(rising, !self.out.final_value());
        self.out.push_time(t)?;
        self.value = rising;
        Ok(())
    }

    /// [`Scheduler::handle`] with the polarity known only at run time.
    #[inline]
    fn handle_dyn(&mut self, t: f64, which: usize, rising: bool) -> Result<(), SimError> {
        if rising {
            self.handle::<true>(t, which)
        } else {
            self.handle::<false>(t, which)
        }
    }

    /// Feeds input `which`'s events from index `from` on, after the
    /// other input's last edge, and returns how many it skipped.
    ///
    /// The held-high stop: while the other input rests high
    /// (`other_high`), the NOR is pulled low in modes (1,0) and (1,1)
    /// and can only rise once both inputs are low, which never happens
    /// again. So once the output is committed low with nothing
    /// pending, a further event of this input commits nothing (nothing
    /// is pending), cancels nothing, and schedules nothing: a rise
    /// schedules a fall only while one is pending or the output is high,
    /// and a fall leaves the ideal value low. Neither looks a delay up
    /// (the `V_N` freeze on entering (1,1) is state, not a tally). The
    /// remaining events only move the internal-node history that a
    /// later rise would read, so they are skipped and the output and
    /// the [`ChannelEvents`] equal those of feeding them all. Until that
    /// point, events inside a pending fall's window still reschedule it.
    /// With the other input held low, every event can move the output,
    /// and all are fed.
    #[inline]
    fn feed_tail(
        &mut self,
        input: TraceRef<'_>,
        from: usize,
        which: usize,
        other_high: bool,
    ) -> Result<usize, SimError> {
        let (ts, init) = (input.times(), input.initial_value());
        for (k, &t) in ts.iter().enumerate().skip(from) {
            if other_high && !self.value && self.pending_t == f64::INFINITY {
                return Ok(ts.len() - k);
            }
            self.handle_dyn(t, which, (k % 2 == 0) ^ init)?;
        }
        Ok(0)
    }

    /// One input event of polarity `V` (const-specialized: a rising and a
    /// falling event share almost no state transitions, and pruning the
    /// impossible halves statically keeps the per-event branch count —
    /// the hot loop's real currency — minimal).
    #[inline]
    fn handle<const V: bool>(&mut self, t: f64, which: usize) -> Result<(), SimError> {
        // Commit the pending edge if this event can no longer cancel it.
        // Input events act *deferred* by the pure delay `δ_min` (exactly
        // as in the exact channel), so a crossing predicted up to
        // `t + δ_min` is already locked in when the event lands — this is
        // what preserves the exact channel's shortened pulses whose
        // crossing falls inside the deferral window. (The `+∞` sentinel
        // makes this compare false when nothing is pending.)
        if self.pending_t <= t + self.ch.delta_min {
            let (tp, pol) = (self.pending_t, self.pending_pol);
            self.pending_t = f64::INFINITY;
            self.push(tp, pol)?;
        }
        let was = self.high;
        self.t_edges[usize::from(V)][which] = t;
        if V {
            // Rising input: the output can only (re)schedule a fall.
            self.high = was | 1 << which;
            if was == 0 {
                // First rising input opens an output-low episode.
                self.ep_start = t;
                self.ep_s11 = false;
            } else if self.high == 3 {
                self.ep_s11 = true;
                // Freeze the internal node. B-first paths ((0,1) → (1,1))
                // left N precharged to VDD; A-first paths have discharged
                // it since A rose (a trace-initial high A counts as
                // "forever", i.e. fully discharged, the tabulated decay's
                // clamped tail).
                self.frozen_vn = match was {
                    0b10 => self.ch.vdd,
                    0b01 => self.ch.vn_decay.eval(t - self.t_edges[1][0]),
                    _ => self.frozen_vn,
                };
            }
            // `ideal` is statically low here. A pending fall's Δ is
            // stale — the second rising input sharpens it to the MIS
            // delay; a pending rise is cancelled (the input reverted
            // before the crossing), and a fall is due if the output is
            // still high. All three cases land in the same reschedule.
            if self.pending_t < f64::INFINITY && self.pending_pol {
                self.pending_t = f64::INFINITY;
                self.n_cancelled += 1;
            }
            if self.pending_t < f64::INFINITY || self.value {
                self.schedule::<false>(t)?;
            }
        } else {
            // Falling input: episode state is untouched (an episode opens
            // on a rise, and `(1,1)` cannot be entered by a fall).
            self.high = was & !(1 << which);
            let ideal = self.high == 0;
            if self.pending_t < f64::INFINITY {
                if self.pending_pol == ideal {
                    // Heading to the same value, but a pending fall's
                    // input set shrank: revert it to the remaining single
                    // input's delay — the exact model likewise finishes
                    // the discharge in the single-input mode. (A pending
                    // *fall* implies some input is high, so `!ideal` is
                    // the whole condition.)
                    if !ideal {
                        self.schedule::<false>(t)?;
                    }
                } else {
                    // The input reverted before the scheduled crossing:
                    // the transition never happens (glitch suppression).
                    self.pending_t = f64::INFINITY;
                    self.n_cancelled += 1;
                    if ideal != self.value {
                        self.schedule_dyn(t, ideal)?;
                    }
                }
            } else if ideal != self.value {
                self.schedule_dyn(t, ideal)?;
            }
        }
        Ok(())
    }

    /// Correction for a fall scheduled while the output is still rising:
    /// the exact model discharges from the *actual* `V_O`, not from the
    /// rail. For an output that crossed `V_th` upward at the last
    /// committed edge and charges with `τ_rise`, discharging with the
    /// mode's `τ_f` starts lower and crosses earlier by
    /// `τ_f · ln(V_O/V_DD)` — tabulated at construction, so this is a
    /// clamped table lookup (zero once the output has settled).
    #[inline]
    fn fall_partial_swing_correction(&mut self, anchor: f64, fall_idx: usize) -> f64 {
        self.last_fall_idx = fall_idx;
        if self.last_out_t == f64::NEG_INFINITY {
            return 0.0;
        }
        self.ch.fall_corr[fall_idx].eval(anchor + self.ch.delta_min - self.last_out_t)
    }

    /// The mirror-image correction for a rise following a fall that had
    /// not fully discharged the output.
    #[inline]
    fn rise_partial_swing_correction(&self, anchor: f64) -> f64 {
        if self.last_out_t == f64::NEG_INFINITY {
            return 0.0;
        }
        self.ch.rise_corr[self.last_fall_idx].eval(anchor + self.ch.delta_min - self.last_out_t)
    }

    /// Dynamic-target dispatch for the one call site whose polarity is
    /// only known at run time.
    #[inline]
    fn schedule_dyn(&mut self, t: f64, target: bool) -> Result<(), SimError> {
        if target {
            self.schedule::<true>(t)
        } else {
            self.schedule::<false>(t)
        }
    }

    #[inline]
    fn schedule<const TARGET: bool>(&mut self, t: f64) -> Result<(), SimError> {
        let t_rise = self.t_edges[1];
        let t_fall = self.t_edges[0];
        let tp = if TARGET {
            // Rising output: both inputs low as of this event.
            let (delta, x) = if self.ep_s11 {
                (t_fall[1] - t_fall[0], self.frozen_vn)
            } else if self.ep_start > f64::NEG_INFINITY {
                // Single-input episode: the model's first-phase dwell is
                // the episode length; N started from the rails.
                let dwell = t - self.ep_start;
                let signed = if t_fall[0] >= t_fall[1] {
                    // A was the high input (it fell last): an A-first
                    // discharge phase, Δ < 0 in the paper's convention.
                    -dwell
                } else {
                    dwell
                };
                (signed, self.ch.vdd)
            } else {
                // No recorded history: settled single-input limits.
                (t_fall[1] - t_fall[0], self.ch.vdd)
            };
            self.n_lookups += 1;
            t + self.ch.rising.eval(delta, x) + self.rise_partial_swing_correction(t)
        } else {
            // Falling output: anchored at the earliest currently-high
            // input's rise. The single-input modes take a precomputed
            // constant (the surface's `Δ = ±∞` clamp); only the genuine
            // MIS case walks the table.
            let (anchor, base, fall_idx) = match self.high {
                0b11 => {
                    self.n_lookups += 1;
                    (
                        t_rise[0].min(t_rise[1]),
                        self.ch.falling.eval(t_rise[1] - t_rise[0], 0.0),
                        FALL_S11,
                    )
                }
                0b01 => (t_rise[0], self.ch.fall_s10, FALL_S10),
                0b10 => (t_rise[1], self.ch.fall_s01, FALL_S01),
                _ => unreachable!("falling schedule with both inputs low"),
            };
            let anchor = if anchor > f64::NEG_INFINITY {
                anchor
            } else {
                t
            };
            anchor + base + self.fall_partial_swing_correction(anchor, fall_idx)
        };
        if tp <= t + self.ch.delta_min {
            // Already locked in (events act deferred by δ_min).
            self.pending_t = f64::INFINITY;
            self.push(tp, TARGET)?;
        } else {
            self.pending_t = tp;
            self.pending_pol = TARGET;
        }
        Ok(())
    }
}

impl TwoInputTransform for CachedHybridChannel {
    fn apply2(&self, a: &DigitalTrace, b: &DigitalTrace) -> Result<DigitalTrace, SimError> {
        let mut out = EdgeBuf::with_capacity(a.transition_count() + b.transition_count());
        let mut s = Scheduler::new(self, a.initial_value(), b.initial_value(), &mut out);
        // Two-pointer merge over the (already sorted) input edge lists.
        let (ea, eb) = (a.edges(), b.edges());
        let (mut i, mut j) = (0, 0);
        while i < ea.len() || j < eb.len() {
            let take_a = match (ea.get(i), eb.get(j)) {
                (Some(x), Some(y)) => x.time <= y.time,
                (Some(_), None) => true,
                (None, _) => false,
            };
            let (t, which, v) = if take_a {
                let e = ea[i];
                i += 1;
                (e.time, 0, e.rising)
            } else {
                let e = eb[j];
                j += 1;
                (e.time, 1, e.rising)
            };
            if v {
                s.handle::<true>(t, which)?;
            } else {
                s.handle::<false>(t, which)?;
            }
        }
        s.finish()?;
        Ok(out.to_trace())
    }

    /// The SoA event loop: a two-pointer merge feeding the scheduler,
    /// which returns its event tallies at the end.
    ///
    /// Once one input has no edges left and rests high, the other
    /// input's events are fed only until the output is committed low
    /// with nothing pending. The NOR can then never rise again (one
    /// input stays high), and a further event commits, cancels,
    /// schedules and looks up nothing; it only moves the internal-node
    /// history a later rise would read. So the output and the returned
    /// tallies are exactly those of feeding every event, as
    /// [`TwoInputTransform::apply2`] does.
    fn apply2_into(
        &self,
        a: TraceRef<'_>,
        b: TraceRef<'_>,
        out: &mut EdgeBuf,
    ) -> Result<ChannelEvents, SimError> {
        self.schedule_into(a, b, out).map(|(events, _)| events)
    }

    fn name(&self) -> &str {
        "hybrid-nor-cached"
    }

    /// Bounds covering both commit forms of the event scheduler: falls
    /// (`anchor + base + fall_corr`) and rises (`t + δ↑ + rise_corr`),
    /// with the table extrema computed exactly over the resampled Hermite
    /// cells and a slack for the monotonicity nudge — see the derivation
    /// at construction.
    fn delay_bounds(&self) -> Option<DelayBounds> {
        Some(self.bounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::hybrid::HybridNorChannel;
    use crate::{gates, NandChannel};
    use mis_charlib::CharConfig;
    use mis_core::{delay, NorParams, RisingInitialVn};
    use mis_waveform::units::ps;
    use std::sync::Arc;

    fn lib() -> CharLib {
        CharLib::nor(&NorParams::paper_table1(), &CharConfig::default()).expect("characterization")
    }

    fn channel() -> CachedHybridChannel {
        CachedHybridChannel::new(&lib()).unwrap()
    }

    #[test]
    fn committed_library_resamples_to_its_documented_table_sizes() {
        // The module, `CellLibrary` and DESIGN.md quote these sizes; a
        // change to the resampling rule or the committed library must
        // update them together.
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../data/charlib/nor_paper.mislib");
        let text = std::fs::read_to_string(path).expect("committed NOR library");
        let ch = CachedHybridChannel::new(&CharLib::from_text(&text).unwrap()).unwrap();
        let shape = |f: &UniformFamily| (f.last + 1, f.m);
        assert_eq!(shape(&ch.rising), (1025, 5), "rising (n, m)");
        assert_eq!(shape(&ch.falling), (513, 1), "falling (n, m)");
        let curves: Vec<&UniformCurve> = ch
            .fall_corr
            .iter()
            .chain(&ch.rise_corr)
            .chain([&ch.vn_decay])
            .collect();
        assert!(curves.iter().all(|c| c.ys.len() == 257));
        let floats = ch.rising.ys.len() + ch.falling.ys.len() + 7 * 257;
        // 82,000 + 8,208 + 14,392 bytes: ≈ 100 KiB per cell type.
        assert_eq!(8 * floats, 104_600);
    }

    #[test]
    fn recorded_counts_tabulate_the_searched_tables_bit_for_bit() {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../data/charlib/nor_paper.mislib");
        let v2_text = std::fs::read_to_string(path).expect("committed NOR library");
        let v2 = CharLib::from_text(&v2_text).unwrap();
        let counts = v2
            .resample_counts()
            .expect("the committed library is format 2");
        // The same library as format 1: no counts, so `new` searches.
        let v1_text = v2_text
            .replacen("mis-charlib 2", "mis-charlib 1", 1)
            .replacen("resample falling 513\n", "", 1)
            .replacen("resample rising 1025\n", "", 1);
        let v1 = CharLib::from_text(&v1_text).unwrap();
        assert_eq!(v1.resample_counts(), None);
        assert_eq!(CachedHybridChannel::search_resample_counts(&v1), counts);
        let (tabulated, searched) = (
            CachedHybridChannel::new(&v2).unwrap(),
            CachedHybridChannel::new(&v1).unwrap(),
        );
        let bits = |f: &UniformFamily| f.ys.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&tabulated.rising), bits(&searched.rising));
        assert_eq!(bits(&tabulated.falling), bits(&searched.falling));
        assert_eq!(tabulated.bounds, searched.bounds);
        // One doubling too coarse misses the tolerance: a typed error
        // naming the family, never a silent search.
        let coarse = v1.clone().with_resample_counts(ResampleCounts {
            rising: 513,
            ..counts
        });
        match CachedHybridChannel::new(&coarse) {
            Err(SimError::ResampleTooCoarse {
                family,
                points,
                error,
                tolerance,
            }) => {
                assert_eq!((family, points), ("rising", 513));
                assert!(error > tolerance && tolerance == 0.25 * v1.budget());
            }
            other => panic!("expected ResampleTooCoarse, got {other:?}"),
        }
        let past_cap = v1.with_resample_counts(ResampleCounts {
            falling: MAX_RESAMPLE_POINTS + 1,
            ..counts
        });
        assert!(matches!(
            CachedHybridChannel::new(&past_cap),
            Err(SimError::InvalidChannel { .. })
        ));
    }

    #[test]
    fn single_falling_transition_matches_exact_delay() {
        let ch = channel();
        let p = NorParams::paper_table1();
        let budget = lib().budget();
        for &delta in &[ps(-40.0), ps(-10.0), 0.0, ps(10.0), ps(40.0)] {
            let (ta, tb) = if delta >= 0.0 {
                (ps(200.0), ps(200.0) + delta)
            } else {
                (ps(200.0) - delta, ps(200.0))
            };
            let a = DigitalTrace::with_edges(false, vec![(ta, true)]).unwrap();
            let b = DigitalTrace::with_edges(false, vec![(tb, true)]).unwrap();
            let out = ch.apply2(&a, &b).unwrap();
            assert_eq!(out.transition_count(), 1, "Δ = {delta:e}");
            let expected = ta.min(tb) + delay::falling_delay(&p, delta).unwrap();
            assert!(
                (out.edges()[0].time - expected).abs() <= budget,
                "Δ = {delta:e}: {:e} vs {expected:e}",
                out.edges()[0].time
            );
        }
    }

    #[test]
    fn rising_after_s11_uses_frozen_vn_estimate() {
        // (0,0) → A↑ → B↑ (freezes a partially discharged N) → both fall:
        // the cached channel must track the exact channel's tracked-V_N
        // rising delay to within the table budget plus the V_N slice
        // interpolation, not the memoryless GND value.
        let p = NorParams::paper_table1();
        let ch = channel();
        let exact = HybridNorChannel::new(&p).unwrap();
        let budget = lib().budget();
        let a =
            DigitalTrace::with_edges(false, vec![(ps(100.0), true), (ps(400.0), false)]).unwrap();
        let b =
            DigitalTrace::with_edges(false, vec![(ps(112.0), true), (ps(400.0), false)]).unwrap();
        let got = ch.apply2(&a, &b).unwrap();
        let want = exact.apply2(&a, &b).unwrap();
        assert_eq!(got.transition_count(), want.transition_count());
        for (ge, we) in got.edges().iter().zip(want.edges()) {
            assert_eq!(ge.rising, we.rising);
            assert!(
                (ge.time - we.time).abs() <= 25.0 * budget,
                "edge at {:e} vs exact {:e}",
                ge.time,
                we.time
            );
        }
    }

    #[test]
    fn overlap_reverted_before_crossing_reverts_to_single_input_delay() {
        // A rises, B rises 1 ps later (pending fall sharpened to the
        // near-simultaneous MIS delay), then B drops back before the
        // output crossing: the exact model finishes the discharge in the
        // single-input mode, so the fall must revert towards the slower
        // single-input delay rather than committing the Δ ≈ 1 ps MIS
        // speed-up.
        let p = NorParams::paper_table1();
        let ch = channel();
        let exact = HybridNorChannel::new(&p).unwrap();
        let a = DigitalTrace::with_edges(false, vec![(ps(200.0), true)]).unwrap();
        let b =
            DigitalTrace::with_edges(false, vec![(ps(201.0), true), (ps(203.0), false)]).unwrap();
        let got = ch.apply2(&a, &b).unwrap();
        let want = exact.apply2(&a, &b).unwrap();
        assert_eq!(got.transition_count(), want.transition_count());
        for (ge, we) in got.edges().iter().zip(want.edges()) {
            assert_eq!(ge.rising, we.rising);
            // The remaining ≈1.8 ps error is the ignored 2 ps S11 dwell
            // (which speeds the exact discharge up slightly) — far from
            // the ~8 ps error of committing the MIS delay outright.
            assert!(
                (ge.time - we.time).abs() < ps(2.5),
                "edge {:e} vs exact {:e}",
                ge.time,
                we.time
            );
        }
    }

    #[test]
    fn short_input_pulse_suppressed() {
        let ch = channel();
        let a =
            DigitalTrace::with_edges(false, vec![(ps(200.0), true), (ps(201.0), false)]).unwrap();
        let b = DigitalTrace::constant(false);
        let out = ch.apply2(&a, &b).unwrap();
        assert_eq!(out.transition_count(), 0, "glitch must be filtered");
    }

    #[test]
    fn full_pulse_round_trip() {
        let ch = channel();
        let a =
            DigitalTrace::with_edges(false, vec![(ps(200.0), true), (ps(500.0), false)]).unwrap();
        let b =
            DigitalTrace::with_edges(false, vec![(ps(200.0), true), (ps(500.0), false)]).unwrap();
        let out = ch.apply2(&a, &b).unwrap();
        assert_eq!(out.transition_count(), 2);
        assert!(!out.edges()[0].rising);
        assert!(out.edges()[1].rising);
    }

    #[test]
    fn tracks_exact_channel_on_busy_traffic() {
        // Dense alternating activity: edge-for-edge agreement with the
        // exact hybrid channel, every timing within a loose multiple of
        // the budget (V_N estimation is approximate, not exact).
        let p = NorParams::paper_table1();
        let ch = channel();
        let exact = HybridNorChannel::new(&p).unwrap();
        let mut a_edges = Vec::new();
        let mut b_edges = Vec::new();
        let (mut va, mut vb) = (false, false);
        for i in 0..60 {
            let t = ps(200.0 + 137.0 * i as f64);
            if i % 2 == 0 {
                va = !va;
                a_edges.push((t, va));
            } else {
                vb = !vb;
                b_edges.push((t, vb));
            }
        }
        let a = DigitalTrace::with_edges(false, a_edges).unwrap();
        let b = DigitalTrace::with_edges(false, b_edges).unwrap();
        let got = ch.apply2(&a, &b).unwrap();
        let want = exact.apply2(&a, &b).unwrap();
        assert_eq!(
            got.transition_count(),
            want.transition_count(),
            "cached {:?} vs exact {:?}",
            got.edges()
                .iter()
                .map(|e| e.time / 1e-12)
                .collect::<Vec<_>>(),
            want.edges()
                .iter()
                .map(|e| e.time / 1e-12)
                .collect::<Vec<_>>()
        );
        for (ge, we) in got.edges().iter().zip(want.edges()) {
            assert_eq!(ge.rising, we.rising);
            // Rising edges agree to interpolation precision; falling edges
            // additionally carry the first-order partial-swing correction
            // (without it they would drift ≈ 2 ps at this 137 ps input
            // period; the corrected residual is second-order).
            assert!(
                (ge.time - we.time).abs() < ps(0.5),
                "edge {:e} vs {:e}",
                ge.time,
                we.time
            );
        }
    }

    #[test]
    fn starts_in_any_input_state() {
        let ch = channel();
        let p = NorParams::paper_table1();
        let a = DigitalTrace::with_edges(true, vec![(ps(300.0), false)]).unwrap();
        let b = DigitalTrace::with_edges(true, vec![(ps(300.0), false)]).unwrap();
        let out = ch.apply2(&a, &b).unwrap();
        assert!(!out.initial_value());
        assert_eq!(out.transition_count(), 1);
        assert!(out.edges()[0].rising);
        let rise = out.edges()[0].time - ps(300.0);
        let expected = delay::rising_delay(&p, 0.0, RisingInitialVn::Gnd).unwrap();
        assert!(
            (rise - expected).abs() <= lib().budget(),
            "{rise:e} vs {expected:e} (Gnd policy at construction)"
        );
    }

    #[test]
    fn delay_bounds_cover_committed_edges() {
        let ch = channel();
        let b = ch.delay_bounds().expect("cached channel is bounded");
        assert!(b.lo <= b.hi);
        // Every committed edge offset from *some* input edge must lie in
        // the interval; probe the single-fall and pulse round trips.
        for &delta in &[ps(-40.0), ps(-10.0), 0.0, ps(10.0), ps(40.0)] {
            let (ta, tb) = if delta >= 0.0 {
                (ps(200.0), ps(200.0) + delta)
            } else {
                (ps(200.0) - delta, ps(200.0))
            };
            let a = DigitalTrace::with_edges(false, vec![(ta, true), (ps(900.0), false)]).unwrap();
            let bt = DigitalTrace::with_edges(false, vec![(tb, true), (ps(905.0), false)]).unwrap();
            let out = ch.apply2(&a, &bt).unwrap();
            for e in out.edges() {
                let hit = [ta, tb, ps(900.0), ps(905.0)]
                    .iter()
                    .any(|&tin| e.time >= tin + b.lo && e.time <= tin + b.hi);
                assert!(hit, "edge {:e} escapes [{:e}, {:e}]", e.time, b.lo, b.hi);
            }
        }
        let nand = NandChannel::new(ch);
        assert_eq!(nand.delay_bounds(), Some(b), "duality keeps edge times");
    }

    #[test]
    fn nand_wrapper_matches_duality() {
        let ch = NandChannel::new(channel());
        let a = DigitalTrace::with_edges(false, vec![(ps(300.0), true)]).unwrap();
        let b = DigitalTrace::with_edges(false, vec![(ps(310.0), true)]).unwrap();
        let out = ch.apply2(&a, &b).unwrap();
        assert!(out.initial_value(), "NAND of (0,0) is high");
        assert_eq!(out.transition_count(), 1);
        assert!(!out.edges()[0].rising);
    }

    #[test]
    fn held_high_stop_skips_only_events_that_cannot_move_the_output() {
        // A rises once at 200 ps and stays high. B pulses before that (a
        // glitch the scheduler cancels, in the two-input merge), then
        // switches three times inside the pending fall's window (each
        // reschedules it: B high is the MIS fall, one lookup; B low is
        // A's single-input fall), and keeps switching after the fall
        // commits, where NOR(1, x) can no longer rise.
        let ch = channel();
        let a = DigitalTrace::with_edges(false, vec![(ps(200.0), true)]).unwrap();
        let b_edges = [50.0, 52.0, 205.0, 210.0, 215.0, 400.0, 500.0, 600.0];
        let b = DigitalTrace::with_edges(
            false,
            b_edges
                .iter()
                .enumerate()
                .map(|(k, &t)| (ps(t), k % 2 == 0))
                .collect(),
        )
        .unwrap();
        // Hand-derived: the B glitch cancels one pending fall; B's two
        // rises in the window each look the MIS fall up; the B fall at
        // 400 ps commits the output low, and its last two events are
        // skipped.
        let want_events = ChannelEvents {
            pending_cancelled: 1,
            table_lookups: 2,
            pulse_filtered: 0,
        };
        let nand = NandChannel::new(Arc::new(ch.clone()));
        let (mut va, mut vb, mut out) = (EdgeBuf::new(), EdgeBuf::new(), EdgeBuf::new());
        // Either input order: the held-high input is A, then B.
        for (x, y) in [(&a, &b), (&b, &a)] {
            va.copy_trace(x);
            vb.copy_trace(y);
            let want = ch.apply2(x, y).unwrap();
            let (events, skipped) = ch
                .schedule_into(va.as_ref(), vb.as_ref(), &mut out)
                .unwrap();
            assert_eq!(out.to_trace(), want);
            assert_eq!((events, skipped), (want_events, 2));
            // One fall, sharpened by B's last rise in the window: the
            // events inside it were fed.
            assert_eq!(want.transition_count(), 1);
            assert!(want.edges()[0].time < ps(200.0) + ch.fall_s10);
            // The NAND dual on the inverted inputs runs this very NOR
            // schedule through its inverted views.
            let (nx, ny) = (gates::not(x).unwrap(), gates::not(y).unwrap());
            va.copy_trace(&nx);
            vb.copy_trace(&ny);
            let events = nand
                .apply2_into(va.as_ref(), vb.as_ref(), &mut out)
                .unwrap();
            assert_eq!(out.to_trace(), nand.apply2(&nx, &ny).unwrap());
            assert_eq!(events, want_events);
        }
    }
}
