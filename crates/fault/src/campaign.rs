//! The deterministic campaign runner: a fault list evaluated against a
//! golden run by scoped worker threads claiming faults from a shared
//! cursor (the calling thread is worker 0).
//!
//! # Determinism
//!
//! A campaign's report is a pure function of
//! `(network, outputs, stimulus, fault list, budget)` — the worker
//! count changes only wall-clock time. The argument has three legs:
//!
//! 1. **Per-fault determinism.** Each fault is replayed by a private
//!    [`ConeReplay`] against the shared, read-only [`GoldenRun`]: only
//!    the gates whose fan-in differs from golden are re-evaluated, and
//!    a re-evaluated gate whose output equals golden stops the
//!    propagation. Where a replay reaches a gate held constant with no
//!    other dirty fan-out left, it splices in the recorded replay of
//!    that gate stuck at that value from the campaign's shared
//!    [`ConeMemo`] instead of re-evaluating the suffix. A record is a
//!    completed replay of the same golden run, so the spliced result
//!    is the memo-less one whichever fault published it and whether or
//!    not the slot was filled in time. Cone replay is bit-identical to
//!    a full serial [`mis_sim::Simulator`] replay under the same
//!    [`FaultOverlay`] (see `mis_sim::cone`), and it charges the same
//!    budget totals and reports the same gate count, so a fault's
//!    outcome is that of its full replay — a pure function of the
//!    fault, independent of the worker that runs it and of the order.
//!    An output is detected exactly when the replay marks it dirty, by
//!    the same exact trace equality that stops propagation.
//! 2. **Per-index result slots.** Workers claim small blocks of faults
//!    from one shared cursor over the faults sorted by descending site
//!    signal (ties by index), so downstream replays are recorded before
//!    the upstream ones that splice them. Which worker runs which fault
//!    depends on scheduling — but by leg 1 a fault's outcome does not.
//!    Each worker buffers `(fault index, result)` pairs, and after the
//!    join the coordinator scatters them into fault-list order; there
//!    is no shared accumulator whose order could vary.
//! 3. **Lowest-fault-index error selection.** A worker that hits a
//!    non-budget error records the failing fault's index and keeps
//!    going; every fault runs, and the error with the lowest index wins
//!    — the same error at every worker count, although the processing
//!    order is not the index order. (Budget trips are not errors at
//!    the campaign level: they are recorded per fault as
//!    [`FaultOutcome::BudgetTripped`].)
//!
//! Each worker owns one warm [`TraceArena`] reused across all its
//! faulty runs, so a campaign's steady state allocates only the
//! per-fault outcome bookkeeping and the published records (one per
//! recorded (signal, value), O(cone) each), never trace storage.
//!
//! The golden run is the campaign's only full evaluation. A fault costs
//! its perturbed gates — on the committed C880 fixture about 4 % of the
//! netlist on average (EXPERIMENTS.md).

use std::sync::atomic::{AtomicUsize, Ordering};

use mis_digital::{Network, SignalId, SimError};
use mis_probe::{EventKind, Probe, SpanTimer, TraceSink, TraceTrack};
use mis_sim::{ConeMemo, ConeReplay, GoldenRun, RunBudget, Simulator};
use mis_waveform::{DigitalTrace, TraceArena};

use crate::error::FaultError;
use crate::site::{FaultOverlay, FaultSite};

/// How a campaign runs: worker count and per-run budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Worker threads evaluating faults (≥ 1; the report is identical
    /// at every count). A campaign runs at most one worker per fault.
    pub workers: usize,
    /// Budget each faulty run is held to; a tripped run records
    /// [`FaultOutcome::BudgetTripped`] instead of failing the campaign.
    pub budget: RunBudget,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            workers: 1,
            budget: RunBudget::UNLIMITED,
        }
    }
}

/// The outcome of one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// At least one observed output trace differed from the golden run.
    Detected,
    /// Every observed output matched the golden run exactly.
    Undetected,
    /// The faulty run exhausted its [`RunBudget`] before completing.
    BudgetTripped,
}

/// One fault's campaign record.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultResult {
    /// The injected fault.
    pub site: FaultSite,
    /// What happened.
    pub outcome: FaultOutcome,
    /// Indices (into the campaign's output list) of the outputs whose
    /// traces differed — empty unless [`FaultOutcome::Detected`].
    pub detecting_outputs: Vec<usize>,
}

/// The aggregate result of [`run_campaign`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Per-fault records, in fault-list order.
    pub results: Vec<FaultResult>,
    /// Faults with [`FaultOutcome::Detected`].
    pub detected: usize,
    /// Faults with [`FaultOutcome::BudgetTripped`].
    pub budget_trips: usize,
    /// Per campaign output: how many faults it detected (a fault
    /// detected at several outputs counts at each).
    pub per_output: Vec<usize>,
}

impl CampaignReport {
    /// Total faults injected.
    #[must_use]
    pub fn total(&self) -> usize {
        self.results.len()
    }

    /// Detected faults over total faults, in `[0, 1]` (`0` for an
    /// empty fault list). Budget-tripped faults count as undetected —
    /// coverage under a budget is a lower bound on unbudgeted coverage.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.detected as f64 / self.results.len() as f64
    }
}

/// Faults a worker claims from the shared cursor at a time. Small
/// enough that the input-side faults (the largest cones, at the end of
/// the processing order) spread over every worker; large enough that a
/// claim — one atomic add — stays rare next to the microsecond
/// replays.
const CLAIM_BLOCK: usize = 8;

/// One campaign worker's private state.
struct Worker<'n> {
    /// Worker index: the `w` of its `fault.w<w>` timer and track.
    index: usize,
    busy: SpanTimer,
    track: TraceTrack,
    cone: ConeReplay<'n>,
}

/// What one worker hands back at the join: its `(fault index, result)`
/// pairs, and its lowest-indexed non-budget failure.
type WorkerOutcome = (Vec<(usize, FaultResult)>, Option<(usize, FaultError)>);

/// [`run_campaign`] with the campaign counters — `fault.injected`,
/// `fault.detected`, `fault.budget_trips`, and `fault.cone_gates` (gates
/// the memo-less cone replays of all faults would re-evaluate — spliced
/// gates count as evaluated, so this is the campaign's exact work count
/// at every worker count, not the gates this run evaluated) — and one
/// `fault.w<i>.busy` span timer per worker that ran
/// (the campaign-utilization picture) recording into `probe`. At most
/// `faults.len()` workers run (at least one), whatever `config.workers`
/// asks for: a worker beyond that could claim no fault. The counters
/// are atomic and shared, so the workers increment them directly;
/// totals are exact and independent of the worker count, arrival order
/// is not part of the report.
///
/// Timelines record into `sink` (pass [`TraceSink::disabled`] for
/// counters only): the golden run traces onto the `sim` track, and each
/// campaign worker records onto its own `fault.w<i>` track — one
/// `chunk` span covering its whole claim loop (payload: worker index +
/// number of faults it ran), a `fault_run` span per faulty replay
/// (payload: global fault index + outcome code), and a `coverage`
/// counter sample after each detection (this worker's cumulative
/// detected count). Which worker runs which fault depends on
/// scheduling, so the per-worker spans and samples vary from run to
/// run; only the report is deterministic.
///
/// # Errors
///
/// * [`FaultError::Invalid`] — zero workers.
/// * [`FaultError::Sim`] — the golden run failed, or a faulty run
///   failed with a non-budget error (the lowest-indexed such fault's).
pub fn run_campaign_traced(
    net: &Network,
    outputs: &[SignalId],
    inputs: &[DigitalTrace],
    faults: &[FaultSite],
    config: &CampaignConfig,
    probe: &Probe,
    sink: &TraceSink,
) -> Result<CampaignReport, FaultError> {
    if config.workers == 0 {
        return Err(FaultError::Invalid {
            reason: "campaign needs at least one worker".into(),
        });
    }
    // The golden run: fault-free, unbudgeted, serial. Its arena and
    // span table are shared read-only with every worker. It traces onto
    // the `sim` track (with a detached counter bundle, so the
    // campaign's probe keeps only `fault.*` engine-independent
    // metrics).
    let golden = GoldenRun::record(
        &mut Simulator::new_traced(net, &Probe::disabled(), sink)?,
        inputs,
    )?;

    let injected = probe.counter("fault.injected");
    let detected_ctr = probe.counter("fault.detected");
    let trips_ctr = probe.counter("fault.budget_trips");
    let cone_ctr = probe.counter("fault.cone_gates");
    let memo = ConeMemo::new(&golden);
    // Downstream sites first, so their records exist when the upstream
    // replays reach them.
    let mut order: Vec<usize> = (0..faults.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(faults[i].signal.index()));
    let cursor = AtomicUsize::new(0);
    // Per-worker state, registered cold on the coordinator in worker
    // order (so the timeline's track order is fixed): a busy timer, a
    // track, and one replay reused across every fault the worker claims.
    let workers = (0..config.workers.min(faults.len()).max(1))
        .map(|w| {
            Ok(Worker {
                index: w,
                busy: probe.timer(&format!("fault.w{w}.busy")),
                track: sink.track(&format!("fault.w{w}")),
                cone: ConeReplay::new(net)?,
            })
        })
        .collect::<Result<Vec<_>, SimError>>()?;

    // One worker's claim loop: take the next `CLAIM_BLOCK` faults in
    // processing order from the shared cursor until the list is
    // exhausted, keeping the lowest-indexed non-budget failure.
    let work = |worker: Worker<'_>| -> WorkerOutcome {
        let Worker {
            index: w,
            busy,
            track,
            mut cone,
        } = worker;
        let busy_started = busy.start();
        let loop_started = track.start();
        let mut ran = Vec::new();
        let mut failed: Option<(usize, FaultError)> = None;
        let mut detected_here = 0u32;
        let mut arena = TraceArena::new();
        let mut cone_gates = 0u64;
        loop {
            // Relaxed: the cursor publishes no data (the fault list is
            // read-only, records publish through their `OnceLock`s,
            // results come back through the join), and read-modify-writes
            // on one atomic never hand out a position twice.
            let first = cursor.fetch_add(CLAIM_BLOCK, Ordering::Relaxed);
            if first >= faults.len() {
                break;
            }
            for &i in order.iter().skip(first).take(CLAIM_BLOCK) {
                let site = &faults[i];
                injected.inc();
                let fault_started = track.start();
                let run = cone.run_spliced(
                    &memo,
                    site.signal,
                    &FaultOverlay::new(*site),
                    &mut arena,
                    &config.budget,
                );
                cone_gates += cone.gates_evaluated();
                let (outcome, detecting_outputs) = match run {
                    Ok(()) => {
                        let detecting: Vec<usize> = outputs
                            .iter()
                            .enumerate()
                            .filter(|&(_, &id)| cone.is_dirty(id))
                            .map(|(k, _)| k)
                            .collect();
                        if detecting.is_empty() {
                            (FaultOutcome::Undetected, detecting)
                        } else {
                            detected_ctr.inc();
                            detected_here += 1;
                            (FaultOutcome::Detected, detecting)
                        }
                    }
                    Err(SimError::BudgetExceeded { .. }) => {
                        trips_ctr.inc();
                        (FaultOutcome::BudgetTripped, Vec::new())
                    }
                    Err(e) => {
                        if failed.as_ref().is_none_or(|(j, _)| i < *j) {
                            failed = Some((i, FaultError::Sim(e)));
                        }
                        continue;
                    }
                };
                let code = match outcome {
                    FaultOutcome::Undetected => 0,
                    FaultOutcome::Detected => 1,
                    FaultOutcome::BudgetTripped => 2,
                };
                track.span(EventKind::FaultRun, i as u32, code, fault_started);
                if code == 1 {
                    track.sample(EventKind::Coverage, w as u32, detected_here);
                }
                ran.push((
                    i,
                    FaultResult {
                        site: *site,
                        outcome,
                        detecting_outputs,
                    },
                ));
            }
        }
        track.span(EventKind::Chunk, w as u32, ran.len() as u32, loop_started);
        cone_ctr.add(cone_gates);
        busy.stop(busy_started);
        (ran, failed)
    };

    // Workers 1.. run on scoped threads; the calling thread is worker 0.
    let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
        let work = &work;
        let mut workers = workers.into_iter();
        let caller = workers.next().expect("at least one worker");
        let handles: Vec<_> = workers
            .map(|worker| scope.spawn(move || work(worker)))
            .collect();
        let mut outcomes = vec![work(caller)];
        outcomes.extend(handles.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        outcomes
    });

    // Scatter into fault-list order. Every fault ran, so the lowest
    // recorded failure is the list's first failing fault at every
    // worker count.
    let mut slots: Vec<Option<FaultResult>> = vec![None; faults.len()];
    let mut first_failure: Option<(usize, FaultError)> = None;
    for (ran, failed) in outcomes {
        for (i, result) in ran {
            slots[i] = Some(result);
        }
        if let Some((i, e)) = failed {
            if first_failure.as_ref().is_none_or(|(j, _)| i < *j) {
                first_failure = Some((i, e));
            }
        }
    }
    if let Some((_, e)) = first_failure {
        return Err(e);
    }
    let results: Vec<FaultResult> = slots
        .into_iter()
        .map(|r| r.expect("every claimed fault ran"))
        .collect();
    let detected = results
        .iter()
        .filter(|r| r.outcome == FaultOutcome::Detected)
        .count();
    let budget_trips = results
        .iter()
        .filter(|r| r.outcome == FaultOutcome::BudgetTripped)
        .count();
    let mut per_output = vec![0usize; outputs.len()];
    for r in &results {
        for &k in &r.detecting_outputs {
            per_output[k] += 1;
        }
    }
    Ok(CampaignReport {
        results,
        detected,
        budget_trips,
        per_output,
    })
}

/// Evaluates `faults` against the golden (fault-free) run of `net`
/// under `inputs`, observing the signals in `outputs`: one faulty run
/// per site, batched over `config.workers` scoped threads, each holding
/// its runs to `config.budget`. See the module docs for why the report
/// is identical at every worker count.
///
/// # Errors
///
/// As [`run_campaign_traced`].
pub fn run_campaign(
    net: &Network,
    outputs: &[SignalId],
    inputs: &[DigitalTrace],
    faults: &[FaultSite],
    config: &CampaignConfig,
) -> Result<CampaignReport, FaultError> {
    run_campaign_traced(
        net,
        outputs,
        inputs,
        faults,
        config,
        &Probe::disabled(),
        &TraceSink::disabled(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::stuck_at_sites;
    use mis_digital::{GateKind, InertialChannel, Network};
    use mis_waveform::units::ps;

    /// y = NOR(a, b) behind an inertial channel, observed at y.
    fn nor_fixture() -> (Network, Vec<SignalId>, Vec<DigitalTrace>) {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let y = net
            .add_gate(
                "y",
                GateKind::Nor,
                &[a, b],
                Some(Box::new(
                    InertialChannel::symmetric(ps(40.0), ps(30.0)).unwrap(),
                )),
            )
            .unwrap();
        let ta =
            DigitalTrace::with_edges(false, vec![(ps(100.0), true), (ps(400.0), false)]).unwrap();
        let tb = DigitalTrace::constant(false);
        (net, vec![y], vec![ta, tb])
    }

    #[test]
    fn exhaustive_stuck_at_campaign_on_the_nor() {
        use crate::site::FaultKind;
        let (net, outputs, inputs) = nor_fixture();
        let faults = stuck_at_sites(&net);
        let report =
            run_campaign(&net, &outputs, &inputs, &faults, &CampaignConfig::default()).unwrap();
        assert_eq!(report.total(), 6);
        assert_eq!(report.budget_trips, 0);
        // Golden y: a pulse (a's edges inverted through the NOR). Each
        // stuck-at on `a` or `y` kills the pulse; sa1 on quiet `b`
        // forces y low; sa0 on `b` is the fault-free value: undetected.
        assert_eq!(report.detected, 5);
        assert!((report.coverage() - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(report.per_output, vec![5]);
        let undetected: Vec<_> = report
            .results
            .iter()
            .filter(|r| r.outcome == FaultOutcome::Undetected)
            .collect();
        assert_eq!(undetected.len(), 1);
        assert_eq!(undetected[0].site.kind, FaultKind::StuckAt(false));
    }

    #[test]
    fn report_is_identical_at_every_worker_count() {
        let (net, outputs, inputs) = nor_fixture();
        let faults = stuck_at_sites(&net);
        let baseline = run_campaign(
            &net,
            &outputs,
            &inputs,
            &faults,
            &CampaignConfig {
                workers: 1,
                budget: RunBudget::UNLIMITED,
            },
        )
        .unwrap();
        for workers in 2..=8 {
            let report = run_campaign(
                &net,
                &outputs,
                &inputs,
                &faults,
                &CampaignConfig {
                    workers,
                    budget: RunBudget::UNLIMITED,
                },
            )
            .unwrap();
            assert_eq!(report, baseline, "{workers} workers");
        }
    }

    #[test]
    fn workers_beyond_the_fault_count_are_not_spawned() {
        let (net, outputs, inputs) = nor_fixture();
        let faults = stuck_at_sites(&net);
        let config = |workers| CampaignConfig {
            workers,
            budget: RunBudget::UNLIMITED,
        };
        let baseline = run_campaign(&net, &outputs, &inputs, &faults, &config(1)).unwrap();
        let probe = Probe::new();
        let report = run_campaign_traced(
            &net,
            &outputs,
            &inputs,
            &faults,
            &config(64),
            &probe,
            &TraceSink::disabled(),
        )
        .unwrap();
        assert_eq!(report, baseline);
        let busy_rows = probe
            .report()
            .rows()
            .iter()
            .filter(|r| r.name.starts_with("fault.w") && r.name.ends_with(".busy"))
            .count();
        assert_eq!(faults.len(), 6);
        assert!(busy_rows <= faults.len(), "{busy_rows} busy timers");
    }

    #[test]
    fn budget_trips_are_recorded_not_raised() {
        let (net, outputs, inputs) = nor_fixture();
        let faults = stuck_at_sites(&net);
        let report = run_campaign(
            &net,
            &outputs,
            &inputs,
            &faults,
            &CampaignConfig {
                workers: 2,
                budget: RunBudget::UNLIMITED.with_max_events(0),
            },
        )
        .unwrap();
        assert_eq!(report.budget_trips, report.total());
        assert_eq!(report.detected, 0);
        assert!(report
            .results
            .iter()
            .all(|r| r.outcome == FaultOutcome::BudgetTripped));
    }

    /// A stuck-at on signal `s<idx>` of a wider network: out of range for
    /// the NOR fixture, so its replay fails with `SimError::Network`
    /// naming `s<idx>`.
    fn foreign_site(idx: usize) -> FaultSite {
        let mut wide = Network::new();
        for k in 0..=idx {
            wide.add_input(&format!("x{k}"));
        }
        FaultSite::stuck_at_0(wide.signal_id(idx).unwrap())
    }

    #[test]
    fn lowest_failing_fault_index_wins_at_every_worker_count() {
        let (net, outputs, inputs) = nor_fixture();
        let good = stuck_at_sites(&net);
        let len = 6 * CLAIM_BLOCK;
        // Failures inside one claim block, in adjacent blocks, and far
        // apart; each pair in both signal orders, so the winner is picked
        // by fault index, not by signal.
        let pairs = [
            (1, 5),
            (CLAIM_BLOCK - 1, CLAIM_BLOCK),
            (CLAIM_BLOCK + 2, 4 * CLAIM_BLOCK + 3),
        ];
        for (i, j) in pairs {
            for (first, second) in [(7, 9), (9, 7)] {
                let mut faults: Vec<FaultSite> = good.iter().copied().cycle().take(len).collect();
                faults[i] = foreign_site(first);
                faults[j] = foreign_site(second);
                for workers in 1..=4 {
                    // Repeat: which worker reaches a failure first
                    // varies with scheduling; the winner must not.
                    for _ in 0..8 {
                        let err = run_campaign(
                            &net,
                            &outputs,
                            &inputs,
                            &faults,
                            &CampaignConfig {
                                workers,
                                budget: RunBudget::UNLIMITED,
                            },
                        )
                        .unwrap_err();
                        let FaultError::Sim(SimError::Network { reason }) = &err else {
                            panic!("unexpected error {err:?}");
                        };
                        assert!(
                            reason.contains(&format!("site s{first}")),
                            "faults {i} (s{first}) and {j} (s{second}) at \
                             {workers} workers: {reason}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_workers_is_invalid() {
        let (net, outputs, inputs) = nor_fixture();
        let err = run_campaign(
            &net,
            &outputs,
            &inputs,
            &[],
            &CampaignConfig {
                workers: 0,
                budget: RunBudget::UNLIMITED,
            },
        )
        .unwrap_err();
        assert!(matches!(err, FaultError::Invalid { .. }));
    }

    #[test]
    fn traced_campaign_records_chunks_faults_and_coverage() {
        let (net, outputs, inputs) = nor_fixture();
        let faults = stuck_at_sites(&net);
        let probe = Probe::new();
        let sink = TraceSink::new();
        let report = run_campaign_traced(
            &net,
            &outputs,
            &inputs,
            &faults,
            &CampaignConfig {
                workers: 2,
                budget: RunBudget::UNLIMITED,
            },
            &probe,
            &sink,
        )
        .unwrap();
        // The report is unchanged by tracing.
        let want = run_campaign(
            &net,
            &outputs,
            &inputs,
            &faults,
            &CampaignConfig {
                workers: 2,
                budget: RunBudget::UNLIMITED,
            },
        )
        .unwrap();
        assert_eq!(report, want);
        let snap = sink.snapshot();
        // The golden run traced onto the `sim` track.
        assert!(snap
            .track("sim")
            .is_some_and(|t| t.events.iter().any(|e| e.kind == EventKind::Run)));
        // Each worker sealed one chunk span, one fault_run span per
        // fault, and one coverage sample per detection; global fault
        // indices across workers cover the whole list exactly once.
        let mut fault_indices = Vec::new();
        let mut detections = 0u32;
        for w in 0..2 {
            let track = snap.track(&format!("fault.w{w}")).unwrap();
            let chunks: Vec<_> = track
                .events
                .iter()
                .filter(|e| e.kind == EventKind::Chunk)
                .collect();
            assert_eq!(chunks.len(), 1);
            assert_eq!(chunks[0].a, w);
            fault_indices.extend(
                track
                    .events
                    .iter()
                    .filter(|e| e.kind == EventKind::FaultRun)
                    .map(|e| e.a),
            );
            detections += track
                .events
                .iter()
                .filter(|e| e.kind == EventKind::Coverage)
                .count() as u32;
        }
        fault_indices.sort_unstable();
        let want_indices: Vec<u32> = (0..faults.len() as u32).collect();
        assert_eq!(fault_indices, want_indices);
        assert_eq!(detections as usize, report.detected);
        // Satellite: per-worker busy timers registered on the probe.
        let preport = probe.report();
        assert!(preport.get("fault.w0.busy").is_some());
        assert!(preport.get("fault.w1.busy").is_some());
    }

    #[test]
    fn probed_campaign_publishes_the_fault_counters() {
        let (net, outputs, inputs) = nor_fixture();
        let faults = stuck_at_sites(&net);
        let probe = Probe::new();
        let report = run_campaign_traced(
            &net,
            &outputs,
            &inputs,
            &faults,
            &CampaignConfig::default(),
            &probe,
            &TraceSink::disabled(),
        )
        .unwrap();
        let snap = probe.report();
        assert_eq!(
            snap.get("fault.injected").unwrap().scalar(),
            Some(report.total() as u64)
        );
        assert_eq!(
            snap.get("fault.detected").unwrap().scalar(),
            Some(report.detected as u64)
        );
        assert_eq!(snap.get("fault.budget_trips").unwrap().scalar(), Some(0));
        // Only y is ever re-evaluated: under sa0@a, sa1@a and sa1@b. The
        // count is exact at every worker count.
        for workers in [1, 3] {
            let probe = Probe::new();
            run_campaign_traced(
                &net,
                &outputs,
                &inputs,
                &faults,
                &CampaignConfig {
                    workers,
                    ..CampaignConfig::default()
                },
                &probe,
                &TraceSink::disabled(),
            )
            .unwrap();
            assert_eq!(
                probe.report().get("fault.cone_gates").unwrap().scalar(),
                Some(3),
                "{workers} workers"
            );
        }
    }
}
