//! The deterministic campaign runner: a fault list evaluated against a
//! golden run, batched over scoped worker threads.
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
//!    propagation. Cone replay is bit-identical to a full serial
//!    [`mis_sim::Simulator`] replay under the same [`FaultOverlay`]
//!    (see `mis_sim::cone`), and it charges the same budget totals, so
//!    a fault's outcome is that of its full replay — a pure function
//!    of the fault, independent of the worker that runs it. An output
//!    is detected exactly when the replay marks it dirty, by the same
//!    exact trace equality that stops propagation.
//! 2. **Fixed partition.** Faults are split into contiguous chunks
//!    (`chunks` / `chunks_mut`), and each worker writes outcomes only
//!    into its own chunk of the result vector — no shared accumulator
//!    whose order could vary.
//! 3. **Deterministic error selection.** If a worker fails with a
//!    non-budget error, the error of the lowest-indexed chunk wins,
//!    regardless of completion order. (Budget trips are not errors at
//!    the campaign level: they are recorded per fault as
//!    [`FaultOutcome::BudgetTripped`].)
//!
//! Each worker owns one warm [`TraceArena`] reused across all its
//! faulty runs, so a campaign's steady state allocates only the
//! per-fault outcome bookkeeping, never trace storage.
//!
//! The golden run is the campaign's only full evaluation. A fault costs
//! its perturbed gates — on the committed C880 fixture about 4 % of the
//! netlist on average (EXPERIMENTS.md).

use mis_digital::{Network, SignalId, SimError};
use mis_probe::{EventKind, Probe, TraceSink};
use mis_sim::{ConeReplay, GoldenRun, RunBudget, Simulator};
use mis_waveform::{DigitalTrace, TraceArena};

use crate::error::FaultError;
use crate::site::{FaultOverlay, FaultSite};

/// How a campaign runs: worker count and per-run budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Worker threads evaluating faults (≥ 1; the report is identical
    /// at every count).
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

/// [`run_campaign`] with the campaign counters — `fault.injected`,
/// `fault.detected`, `fault.budget_trips`, and `fault.cone_gates` (gates
/// re-evaluated across all faulty replays, the campaign's exact work
/// count) — and one `fault.w<i>.busy` span timer per worker (the
/// campaign-utilization picture) recording into `probe`. The counters are atomic and
/// shared, so the workers increment them directly; totals are exact and
/// independent of the worker count, arrival order is not part of the
/// report.
///
/// Timelines record into `sink` (pass [`TraceSink::disabled`] for
/// counters only): the golden run traces onto the `sim` track, and each
/// campaign worker records onto its own `fault.w<i>` track — one
/// `chunk` span for its whole fault chunk, a `fault_run` span per
/// faulty replay (payload: global fault index + outcome code), and a
/// `coverage` counter sample after each detection (this worker's
/// cumulative detected count — the coverage-over-time curve, per worker
/// so the values are deterministic under the fixed chunk partition).
///
/// # Errors
///
/// * [`FaultError::Invalid`] — zero workers.
/// * [`FaultError::Sim`] — the golden run failed, or a faulty run
///   failed with a non-budget error.
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

    let mut results: Vec<Option<FaultResult>> = vec![None; faults.len()];
    let chunk = faults.len().div_ceil(config.workers).max(1);
    let golden = &golden;
    let (injected_ref, detected_ref, trips_ref, cone_ref) =
        (&injected, &detected_ctr, &trips_ctr, &cone_ctr);
    std::thread::scope(|scope| -> Result<(), FaultError> {
        let handles: Vec<_> = faults
            .chunks(chunk)
            .zip(results.chunks_mut(chunk))
            .enumerate()
            .map(|(w, (sites, slots))| {
                // Cold-path registration happens on the coordinator:
                // the worker only records.
                let busy = probe.timer(&format!("fault.w{w}.busy"));
                let track = sink.track(&format!("fault.w{w}"));
                let chunk_base = w * chunk;
                scope.spawn(move || -> Result<(), FaultError> {
                    let busy_started = busy.start();
                    let chunk_started = track.start();
                    let mut detected_here = 0u32;
                    // One replay and one warm arena per worker, reused
                    // across every fault in the chunk.
                    let mut cone = ConeReplay::new(net)?;
                    let mut arena = TraceArena::new();
                    let mut cone_gates = 0u64;
                    for (j, (site, slot)) in sites.iter().zip(slots.iter_mut()).enumerate() {
                        injected_ref.inc();
                        let fault_started = track.start();
                        let run = cone.run(
                            golden,
                            site.signal,
                            &FaultOverlay::new(*site),
                            &mut arena,
                            &config.budget,
                        );
                        cone_gates += cone.gates_evaluated();
                        let result = match run {
                            Ok(()) => {
                                let detecting: Vec<usize> = outputs
                                    .iter()
                                    .enumerate()
                                    .filter(|&(_, &id)| cone.is_dirty(id))
                                    .map(|(k, _)| k)
                                    .collect();
                                let outcome = if detecting.is_empty() {
                                    FaultOutcome::Undetected
                                } else {
                                    detected_ref.inc();
                                    detected_here += 1;
                                    FaultOutcome::Detected
                                };
                                FaultResult {
                                    site: *site,
                                    outcome,
                                    detecting_outputs: detecting,
                                }
                            }
                            Err(SimError::BudgetExceeded { .. }) => {
                                trips_ref.inc();
                                FaultResult {
                                    site: *site,
                                    outcome: FaultOutcome::BudgetTripped,
                                    detecting_outputs: Vec::new(),
                                }
                            }
                            Err(e) => return Err(FaultError::Sim(e)),
                        };
                        let code = match result.outcome {
                            FaultOutcome::Undetected => 0,
                            FaultOutcome::Detected => 1,
                            FaultOutcome::BudgetTripped => 2,
                        };
                        track.span(
                            EventKind::FaultRun,
                            (chunk_base + j) as u32,
                            code,
                            fault_started,
                        );
                        if code == 1 {
                            track.sample(EventKind::Coverage, w as u32, detected_here);
                        }
                        *slot = Some(result);
                    }
                    track.span(
                        EventKind::Chunk,
                        w as u32,
                        sites.len() as u32,
                        chunk_started,
                    );
                    cone_ref.add(cone_gates);
                    busy.stop(busy_started);
                    Ok(())
                })
            })
            .collect();
        // Join in chunk order: the lowest-indexed chunk's error wins,
        // independent of which worker finished first.
        let mut result = Ok(());
        for h in handles {
            let r = h
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            if result.is_ok() {
                result = r;
            }
        }
        result
    })?;

    let results: Vec<FaultResult> = results
        .into_iter()
        .map(|r| r.expect("every chunk completed without error"))
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
