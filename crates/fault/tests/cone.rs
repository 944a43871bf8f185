//! Cone-only campaign replay against its oracle, full-netlist replay,
//! on the committed fixtures with the committed cached-hybrid cells:
//!
//! * the campaign report equals one built from per-fault full
//!   [`Simulator`] replays, for the exhaustive stuck-at list plus 24
//!   deterministic glitches (the `fault_sim --glitches 24` fault list),
//!   at 1, 2, 3 and 8 workers;
//! * the same holds for lists that stress the splicing of recorded
//!   stuck-at replays: the list shuffled, stuck-at-0 faults only (half
//!   the splice targets never recorded), and every site three times;
//! * a traced C432 campaign at 3 workers runs every fault exactly once
//!   across the worker tracks, with the 1-worker `fault.cone_gates`;
//! * under budgets set exactly at, and one below, each fault's full-run
//!   event and edge totals, every fault's outcome equals that of a
//!   direct budgeted [`Simulator::run_controlled_in`].

use std::path::PathBuf;

use mis_charlib::CharLib;
use mis_digital::{InertialChannel, SimError};
use mis_fault::{
    run_campaign, run_campaign_traced, stuck_at_sites, CampaignConfig, CampaignReport, FaultKind,
    FaultOutcome, FaultOverlay, FaultResult, FaultSite,
};
use mis_probe::{EventKind, Probe, TraceSink};
use mis_sim::{BenchNetlist, CellLibrary, LoweredNetlist, RunBudget, Simulator};
use mis_testkit::rng::TestRng;
use mis_waveform::generate::{Assignment, TraceConfig};
use mis_waveform::units::ps;
use mis_waveform::{DigitalTrace, TraceArena};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn lowered(name: &str) -> LoweredNetlist {
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("data/bench").join(name)).expect("fixture");
    let lib_text = std::fs::read_to_string(root.join("data/charlib/nor_paper.mislib"))
        .expect("committed NOR library");
    let cells = CellLibrary::hybrid(
        &CharLib::from_text(&lib_text).expect("library parses"),
        Some(InertialChannel::symmetric(ps(50.0), ps(38.0)).expect("channel")),
    )
    .expect("cell library");
    BenchNetlist::parse(&text)
        .expect("fixture parses")
        .lower(&cells)
        .expect("lowering")
}

/// The CLI traffic: local pairs, 40 edges per trace, seeded off 0x5eed.
fn traffic(n: usize) -> Vec<DigitalTrace> {
    (0..n)
        .map(|i| {
            let pair = TraceConfig::new(ps(400.0), ps(150.0), Assignment::Local, 40)
                .generate(0x5eed + i as u64)
                .expect("trace generation");
            if i % 2 == 0 {
                pair.a
            } else {
                pair.b
            }
        })
        .collect()
}

/// Every stuck-at site plus `fault_sim`'s `n` deterministic glitches.
fn fault_list(lo: &LoweredNetlist, glitches: usize) -> Vec<FaultSite> {
    let signals = lo.net.signal_count();
    let mut faults = stuck_at_sites(&lo.net);
    faults.extend((0..glitches).map(|i| {
        FaultSite::glitch(
            lo.net.signal_id((i * 7 + 3) % signals).expect("in range"),
            ps(100.0 + 83.0 * i as f64),
            ps(20.0 + 10.0 * (i % 5) as f64),
        )
        .expect("valid glitch")
    }));
    faults
}

/// One fault's outcome by full replay on `sim` (golden outputs given),
/// plus the run's gate-edge total.
fn full_replay(
    lo: &LoweredNetlist,
    sim: &mut Simulator<'_>,
    golden: &[DigitalTrace],
    inputs: &[DigitalTrace],
    site: FaultSite,
    budget: &RunBudget,
) -> (FaultResult, u64) {
    let mut arena = TraceArena::new();
    let run = sim.run_controlled_in(inputs, &mut arena, budget, Some(&FaultOverlay::new(site)));
    let result = match run {
        Ok(()) => {
            let detecting: Vec<usize> = lo
                .outputs
                .iter()
                .enumerate()
                .filter(|&(k, &id)| sim.trace(&arena, id).to_trace() != golden[k])
                .map(|(k, _)| k)
                .collect();
            let outcome = if detecting.is_empty() {
                FaultOutcome::Undetected
            } else {
                FaultOutcome::Detected
            };
            FaultResult {
                site,
                outcome,
                detecting_outputs: detecting,
            }
        }
        Err(SimError::BudgetExceeded { .. }) => {
            return (
                FaultResult {
                    site,
                    outcome: FaultOutcome::BudgetTripped,
                    detecting_outputs: Vec::new(),
                },
                0,
            )
        }
        Err(e) => panic!("full replay of {site} failed: {e}"),
    };
    let edges = (lo.net.input_count()..lo.net.signal_count())
        .map(|s| {
            sim.trace(&arena, lo.net.signal_id(s).expect("in range"))
                .len() as u64
        })
        .sum();
    (result, edges)
}

fn golden_outputs(lo: &LoweredNetlist, inputs: &[DigitalTrace]) -> Vec<DigitalTrace> {
    let mut sim = Simulator::new(&lo.net).expect("engine");
    let mut arena = TraceArena::new();
    sim.run_in(inputs, &mut arena).expect("golden run");
    lo.outputs
        .iter()
        .map(|&id| sim.trace(&arena, id).to_trace())
        .collect()
}

/// Per-fault full-replay results for `faults`.
fn full_replay_results(
    lo: &LoweredNetlist,
    inputs: &[DigitalTrace],
    faults: &[FaultSite],
) -> Vec<FaultResult> {
    let golden = golden_outputs(lo, inputs);
    let mut sim = Simulator::new(&lo.net).expect("engine");
    faults
        .iter()
        .map(|&site| full_replay(lo, &mut sim, &golden, inputs, site, &RunBudget::UNLIMITED).0)
        .collect()
}

/// Asserts the campaign over the faults of `results` equals the report
/// those (full-replay) results make, at 1, 2, 3 and 8 workers.
fn assert_campaign_matches(
    what: &str,
    lo: &LoweredNetlist,
    inputs: &[DigitalTrace],
    results: Vec<FaultResult>,
) {
    let faults: Vec<FaultSite> = results.iter().map(|r| r.site).collect();
    let mut per_output = vec![0usize; lo.outputs.len()];
    for r in &results {
        for &k in &r.detecting_outputs {
            per_output[k] += 1;
        }
    }
    let want = CampaignReport {
        detected: results
            .iter()
            .filter(|r| r.outcome == FaultOutcome::Detected)
            .count(),
        budget_trips: 0,
        per_output,
        results,
    };
    for workers in [1, 2, 3, 8] {
        let got = run_campaign(
            &lo.net,
            &lo.outputs,
            inputs,
            &faults,
            &CampaignConfig {
                workers,
                ..CampaignConfig::default()
            },
        )
        .expect("campaign");
        assert!(
            got == want,
            "{what}: cone report differs at {workers} workers"
        );
    }
}

#[test]
fn campaign_report_equals_full_replay_on_every_fixture() {
    for (file, glitches) in [("c17.bench", 0), ("c432.bench", 24), ("c880.bench", 24)] {
        let lo = lowered(file);
        let inputs = traffic(lo.inputs.len());
        let results = full_replay_results(&lo, &inputs, &fault_list(&lo, glitches));
        assert_campaign_matches(file, &lo, &inputs, results);
    }
}

#[test]
fn splice_stressing_fault_lists_equal_full_replay() {
    for file in ["c432.bench", "c880.bench"] {
        let lo = lowered(file);
        let inputs = traffic(lo.inputs.len());
        let results = full_replay_results(&lo, &inputs, &fault_list(&lo, 24));
        // Shuffled (Fisher-Yates): the index order no longer follows
        // the signal order.
        let mut shuffled = results.clone();
        let mut rng = TestRng::seed_from_u64(0x5b11ce);
        for k in (1..shuffled.len()).rev() {
            shuffled.swap(k, rng.gen_u64_below(k as u64 + 1) as usize);
        }
        assert_campaign_matches(&format!("{file} shuffled"), &lo, &inputs, shuffled);
        // Stuck-at-0 only: a gate held at 1 finds no record to splice.
        let sa0: Vec<FaultResult> = results
            .iter()
            .filter(|r| r.site.kind == FaultKind::StuckAt(false))
            .cloned()
            .collect();
        assert_campaign_matches(&format!("{file} sa0 only"), &lo, &inputs, sa0);
        // Every site three times, twice back to back and once more at
        // the end: a duplicate may splice its own twin's record.
        let thrice: Vec<FaultResult> = results
            .iter()
            .flat_map(|r| [r.clone(), r.clone()])
            .chain(results.iter().cloned())
            .collect();
        assert_campaign_matches(&format!("{file} duplicated"), &lo, &inputs, thrice);
    }
}

#[test]
fn traced_c432_campaign_runs_every_fault_once_at_three_workers() {
    let lo = lowered("c432.bench");
    let inputs = traffic(lo.inputs.len());
    let faults = fault_list(&lo, 24);
    let campaign = |workers: usize| {
        let (probe, sink) = (Probe::new(), TraceSink::new());
        let report = run_campaign_traced(
            &lo.net,
            &lo.outputs,
            &inputs,
            &faults,
            &CampaignConfig {
                workers,
                ..CampaignConfig::default()
            },
            &probe,
            &sink,
        )
        .expect("campaign");
        let cone_gates = probe.report().get("fault.cone_gates").unwrap().scalar();
        (report, cone_gates, sink.snapshot())
    };
    let (want, want_cone_gates, _) = campaign(1);
    let (report, cone_gates, snap) = campaign(3);
    assert!(report == want, "report differs at 3 workers");
    assert_eq!(cone_gates, want_cone_gates);
    // Which worker ran which fault depends on scheduling, but the
    // `fault_run` payloads across all worker tracks name every fault
    // index exactly once.
    let mut ran: Vec<u32> = (0..3)
        .flat_map(|w| {
            snap.track(&format!("fault.w{w}"))
                .expect("worker track")
                .events
                .iter()
                .filter(|e| e.kind == EventKind::FaultRun)
                .map(|e| e.a)
        })
        .collect();
    ran.sort_unstable();
    assert_eq!(ran, (0..faults.len() as u32).collect::<Vec<_>>());
}

#[test]
fn budgets_trip_exactly_when_full_replay_trips() {
    for file in ["c17.bench", "c432.bench"] {
        let lo = lowered(file);
        let inputs = traffic(lo.inputs.len());
        let golden = golden_outputs(&lo, &inputs);
        let mut sim = Simulator::new(&lo.net).expect("engine");
        for site in fault_list(&lo, 24) {
            let (_, edges) =
                full_replay(&lo, &mut sim, &golden, &inputs, site, &RunBudget::UNLIMITED);
            let mut budgets = vec![(RunBudget::UNLIMITED.with_max_edges(edges), false)];
            if edges > 0 {
                budgets.push((RunBudget::UNLIMITED.with_max_edges(edges - 1), true));
            }
            for (budget, trips) in budgets {
                let want = full_replay(&lo, &mut sim, &golden, &inputs, site, &budget).0;
                assert_eq!(want.outcome == FaultOutcome::BudgetTripped, trips);
                let report = run_campaign(
                    &lo.net,
                    &lo.outputs,
                    &inputs,
                    &[site],
                    &CampaignConfig { workers: 1, budget },
                )
                .expect("campaign");
                assert_eq!(report.results[0], want, "{file}: {site} under {budget:?}");
            }
        }
    }
}
