//! Cone-only campaign replay against its oracle, full-netlist replay,
//! on the committed fixtures with the committed cached-hybrid cells:
//!
//! * the campaign report equals one built from per-fault full
//!   [`Simulator`] replays, for the exhaustive stuck-at list plus 24
//!   deterministic glitches (the `fault_sim --glitches 24` fault list);
//! * under budgets set exactly at, and one below, each fault's full-run
//!   event and edge totals, every fault's outcome equals that of a
//!   direct budgeted [`Simulator::run_controlled_in`].

use std::path::PathBuf;

use mis_charlib::CharLib;
use mis_digital::{InertialChannel, SimError};
use mis_fault::{
    run_campaign, stuck_at_sites, CampaignConfig, CampaignReport, FaultOutcome, FaultOverlay,
    FaultResult, FaultSite,
};
use mis_sim::{BenchNetlist, CellLibrary, LoweredNetlist, RunBudget, Simulator};
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
/// plus the run's totals: (events, gate edges).
fn full_replay(
    lo: &LoweredNetlist,
    sim: &mut Simulator<'_>,
    golden: &[DigitalTrace],
    inputs: &[DigitalTrace],
    site: FaultSite,
    budget: &RunBudget,
) -> (FaultResult, u64, u64) {
    let mut arena = TraceArena::new();
    let run = sim.run_controlled_in(inputs, &mut arena, budget, Some(&FaultOverlay::new(site)));
    let events = (lo.net.signal_count() - lo.net.input_count()) as u64;
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
                events,
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
    (result, events, edges)
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

#[test]
fn campaign_report_equals_full_replay_on_every_fixture() {
    for (file, glitches) in [("c17.bench", 0), ("c432.bench", 24), ("c880.bench", 24)] {
        let lo = lowered(file);
        let inputs = traffic(lo.inputs.len());
        let faults = fault_list(&lo, glitches);
        let golden = golden_outputs(&lo, &inputs);
        let mut sim = Simulator::new(&lo.net).expect("engine");
        let results: Vec<FaultResult> = faults
            .iter()
            .map(|&site| {
                full_replay(&lo, &mut sim, &golden, &inputs, site, &RunBudget::UNLIMITED).0
            })
            .collect();
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
        for workers in [1, 2] {
            let got = run_campaign(
                &lo.net,
                &lo.outputs,
                &inputs,
                &faults,
                &CampaignConfig {
                    workers,
                    ..CampaignConfig::default()
                },
            )
            .expect("campaign");
            assert!(
                got == want,
                "{file}: cone report differs at {workers} workers"
            );
        }
    }
}

#[test]
fn budgets_trip_exactly_when_full_replay_trips() {
    for file in ["c17.bench", "c432.bench"] {
        let lo = lowered(file);
        let inputs = traffic(lo.inputs.len());
        let golden = golden_outputs(&lo, &inputs);
        let mut sim = Simulator::new(&lo.net).expect("engine");
        for site in fault_list(&lo, 24) {
            let (_, events, edges) =
                full_replay(&lo, &mut sim, &golden, &inputs, site, &RunBudget::UNLIMITED);
            let exact = RunBudget::UNLIMITED
                .with_max_events(events)
                .with_max_edges(edges);
            let mut budgets = vec![
                (exact, false),
                (RunBudget::UNLIMITED.with_max_events(events - 1), true),
            ];
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
