//! The differential fuzz harness: random circuits, random stimuli,
//! random faults — cross-checked between the serial engine, the
//! independent `Network::run` reference, the cone replay and the faulted
//! static timing windows.
//!
//! Every iteration draws, from a [`TestRng`] seeded off the configured
//! base (so any failure is reproducible from its printed seed):
//!
//! 1. a random feed-forward network over *bounded* channels (none,
//!    pure-delay, inertial — the kinds whose [`mis_analyze`] windows
//!    are finite, so the soundness check below is non-vacuous);
//! 2. a random stimulus (strictly increasing edge times per input);
//! 3. one random [`FaultSite`] — stuck-at-0/1 or a transient glitch.
//!
//! It then asserts four properties the rest of the workspace argues
//! structurally, end to end on the faulty run:
//!
//! * **Engine bit-identity.** Fault-free, the [`Simulator`] produces
//!   exactly the trace `Network::run` does for every signal. That
//!   reference composes owned gate functions and channel `apply` calls,
//!   so the check covers the engine's arena, fused passes and in-place
//!   channel kernels as well as its schedule. Under the fault, the
//!   campaigns' cone-only [`ConeReplay`] against the fault-free golden
//!   run produces exactly the serial engine's faulty traces.
//! * **Faulted STA soundness.** Every edge of every faulty trace lands
//!   inside the signal's arrival window computed by
//!   [`TimingAnalysis::arrival_windows_edited`] under the fault's
//!   [`crate::FaultSite::window_edit`].
//! * **Graceful budgets.** With exactly the faulty run's edge total as
//!   its edge budget, the serial run and the cone replay both succeed;
//!   with one edge less both return
//!   [`mis_digital::SimError::BudgetExceeded`] — never a panic or a
//!   hang.
//! * **Campaign splicing.** The campaign over every stuck-at site plus
//!   the drawn fault, observing every signal, equals the report built
//!   from per-fault memo-less [`ConeReplay::run`]s — unbudgeted, and
//!   under an edge budget of the golden run's gate-edge total, which
//!   trips the faults that add edges. The campaign splices recorded
//!   stuck-at replays into its faults' replays; the reference never
//!   does.
//!
//! A violation aborts the fuzz with a message naming the iteration and
//! seed; `scripts/ci.sh` runs a bounded iteration count as a smoke leg
//! through the `fault_sim --fuzz` CLI.

use mis_analyze::TimingAnalysis;
use mis_digital::{GateKind, InertialChannel, Network, PureDelayChannel, SimError};
use mis_sim::{ConeReplay, GoldenRun, RunBudget, Simulator};
use mis_testkit::rng::TestRng;
use mis_waveform::units::ps;
use mis_waveform::{DigitalTrace, TraceArena};

use crate::campaign::{run_campaign, CampaignConfig, FaultOutcome};
use crate::site::{stuck_at_sites, FaultOverlay, FaultSite};

/// Bounds for one fuzz run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Iterations (one random circuit + stimulus + fault each).
    pub iterations: u32,
    /// Base seed; iteration `i` uses `seed + i`.
    pub seed: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iterations: 32,
            seed: 0x5eed,
        }
    }
}

/// What a completed fuzz run covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzReport {
    /// Iterations completed.
    pub iterations: u32,
    /// Faulty-trace edges checked against their STA windows.
    pub edges_checked: u64,
    /// Engine runs compared for bit-identity (the faulty serial run, the
    /// fault-free serial run and the cone replay, per iteration).
    pub runs_compared: u64,
    /// Campaign fault outcomes compared against memo-less cone replays
    /// (two campaigns per iteration).
    pub faults_compared: u64,
}

/// Absolute slack for window-containment checks: far below the
/// picosecond scale of every generated delay, far above accumulated
/// `f64` rounding at that scale.
const WINDOW_TOL: f64 = 1e-15;

/// A random feed-forward network over bounded channels only.
fn random_network(rng: &mut TestRng) -> Network {
    const BINARY: [GateKind; 5] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
    ];
    let n_inputs = 2 + rng.gen_u64_below(3) as usize;
    let n_gates = 1 + rng.gen_u64_below(10) as usize;
    let mut net = Network::new();
    let mut ids = Vec::new();
    for i in 0..n_inputs {
        ids.push(net.add_input(&format!("in{i}")));
    }
    for g in 0..n_gates {
        let name = format!("g{g}");
        let channel = match rng.gen_u64_below(3) {
            0 => None,
            1 => Some(Box::new(
                PureDelayChannel::new(ps(10.0 + rng.gen_u64_below(70) as f64))
                    .expect("positive delay"),
            ) as Box<dyn mis_digital::TraceTransform>),
            _ => Some(Box::new(
                InertialChannel::symmetric(
                    ps(10.0 + rng.gen_u64_below(70) as f64),
                    ps(5.0 + rng.gen_u64_below(40) as f64),
                )
                .expect("positive delays"),
            ) as Box<dyn mis_digital::TraceTransform>),
        };
        let pick = ids[rng.gen_u64_below(ids.len() as u64) as usize];
        let id = if rng.gen_bool(0.3) {
            let kind = if rng.gen_bool(0.5) {
                GateKind::Not
            } else {
                GateKind::Buf
            };
            net.add_gate(&name, kind, &[pick], channel)
                .expect("operands precede the gate")
        } else {
            let kind = BINARY[rng.gen_u64_below(5) as usize];
            let other = ids[rng.gen_u64_below(ids.len() as u64) as usize];
            net.add_gate(&name, kind, &[pick, other], channel)
                .expect("operands precede the gate")
        };
        ids.push(id);
    }
    net
}

/// A random stimulus trace: up to six strictly increasing edges.
fn random_trace(rng: &mut TestRng) -> DigitalTrace {
    let initial = rng.gen_bool(0.5);
    let n = rng.gen_u64_below(7);
    let mut t = ps(50.0 + rng.gen_u64_below(100) as f64);
    let mut edges = Vec::new();
    let mut rising = !initial;
    for _ in 0..n {
        edges.push((t, rising));
        rising = !rising;
        t += ps(20.0 + rng.gen_u64_below(100) as f64);
    }
    DigitalTrace::with_edges(initial, edges).expect("strictly increasing times")
}

/// A random fault over the network's signals.
fn random_fault(rng: &mut TestRng, net: &Network) -> FaultSite {
    let signal = net
        .signal_id(rng.gen_u64_below(net.signal_count() as u64) as usize)
        .expect("index < signal_count");
    match rng.gen_u64_below(3) {
        0 => FaultSite::stuck_at_0(signal),
        1 => FaultSite::stuck_at_1(signal),
        _ => FaultSite::glitch(
            signal,
            ps(rng.gen_u64_below(1200) as f64),
            ps(5.0 + rng.gen_u64_below(80) as f64),
        )
        .expect("positive finite width"),
    }
}

/// Runs the campaign over every stuck-at site of `net` plus `extra`,
/// observing every signal, unbudgeted and under an edge budget of the
/// golden gate-edge total, and compares each report fault by fault
/// with memo-less [`ConeReplay::run`]s. Returns the outcomes compared.
fn check_campaign(
    net: &Network,
    inputs: &[DigitalTrace],
    golden: &GoldenRun,
    extra: FaultSite,
) -> Result<u64, String> {
    let mut faults = stuck_at_sites(net);
    faults.push(extra);
    let outputs: Vec<_> = (0..net.signal_count())
        .map(|s| net.signal_id(s).expect("s < signal_count"))
        .collect();
    let gate_edges: u64 = outputs[net.input_count()..]
        .iter()
        .map(|&id| golden.trace(id).len() as u64)
        .sum();
    let mut cone = ConeReplay::new(net).map_err(|e| e.to_string())?;
    let mut arena = TraceArena::new();
    let mut compared = 0;
    for budget in [
        RunBudget::UNLIMITED,
        RunBudget::UNLIMITED.with_max_edges(gate_edges),
    ] {
        let report = run_campaign(
            net,
            &outputs,
            inputs,
            &faults,
            &CampaignConfig { workers: 2, budget },
        )
        .map_err(|e| e.to_string())?;
        for (result, &site) in report.results.iter().zip(&faults) {
            let run = cone.run(
                golden,
                site.signal,
                &FaultOverlay::new(site),
                &mut arena,
                &budget,
            );
            let (outcome, detecting) = match run {
                Ok(()) => {
                    let detecting: Vec<usize> = (0..outputs.len())
                        .filter(|&k| cone.is_dirty(outputs[k]))
                        .collect();
                    let outcome = if detecting.is_empty() {
                        FaultOutcome::Undetected
                    } else {
                        FaultOutcome::Detected
                    };
                    (outcome, detecting)
                }
                Err(SimError::BudgetExceeded { .. }) => (FaultOutcome::BudgetTripped, Vec::new()),
                Err(e) => return Err(e.to_string()),
            };
            if result.site != site
                || result.outcome != outcome
                || result.detecting_outputs != detecting
            {
                return Err(format!(
                    "campaign diverges from the memo-less cone replay under fault {site} \
                     with {budget:?}: {:?} at {:?} vs {outcome:?} at {detecting:?}",
                    result.outcome, result.detecting_outputs
                ));
            }
            compared += 1;
        }
    }
    Ok(compared)
}

/// Runs the differential fuzz. Returns coverage statistics on success.
///
/// # Errors
///
/// A `String` describing the first violated property, including the
/// iteration index and effective seed for reproduction. (A violation
/// is an engine or analysis bug, not an input error — the harness
/// surfaces it as data so CLI and CI callers can print it and fail.)
pub fn fuzz_differential(config: &FuzzConfig) -> Result<FuzzReport, String> {
    let mut edges_checked = 0u64;
    let mut runs_compared = 0u64;
    let mut faults_compared = 0u64;
    for i in 0..config.iterations {
        let seed = config.seed.wrapping_add(u64::from(i));
        let tag = |what: &str| format!("fuzz iteration {i} (seed {seed:#x}): {what}");
        let mut rng = TestRng::seed_from_u64(seed);
        let net = random_network(&mut rng);
        let inputs: Vec<DigitalTrace> = (0..net.input_count())
            .map(|_| random_trace(&mut rng))
            .collect();
        let site = random_fault(&mut rng, &net);
        let overlay = FaultOverlay::new(site);

        // Serial faulty run — the reference for this iteration.
        let mut serial = Simulator::new(&net).map_err(|e| tag(&e.to_string()))?;
        let mut serial_arena = TraceArena::new();
        serial
            .run_controlled_in(
                &inputs,
                &mut serial_arena,
                &RunBudget::UNLIMITED,
                Some(&overlay),
            )
            .map_err(|e| tag(&e.to_string()))?;
        runs_compared += 1;

        // Fault-free serial run (the cone replay's golden run):
        // bit-identical to the independent `Network::run` reference.
        let golden = Simulator::new(&net)
            .and_then(|mut sim| GoldenRun::record(&mut sim, &inputs))
            .map_err(|e| tag(&e.to_string()))?;
        let oracle = net.run(&inputs).map_err(|e| tag(&e.to_string()))?;
        runs_compared += 1;
        for (s, want) in oracle.iter().enumerate() {
            let id = net.signal_id(s).expect("s < signal_count");
            if golden.trace(id).to_trace() != *want {
                return Err(tag(&format!(
                    "engine diverges from Network::run on signal {}",
                    net.signal_name(id)
                )));
            }
        }

        // Cone replay against the golden run: bit-identical to the
        // serial faulty run.
        let mut cone = ConeReplay::new(&net).map_err(|e| tag(&e.to_string()))?;
        let mut cone_arena = TraceArena::new();
        cone.run(
            &golden,
            site.signal,
            &overlay,
            &mut cone_arena,
            &RunBudget::UNLIMITED,
        )
        .map_err(|e| tag(&e.to_string()))?;
        runs_compared += 1;
        for s in 0..net.signal_count() {
            let id = net.signal_id(s).expect("s < signal_count");
            if serial.trace(&serial_arena, id) != cone.trace(&golden, &cone_arena, id) {
                return Err(tag(&format!(
                    "cone replay diverges on signal {} under fault {site}",
                    net.signal_name(id)
                )));
            }
        }

        faults_compared +=
            check_campaign(&net, &inputs, &golden, site).map_err(|what| tag(&what))?;

        // Faulted STA soundness: every faulty edge inside its edited
        // window.
        let ta = TimingAnalysis::new(&net);
        let input_windows: Vec<mis_analyze::Window> = inputs
            .iter()
            .map(|t| {
                mis_analyze::Window::from_edge_times(
                    &t.edges().iter().map(|e| e.time).collect::<Vec<f64>>(),
                )
            })
            .collect();
        let windows = ta.arrival_windows_edited(&input_windows, &[site.window_edit()]);
        for (s, window) in windows.iter().enumerate() {
            let id = net.signal_id(s).expect("s < signal_count");
            let trace = serial.trace(&serial_arena, id);
            for &t in trace.times() {
                edges_checked += 1;
                if !window.contains(t, WINDOW_TOL) {
                    return Err(tag(&format!(
                        "edge at {:.3} ps on {} escapes its faulted STA window {window} under {site}",
                        t / 1e-12,
                        net.signal_name(id),
                    )));
                }
            }
        }

        // Graceful budgets: the faulty run's exact edge total suffices
        // for the serial run and the cone replay alike; one edge short
        // trips both. Always an error, never a panic or hang.
        let edges: u64 = (net.input_count()..net.signal_count())
            .map(|s| serial_arena.trace(s).len() as u64)
            .sum();
        let mut budgets = vec![(RunBudget::UNLIMITED.with_max_edges(edges), false)];
        if edges > 0 {
            budgets.push((RunBudget::UNLIMITED.with_max_edges(edges - 1), true));
        }
        for (budget, trips) in budgets {
            let full =
                serial.run_controlled_in(&inputs, &mut serial_arena, &budget, Some(&overlay));
            let replay = cone.run(&golden, site.signal, &overlay, &mut cone_arena, &budget);
            for (what, run) in [("serial engine", full), ("cone replay", replay)] {
                match run {
                    Err(SimError::BudgetExceeded { .. }) if trips => {}
                    Ok(()) if !trips => {}
                    other => {
                        return Err(tag(&format!(
                            "{what} under {budget:?} (faulty run: {edges} edges) returned {other:?}"
                        )))
                    }
                }
            }
        }
    }
    Ok(FuzzReport {
        iterations: config.iterations,
        edges_checked,
        runs_compared,
        faults_compared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_fuzz_passes() {
        let report = fuzz_differential(&FuzzConfig {
            iterations: 12,
            seed: 0xfa111,
        })
        .unwrap();
        assert_eq!(report.iterations, 12);
        assert!(report.edges_checked > 0, "fuzz must exercise real edges");
        assert_eq!(report.runs_compared, 12 * 3);
        assert!(
            report.faults_compared > 12 * 2,
            "every campaign fault compared"
        );
    }

    #[test]
    fn fuzz_is_deterministic_per_seed() {
        let config = FuzzConfig {
            iterations: 6,
            seed: 42,
        };
        let a = fuzz_differential(&config).unwrap();
        let b = fuzz_differential(&config).unwrap();
        assert_eq!(a, b);
    }
}
