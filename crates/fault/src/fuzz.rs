//! The differential fuzz harness: random circuits, random stimuli,
//! random faults — cross-checked between both engines and against the
//! faulted static timing windows.
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
//! It then asserts three properties the rest of the workspace argues
//! structurally, end to end on the faulty run:
//!
//! * **Engine bit-identity under faults.** The serial and parallel
//!   engines produce exactly the same trace for every signal, at every
//!   worker count up to the configured maximum, and so does the
//!   campaigns' cone-only [`ConeReplay`] against the fault-free golden
//!   run.
//! * **Faulted STA soundness.** Every edge of every faulty trace lands
//!   inside the signal's arrival window computed by
//!   [`TimingAnalysis::arrival_windows_edited`] under the fault's
//!   [`crate::FaultSite::window_edit`].
//! * **Graceful budgets.** With exactly enough event budget the run
//!   succeeds on both engines; with one event less the serial engine
//!   (and with a zero budget, the parallel engine too) returns
//!   [`mis_digital::SimError::BudgetExceeded`] — never a panic or a
//!   hang.
//!
//! A violation aborts the fuzz with a message naming the iteration and
//! seed; `scripts/ci.sh` runs a bounded iteration count as a smoke leg
//! through the `fault_sim --fuzz` CLI.

use mis_analyze::TimingAnalysis;
use mis_digital::{GateKind, InertialChannel, Network, PureDelayChannel, SimError};
use mis_sim::{ConeReplay, GoldenRun, ParallelSimulator, RunBudget, Simulator};
use mis_testkit::rng::TestRng;
use mis_waveform::units::ps;
use mis_waveform::{DigitalTrace, TraceArena};

use crate::site::{FaultOverlay, FaultSite};

/// Bounds for one fuzz run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Iterations (one random circuit + stimulus + fault each).
    pub iterations: u32,
    /// Base seed; iteration `i` uses `seed + i`.
    pub seed: u64,
    /// Parallel-engine worker counts checked: `1..=max_workers`.
    pub max_workers: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iterations: 32,
            seed: 0x5eed,
            max_workers: 8,
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
    /// Engine runs compared for bit-identity (serial, each worker
    /// count and the cone replay, per iteration).
    pub runs_compared: u64,
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

        // Parallel faulty runs: bit-identical at every worker count.
        for workers in 1..=config.max_workers {
            let mut par = ParallelSimulator::new(&net, workers).map_err(|e| tag(&e.to_string()))?;
            let mut arena = TraceArena::new();
            par.run_controlled_in(&inputs, &mut arena, &RunBudget::UNLIMITED, Some(&overlay))
                .map_err(|e| tag(&e.to_string()))?;
            runs_compared += 1;
            for s in 0..net.signal_count() {
                let id = net.signal_id(s).expect("s < signal_count");
                if serial.trace(&serial_arena, id) != par.trace(&arena, id) {
                    return Err(tag(&format!(
                        "engines diverge on signal {} under fault {site} at {workers} workers",
                        net.signal_name(id)
                    )));
                }
            }
        }

        // Cone replay against the golden run: bit-identical too.
        let golden = Simulator::new(&net)
            .and_then(|mut sim| GoldenRun::record(&mut sim, &inputs))
            .map_err(|e| tag(&e.to_string()))?;
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

        // Graceful budgets: exactly enough succeeds everywhere; one
        // event short trips the serial engine; a zero budget trips the
        // parallel engine too. Always an error, never a panic or hang.
        let gates = (net.signal_count() - net.input_count()) as u64;
        let exact = RunBudget::UNLIMITED.with_max_events(gates);
        serial
            .run_controlled_in(&inputs, &mut serial_arena, &exact, Some(&overlay))
            .map_err(|e| tag(&format!("exact budget should suffice, got: {e}")))?;
        let short = RunBudget::UNLIMITED.with_max_events(gates - 1);
        match serial.run_controlled_in(&inputs, &mut serial_arena, &short, Some(&overlay)) {
            Err(SimError::BudgetExceeded { .. }) => {}
            other => {
                return Err(tag(&format!(
                    "serial engine under a short budget returned {other:?}"
                )))
            }
        }
        let mut par = ParallelSimulator::new(&net, config.max_workers.max(1))
            .map_err(|e| tag(&e.to_string()))?;
        let mut arena = TraceArena::new();
        par.run_controlled_in(&inputs, &mut arena, &exact, Some(&overlay))
            .map_err(|e| {
                tag(&format!(
                    "exact budget should suffice in parallel, got: {e}"
                ))
            })?;
        match par.run_controlled_in(
            &inputs,
            &mut arena,
            &RunBudget::UNLIMITED.with_max_events(0),
            Some(&overlay),
        ) {
            Err(SimError::BudgetExceeded { .. }) => {}
            other => {
                return Err(tag(&format!(
                    "parallel engine under a zero budget returned {other:?}"
                )))
            }
        }
    }
    Ok(FuzzReport {
        iterations: config.iterations,
        edges_checked,
        runs_compared,
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
            max_workers: 4,
        })
        .unwrap();
        assert_eq!(report.iterations, 12);
        assert!(report.edges_checked > 0, "fuzz must exercise real edges");
        assert_eq!(report.runs_compared, 12 * 6);
    }

    #[test]
    fn fuzz_is_deterministic_per_seed() {
        let config = FuzzConfig {
            iterations: 6,
            seed: 42,
            max_workers: 2,
        };
        let a = fuzz_differential(&config).unwrap();
        let b = fuzz_differential(&config).unwrap();
        assert_eq!(a, b);
    }
}
