//! Set-up: the layers a run passes through before its first timed
//! operation, each timed on its own, plus the seeded stimulus pool and
//! the output oracle.

use std::path::PathBuf;
use std::time::Instant;

use mis_charlib::CharLib;
use mis_digital::{InertialChannel, Network, SignalId};
use mis_fault::{stuck_at_sites, FaultSite};
use mis_sim::{BenchNetlist, CellLibrary, LoweredNetlist, Simulator};
use mis_testkit::rng::TestRng;
use mis_waveform::generate::{Assignment, TraceConfig};
use mis_waveform::units::ps;
use mis_waveform::{DigitalTrace, TraceRef};

/// Stimulus sets in the eval pool. Large enough that the pool's mean
/// cost barely moves between seeds.
pub const POOL_SETS: usize = 32;

/// Transitions per generated trace pair (each input keeps one trace of
/// the pair, so about half of these).
const TRANSITIONS: usize = 40;

/// Which cell realization the netlist is lowered onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Library {
    /// NOR/NAND as cached-hybrid two-input channel gates, the rest
    /// behind the inertial fallback (`mis_bench::netlist::committed_cells`).
    Cached,
    /// Every gate behind the inertial fallback channel.
    Inertial,
}

/// The checkout root, where the committed `data/` fixtures live.
#[must_use]
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The inertial fallback of the committed cell library.
fn fallback() -> Result<InertialChannel, String> {
    InertialChannel::symmetric(ps(50.0), ps(38.0)).map_err(|e| format!("fallback channel: {e}"))
}

/// Host seconds spent in each set-up layer of one [`Fixture::build`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `.mislib` read + `CharLib::from_text` (cached library only).
    pub charlib_load: f64,
    /// `CellLibrary` construction (table resampling for the cached one).
    pub cells_build: f64,
    /// `.bench` read + `BenchNetlist::parse`.
    pub bench_parse: f64,
    /// `BenchNetlist::lower` onto the cells.
    pub bench_lower: f64,
    /// `Simulator::new` on the lowered network.
    pub engine_build: f64,
    /// Seeded stimulus-pool generation.
    pub stimulus: f64,
    /// `stuck_at_sites` enumeration.
    pub site_enumerate: f64,
}

impl SetupTimes {
    /// The set-up a workload pays: every layer, with fault-site
    /// enumeration only when the workload runs campaigns.
    #[must_use]
    pub fn total(&self, with_sites: bool) -> f64 {
        let sites = if with_sites { self.site_enumerate } else { 0.0 };
        self.charlib_load
            + self.cells_build
            + self.bench_parse
            + self.bench_lower
            + self.engine_build
            + self.stimulus
            + sites
    }
}

/// Everything a run needs after set-up.
pub struct Fixture {
    /// C880 lowered onto the workload's cells.
    pub lowered: LoweredNetlist,
    /// The seeded stimulus pool, one trace per primary input per set.
    pub pool: Vec<Vec<DigitalTrace>>,
    /// Every single-stuck-at site of the lowered network.
    pub sites: Vec<FaultSite>,
}

/// Seconds since `t`, restarting `t` — one clock read per layer
/// boundary.
fn lap(t: &mut Instant) -> f64 {
    let now = Instant::now();
    let dt = now.duration_since(*t).as_secs_f64();
    *t = now;
    dt
}

impl Fixture {
    /// Runs the whole set-up once, timing each layer.
    ///
    /// # Errors
    ///
    /// A message naming the failing layer.
    pub fn build(library: Library, seed: u64) -> Result<(Self, SetupTimes), String> {
        let root = repo_root();
        let mut times = SetupTimes::default();
        let mut t = Instant::now();
        let charlib = match library {
            Library::Cached => {
                let path = root.join("data/charlib/nor_paper.mislib");
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("read {}: {e}", path.display()))?;
                Some(CharLib::from_text(&text).map_err(|e| format!("parse mislib: {e}"))?)
            }
            Library::Inertial => None,
        };
        times.charlib_load = lap(&mut t);
        let cells = match &charlib {
            Some(lib) => CellLibrary::hybrid(lib, Some(fallback()?))
                .map_err(|e| format!("cell library: {e}"))?,
            None => CellLibrary::inertial(fallback()?),
        };
        times.cells_build = lap(&mut t);
        let path = root.join("data/bench/c880.bench");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let netlist = BenchNetlist::parse(&text).map_err(|e| format!("parse c880: {e}"))?;
        times.bench_parse = lap(&mut t);
        let lowered = netlist
            .lower(&cells)
            .map_err(|e| format!("lower c880: {e}"))?;
        times.bench_lower = lap(&mut t);
        // Built and dropped: the engine borrows the network, so each run
        // builds the one it drives outside the timed set-up.
        drop(Simulator::new(&lowered.net).map_err(|e| format!("engine: {e}"))?);
        times.engine_build = lap(&mut t);
        let pool = stimulus_pool(seed, POOL_SETS, lowered.inputs.len())?;
        times.stimulus = lap(&mut t);
        let sites = stuck_at_sites(&lowered.net);
        times.site_enumerate = lap(&mut t);
        Ok((
            Fixture {
                lowered,
                pool,
                sites,
            },
            times,
        ))
    }
}

/// `sets` seeded stimulus sets for `inputs` primary inputs. Consecutive
/// inputs share one generated trace pair; in every set exactly half the
/// pairs (at random positions) use the paper's Fig. 7 dense MIS spacing
/// (100/50 ps, local) and the rest the CI traffic (400/150 ps, local).
/// Every set thus carries both sparse and Charlie-close switchings, and
/// the fixed split keeps the pool's cost from drifting with the seed.
///
/// # Errors
///
/// A message if trace generation fails (it cannot for these fixed
/// configurations).
pub fn stimulus_pool(
    seed: u64,
    sets: usize,
    inputs: usize,
) -> Result<Vec<Vec<DigitalTrace>>, String> {
    let sparse = TraceConfig::new(ps(400.0), ps(150.0), Assignment::Local, TRANSITIONS);
    let dense = TraceConfig::new(ps(100.0), ps(50.0), Assignment::Local, TRANSITIONS);
    let mut rng = TestRng::seed_from_u64(seed);
    let mut pool = Vec::with_capacity(sets);
    let pairs = inputs.div_ceil(2);
    for _ in 0..sets {
        // Fisher-Yates over a half-dense mask.
        let mut is_dense: Vec<bool> = (0..pairs).map(|p| p < pairs / 2).collect();
        for p in (1..pairs).rev() {
            is_dense.swap(p, rng.gen_u64_below(p as u64 + 1) as usize);
        }
        let mut set = Vec::with_capacity(2 * pairs);
        for dense_pair in is_dense {
            let cfg = if dense_pair { &dense } else { &sparse };
            let pair = cfg
                .generate(rng.next_u64())
                .map_err(|e| format!("stimulus generation: {e}"))?;
            set.extend([pair.a, pair.b]);
        }
        set.truncate(inputs);
        pool.push(set);
    }
    Ok(pool)
}

/// The expected result of one stimulus set, from the reference
/// evaluator.
pub struct Expected {
    /// Output traces, in `OUTPUT` declaration order.
    pub outputs: Vec<DigitalTrace>,
    /// Edges emitted by gates (every non-input signal), for the
    /// simulated-edge throughput.
    pub gate_edges: u64,
}

/// The oracle: C880 lowered independently onto the cells the library
/// crates ship (`mis_bench::netlist::committed_cells` for the cached
/// library) and evaluated by the reference `Network::run` sweep for
/// every pool set.
///
/// # Errors
///
/// A message naming the failing step.
pub fn oracle(library: Library, pool: &[Vec<DigitalTrace>]) -> Result<Vec<Expected>, String> {
    let cells = match library {
        Library::Cached => mis_bench::netlist::committed_cells()?,
        Library::Inertial => CellLibrary::inertial(fallback()?),
    };
    let path = repo_root().join("data/bench/c880.bench");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let lowered = BenchNetlist::parse(&text)
        .and_then(|nl| nl.lower(&cells))
        .map_err(|e| format!("oracle c880: {e}"))?;
    let net: &Network = &lowered.net;
    let inputs = lowered.inputs.len();
    pool.iter()
        .map(|set| {
            let traces = net.run(set).map_err(|e| format!("oracle run: {e}"))?;
            let gate_edges = traces[inputs..]
                .iter()
                .map(|t| t.edges().len() as u64)
                .sum();
            let outputs = lowered
                .outputs
                .iter()
                .map(|id| traces[id.index()].clone())
                .collect();
            Ok(Expected {
                outputs,
                gate_edges,
            })
        })
        .collect()
}

/// Whether a simulated view is bit-identical to an owned trace.
#[must_use]
pub fn same(view: TraceRef<'_>, want: &DigitalTrace) -> bool {
    view.initial_value() == want.initial_value()
        && view.len() == want.edges().len()
        && view
            .times()
            .iter()
            .zip(want.edges())
            .all(|(&t, e)| t.to_bits() == e.time.to_bits())
}

/// Whether every output view `trace(id)` matches `want`, in order.
pub fn outputs_match<'a>(
    outputs: &[SignalId],
    trace: impl Fn(SignalId) -> TraceRef<'a>,
    want: &[DigitalTrace],
) -> bool {
    outputs.len() == want.len() && outputs.iter().zip(want).all(|(&id, w)| same(trace(id), w))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_pool_other_seed_other_pool() {
        let a = stimulus_pool(7, 4, 6).unwrap();
        let b = stimulus_pool(7, 4, 6).unwrap();
        let c = stimulus_pool(8, 4, 6).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|set| set.len() == 6));
    }

    #[test]
    fn oracle_comparison_is_exact() {
        let t =
            DigitalTrace::with_edges(false, vec![(ps(100.0), true), (ps(200.0), false)]).unwrap();
        let times = [ps(100.0), ps(200.0)];
        assert!(same(TraceRef::new(false, &times), &t));
        assert!(!same(TraceRef::new(true, &times), &t));
        assert!(!same(TraceRef::new(false, &times[..1]), &t));
        let nudged = [ps(100.0), f64::from_bits(ps(200.0).to_bits() + 1)];
        assert!(!same(TraceRef::new(false, &nudged), &t));
    }

    #[test]
    fn pool_mixes_sparse_and_dense_inputs() {
        // Dense (100/50 ps) traces end far earlier than sparse
        // (400/150 ps) ones with the same transition count.
        let pool = stimulus_pool(1, 1, 60).unwrap();
        let dense = pool[0]
            .iter()
            .filter(|t| t.edges().last().unwrap().time < ps(4000.0))
            .count();
        assert_eq!(dense, 30, "exactly half the inputs are dense");
    }
}
