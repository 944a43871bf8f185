//! Shared plumbing for the netlist CLIs (`sim_profile`, `lint_bench`,
//! `fault_sim`): the committed characterized cell realization and its
//! inertial-only alternative (`--cells`), the
//! deterministic input traffic every binary drives fixtures with, the
//! output and campaign-report digests, and the `--expect` metric pins
//! CI checks their probe reports against. One
//! definition keeps the binaries' numbers comparable — a profiled event
//! count, a timing window and a fault-coverage figure for the same
//! `.bench` file all describe the same lowered circuit under the same
//! stimulus.

use std::path::PathBuf;

use mis_charlib::CharLib;
use mis_digital::InertialChannel;
use mis_fault::{CampaignReport, FaultKind, FaultOutcome};
use mis_probe::{MetricValue, ProbeReport};
use mis_sim::CellLibrary;
use mis_waveform::generate::netlist_traffic;
use mis_waveform::units::ps;
use mis_waveform::{DigitalTrace, TraceRef};

/// The workspace root, resolved from this crate's manifest directory —
/// where the committed `data/` artifacts live.
#[must_use]
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The committed cell realization shared by every netlist CLI and the
/// benches: the paper-Table-1 NOR tables (NAND through the duality)
/// from `data/charlib/nor_paper.mislib`, with a symmetric inertial
/// fallback for gate kinds outside the characterized set. Committed
/// tables keep the numbers deterministic and the startup instant.
///
/// # Errors
///
/// A message naming the failing step: missing/unreadable tables (with a
/// hint to run `make_data`), a parse failure, or a library-construction
/// failure.
pub fn committed_cells() -> Result<CellLibrary, String> {
    let path = workspace_root().join("data/charlib/nor_paper.mislib");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("read {}: {e} (run make_data first)", path.display()))?;
    let lib = CharLib::from_text(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    CellLibrary::hybrid(&lib, Some(fallback()?)).map_err(|e| format!("cell library: {e}"))
}

/// The symmetric inertial channel (50 ps delay, 38 ps rejection window)
/// that [`committed_cells`] falls back to outside the characterized set
/// and that [`Cells::Inertial`] puts on every gate.
fn fallback() -> Result<InertialChannel, String> {
    InertialChannel::symmetric(ps(50.0), ps(38.0)).map_err(|e| format!("fallback channel: {e}"))
}

/// The cell library a netlist CLI lowers onto, chosen with `--cells`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cells {
    /// `hybrid` (the default): [`committed_cells`], the paper's MIS
    /// model on NOR/NAND roots.
    Hybrid,
    /// `inertial`: `CellLibrary::inertial` over the committed fallback
    /// on every gate, no MIS model.
    Inertial,
}

impl Cells {
    /// Reads a `--cells` value.
    ///
    /// # Errors
    ///
    /// A message naming the accepted values.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "hybrid" => Ok(Cells::Hybrid),
            "inertial" => Ok(Cells::Inertial),
            _ => Err(format!(
                "--cells: unknown library '{name}' (hybrid or inertial)"
            )),
        }
    }

    /// Builds the chosen library.
    ///
    /// # Errors
    ///
    /// [`committed_cells`] failures for [`Cells::Hybrid`].
    pub fn library(self) -> Result<CellLibrary, String> {
        match self {
            Cells::Hybrid => committed_cells(),
            Cells::Inertial => Ok(CellLibrary::inertial(fallback()?)),
        }
    }
}

/// Deterministic input traffic for `n` netlist inputs:
/// [`netlist_traffic`] at seed base `0x5eed`, the stimulus behind CI's
/// pinned event counts.
///
/// # Errors
///
/// A message describing the trace-generation failure (degenerate
/// configuration; cannot happen for the fixed parameters here).
pub fn traffic(n: usize) -> Result<Vec<DigitalTrace>, String> {
    netlist_traffic(n, 0x5eed).map_err(|e| format!("traffic generation: {e}"))
}

/// One 64-bit FNV-1a step: folds `bytes` into the hash `h` (start from
/// [`FNV_OFFSET`]). The one hasher behind [`output_digest`] and
/// [`report_digest`].
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The FNV-1a offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A 64-bit FNV-1a digest of simulated traces, in the order given:
/// per trace its initial value (one byte), then the bits of each edge
/// time (little-endian `f64::to_bits`). `sim_profile` reports it over
/// every `OUTPUT` trace as `sim.output_digest`, so an `--expect` pin on
/// it fails on any moved output bit — which an event-count pin can
/// miss. Edge times come out of `libm` calls, so a digest is pinned per
/// platform.
pub fn output_digest<'a>(traces: impl IntoIterator<Item = TraceRef<'a>>) -> u64 {
    traces.into_iter().fold(FNV_OFFSET, |h, t| {
        let h = fnv1a(h, &[u8::from(t.initial_value())]);
        t.times()
            .iter()
            .fold(h, |h, time| fnv1a(h, &time.to_bits().to_le_bytes()))
    })
}

/// A 64-bit FNV-1a digest of a campaign report, in fault-list order.
/// Per fault, each word a little-endian `u64`: the site's signal index;
/// its kind (0 stuck-at-0, 1 stuck-at-1, 2 glitch followed by the
/// glitch's time and width bits); the outcome (0 detected, 1
/// undetected, 2 budget-tripped); the number of detecting outputs, then
/// their indices. A report holds no timers and is the same at every
/// worker count, and so is its digest. `fault_sim` reports it as
/// `fault.report_digest`, which fails a pin when any one fault's result
/// changes, even if every count holds.
#[must_use]
pub fn report_digest(report: &CampaignReport) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    for r in &report.results {
        words.push(r.site.signal.index() as u64);
        match r.site.kind {
            FaultKind::StuckAt(v) => words.push(u64::from(v)),
            FaultKind::Glitch { time, width } => {
                words.extend([2, time.to_bits(), width.to_bits()]);
            }
        }
        words.push(match r.outcome {
            FaultOutcome::Detected => 0,
            FaultOutcome::Undetected => 1,
            FaultOutcome::BudgetTripped => 2,
        });
        words.push(r.detecting_outputs.len() as u64);
        words.extend(r.detecting_outputs.iter().map(|&k| k as u64));
    }
    words
        .iter()
        .fold(FNV_OFFSET, |h, w| fnv1a(h, &w.to_le_bytes()))
}

/// Parses an `--expect` spec — `metric=value` pairs separated by
/// commas — into metric names and pinned scalars.
///
/// # Errors
///
/// A message naming the malformed pair: one without `=`, or a value
/// that is not a `u64`.
pub fn parse_expect(spec: &str) -> Result<Vec<(String, u64)>, String> {
    spec.split(',')
        .map(|pair| {
            let (name, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("--expect pair '{pair}' is not metric=value"))?;
            let value: u64 = value
                .parse()
                .map_err(|e| format!("--expect value in '{pair}': {e}"))?;
            Ok((name.to_string(), value))
        })
        .collect()
}

/// Checks every pinned metric against `report`. Each drifted or missing
/// metric is printed to stderr as `label: expected name=want, got v`.
///
/// # Errors
///
/// A summary message when any pin failed.
pub fn check_expect(
    report: &ProbeReport,
    expect: &[(String, u64)],
    label: &str,
) -> Result<(), String> {
    let mut drifted = false;
    for (name, want) in expect {
        let got = report.get(name).and_then(MetricValue::scalar);
        if got != Some(*want) {
            eprintln!(
                "{label}: expected {name}={want}, got {}",
                got.map_or("<missing>".to_string(), |v| v.to_string())
            );
            drifted = true;
        }
    }
    if drifted {
        return Err("pinned metric expectations failed".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_probe::Probe;

    #[test]
    fn parse_expect_reads_pairs_and_rejects_malformed_ones() {
        assert_eq!(
            parse_expect("sim.runs=1,chan.table_lookups=741").unwrap(),
            vec![
                ("sim.runs".to_string(), 1),
                ("chan.table_lookups".to_string(), 741)
            ]
        );
        for bad in ["", "a"] {
            let err = parse_expect(bad).unwrap_err();
            assert!(err.contains("is not metric=value"), "{bad:?}: {err}");
        }
        let err = parse_expect("a=x").unwrap_err();
        assert!(err.contains("--expect value in 'a=x'"), "{err}");
    }

    #[test]
    fn check_expect_passes_pins_and_fails_drift_or_missing_metrics() {
        let probe = Probe::new();
        probe.counter("sim.runs").add(2);
        let report = probe.report();
        let pin = |name: &str, v: u64| vec![(name.to_string(), v)];
        assert!(check_expect(&report, &pin("sim.runs", 2), "t").is_ok());
        assert!(check_expect(&report, &[], "t").is_ok());
        assert!(check_expect(&report, &pin("sim.runs", 3), "t").is_err());
        assert!(check_expect(&report, &pin("sim.missing", 0), "t").is_err());
    }

    #[test]
    fn output_digest_sees_every_value_and_edge_bit() {
        use mis_waveform::EdgeBuf;
        let digest = |initial: bool, times: &[f64]| {
            let mut buf = EdgeBuf::new();
            buf.clear(initial);
            for &t in times {
                buf.push_time(t).unwrap();
            }
            output_digest([buf.as_ref()])
        };
        let base = digest(false, &[ps(10.0), ps(20.0)]);
        assert_eq!(base, digest(false, &[ps(10.0), ps(20.0)]));
        assert_ne!(base, digest(true, &[ps(10.0), ps(20.0)]));
        let one_ulp_later = f64::from_bits(ps(20.0).to_bits() + 1);
        assert_ne!(base, digest(false, &[ps(10.0), one_ulp_later]));
        assert_ne!(base, digest(false, &[ps(10.0)]));
    }

    #[test]
    fn report_digest_sees_every_site_outcome_and_detecting_output() {
        use mis_fault::{CampaignReport, FaultResult, FaultSite};
        use mis_sim::{BenchNetlist, CellLibrary};
        let nl = BenchNetlist::parse("INPUT(a)\nOUTPUT(b)\nOUTPUT(c)\nb = NOT(a)\nc = NOT(b)\n")
            .unwrap();
        let net = nl.lower(&CellLibrary::ideal()).unwrap().net;
        let (a, b) = (net.signal_id(0).unwrap(), net.signal_id(1).unwrap());
        let result = |site, outcome, detecting_outputs| FaultResult {
            site,
            outcome,
            detecting_outputs,
        };
        let report = |results| CampaignReport {
            results,
            detected: 0,
            budget_trips: 0,
            per_output: Vec::new(),
        };
        let base = vec![
            result(FaultSite::stuck_at_0(a), FaultOutcome::Detected, vec![0, 1]),
            result(
                FaultSite::glitch(b, ps(100.0), ps(20.0)).unwrap(),
                FaultOutcome::Undetected,
                Vec::new(),
            ),
        ];
        let digest = report_digest(&report(base.clone()));
        // The aggregate counts are derived; the digest reads the records.
        let mut counted = report(base.clone());
        counted.detected = 1;
        assert_eq!(report_digest(&counted), digest);
        let mutants: [fn(&mut Vec<FaultResult>); 6] = [
            |r| {
                r[0].detecting_outputs.pop();
            },
            |r| r[0].outcome = FaultOutcome::BudgetTripped,
            |r| r[0].site = FaultSite::stuck_at_1(r[0].site.signal),
            |r| r[1].site.signal = r[0].site.signal,
            |r| r[1].site = FaultSite::glitch(r[1].site.signal, ps(100.0), ps(30.0)).unwrap(),
            |r| r.swap(0, 1),
        ];
        for (i, mutate) in mutants.iter().enumerate() {
            let mut results = base.clone();
            mutate(&mut results);
            assert_ne!(report_digest(&report(results)), digest, "mutant {i}");
        }
    }

    #[test]
    fn cells_parse_every_library_name_and_reject_others() {
        assert_eq!(Cells::parse("hybrid"), Ok(Cells::Hybrid));
        assert_eq!(Cells::parse("inertial"), Ok(Cells::Inertial));
        let err = Cells::parse("cached").unwrap_err();
        assert!(err.contains("hybrid or inertial"), "{err}");
        assert!(Cells::Inertial.library().is_ok());
    }

    #[test]
    fn traffic_is_deterministic_and_sized() {
        let a = traffic(5).unwrap();
        let b = traffic(5).unwrap();
        assert_eq!(a.len(), 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.edges(), y.edges());
        }
        assert!(a.iter().all(|t| !t.edges().is_empty()));
    }

    #[test]
    fn committed_cells_load_from_the_workspace() {
        // The tables are committed; a failure here means the checkout
        // is incomplete, which the error message should say.
        match committed_cells() {
            Ok(_) => {}
            Err(e) => assert!(e.contains("make_data"), "unhelpful error: {e}"),
        }
    }
}
