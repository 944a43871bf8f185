//! Shared plumbing for the netlist CLIs (`sim_profile`, `lint_bench`,
//! `fault_sim`): the committed characterized cell realization, the
//! deterministic input traffic every binary drives fixtures with, and
//! the `--expect` metric pins CI checks their probe reports against. One
//! definition keeps the binaries' numbers comparable — a profiled event
//! count, a timing window and a fault-coverage figure for the same
//! `.bench` file all describe the same lowered circuit under the same
//! stimulus.

use std::path::PathBuf;

use mis_charlib::CharLib;
use mis_digital::InertialChannel;
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
    let fallback = InertialChannel::symmetric(ps(50.0), ps(38.0))
        .map_err(|e| format!("fallback channel: {e}"))?;
    CellLibrary::hybrid(&lib, Some(fallback)).map_err(|e| format!("cell library: {e}"))
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

/// A 64-bit FNV-1a digest of simulated traces, in the order given:
/// per trace its initial value (one byte), then the bits of each edge
/// time (little-endian `f64::to_bits`). `sim_profile` reports it over
/// every `OUTPUT` trace as `sim.output_digest`, so an `--expect` pin on
/// it fails on any moved output bit — which an event-count pin can
/// miss. Edge times come out of `libm` calls, so a digest is pinned per
/// platform.
pub fn output_digest<'a>(traces: impl IntoIterator<Item = TraceRef<'a>>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for t in traces {
        eat(&[u8::from(t.initial_value())]);
        for time in t.times() {
            eat(&time.to_bits().to_le_bytes());
        }
    }
    h
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
