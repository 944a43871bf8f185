//! **mis-fault** — deterministic fault injection over the `mis-sim`
//! engine: the adversarial robustness harness of the workspace.
//!
//! The paper's headline claim is faithful modeling of small delay
//! variations and glitch behavior under multi-input switching; this
//! crate *stresses* that claim instead of just reproducing it. It turns
//! the oracles the workspace already proves — engine bit-identity and
//! static-timing soundness — into checks that hold under injected
//! faults, bounded work, and random adversarial stimuli:
//!
//! * [`FaultSite`] / [`FaultKind`] — the fault model over a lowered
//!   [`mis_digital::Network`]: stuck-at-0/1 per signal, plus transient
//!   glitch pulses that exercise exactly the inertial/hybrid
//!   pulse-filtering paths the paper is about. [`FaultOverlay`]
//!   realizes a site as a [`mis_sim::TraceOverlay`], the rewrite hook
//!   the engine and the cone replay apply at the sealed-span boundary.
//! * [`campaign`] — the deterministic campaign runner: a fault list
//!   evaluated against a golden run over scoped worker threads (one
//!   warm arena per worker), each fault replaying only the gates it
//!   perturbs ([`mis_sim::ConeReplay`]), reporting per-output detection
//!   and aggregate coverage. The report is identical at every worker
//!   count and to full-netlist replay.
//! * [`fuzz`] — the differential fuzz harness: random bounded-channel
//!   circuits, stimuli and faults, cross-checking the serial engine
//!   against the `Network::run` oracle and the cone replay bit-for-bit,
//!   asserting every faulty edge lands inside its faulted STA window
//!   ([`FaultSite::window_edit`] +
//!   [`mis_analyze::TimingAnalysis::arrival_windows_edited`]), and
//!   probing the [`mis_sim::RunBudget`] degradation contract.
//!
//! # Examples
//!
//! An exhaustive single-stuck-at campaign over a NOR:
//!
//! ```
//! use mis_digital::{GateKind, Network};
//! use mis_fault::{run_campaign, stuck_at_sites, CampaignConfig};
//! use mis_waveform::{units::ps, DigitalTrace};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut net = Network::new();
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let y = net.add_gate("y", GateKind::Nor, &[a, b], None)?;
//! let stimulus = vec![
//!     DigitalTrace::with_edges(false, vec![(ps(100.0), true)])?,
//!     DigitalTrace::constant(false),
//! ];
//! let faults = stuck_at_sites(&net);
//! let report = run_campaign(&net, &[y], &stimulus, &faults, &CampaignConfig::default())?;
//! assert_eq!(report.total(), 6);
//! assert!(report.coverage() > 0.8);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
mod error;
pub mod fuzz;
pub mod site;

pub use campaign::{
    run_campaign, run_campaign_traced, CampaignConfig, CampaignReport, FaultOutcome, FaultResult,
};
pub use error::FaultError;
pub use fuzz::{fuzz_differential, FuzzConfig, FuzzReport};
pub use site::{stuck_at_sites, FaultKind, FaultOverlay, FaultSite};
