//! Composing circuits from gates and channels: a two-level NOR network
//! (y = NOR(NOR(a,b), NOR(c,d))) where one network uses the cached
//! hybrid MIS model — built from the **committed** characterized library
//! under `data/charlib/`, no re-characterization — and the other uses
//! inertial channels behind zero-time gates, demonstrating how MIS-aware
//! channels change glitch behaviour deeper in a circuit. Both networks
//! are evaluated by the `Simulator` engine, allocation-free over one
//! warm `TraceArena`.
//!
//! Run: `cargo run --release --example circuit_network`

use std::sync::Arc;

use mis_delay::charlib::CharLib;
use mis_delay::digital::{GateKind, InertialChannel, Network, SignalId, SimError};
use mis_delay::sim::{CellLibrary, Simulator};
use mis_delay::waveform::units::{ps, to_ps};
use mis_delay::waveform::{DigitalTrace, TraceArena, TraceRef};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The committed characterized NOR library (regenerate with
    // `cargo run -p mis-bench --bin make_data`).
    // The path is printed relative to the repository root, so the
    // output is the same in every checkout.
    let lib_rel = "data/charlib/nor_paper.mislib";
    let lib_path = format!("{}/{lib_rel}", env!("CARGO_MANIFEST_DIR"));
    let lib = CharLib::from_text(&std::fs::read_to_string(lib_path)?)?;
    println!(
        "loaded committed NOR library ({lib_rel} — budget {:.2} ps)",
        to_ps(lib.budget())
    );

    // Network 1: all three NOR gates share one Arc'd cached-hybrid
    // table set through the cell library.
    let cells = CellLibrary::hybrid(&lib, None)?;
    let tables = Arc::clone(cells.shared_tables().expect("hybrid cells"));
    let mut hybrid_net = Network::new();
    let a = hybrid_net.add_input("a");
    let b = hybrid_net.add_input("b");
    let c = hybrid_net.add_input("c");
    let d = hybrid_net.add_input("d");
    let n1 = cells.add(&mut hybrid_net, "n1", GateKind::Nor, a, b)?;
    let n2 = cells.add(&mut hybrid_net, "n2", GateKind::Nor, c, d)?;
    let y_hybrid = cells.add(&mut hybrid_net, "y", GateKind::Nor, n1, n2)?;
    println!(
        "hybrid network built: 3 gates, 1 shared table set ({} references)",
        Arc::strong_count(&tables)
    );

    // Network 2: same topology, inertial channels behind zero-time gates.
    let icells = CellLibrary::inertial(InertialChannel::symmetric(ps(55.0), ps(39.0))?);
    let mut inertial_net = Network::new();
    let ia = inertial_net.add_input("a");
    let ib = inertial_net.add_input("b");
    let ic = inertial_net.add_input("c");
    let id = inertial_net.add_input("d");
    let m1 = icells.add(&mut inertial_net, "n1", GateKind::Nor, ia, ib)?;
    let m2 = icells.add(&mut inertial_net, "n2", GateKind::Nor, ic, id)?;
    let y_inertial = icells.add(&mut inertial_net, "y", GateKind::Nor, m1, m2)?;

    // Stimulus: a and b rise 12 ps apart (MIS region on gate n1); c stays
    // low, d pulses briefly.
    let inputs = [
        DigitalTrace::with_edges(false, vec![(ps(200.0), true)])?,
        DigitalTrace::with_edges(false, vec![(ps(212.0), true)])?,
        DigitalTrace::constant(false),
        DigitalTrace::with_edges(false, vec![(ps(230.0), true), (ps(260.0), false)])?,
    ];

    // Both evaluations run allocation-free through one warm arena.
    let mut arena = TraceArena::new();
    let describe = |name: &str, t: TraceRef<'_>| {
        print!("  {name}: initial {} |", u8::from(t.initial_value()));
        for k in 0..t.len() {
            print!(
                " {}@{:.2}ps",
                if t.rising(k) { "rise" } else { "fall" },
                to_ps(t.times()[k])
            );
        }
        println!();
    };
    let mut show = |net: &Network, label: &str, ids: [SignalId; 3]| {
        let mut sim = Simulator::new(net)?;
        sim.run_in(&inputs, &mut arena)?; // warm-up sizes the arena
        sim.run_in(&inputs, &mut arena)?; // steady state: zero allocations
        println!("{label}:");
        for (name, id) in ["n1", "n2", "y "].into_iter().zip(ids) {
            describe(name, sim.trace(&arena, id));
        }
        println!();
        Ok::<_, SimError>(())
    };
    show(&hybrid_net, "hybrid-channel network", [n1, n2, y_hybrid])?;
    show(
        &inertial_net,
        "inertial-channel network",
        [m1, m2, y_inertial],
    )?;

    println!("Note how the hybrid n1 sees the 12 ps input separation (MIS speed-up),");
    println!("while the inertial n1 applies one fixed delay regardless; downstream, the");
    println!("30 ps pulse on d may survive or die depending on the channel model.");
    Ok(())
}
