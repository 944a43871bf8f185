//! Cell libraries: one timing realization per gate type, shared across
//! every instance in a netlist.
//!
//! [`CellLibrary`] is the `mis-sim` counterpart of a standard-cell
//! library. It realizes every gate kind that `.bench` circuits lower to
//! (see [`crate::BenchNetlist::lower`]), and it guarantees **sharing**:
//! the characterized cached-hybrid table set (≈ 100 KiB of resampled
//! delay surfaces and correction curves per cell type on the committed
//! `nor_paper.mislib`) is held behind one [`Arc`] and every NOR/NAND
//! instance references it. At C432 scale this is the difference between
//! one table set shared through the cache hierarchy and each gate
//! dragging its own copy through memory.
//!
//! A library built from a committed `mis-charlib` text file skips
//! re-characterization entirely:
//!
//! ```no_run
//! use mis_charlib::CharLib;
//! use mis_sim::CellLibrary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let text = std::fs::read_to_string("data/charlib/nor_paper.mislib")?;
//! let lib = CharLib::from_text(&text)?;
//! let cells = CellLibrary::hybrid(&lib, None)?;
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use mis_charlib::CharLib;
use mis_digital::{
    CachedHybridChannel, GateKind, InertialChannel, NandChannel, Network, SignalId, SimError,
    TraceTransform, TwoInputTransform,
};

/// A gate-type → timing-realization mapping shared by every gate
/// instance of a lowered netlist.
///
/// Three realizations exist:
///
/// * **ideal** — zero-time gates, no channels (logic checks);
/// * **fallback channel** — a zero-time gate followed by a clone of one
///   prototype [`InertialChannel`] (the channel struct is a few floats;
///   cloning per instance is free compared to table-backed cells);
/// * **cached hybrid** — NOR and NAND realized as two-input channel
///   gates referencing one [`Arc`]-shared [`CachedHybridChannel`] table
///   set (NAND as a [`NandChannel`] over the shared NOR, through the
///   free view-inversion duality).
#[derive(Debug, Clone)]
pub struct CellLibrary {
    /// The NOR table set every NOR and NAND instance shares.
    hybrid: Option<Arc<CachedHybridChannel>>,
    fallback: Option<InertialChannel>,
}

impl CellLibrary {
    /// Zero-time gates throughout: pure logic, no delays.
    #[must_use]
    pub fn ideal() -> Self {
        CellLibrary {
            hybrid: None,
            fallback: None,
        }
    }

    /// Every gate becomes a zero-time gate followed by a clone of
    /// `channel`.
    #[must_use]
    pub fn inertial(channel: InertialChannel) -> Self {
        CellLibrary {
            hybrid: None,
            fallback: Some(channel),
        }
    }

    /// NOR/NAND gates share one cached-hybrid table set characterized
    /// from `lib` (a **NOR** library); every other gate kind falls back
    /// to `fallback` (zero-time when `None`).
    ///
    /// # Errors
    ///
    /// Propagates [`CachedHybridChannel::new`] failures (invalid
    /// parameters).
    pub fn hybrid(lib: &CharLib, fallback: Option<InertialChannel>) -> Result<Self, SimError> {
        Ok(Self::hybrid_shared(
            Arc::new(CachedHybridChannel::new(lib)?),
            fallback,
        ))
    }

    /// Like [`CellLibrary::hybrid`], but adopting an already-shared
    /// table set (no re-resampling; the caller's `Arc` and this
    /// library's gates all reference the same tables).
    #[must_use]
    pub fn hybrid_shared(nor: Arc<CachedHybridChannel>, fallback: Option<InertialChannel>) -> Self {
        CellLibrary {
            hybrid: Some(nor),
            fallback,
        }
    }

    /// The shared cached-hybrid table set, when this library carries one
    /// (lets tests assert instances share rather than copy).
    #[must_use]
    pub fn shared_tables(&self) -> Option<&Arc<CachedHybridChannel>> {
        self.hybrid.as_ref()
    }

    /// One fresh fallback channel, boxed for a gate output.
    fn channel(&self) -> Option<Box<dyn TraceTransform>> {
        self.fallback
            .clone()
            .map(|c| Box::new(c) as Box<dyn TraceTransform>)
    }

    /// Adds one two-input `kind` gate realized by this library.
    ///
    /// # Errors
    ///
    /// Propagates [`Network`] validation failures.
    pub fn add(
        &self,
        net: &mut Network,
        name: &str,
        kind: GateKind,
        a: SignalId,
        b: SignalId,
    ) -> Result<SignalId, SimError> {
        if let Some(nor) = &self.hybrid {
            let channel: Option<Box<dyn TwoInputTransform>> = match kind {
                GateKind::Nor => Some(Box::new(Arc::clone(nor))),
                GateKind::Nand => Some(Box::new(NandChannel::new(Arc::clone(nor)))),
                _ => None,
            };
            if let Some(ch) = channel {
                return net.add_two_input_channel_gate(name, [a, b], ch);
            }
        }
        net.add_gate(name, kind, &[a, b], self.channel())
    }

    /// Adds one unary `kind` gate (`Not`/`Buf`) realized by this
    /// library (zero-time gate plus the fallback channel, if any).
    ///
    /// # Errors
    ///
    /// Propagates [`Network`] validation failures.
    pub fn add_unary(
        &self,
        net: &mut Network,
        name: &str,
        kind: GateKind,
        input: SignalId,
    ) -> Result<SignalId, SimError> {
        net.add_gate(name, kind, &[input], self.channel())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BenchNetlist;
    use mis_charlib::CharConfig;
    use mis_core::NorParams;
    use mis_digital::SignalSource;
    use mis_waveform::units::ps;
    use mis_waveform::DigitalTrace;

    fn quick_lib() -> CharLib {
        CharLib::nor(&NorParams::paper_table1(), &CharConfig::quick()).expect("characterization")
    }

    #[test]
    fn hybrid_cells_share_one_table_set() {
        let cells = CellLibrary::hybrid(&quick_lib(), None).unwrap();
        let tables = Arc::clone(cells.shared_tables().unwrap());
        let before = Arc::strong_count(&tables);
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        for i in 0..16 {
            cells
                .add(&mut net, &format!("g{i}"), GateKind::Nor, a, b)
                .unwrap();
            cells
                .add(&mut net, &format!("h{i}"), GateKind::Nand, a, b)
                .unwrap();
        }
        // Every added gate bumped the refcount instead of copying tables.
        assert_eq!(Arc::strong_count(&tables), before + 32);
    }

    #[test]
    fn hybrid_library_builds_a_nand_chain_of_hybrid_gates() {
        let cells = CellLibrary::hybrid(&quick_lib(), None).unwrap();
        let text = "INPUT(a)\nINPUT(b)\nOUTPUT(s2)\n\
                    s0 = NAND(a, b)\ns1 = NAND(s0, b)\ns2 = NAND(s1, b)\n";
        let chain = BenchNetlist::parse(text).unwrap().lower(&cells).unwrap();
        for s in chain.net.input_count()..chain.net.signal_count() {
            let id = chain.net.signal_id(s).unwrap();
            assert!(matches!(
                chain.net.source(id),
                SignalSource::TwoInputChannelGate { .. }
            ));
        }
        let a = DigitalTrace::with_edges(true, vec![(ps(300.0), false)]).unwrap();
        let b = DigitalTrace::constant(true);
        let traces = chain.net.run(&[a, b]).unwrap();
        // NAND chain with b high: each stage inverts the previous signal.
        let out = &traces[chain.outputs[0].index()];
        assert!(!out.initial_value(), "NAND(1,1) = 0 settled");
        assert_eq!(out.transition_count(), 1);
    }

    #[test]
    fn hybrid_falls_back_for_non_hybrid_kinds() {
        let cells = CellLibrary::hybrid(
            &quick_lib(),
            Some(InertialChannel::symmetric(ps(10.0), ps(10.0)).unwrap()),
        )
        .unwrap();
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let x = cells.add(&mut net, "x", GateKind::Xor, a, b).unwrap();
        let n = cells.add_unary(&mut net, "n", GateKind::Not, x).unwrap();
        let ta = DigitalTrace::with_edges(false, vec![(ps(100.0), true)]).unwrap();
        let tb = DigitalTrace::constant(false);
        let traces = net.run(&[ta, tb]).unwrap();
        // XOR rises 10 ps after a, the NOT falls 10 ps after that.
        assert!((traces[x.index()].edges()[0].time - ps(110.0)).abs() < 1e-18);
        assert!((traces[n.index()].edges()[0].time - ps(120.0)).abs() < 1e-18);
    }

    #[test]
    fn ideal_library_is_zero_time() {
        let cells = CellLibrary::ideal();
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let y = cells.add(&mut net, "y", GateKind::Nor, a, b).unwrap();
        let ta = DigitalTrace::with_edges(false, vec![(ps(50.0), true)]).unwrap();
        let traces = net.run(&[ta, DigitalTrace::constant(false)]).unwrap();
        assert_eq!(traces[y.index()].edges()[0].time, ps(50.0));
    }
}
