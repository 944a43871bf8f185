use mis_waveform::AnalogWaveform;

use crate::{AnalogError, MosParams};

/// Handle to a circuit node.
///
/// [`Circuit::GROUND`] is always present and fixed at 0 V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

/// A circuit element.
#[derive(Debug, Clone)]
pub enum Device {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms (positive).
        ohms: f64,
    },
    /// Linear capacitor between `a` and `b`.
    Capacitor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads (positive).
        farads: f64,
    },
    /// MOSFET with the EKV-style channel model (no gate current; add
    /// explicit [`Device::Capacitor`]s for gate coupling).
    Mosfet {
        /// Drain terminal.
        drain: NodeId,
        /// Gate terminal.
        gate: NodeId,
        /// Source terminal.
        source: NodeId,
        /// Compact-model parameters.
        params: MosParams,
    },
}

impl Device {
    /// Convenience constructor for a resistor.
    #[must_use]
    pub fn resistor(a: NodeId, b: NodeId, ohms: f64) -> Device {
        Device::Resistor { a, b, ohms }
    }

    /// Convenience constructor for a capacitor.
    #[must_use]
    pub fn capacitor(a: NodeId, b: NodeId, farads: f64) -> Device {
        Device::Capacitor { a, b, farads }
    }

    /// Convenience constructor for a MOSFET.
    #[must_use]
    pub fn mosfet(drain: NodeId, gate: NodeId, source: NodeId, params: MosParams) -> Device {
        Device::Mosfet {
            drain,
            gate,
            source,
            params,
        }
    }
}

/// How a node's voltage is determined.
#[derive(Debug, Clone)]
pub(crate) enum NodeKind {
    /// Solved by nodal analysis.
    Free,
    /// Imposed by an ideal source following a waveform.
    Driven(AnalogWaveform),
}

/// A flat netlist: named nodes (free or source-driven) plus devices.
///
/// # Examples
///
/// ```
/// use mis_analog::{Circuit, Device};
///
/// # fn main() -> Result<(), mis_analog::AnalogError> {
/// let mut c = Circuit::new();
/// let a = c.add_free_node("a");
/// c.add_device(Device::resistor(a, Circuit::GROUND, 1.0e3))?;
/// assert_eq!(c.free_nodes().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Circuit {
    names: Vec<String>,
    kinds: Vec<NodeKind>,
    devices: Vec<Device>,
}

impl Circuit {
    /// The ground reference node, fixed at 0 V.
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty circuit containing only the ground node.
    #[must_use]
    pub fn new() -> Self {
        Circuit {
            names: vec!["gnd".to_owned()],
            kinds: vec![NodeKind::Driven(AnalogWaveform::constant(
                0.0,
                0.0,
                f64::MAX / 4.0,
            ))],
            devices: Vec::new(),
        }
    }

    /// Adds a node whose voltage is solved for.
    pub fn add_free_node(&mut self, name: &str) -> NodeId {
        self.names.push(name.to_owned());
        self.kinds.push(NodeKind::Free);
        NodeId(self.names.len() - 1)
    }

    /// Adds a node driven by an ideal voltage source following `waveform`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::Netlist`] if the waveform is degenerate
    /// (single sample).
    pub fn add_driven_node(
        &mut self,
        name: &str,
        waveform: AnalogWaveform,
    ) -> Result<NodeId, AnalogError> {
        if waveform.len() < 2 {
            return Err(AnalogError::Netlist {
                reason: format!("driven node '{name}' needs a waveform with >= 2 samples"),
            });
        }
        self.names.push(name.to_owned());
        self.kinds.push(NodeKind::Driven(waveform));
        Ok(NodeId(self.names.len() - 1))
    }

    /// Adds a node held at a constant voltage (e.g. the supply rail).
    pub fn add_rail(&mut self, name: &str, volts: f64) -> NodeId {
        self.names.push(name.to_owned());
        self.kinds.push(NodeKind::Driven(AnalogWaveform::constant(
            volts,
            0.0,
            f64::MAX / 4.0,
        )));
        NodeId(self.names.len() - 1)
    }

    /// Adds a device after validating its terminals and element value.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::Netlist`] for unknown nodes, self-loops, or
    /// non-positive element values.
    pub fn add_device(&mut self, device: Device) -> Result<(), AnalogError> {
        let check_node = |n: NodeId| -> Result<(), AnalogError> {
            if n.0 < self.names.len() {
                Ok(())
            } else {
                Err(AnalogError::Netlist {
                    reason: format!("unknown node id {}", n.0),
                })
            }
        };
        match &device {
            Device::Resistor { a, b, ohms } => {
                check_node(*a)?;
                check_node(*b)?;
                if a == b {
                    return Err(AnalogError::Netlist {
                        reason: "resistor terminals must differ".into(),
                    });
                }
                if !(*ohms > 0.0) || !ohms.is_finite() {
                    return Err(AnalogError::Netlist {
                        reason: format!("resistance must be positive (got {ohms:e})"),
                    });
                }
            }
            Device::Capacitor { a, b, farads } => {
                check_node(*a)?;
                check_node(*b)?;
                if a == b {
                    return Err(AnalogError::Netlist {
                        reason: "capacitor terminals must differ".into(),
                    });
                }
                if !(*farads > 0.0) || !farads.is_finite() {
                    return Err(AnalogError::Netlist {
                        reason: format!("capacitance must be positive (got {farads:e})"),
                    });
                }
            }
            Device::Mosfet {
                drain,
                gate,
                source,
                params,
            } => {
                check_node(*drain)?;
                check_node(*gate)?;
                check_node(*source)?;
                if drain == source {
                    return Err(AnalogError::Netlist {
                        reason: "mosfet drain and source must differ".into(),
                    });
                }
                params.validate()?;
            }
        }
        self.devices.push(device);
        Ok(())
    }

    /// Number of nodes, including ground.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Ids of all free (solved) nodes, in insertion order.
    #[must_use]
    pub fn free_nodes(&self) -> Vec<NodeId> {
        self.kinds
            .iter()
            .enumerate()
            .filter_map(|(i, k)| matches!(k, NodeKind::Free).then_some(NodeId(i)))
            .collect()
    }

    /// The devices in insertion order.
    #[must_use]
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// The imposed voltage of a driven node at time `t`; `None` for free
    /// nodes.
    #[must_use]
    pub fn driven_voltage(&self, node: NodeId, t: f64) -> Option<f64> {
        match &self.kinds[node.0] {
            NodeKind::Free => None,
            NodeKind::Driven(w) => Some(w.value_at(t)),
        }
    }

    /// All breakpoint times (sample instants of driven waveforms) within
    /// `[0, t_stop]`, sorted and deduplicated. The time stepper never
    /// strides across one.
    #[must_use]
    pub fn breakpoints(&self, t_stop: f64) -> Vec<f64> {
        let mut out: Vec<f64> = self
            .kinds
            .iter()
            .filter_map(|k| match k {
                NodeKind::Driven(w) => Some(w),
                NodeKind::Free => None,
            })
            .flat_map(|w| w.times().iter().copied())
            .filter(|&t| t > 0.0 && t < t_stop)
            .collect();
        out.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        out.dedup();
        out
    }
}

impl Default for Circuit {
    fn default() -> Self {
        Circuit::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MosPolarity;

    #[test]
    fn ground_exists_and_is_zero() {
        let c = Circuit::new();
        assert_eq!(c.node_count(), 1);
        assert_eq!(c.driven_voltage(Circuit::GROUND, 5.0), Some(0.0));
    }

    #[test]
    fn free_and_rail_nodes() {
        let mut c = Circuit::new();
        let n = c.add_free_node("n");
        let vdd = c.add_rail("vdd", 0.8);
        assert_eq!(c.driven_voltage(n, 0.0), None);
        assert_eq!(c.driven_voltage(vdd, 123.0), Some(0.8));
        assert_eq!(c.free_nodes(), vec![n]);
    }

    #[test]
    fn device_validation() {
        let mut c = Circuit::new();
        let n = c.add_free_node("n");
        assert!(c.add_device(Device::resistor(n, n, 1e3)).is_err());
        assert!(c
            .add_device(Device::resistor(n, Circuit::GROUND, -1.0))
            .is_err());
        assert!(c
            .add_device(Device::capacitor(n, Circuit::GROUND, 0.0))
            .is_err());
        assert!(c
            .add_device(Device::resistor(NodeId(99), Circuit::GROUND, 1e3))
            .is_err());
        let m = MosParams::new(MosPolarity::Nmos, 1e-4, 0.25);
        assert!(c
            .add_device(Device::mosfet(n, Circuit::GROUND, n, m))
            .is_err());
        assert!(c
            .add_device(Device::mosfet(n, n, Circuit::GROUND, m))
            .is_ok());
        assert_eq!(c.devices().len(), 1);
    }

    #[test]
    fn breakpoints_from_driven_waveforms() {
        let mut c = Circuit::new();
        let w = AnalogWaveform::from_samples(vec![0.0, 1.0, 2.0, 9.0], vec![0.0; 4]).unwrap();
        c.add_driven_node("in", w).unwrap();
        let bp = c.breakpoints(5.0);
        assert_eq!(bp, vec![1.0, 2.0]);
    }

    #[test]
    fn degenerate_driven_waveform_rejected() {
        let mut c = Circuit::new();
        let w = AnalogWaveform::from_samples(vec![0.0], vec![0.5]).unwrap();
        assert!(c.add_driven_node("in", w).is_err());
    }
}
