//! Lumped thermal resistance networks.

use rcs_units::{Celsius, Power, ThermalResistance};

use crate::error::ThermalError;

/// Handle to a node in a [`ThermalNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

#[derive(Debug, Clone)]
pub(crate) enum NodeKind {
    /// Unknown temperature, integrated in time against its heat
    /// capacitance (J/K).
    Internal { capacitance_j_per_k: f64 },
    /// Imposed temperature.
    Boundary { temperature: Celsius },
}

#[derive(Debug, Clone)]
pub(crate) struct NodeData {
    pub(crate) name: String,
    pub(crate) kind: NodeKind,
    pub(crate) heat: Power,
}

#[derive(Debug, Clone)]
pub(crate) struct ResistorData {
    pub(crate) a: NodeId,
    pub(crate) b: NodeId,
    pub(crate) resistance: ThermalResistance,
}

/// A lumped thermal network: capacitive nodes connected by thermal
/// resistances, with heat sources on internal nodes and imposed
/// temperatures on boundary nodes.
///
/// # Examples
///
/// One chip (10 J/K) dissipating 100 W into a 30 °C coolant through a
/// 0.3 K/W path settles at 30 + 100 · 0.3 = 60 °C:
///
/// ```
/// use rcs_thermal::ThermalNetwork;
/// use rcs_units::{Celsius, Power, Seconds, ThermalResistance};
///
/// let mut net = ThermalNetwork::new();
/// let junction = net.add_node_with_capacitance("junction", 10.0);
/// let coolant = net.add_boundary("coolant", Celsius::new(30.0));
/// net.connect(junction, coolant, ThermalResistance::from_kelvin_per_watt(0.3))?;
/// net.add_heat(junction, Power::from_watts(100.0))?;
///
/// // 30 time constants (RC = 3 s) is settled to well below a microkelvin
/// let trace = net.solve_transient(Celsius::new(30.0), Seconds::new(90.0), Seconds::new(0.1))?;
/// assert!((trace.final_temperature(junction).degrees() - 60.0).abs() < 1e-6);
/// # Ok::<(), rcs_thermal::ThermalError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ThermalNetwork {
    pub(crate) nodes: Vec<NodeData>,
    pub(crate) resistors: Vec<ResistorData>,
}

impl ThermalNetwork {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an internal node carrying a heat capacitance in J/K.
    pub fn add_node_with_capacitance(
        &mut self,
        name: impl Into<String>,
        capacitance_j_per_k: f64,
    ) -> NodeId {
        self.nodes.push(NodeData {
            name: name.into(),
            kind: NodeKind::Internal {
                capacitance_j_per_k,
            },
            heat: Power::ZERO,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a boundary node with an imposed temperature.
    pub fn add_boundary(&mut self, name: impl Into<String>, temperature: Celsius) -> NodeId {
        self.nodes.push(NodeData {
            name: name.into(),
            kind: NodeKind::Boundary { temperature },
            heat: Power::ZERO,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Connects two nodes with a thermal resistance.
    ///
    /// # Errors
    ///
    /// Rejects unknown ids, self-loops and non-positive resistances.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        resistance: ThermalResistance,
    ) -> Result<(), ThermalError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(ThermalError::SelfLoop { index: a.0 });
        }
        if resistance.kelvin_per_watt() <= 0.0 {
            return Err(ThermalError::NonPositiveParameter {
                parameter: "resistance",
            });
        }
        self.resistors.push(ResistorData { a, b, resistance });
        Ok(())
    }

    /// Adds heat generation to an internal node (accumulates).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::HeatOnBoundary`] if the node is a boundary.
    pub fn add_heat(&mut self, node: NodeId, power: Power) -> Result<(), ThermalError> {
        let data = self
            .nodes
            .get_mut(node.0)
            .ok_or(ThermalError::UnknownNode { index: node.0 })?;
        if matches!(data.kind, NodeKind::Boundary { .. }) {
            return Err(ThermalError::HeatOnBoundary {
                node: data.name.clone(),
            });
        }
        data.heat += power;
        Ok(())
    }

    fn check_node(&self, n: NodeId) -> Result<(), ThermalError> {
        if n.0 < self.nodes.len() {
            Ok(())
        } else {
            Err(ThermalError::UnknownNode { index: n.0 })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heat_on_boundary_rejected() {
        let mut net = ThermalNetwork::new();
        let b = net.add_boundary("amb", Celsius::new(25.0));
        assert!(matches!(
            net.add_heat(b, Power::from_watts(1.0)),
            Err(ThermalError::HeatOnBoundary { .. })
        ));
    }

    #[test]
    fn self_loop_rejected() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node_with_capacitance("a", 1.0);
        assert!(matches!(
            net.connect(a, a, ThermalResistance::from_kelvin_per_watt(1.0)),
            Err(ThermalError::SelfLoop { .. })
        ));
    }

    #[test]
    fn non_positive_resistance_rejected() {
        let mut net = ThermalNetwork::new();
        let a = net.add_node_with_capacitance("a", 1.0);
        let b = net.add_boundary("b", Celsius::new(0.0));
        assert!(net
            .connect(a, b, ThermalResistance::from_kelvin_per_watt(0.0))
            .is_err());
        assert!(net
            .connect(a, b, ThermalResistance::from_kelvin_per_watt(-1.0))
            .is_err());
    }
}
