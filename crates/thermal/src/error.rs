//! Error type for the thermal solvers.

/// Error returned by thermal network construction and solving.
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalError {
    /// A node id does not belong to this network.
    UnknownNode {
        /// The offending node index.
        index: usize,
    },
    /// A resistor connects a node to itself.
    SelfLoop {
        /// The node in question.
        index: usize,
    },
    /// A resistance, capacitance or other parameter was not positive.
    NonPositiveParameter {
        /// Name of the parameter.
        parameter: &'static str,
    },
    /// Heat was attached to a boundary node, which is contradictory (its
    /// temperature is imposed).
    HeatOnBoundary {
        /// Name of the boundary node.
        node: String,
    },
}

impl core::fmt::Display for ThermalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::UnknownNode { index } => write!(f, "unknown node index {index}"),
            Self::SelfLoop { index } => write!(f, "resistor connects node {index} to itself"),
            Self::NonPositiveParameter { parameter } => {
                write!(f, "non-positive {parameter}")
            }
            Self::HeatOnBoundary { node } => {
                write!(f, "heat source attached to boundary node '{node}'")
            }
        }
    }
}

impl std::error::Error for ThermalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_concise() {
        let e = ThermalError::NonPositiveParameter {
            parameter: "capacitance",
        };
        assert_eq!(e.to_string(), "non-positive capacitance");
        let e = ThermalError::HeatOnBoundary { node: "oil".into() };
        assert!(e.to_string().contains("'oil'"));
    }
}
