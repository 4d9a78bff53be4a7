//! Error type for the coupled solver.

use rcs_hydraulics::HydraulicError;
use rcs_thermal::ThermalError;

/// Error returned by the coupled system models.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The thermal substrate failed.
    Thermal(ThermalError),
    /// The hydraulic substrate failed.
    Hydraulic(HydraulicError),
    /// The outer fixed-point iteration over temperature-dependent power
    /// did not converge.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Final junction-temperature change per iteration, K — `None`
        /// when the iteration produced no usable residual (it previously
        /// reported `NaN`, which poisoned downstream comparisons).
        residual_k: Option<f64>,
    },
    /// A model was configured with an unphysical parameter.
    InvalidConfiguration {
        /// Explanation.
        reason: String,
    },
}

impl core::fmt::Display for CoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Thermal(e) => write!(f, "thermal solve failed: {e}"),
            Self::Hydraulic(e) => write!(f, "hydraulic solve failed: {e}"),
            Self::NoConvergence { iterations, residual_k } => match residual_k {
                Some(r) => write!(
                    f,
                    "coupled iteration did not converge after {iterations} iterations (last step {r:.3e} K)"
                ),
                None => write!(
                    f,
                    "coupled iteration did not converge after {iterations} iterations (no residual recorded)"
                ),
            },
            Self::InvalidConfiguration { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Thermal(e) => Some(e),
            Self::Hydraulic(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ThermalError> for CoreError {
    fn from(e: ThermalError) -> Self {
        Self::Thermal(e)
    }
}

impl From<HydraulicError> for CoreError {
    fn from(e: HydraulicError) -> Self {
        Self::Hydraulic(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_chain() {
        let e = CoreError::from(ThermalError::SelfLoop { index: 0 });
        assert!(e.to_string().contains("thermal"));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
