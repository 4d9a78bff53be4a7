//! Error type for the numeric kernels.

/// Error type for the numeric kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericError {
    /// The linear system is singular (or numerically so) at the given
    /// elimination step.
    SingularMatrix {
        /// Pivot column at which elimination failed.
        pivot: usize,
    },
    /// Mismatched dimensions between a matrix and a vector.
    DimensionMismatch {
        /// What was expected.
        expected: usize,
        /// What was provided.
        actual: usize,
    },
}

impl core::fmt::Display for NumericError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::SingularMatrix { pivot } => {
                write!(f, "singular matrix at pivot column {pivot}")
            }
            Self::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
        }
    }
}

impl std::error::Error for NumericError {}
