use std::fmt;

/// Error type for Gaussian-process construction and fitting.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GpError {
    /// The training set was empty.
    EmptyTrainingSet,
    /// Inputs and targets had different lengths.
    LengthMismatch {
        /// Number of input points.
        inputs: usize,
        /// Number of targets.
        targets: usize,
    },
    /// Input points had inconsistent dimensionality.
    DimensionMismatch {
        /// Dimensionality of the first point.
        expected: usize,
        /// Dimensionality of the offending point.
        actual: usize,
    },
    /// A target or input value, or the mean diagonal of a matrix to
    /// factorize, was not finite.
    NonFiniteValue,
    /// The kernel matrix was not positive definite even after the jitter
    /// ladder was exhausted.
    NotPositiveDefinite,
    /// A matrix operation was attempted with incompatible shapes.
    ShapeMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
    },
}

impl fmt::Display for GpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpError::EmptyTrainingSet => write!(f, "training set is empty"),
            GpError::LengthMismatch { inputs, targets } => {
                write!(f, "{inputs} input points but {targets} targets")
            }
            GpError::DimensionMismatch { expected, actual } => {
                write!(f, "input point has dimension {actual}, expected {expected}")
            }
            GpError::NonFiniteValue => {
                write!(f, "non-finite value in training data or kernel matrix")
            }
            GpError::NotPositiveDefinite => {
                write!(f, "kernel matrix not positive definite after jitter ladder")
            }
            GpError::ShapeMismatch { op } => write!(f, "incompatible matrix shapes in {op}"),
        }
    }
}

impl std::error::Error for GpError {}
