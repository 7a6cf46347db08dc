//! Error type of the ML toolkit.

use std::error::Error;
use std::fmt;

/// Reasons a model cannot be fitted to a training set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitError {
    /// The training set has no rows or no features.
    EmptyTrainingSet,
    /// Feature rows have inconsistent widths.
    RaggedRows,
    /// The number of feature rows and targets differ.
    LengthMismatch {
        /// Number of feature rows.
        rows: usize,
        /// Number of targets.
        targets: usize,
    },
    /// A feature or target value is NaN or infinite.
    NonFiniteValue,
    /// The normal-equation system is singular and cannot be solved.
    SingularSystem,
    /// A hyper-parameter is out of its range; the message says which.
    InvalidParams(&'static str),
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::EmptyTrainingSet => write!(f, "training set is empty"),
            FitError::RaggedRows => write!(f, "feature rows have inconsistent widths"),
            FitError::LengthMismatch { rows, targets } => write!(
                f,
                "number of feature rows ({rows}) does not match number of targets ({targets})"
            ),
            FitError::NonFiniteValue => write!(f, "training data contains a non-finite value"),
            FitError::SingularSystem => write!(f, "normal equations are singular"),
            FitError::InvalidParams(reason) => write!(f, "invalid hyper-parameters: {reason}"),
        }
    }
}

impl Error for FitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let msgs = [
            FitError::EmptyTrainingSet.to_string(),
            FitError::RaggedRows.to_string(),
            FitError::LengthMismatch {
                rows: 3,
                targets: 4,
            }
            .to_string(),
            FitError::NonFiniteValue.to_string(),
            FitError::SingularSystem.to_string(),
            FitError::InvalidParams("learning rate must be in (0, 1]").to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase());
            assert!(!m.ends_with('.'));
        }
    }

    #[test]
    fn is_a_std_error() {
        fn takes_error<E: Error + Send + Sync + 'static>(_: E) {}
        takes_error(FitError::SingularSystem);
    }
}
