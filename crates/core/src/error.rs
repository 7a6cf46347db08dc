//! Error type of the AutoPower crate.

use autopower_config::{Component, ConfigId, SramPositionId};
use autopower_ml::FitError;
use std::error::Error;
use std::fmt;

/// Reasons training or prediction cannot proceed.
#[derive(Debug, Clone, PartialEq)]
pub enum AutoPowerError {
    /// No training configurations were provided.
    NoTrainingConfigs,
    /// A requested training configuration is not present in the corpus.
    MissingConfig(ConfigId),
    /// A sub-model could not be fitted.
    SubModelFit {
        /// The component whose sub-model failed.
        component: Component,
        /// Which sub-model failed (e.g. `"register count"`).
        sub_model: &'static str,
        /// The underlying fitting error.
        source: FitError,
    },
    /// The SRAM hardware model could not find any scaling rule for a position.
    NoScalingRule(SramPositionId),
    /// An evaluation was requested over an empty set of prediction pairs
    /// (e.g. a test split filtered down to nothing).
    EmptyEvaluation,
    /// A model name did not match any registry entry.
    UnknownModel(String),
    /// The same configuration appears more than once in a training set, which
    /// would silently double-weight its runs.
    DuplicateTrainingConfig(ConfigId),
    /// A serialized model could not be parsed (wrong header, version,
    /// registry tag, or a malformed body).
    ModelFormat(String),
    /// A model file could not be read or written.
    ModelIo(String),
    /// A sweep checkpoint could not be read, written, parsed, or does not
    /// belong to the sweep being resumed.
    Checkpoint(String),
    /// An activity surrogate could not be trained, loaded, or safely used
    /// (e.g. it does not cover the sweep's workloads, or a sweep finished
    /// with zero audited configurations).
    Surrogate(String),
    /// A streaming sweep was handed an aggregator built for a different
    /// number of workloads per configuration than the sweep scores.
    WorkloadArity {
        /// Workloads per configuration the aggregator folds.
        aggregator: usize,
        /// Workloads per configuration the sweep scores.
        sweep: usize,
    },
    /// Pareto feasibility constraints failed
    /// [`ParetoConstraints::validate`](crate::ParetoConstraints::validate);
    /// carries its description of the offending bound.
    InvalidConstraints(String),
}

impl fmt::Display for AutoPowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutoPowerError::NoTrainingConfigs => {
                write!(f, "at least one training configuration is required")
            }
            AutoPowerError::MissingConfig(id) => {
                write!(f, "configuration {id} is not present in the corpus")
            }
            AutoPowerError::SubModelFit {
                component,
                sub_model,
                source,
            } => write!(
                f,
                "failed to fit the {sub_model} sub-model of {component}: {source}"
            ),
            AutoPowerError::NoScalingRule(position) => {
                write!(
                    f,
                    "no scaling rule could be fitted for SRAM position {position}"
                )
            }
            AutoPowerError::EmptyEvaluation => {
                write!(f, "cannot evaluate an empty set of prediction pairs")
            }
            AutoPowerError::UnknownModel(name) => {
                let known: Vec<&str> = crate::power_model::ModelKind::ALL
                    .iter()
                    .map(|kind| kind.registry_name())
                    .collect();
                write!(
                    f,
                    "unknown model '{name}' (expected one of: {})",
                    known.join(", ")
                )
            }
            AutoPowerError::DuplicateTrainingConfig(id) => {
                write!(
                    f,
                    "configuration {id} appears more than once in the training set \
                     (its runs would be double-weighted)"
                )
            }
            AutoPowerError::ModelFormat(message) => {
                write!(f, "malformed model file: {message}")
            }
            AutoPowerError::ModelIo(message) => {
                write!(f, "model file I/O failed: {message}")
            }
            AutoPowerError::Checkpoint(message) => {
                write!(f, "sweep checkpoint error: {message}")
            }
            AutoPowerError::Surrogate(message) => {
                write!(f, "surrogate error: {message}")
            }
            AutoPowerError::WorkloadArity { aggregator, sweep } => write!(
                f,
                "the aggregator folds {aggregator} workload(s) per configuration \
                 but the sweep scores {sweep}"
            ),
            AutoPowerError::InvalidConstraints(message) => {
                write!(f, "invalid pareto constraints: {message}")
            }
        }
    }
}

impl Error for AutoPowerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AutoPowerError::SubModelFit { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl AutoPowerError {
    /// Helper used by the sub-model trainers to attach context to a [`FitError`].
    pub(crate) fn fit(
        component: Component,
        sub_model: &'static str,
    ) -> impl FnOnce(FitError) -> Self {
        move |source| AutoPowerError::SubModelFit {
            component,
            sub_model,
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = AutoPowerError::SubModelFit {
            component: Component::Rob,
            sub_model: "register count",
            source: FitError::EmptyTrainingSet,
        };
        let msg = e.to_string();
        assert!(msg.contains("ROB"));
        assert!(msg.contains("register count"));
        assert!(e.source().is_some());
        assert!(AutoPowerError::NoTrainingConfigs.source().is_none());
        let unknown = AutoPowerError::UnknownModel("xgboost".to_owned());
        assert!(unknown.to_string().contains("xgboost"));
        assert!(unknown.to_string().contains("autopower"));
        assert!(AutoPowerError::EmptyEvaluation
            .to_string()
            .contains("empty"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync + 'static>() {}
        check::<AutoPowerError>();
    }
}
