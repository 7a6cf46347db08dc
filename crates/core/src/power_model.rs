//! The model-agnostic prediction interface: [`PowerModel`] + the [`ModelKind`]
//! registry.
//!
//! The paper's evaluation is a head-to-head between AutoPower and three
//! baselines, yet historically only [`AutoPower`](crate::AutoPower) could drive
//! the sweep, power-trace and cross-validation paths — the baselines were
//! dead-ended behind ad-hoc inherent `train`/`predict` methods.  This module
//! unifies every predictor behind one object-safe trait so that every existing
//! and future scenario (design-space sweep, trace prediction, cross-validation,
//! new workloads) works for every existing and future model:
//!
//! * [`PowerModel`] — the trait all four predictors implement.  Downstream
//!   engines ([`SweepEngine`](crate::SweepEngine),
//!   [`PowerTracePredictor`](crate::PowerTracePredictor),
//!   [`cross_validate_model`](crate::cross_validate_model)) consume
//!   `&dyn PowerModel` and never name a concrete model type.
//! * [`ModelKind`] — the registry: lists every model ([`ModelKind::ALL`]),
//!   resolves command-line names ([`FromStr`]) and trains any model into a
//!   `Box<dyn PowerModel>` ([`ModelKind::train`]).
//!
//! # Typed resolution
//!
//! [`PowerModel::predict`] returns a [`Prediction`]: a total plus an explicit
//! [`Resolution`](crate::Resolution) saying how much structure the model
//! actually resolved.  AutoPower predicts the paper's four power groups
//! ([`Resolution::Grouped`](crate::Resolution::Grouped)); AutoPower− and
//! McPAT-Calib + Component predict per component
//! ([`Resolution::PerComponent`](crate::Resolution::PerComponent), with and
//! without per-component groups respectively); plain McPAT-Calib predicts one
//! scalar ([`Resolution::TotalOnly`](crate::Resolution::TotalOnly)).  There is
//! no out-of-band "does this model resolve groups" flag to consult and no slot
//! to misread: [`Prediction::groups`] is `Some` exactly when the group view is
//! meaningful.  Models that resolve components additionally answer
//! [`PowerModel::predict_components`] — the surface behind the Figs. 7/8
//! detail experiments.
//!
//! # One scoring path
//!
//! Each model implements one scoring method,
//! [`PowerModel::predict_batch_with`], which scores a batch of
//! [`PredictInput`] points with reusable [`FeatureScratch`] buffers.
//! [`PowerModel::predict`], [`PowerModel::predict_run`] and
//! [`PowerModel::predict_total`] score a batch of one, so a point scored alone
//! and the same point scored inside a sweep chunk or a served batch are one
//! computation and carry the same bits.
//!
//! # Persistence
//!
//! Trained models serialize to a registry-tagged text format and load back
//! bit-identically — see [`save_model`](crate::save_model) /
//! [`load_model`](crate::load_model).  [`PowerModel::serialize`] writes the
//! model body; [`ModelKind::decode_trained`] restores the concrete type from
//! the registry tag.
//!
//! # Example
//!
//! ```
//! use autopower::{Corpus, CorpusSpec, ModelKind};
//! use autopower_config::{boom_configs, ConfigId, Workload};
//!
//! let configs = [boom_configs()[0], boom_configs()[14]];
//! let corpus = Corpus::generate(&configs, &[Workload::Vvadd], &CorpusSpec::fast());
//! let train = [ConfigId::new(1), ConfigId::new(15)];
//!
//! // Select a model by registry name, exactly as `--model` does on the CLI.
//! let kind: ModelKind = "mcpat-calib".parse().unwrap();
//! let model = kind.train(&corpus, &train).unwrap();
//! let run = corpus.run(ConfigId::new(1), Workload::Vvadd).unwrap();
//! let prediction = model.predict_run(run);
//! assert!(prediction.total() > 0.0);
//! // McPAT-Calib is total-only: the group view is absent, not parked.
//! assert!(prediction.groups().is_none());
//! ```

use crate::baselines::{AutoPowerMinus, McpatCalib, McpatCalibComponent};
use crate::dataset::{Corpus, RunData};
use crate::error::AutoPowerError;
use crate::features::FeatureScratch;
use crate::model::AutoPower;
use crate::prediction::{ComponentBreakdown, Prediction};
use autopower_config::{ConfigId, CpuConfig, Workload};
use autopower_perfsim::EventParams;
use serde::codec::{Codec, Reader, Writer};
use std::fmt;
use std::str::FromStr;

/// One `(configuration, events, workload)` point of a batched prediction
/// ([`PowerModel::predict_batch_with`]).
#[derive(Debug, Clone, Copy)]
pub struct PredictInput<'a> {
    /// The configuration under prediction.
    pub config: &'a CpuConfig,
    /// Its event parameters (simulated or surrogate-predicted).
    pub events: &'a EventParams,
    /// The workload the events describe.
    pub workload: Workload,
}

impl<'a> PredictInput<'a> {
    /// One point of a batch.
    pub fn new(config: &'a CpuConfig, events: &'a EventParams, workload: Workload) -> Self {
        Self {
            config,
            events,
            workload,
        }
    }
}

/// A trained architecture-level power predictor.
///
/// Object-safe: the inference engines hold `&dyn PowerModel` / `Box<dyn
/// PowerModel>` and dispatch dynamically, so any model the [`ModelKind`]
/// registry can train drives the sweep, trace and cross-validation paths.
/// `Send + Sync` is required so a single trained model can be shared across
/// the worker threads of the batch-inference pipeline.
///
/// Scoring has one path: implementations provide
/// [`PowerModel::predict_batch_with`], and a single point
/// ([`PowerModel::predict`]) is a batch of one.
pub trait PowerModel: fmt::Debug + Send + Sync {
    /// Which registry entry this model was trained as.
    fn kind(&self) -> ModelKind;

    /// Predicts the power of one `(configuration, workload)` point from
    /// architecture-level information only: a batch of one through
    /// [`PowerModel::predict_batch_with`].
    ///
    /// The returned [`Prediction`] carries the model's natural resolution:
    /// check [`Prediction::groups`] / [`Prediction::components`] instead of
    /// assuming structure.
    fn predict(&self, config: &CpuConfig, events: &EventParams, workload: Workload) -> Prediction {
        let mut out = Vec::with_capacity(1);
        let point = PredictInput::new(config, events, workload);
        self.predict_batch_with(&[point], &mut FeatureScratch::new(), &mut out);
        out.pop().expect("a batch of one yields one prediction")
    }

    /// Predicts a batch of points into `out` (cleared first), one
    /// [`Prediction`] per input in input order — the one scoring method
    /// implementations provide.
    ///
    /// Models built from many internal tree ensembles score *forest-major*:
    /// each ensemble over every point before moving to the next ensemble,
    /// which keeps an ensemble's nodes cache-hot across the whole batch.  A
    /// point's prediction never depends on the other points of its batch or
    /// on the scratch's previous contents, so the engines batch freely: the
    /// [`SweepEngine`](crate::SweepEngine) hands each worker one
    /// [`FeatureScratch`] and scores a chunk per call.
    fn predict_batch_with(
        &self,
        points: &[PredictInput<'_>],
        scratch: &mut FeatureScratch,
        out: &mut Vec<Prediction>,
    );

    /// Predicts per-component power, for models that resolve components
    /// (AutoPower, AutoPower−, McPAT-Calib + Component); `None` otherwise.
    ///
    /// The default is the breakdown [`PowerModel::predict`] carries, if any.
    /// AutoPower predicts core-level groups and overrides this with the
    /// component-level detail view behind the Figs. 7/8 experiments; its
    /// component groups, folded in
    /// [`Component::ALL`](autopower_config::Component::ALL) order, are the
    /// core-level groups.
    fn predict_components(
        &self,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
    ) -> Option<ComponentBreakdown> {
        self.predict(config, events, workload).components().cloned()
    }

    /// Predicts the power of a corpus run from its reported events.
    fn predict_run(&self, run: &RunData) -> Prediction {
        self.predict(&run.config, &run.sim.events, run.workload)
    }

    /// Per-component prediction of a corpus run (see
    /// [`PowerModel::predict_components`]).
    fn predict_run_components(&self, run: &RunData) -> Option<ComponentBreakdown> {
        self.predict_components(&run.config, &run.sim.events, run.workload)
    }

    /// Predicted total power in mW for one run.
    fn predict_total(&self, run: &RunData) -> f64 {
        self.predict_run(run).total()
    }

    /// Writes the trained model body into a codec stream (the payload of
    /// [`save_model`](crate::save_model); the registry tag and format version
    /// are written by the caller).
    fn serialize(&self, w: &mut Writer);
}

/// The registry of trainable power models.
///
/// One variant per predictor the paper evaluates.  [`ModelKind::ALL`] lists
/// them in the paper's reporting order (AutoPower first, the AutoPower−
/// ablation last); [`FromStr`] resolves the kebab-case registry names the
/// `--model` CLI flag uses; [`ModelKind::train`] erases the concrete model
/// type behind `Box<dyn PowerModel>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// The paper's contribution: decoupled structural sub-models per power
    /// group ([`AutoPower`]).
    AutoPower,
    /// One gradient-boosted model over all hardware and event parameters
    /// predicting total power directly ([`McpatCalib`]).
    McpatCalib,
    /// The same building block instantiated once per component, summed
    /// ([`McpatCalibComponent`]).
    McpatCalibComponent,
    /// The ablation: decoupled across power groups but with a direct ML model
    /// per group instead of the structural sub-models ([`AutoPowerMinus`]).
    AutoPowerMinus,
}

impl ModelKind {
    /// Every registry model, in the paper's reporting order.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::AutoPower,
        ModelKind::McpatCalib,
        ModelKind::McpatCalibComponent,
        ModelKind::AutoPowerMinus,
    ];

    /// The kebab-case registry name (`--model` flag value).
    pub fn registry_name(self) -> &'static str {
        match self {
            ModelKind::AutoPower => "autopower",
            ModelKind::McpatCalib => "mcpat-calib",
            ModelKind::McpatCalibComponent => "mcpat-calib-component",
            ModelKind::AutoPowerMinus => "autopower-minus",
        }
    }

    /// The method name as the paper's tables and figures print it.
    pub fn paper_name(self) -> &'static str {
        match self {
            ModelKind::AutoPower => "AutoPower",
            ModelKind::McpatCalib => "McPAT-Calib",
            ModelKind::McpatCalibComponent => "McPAT-Calib + Component",
            ModelKind::AutoPowerMinus => "AutoPower-",
        }
    }

    /// Whether predictions of this kind carry a core-level group view
    /// ([`Prediction::groups`] is `Some`).
    pub fn resolves_groups(self) -> bool {
        match self {
            ModelKind::AutoPower | ModelKind::AutoPowerMinus => true,
            ModelKind::McpatCalib | ModelKind::McpatCalibComponent => false,
        }
    }

    /// Whether this kind answers [`PowerModel::predict_components`] — the
    /// models the per-component detail experiments (Figs. 7/8) loop over.
    pub fn resolves_components(self) -> bool {
        match self {
            ModelKind::AutoPower | ModelKind::AutoPowerMinus | ModelKind::McpatCalibComponent => {
                true
            }
            ModelKind::McpatCalib => false,
        }
    }

    /// Every component-resolving registry model, in [`ModelKind::ALL`] order.
    pub fn component_resolving() -> Vec<ModelKind> {
        ModelKind::ALL
            .into_iter()
            .filter(|kind| kind.resolves_components())
            .collect()
    }

    /// Trains this kind of model on the runs of `train_configs`.
    ///
    /// The training set is validated up front for every kind: it must be
    /// non-empty, duplicate-free (duplicates would silently double-weight a
    /// configuration's runs) and fully present in the corpus (a missing
    /// configuration would silently shrink the split).
    ///
    /// # Errors
    ///
    /// Returns [`AutoPowerError::NoTrainingConfigs`],
    /// [`AutoPowerError::DuplicateTrainingConfig`] or
    /// [`AutoPowerError::MissingConfig`] for an invalid training set, or
    /// whatever the underlying trainer reports (sub-model fit failure).
    pub fn train(
        self,
        corpus: &Corpus,
        train_configs: &[ConfigId],
    ) -> Result<Box<dyn PowerModel>, AutoPowerError> {
        validate_training_set(corpus, train_configs)?;
        Ok(match self {
            ModelKind::AutoPower => Box::new(AutoPower::train(corpus, train_configs)?),
            ModelKind::McpatCalib => Box::new(McpatCalib::train(corpus, train_configs)?),
            ModelKind::McpatCalibComponent => {
                Box::new(McpatCalibComponent::train(corpus, train_configs)?)
            }
            ModelKind::AutoPowerMinus => Box::new(AutoPowerMinus::train(corpus, train_configs)?),
        })
    }

    /// Decodes a trained model body of this kind from a codec stream (the
    /// counterpart of [`PowerModel::serialize`], dispatched from the registry
    /// tag by [`load_model`](crate::load_model)).
    ///
    /// # Errors
    ///
    /// Returns [`AutoPowerError::ModelFormat`] if the body does not parse.
    pub fn decode_trained(self, r: &mut Reader<'_>) -> Result<Box<dyn PowerModel>, AutoPowerError> {
        let model: Box<dyn PowerModel> = match self {
            ModelKind::AutoPower => Box::new(AutoPower::decode(r)?),
            ModelKind::McpatCalib => Box::new(McpatCalib::decode(r)?),
            ModelKind::McpatCalibComponent => Box::new(McpatCalibComponent::decode(r)?),
            ModelKind::AutoPowerMinus => Box::new(AutoPowerMinus::decode(r)?),
        };
        Ok(model)
    }
}

/// Shared up-front validation of a training set (see [`ModelKind::train`]).
fn validate_training_set(
    corpus: &Corpus,
    train_configs: &[ConfigId],
) -> Result<(), AutoPowerError> {
    if train_configs.is_empty() {
        return Err(AutoPowerError::NoTrainingConfigs);
    }
    for (i, &id) in train_configs.iter().enumerate() {
        if train_configs[..i].contains(&id) {
            return Err(AutoPowerError::DuplicateTrainingConfig(id));
        }
        if corpus.runs_for(id).is_empty() {
            return Err(AutoPowerError::MissingConfig(id));
        }
    }
    Ok(())
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.registry_name())
    }
}

impl FromStr for ModelKind {
    type Err = AutoPowerError;

    /// Resolves a registry name, case-insensitively.  `_` is accepted in
    /// place of `-` so shell-friendly spellings work too.  The error message
    /// of an unknown name lists every valid registry name.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized = s.to_ascii_lowercase().replace('_', "-");
        ModelKind::ALL
            .into_iter()
            .find(|kind| kind.registry_name() == normalized)
            .ok_or_else(|| AutoPowerError::UnknownModel(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::CorpusSpec;
    use autopower_config::boom_configs;

    fn corpus() -> Corpus {
        let cfgs = boom_configs();
        Corpus::generate(
            &[cfgs[0], cfgs[7], cfgs[14]],
            &[Workload::Dhrystone, Workload::Vvadd],
            &CorpusSpec::fast(),
        )
    }

    #[test]
    fn registry_names_round_trip_through_fromstr() {
        for kind in ModelKind::ALL {
            assert_eq!(kind.registry_name().parse::<ModelKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.registry_name());
        }
        // Case-insensitive, underscore-tolerant.
        assert_eq!(
            "McPAT_Calib".parse::<ModelKind>().unwrap(),
            ModelKind::McpatCalib
        );
    }

    #[test]
    fn unknown_model_errors_list_every_registry_name() {
        let err = "xgboost".parse::<ModelKind>().unwrap_err();
        assert!(matches!(err, AutoPowerError::UnknownModel(_)));
        let message = err.to_string();
        assert!(message.contains("xgboost"));
        for kind in ModelKind::ALL {
            assert!(
                message.contains(kind.registry_name()),
                "message {message:?} does not hint at {kind}"
            );
        }
    }

    #[test]
    fn every_registry_model_trains_and_predicts() {
        let c = corpus();
        let train = [ConfigId::new(1), ConfigId::new(15)];
        for kind in ModelKind::ALL {
            let model = kind.train(&c, &train).unwrap();
            assert_eq!(model.kind(), kind);
            for run in c.runs() {
                let p = model.predict_run(run);
                assert!(p.is_physical(), "{kind} produced non-physical power");
                assert!(p.total() > 0.0, "{kind} predicted zero power");
                assert_eq!(model.predict_total(run), p.total());
                // The typed resolution matches the registry metadata.
                assert_eq!(p.groups().is_some(), kind.resolves_groups(), "{kind}");
                let breakdown = model.predict_run_components(run);
                assert_eq!(breakdown.is_some(), kind.resolves_components(), "{kind}");
                if let Some(b) = breakdown {
                    for (component, entry) in b.iter() {
                        assert!(
                            entry.total.is_finite() && entry.total >= 0.0,
                            "{kind} {component}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn component_resolving_lists_three_models_in_paper_order() {
        assert_eq!(
            ModelKind::component_resolving(),
            vec![
                ModelKind::AutoPower,
                ModelKind::McpatCalibComponent,
                ModelKind::AutoPowerMinus,
            ]
        );
    }

    #[test]
    fn training_errors_propagate_through_the_registry() {
        let c = corpus();
        for kind in ModelKind::ALL {
            assert!(
                matches!(kind.train(&c, &[]), Err(AutoPowerError::NoTrainingConfigs)),
                "{kind} accepted empty training"
            );
        }
    }

    #[test]
    fn duplicate_training_configs_error_with_the_config_name() {
        let c = corpus();
        let dup = [ConfigId::new(1), ConfigId::new(15), ConfigId::new(1)];
        for kind in ModelKind::ALL {
            let err = kind.train(&c, &dup).unwrap_err();
            assert_eq!(
                err,
                AutoPowerError::DuplicateTrainingConfig(ConfigId::new(1))
            );
            assert!(err.to_string().contains("C1"), "{kind}: {err}");
        }
    }

    #[test]
    fn missing_training_configs_error_with_the_config_name() {
        let c = corpus();
        // C3 is a valid seed id but absent from this corpus.
        let missing = [ConfigId::new(1), ConfigId::new(3)];
        for kind in ModelKind::ALL {
            let err = kind.train(&c, &missing).unwrap_err();
            assert_eq!(err, AutoPowerError::MissingConfig(ConfigId::new(3)));
            assert!(err.to_string().contains("C3"), "{kind}: {err}");
        }
    }

    #[test]
    fn boxed_models_are_shareable_across_threads() {
        fn check<T: Send + Sync + ?Sized>() {}
        check::<dyn PowerModel>();
        check::<Box<dyn PowerModel>>();
    }
}
