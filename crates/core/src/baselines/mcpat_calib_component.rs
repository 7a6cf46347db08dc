//! The "McPAT-Calib + Component" ablation baseline: one McPAT-Calib-style model per
//! component, summed.

use crate::dataset::Corpus;
use crate::error::AutoPowerError;
use crate::features::{model_feature_matrix, FeatureScratch, ModelFeatures};
use crate::power_model::{ModelKind, PowerModel, PredictInput};
use crate::prediction::{ComponentBreakdown, Prediction};
use autopower_config::{Component, ConfigId};
use autopower_ml::GradientBoosting;
use serde::codec::{Codec, CodecError, Reader, Writer};

/// Per-component total-power baseline (the extra ablation of Fig. 6).
#[derive(Debug, Clone)]
pub struct McpatCalibComponent {
    per_component: Vec<GradientBoosting>,
}

impl McpatCalibComponent {
    /// Trains one model per component on the runs of `train_configs`.
    ///
    /// # Errors
    ///
    /// Returns an error if a per-component model cannot be fitted.
    pub fn train(corpus: &Corpus, train_configs: &[ConfigId]) -> Result<Self, AutoPowerError> {
        if train_configs.is_empty() {
            return Err(AutoPowerError::NoTrainingConfigs);
        }
        let runs = corpus.training_runs(train_configs);
        let per_component = Component::ALL
            .iter()
            .map(|&component| {
                let matrix = model_feature_matrix(ModelFeatures::HW_EVENTS, component, &runs)
                    .ok_or_else(|| {
                        AutoPowerError::fit(component, "per-component total power")(
                            autopower_ml::FitError::EmptyTrainingSet,
                        )
                    })?;
                let targets: Vec<f64> = runs
                    .iter()
                    .map(|r| r.golden.component(component).total())
                    .collect();
                let mut model = GradientBoosting::default();
                model
                    .fit_matrix(&matrix, &targets)
                    .map_err(AutoPowerError::fit(component, "per-component total power"))?;
                Ok(model)
            })
            .collect::<Result<Vec<_>, AutoPowerError>>()?;
        Ok(Self { per_component })
    }
}

impl PowerModel for McpatCalibComponent {
    fn kind(&self) -> ModelKind {
        ModelKind::McpatCalibComponent
    }

    /// Component-resolved, but without per-component groups: each component
    /// carries its predicted scalar, and the core-level total is their sum.
    fn predict_batch_with(
        &self,
        points: &[PredictInput<'_>],
        scratch: &mut FeatureScratch,
        out: &mut Vec<Prediction>,
    ) {
        out.clear();
        if points.is_empty() {
            return;
        }
        let n = points.len();
        let FeatureScratch {
            matrix,
            ensembles: [raw, _],
            ..
        } = scratch;
        // Component-major: component `c`'s total at point `i` is at
        // `[c.index() * n + i]`.
        let mut totals = Vec::with_capacity(Component::ALL.len() * n);
        for (&component, model) in Component::ALL.iter().zip(&self.per_component) {
            matrix.score_features(ModelFeatures::HW_EVENTS, component, points, |x| {
                model.forest().predict_into(x, raw)
            });
            totals.extend(raw.iter().map(|t| t.max(0.0)));
        }
        out.extend((0..n).map(|i| {
            Prediction::per_component(ComponentBreakdown::from_totals(|component| {
                totals[component.index() * n + i]
            }))
        }));
    }

    fn serialize(&self, w: &mut Writer) {
        Codec::encode(self, w);
    }
}

impl Codec for McpatCalibComponent {
    fn encode(&self, w: &mut Writer) {
        w.begin("mcpat-calib-component");
        w.begin_list("models", self.per_component.len());
        for model in &self.per_component {
            model.encode(w);
        }
        w.end();
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("mcpat-calib-component")?;
        let len = r.begin_list("models")?;
        if len != Component::ALL.len() {
            return Err(CodecError::new(
                r.line(),
                format!(
                    "mcpat-calib-component has {len} models, expected {}",
                    Component::ALL.len()
                ),
            ));
        }
        let mut per_component = Vec::with_capacity(len);
        for _ in 0..len {
            per_component.push(GradientBoosting::decode(r)?);
        }
        r.end()?;
        r.end()?;
        Ok(Self { per_component })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::CorpusSpec;
    use autopower_config::{boom_configs, Workload};

    fn corpus() -> Corpus {
        let cfgs = boom_configs();
        Corpus::generate(
            &[cfgs[0], cfgs[7], cfgs[14]],
            &[Workload::Dhrystone, Workload::Vvadd],
            &CorpusSpec::fast(),
        )
    }

    #[test]
    fn component_sum_equals_core_prediction() {
        let c = corpus();
        let m = McpatCalibComponent::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        let run = c.run(ConfigId::new(8), Workload::Vvadd).unwrap();
        let sum: f64 = m
            .predict_run_components(run)
            .unwrap()
            .iter()
            .map(|(_, entry)| entry.total)
            .sum();
        assert!((sum - m.predict_total(run)).abs() < 1e-9);
    }

    #[test]
    fn in_sample_fit_is_tight() {
        let c = corpus();
        let train = [ConfigId::new(1), ConfigId::new(15)];
        let m = McpatCalibComponent::train(&c, &train).unwrap();
        for run in c.training_runs(&train) {
            let pred = m.predict_total(run);
            let truth = run.golden.total_mw();
            assert!(((pred - truth) / truth).abs() < 0.15, "{pred} vs {truth}");
        }
    }

    #[test]
    fn rejects_empty_training() {
        let c = corpus();
        assert!(McpatCalibComponent::train(&c, &[]).is_err());
    }
}
