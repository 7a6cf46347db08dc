//! The AutoPower− ablation baseline (Figs. 7 and 8 of the paper).
//!
//! AutoPower− keeps the *first* level of decoupling — separate models per power group —
//! but drops the second: instead of the structural sub-models (register count, gating
//! rate, scaling-pattern block shapes, macro mapping …) it applies a direct ML model per
//! component and per power group.

use crate::dataset::Corpus;
use crate::error::AutoPowerError;
use crate::features::{model_feature_matrix, FeatureScratch, GroupColumns, ModelFeatures};
use crate::power_model::{ModelKind, PowerModel, PredictInput};
use crate::prediction::{ComponentBreakdown, Prediction};
use autopower_config::{Component, ConfigId};
use autopower_ml::GradientBoosting;
use serde::codec::{Codec, CodecError, Reader, Writer};

/// The four power groups a model is trained for.
const GROUPS: usize = 4;

/// Direct per-group ML baseline.
#[derive(Debug, Clone)]
pub struct AutoPowerMinus {
    /// `models[component][group]` with groups ordered clock, sram, register, comb.
    models: Vec<[GradientBoosting; GROUPS]>,
}

impl AutoPowerMinus {
    /// Trains the ablation baseline on the runs of `train_configs`.
    ///
    /// # Errors
    ///
    /// Returns an error if a per-component per-group model cannot be fitted.
    pub fn train(corpus: &Corpus, train_configs: &[ConfigId]) -> Result<Self, AutoPowerError> {
        if train_configs.is_empty() {
            return Err(AutoPowerError::NoTrainingConfigs);
        }
        let runs = corpus.training_runs(train_configs);
        let mut models = Vec::with_capacity(Component::ALL.len());
        for &component in &Component::ALL {
            // One flat feature matrix per component feeds all four group fits.
            let matrix = model_feature_matrix(ModelFeatures::HW_EVENTS, component, &runs)
                .ok_or_else(|| {
                    AutoPowerError::fit(component, "direct group power")(
                        autopower_ml::FitError::EmptyTrainingSet,
                    )
                })?;
            let group_targets: [Vec<f64>; GROUPS] = [
                runs.iter()
                    .map(|r| r.golden.component(component).clock)
                    .collect(),
                runs.iter()
                    .map(|r| r.golden.component(component).sram)
                    .collect(),
                runs.iter()
                    .map(|r| r.golden.component(component).register)
                    .collect(),
                runs.iter()
                    .map(|r| r.golden.component(component).combinational)
                    .collect(),
            ];
            let mut fitted: Vec<GradientBoosting> = Vec::with_capacity(GROUPS);
            for targets in &group_targets {
                let mut model = GradientBoosting::default();
                model
                    .fit_matrix(&matrix, targets)
                    .map_err(AutoPowerError::fit(component, "direct group power"))?;
                fitted.push(model);
            }
            models.push(
                fitted
                    .try_into()
                    .expect("exactly four group models were fitted"),
            );
        }
        Ok(Self { models })
    }
}

impl PowerModel for AutoPowerMinus {
    fn kind(&self) -> ModelKind {
        ModelKind::AutoPowerMinus
    }

    /// Fully component- and group-resolved: the typed prediction carries one
    /// group split per component, scored forest-major (per component, one
    /// feature matrix feeds all four group models), and the core-level
    /// groups/total are their [`Component::ALL`]-ordered sum.
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
            columns,
            ..
        } = scratch;
        let GroupColumns {
            clock,
            sram,
            register,
            combinational,
        } = columns;
        let mut group_columns = [clock, sram, register, combinational];
        for column in group_columns.iter_mut() {
            column.clear();
        }
        // Appending component by component fills the columns
        // component-major.
        for (&component, models) in Component::ALL.iter().zip(&self.models) {
            matrix.score_features(ModelFeatures::HW_EVENTS, component, points, |x| {
                for (model, column) in models.iter().zip(group_columns.iter_mut()) {
                    model.forest().predict_into(x, raw);
                    column.extend(raw.iter().map(|v| v.max(0.0)));
                }
            });
        }
        out.extend((0..n).map(|i| {
            Prediction::per_component(ComponentBreakdown::from_groups(|component| {
                columns.component(component, n, i)
            }))
        }));
    }

    fn serialize(&self, w: &mut Writer) {
        Codec::encode(self, w);
    }
}

impl Codec for AutoPowerMinus {
    fn encode(&self, w: &mut Writer) {
        w.begin("autopower-minus");
        w.begin_list("components", self.models.len());
        for group_models in &self.models {
            w.begin_list("groups", group_models.len());
            for model in group_models {
                model.encode(w);
            }
            w.end();
        }
        w.end();
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("autopower-minus")?;
        let components = r.begin_list("components")?;
        if components != Component::ALL.len() {
            return Err(CodecError::new(
                r.line(),
                format!(
                    "autopower-minus has {components} components, expected {}",
                    Component::ALL.len()
                ),
            ));
        }
        let mut models = Vec::with_capacity(components);
        for _ in 0..components {
            let groups = r.begin_list("groups")?;
            if groups != GROUPS {
                return Err(CodecError::new(
                    r.line(),
                    format!("autopower-minus has {groups} group models, expected {GROUPS}"),
                ));
            }
            let mut fitted = Vec::with_capacity(GROUPS);
            for _ in 0..GROUPS {
                fitted.push(GradientBoosting::decode(r)?);
            }
            r.end()?;
            models.push(
                fitted
                    .try_into()
                    .expect("exactly four group models were decoded"),
            );
        }
        r.end()?;
        r.end()?;
        Ok(Self { models })
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
    fn per_group_predictions_are_physical() {
        let c = corpus();
        let m = AutoPowerMinus::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        for run in c.runs() {
            let p = m.predict_run(run);
            assert!(p.is_physical());
            assert!(p.total() > 0.0);
        }
    }

    #[test]
    fn sram_free_components_predict_near_zero_sram_power() {
        let c = corpus();
        let m = AutoPowerMinus::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        let run = c.run(ConfigId::new(8), Workload::Vvadd).unwrap();
        let breakdown = m.predict_run_components(run).unwrap();
        let p = breakdown.component(Component::FuPool).groups.unwrap();
        assert!(p.sram < 1e-6, "FU pool has no SRAM, predicted {}", p.sram);
    }

    #[test]
    fn in_sample_totals_are_close() {
        let c = corpus();
        let train = [ConfigId::new(1), ConfigId::new(15)];
        let m = AutoPowerMinus::train(&c, &train).unwrap();
        for run in c.training_runs(&train) {
            let pred = m.predict_run(run).total();
            let truth = run.golden.total_mw();
            assert!(((pred - truth) / truth).abs() < 0.15, "{pred} vs {truth}");
        }
    }

    #[test]
    fn rejects_empty_training() {
        let c = corpus();
        assert!(AutoPowerMinus::train(&c, &[]).is_err());
    }
}
