//! The logic power model (Section II-C of the paper).
//!
//! Logic power is split into register power (excluding the clock pins, which belong to
//! the clock group) and combinational power:
//!
//! * register power: `P_reg = F_reg(H) · F_act(H, E)` — a hardware model for the register
//!   count times an activity model whose label is `P_reg / R`;
//! * combinational power: `P_comb = F_sta(H) · F_var(H, E)` — a *stable* power (the
//!   workload-average combinational power of a configuration, a purely hardware-related
//!   quantity) times a workload-specific *variation* ratio.

use crate::dataset::Corpus;
use crate::error::AutoPowerError;
use crate::features::{
    fold_column, hw_features, hw_features_into, model_feature_matrix, reset_column, FeatureScratch,
    ModelFeatures,
};
use crate::power_model::PredictInput;
use autopower_config::{Component, ConfigId, CpuConfig, Workload};
use autopower_ml::{GradientBoosting, Regressor, RidgeRegression};
use autopower_perfsim::EventParams;
use serde::codec::{Codec, CodecError, Reader, Writer};
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct ComponentLogicModel {
    /// Register-count hardware model `F_reg(H)`.
    reg_hardware: RidgeRegression,
    /// Register activity model `F_act(H, E)` (label: register power per register).
    reg_activity: GradientBoosting,
    /// Combinational stable-power model `F_sta(H)`.
    comb_stable: RidgeRegression,
    /// Combinational variation model `F_var(H, E)` (label: power / stable power).
    comb_variation: GradientBoosting,
}

/// The logic power model: register and combinational sub-models per component.
#[derive(Debug, Clone)]
pub struct LogicPowerModel {
    per_component: Vec<ComponentLogicModel>,
}

impl LogicPowerModel {
    /// Trains the logic model on the runs of `train_configs`.
    ///
    /// # Errors
    ///
    /// Returns an error if a sub-model cannot be fitted.
    pub fn train(corpus: &Corpus, train_configs: &[ConfigId]) -> Result<Self, AutoPowerError> {
        if train_configs.is_empty() {
            return Err(AutoPowerError::NoTrainingConfigs);
        }
        for id in train_configs {
            if corpus.runs_for(*id).is_empty() {
                return Err(AutoPowerError::MissingConfig(*id));
            }
        }
        let per_component = Component::ALL
            .iter()
            .map(|&component| Self::train_component(component, corpus, train_configs))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { per_component })
    }

    fn train_component(
        component: Component,
        corpus: &Corpus,
        train_configs: &[ConfigId],
    ) -> Result<ComponentLogicModel, AutoPowerError> {
        let runs = corpus.training_runs(train_configs);

        // --- Register power: hardware model (one sample per configuration). ---
        let mut hw_rows = Vec::new();
        let mut reg_targets = Vec::new();
        for &id in train_configs {
            let run = corpus.runs_for(id)[0];
            hw_rows.push(hw_features(component, &run.config));
            reg_targets.push(run.netlist.component(component).registers as f64);
        }
        let mut reg_hardware = RidgeRegression::default();
        reg_hardware
            .fit(&hw_rows, &reg_targets)
            .map_err(AutoPowerError::fit(component, "logic register count"))?;

        // --- Register power: activity model (one sample per run). ---
        // The activity and variation models consume the identical HW_EVENTS
        // row per run, so one flat matrix feeds both fits.
        let he_matrix = model_feature_matrix(ModelFeatures::HW_EVENTS, component, &runs)
            .ok_or_else(|| {
                AutoPowerError::fit(component, "register activity")(
                    autopower_ml::FitError::EmptyTrainingSet,
                )
            })?;
        let mut act_targets = Vec::with_capacity(runs.len());
        for run in &runs {
            let r = run.netlist.component(component).registers as f64;
            let p_reg = run.golden.component(component).register;
            act_targets.push(if r > 0.0 { p_reg / r } else { 0.0 });
        }
        let mut reg_activity = GradientBoosting::default();
        reg_activity
            .fit_matrix(&he_matrix, &act_targets)
            .map_err(AutoPowerError::fit(component, "register activity"))?;

        // --- Combinational power: stable model (workload-average per configuration). ---
        let mut per_config_mean: HashMap<ConfigId, (f64, usize)> = HashMap::new();
        for run in &runs {
            let entry = per_config_mean.entry(run.config.id).or_insert((0.0, 0));
            entry.0 += run.golden.component(component).combinational;
            entry.1 += 1;
        }
        let mut sta_rows = Vec::new();
        let mut sta_targets = Vec::new();
        let mut stable_by_config: HashMap<ConfigId, f64> = HashMap::new();
        for &id in train_configs {
            let run = corpus.runs_for(id)[0];
            let (sum, n) = per_config_mean[&id];
            let stable = sum / n as f64;
            stable_by_config.insert(id, stable);
            sta_rows.push(hw_features(component, &run.config));
            sta_targets.push(stable);
        }
        let mut comb_stable = RidgeRegression::default();
        comb_stable
            .fit(&sta_rows, &sta_targets)
            .map_err(AutoPowerError::fit(component, "combinational stable power"))?;

        // --- Combinational power: variation model (per run, label power / stable). ---
        let mut var_targets = Vec::with_capacity(runs.len());
        for run in &runs {
            let stable = stable_by_config[&run.config.id];
            let p = run.golden.component(component).combinational;
            var_targets.push(if stable > 0.0 { p / stable } else { 1.0 });
        }
        let mut comb_variation = GradientBoosting::default();
        comb_variation
            .fit_matrix(&he_matrix, &var_targets)
            .map_err(AutoPowerError::fit(component, "combinational variation"))?;

        Ok(ComponentLogicModel {
            reg_hardware,
            reg_activity,
            comb_stable,
            comb_variation,
        })
    }

    /// Predicted register power of the whole core in mW: a batch of one
    /// through the batch path the sweep engine scores.
    pub fn predict_register_with(
        &self,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
        scratch: &mut FeatureScratch,
    ) -> f64 {
        self.predict_batch_into(&[PredictInput::new(config, events, workload)], scratch);
        fold_column(&scratch.columns.register, 1, 0)
    }

    /// Predicted combinational power of the whole core in mW: a batch of one
    /// through the batch path the sweep engine scores.
    pub fn predict_comb_with(
        &self,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
        scratch: &mut FeatureScratch,
    ) -> f64 {
        self.predict_batch_into(&[PredictInput::new(config, events, workload)], scratch);
        fold_column(&scratch.columns.combinational, 1, 0)
    }

    /// Writes each component's register power `F_reg·F_act` and
    /// combinational power `F_sta·F_var` at every point into the scratch's
    /// register and combinational columns, scoring forest-major: per
    /// component, one shared `HW_EVENTS` feature matrix feeds the activity
    /// and then the variation ensemble over the entire batch, keeping each
    /// ensemble's nodes cache-resident.  Each point's hardware row is
    /// assembled once per component and feeds both ridge models.
    pub(crate) fn predict_batch_into(
        &self,
        points: &[PredictInput<'_>],
        scratch: &mut FeatureScratch,
    ) {
        let n = points.len();
        let FeatureScratch {
            row,
            matrix,
            ensembles: [activity, variation],
            columns,
        } = scratch;
        reset_column(&mut columns.register, n);
        reset_column(&mut columns.combinational, n);
        for &component in Component::ALL.iter() {
            let m = &self.per_component[component.index()];
            matrix.score_features(ModelFeatures::HW_EVENTS, component, points, |x| {
                m.reg_activity.forest().predict_into(x, activity);
                m.comb_variation.forest().predict_into(x, variation);
            });
            let at = component.index() * n;
            for (i, p) in points.iter().enumerate() {
                row.clear();
                hw_features_into(component, p.config, row);
                let r = m.reg_hardware.predict(row).max(1.0);
                let stable = m.comb_stable.predict(row).max(0.0);
                columns.register[at + i] = r * activity[i].max(0.0);
                columns.combinational[at + i] = stable * variation[i].max(0.0);
            }
        }
    }
}

impl Codec for ComponentLogicModel {
    fn encode(&self, w: &mut Writer) {
        w.begin("logic-component");
        self.reg_hardware.encode(w);
        self.reg_activity.encode(w);
        self.comb_stable.encode(w);
        self.comb_variation.encode(w);
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("logic-component")?;
        let reg_hardware = RidgeRegression::decode(r)?;
        let reg_activity = GradientBoosting::decode(r)?;
        let comb_stable = RidgeRegression::decode(r)?;
        let comb_variation = GradientBoosting::decode(r)?;
        r.end()?;
        Ok(Self {
            reg_hardware,
            reg_activity,
            comb_stable,
            comb_variation,
        })
    }
}

impl Codec for LogicPowerModel {
    fn encode(&self, w: &mut Writer) {
        w.begin("logic");
        w.begin_list("components", self.per_component.len());
        for component in &self.per_component {
            component.encode(w);
        }
        w.end();
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("logic")?;
        let len = r.begin_list("components")?;
        if len != Component::ALL.len() {
            return Err(CodecError::new(
                r.line(),
                format!(
                    "logic model has {len} components, expected {}",
                    Component::ALL.len()
                ),
            ));
        }
        let mut per_component = Vec::with_capacity(len);
        for _ in 0..len {
            per_component.push(ComponentLogicModel::decode(r)?);
        }
        r.end()?;
        r.end()?;
        Ok(Self { per_component })
    }
}

#[cfg(test)]
impl LogicPowerModel {
    /// Every boosted sub-model, component by component.
    pub(crate) fn boosted(&self) -> impl Iterator<Item = &GradientBoosting> {
        self.per_component
            .iter()
            .flat_map(|c| [&c.reg_activity, &c.comb_variation])
    }

    /// `(F_reg·F_act, F_sta·F_var)` for one component at one point from
    /// per-row predictions: the reference the batch path is checked against.
    pub(crate) fn reference_component(
        &self,
        component: Component,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
    ) -> (f64, f64) {
        let m = &self.per_component[component.index()];
        let hw = hw_features(component, config);
        let row = crate::features::model_features(
            ModelFeatures::HW_EVENTS,
            component,
            config,
            events,
            workload,
        );
        (
            m.reg_hardware.predict(&hw).max(1.0) * m.reg_activity.predict(&row).max(0.0),
            m.comb_stable.predict(&hw).max(0.0) * m.comb_variation.predict(&row).max(0.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::CorpusSpec;
    use autopower_config::boom_configs;
    use autopower_ml::metrics;

    fn corpus() -> Corpus {
        let cfgs = boom_configs();
        Corpus::generate(
            &[cfgs[0], cfgs[7], cfgs[14]],
            &[Workload::Dhrystone, Workload::Qsort, Workload::Vvadd],
            &CorpusSpec::fast(),
        )
    }

    #[test]
    fn logic_power_prediction_tracks_golden_power() {
        let c = corpus();
        let train = [ConfigId::new(1), ConfigId::new(15)];
        let model = LogicPowerModel::train(&c, &train).unwrap();
        let mut truths = Vec::new();
        let mut preds = Vec::new();
        for run in c.test_runs(&train) {
            truths.push(run.golden.total.logic());
            let mut scratch = FeatureScratch::new();
            let (config, events) = (&run.config, &run.sim.events);
            preds.push(
                model.predict_register_with(config, events, run.workload, &mut scratch)
                    + model.predict_comb_with(config, events, run.workload, &mut scratch),
            );
        }
        let mape = metrics::mape(&truths, &preds);
        assert!(mape < 0.35, "logic power MAPE {mape}");
    }

    #[test]
    fn in_sample_combinational_stable_times_variation_recovers_power() {
        let c = corpus();
        let train = [ConfigId::new(1), ConfigId::new(15)];
        let model = LogicPowerModel::train(&c, &train).unwrap();
        for run in c.training_runs(&train) {
            let truth = run.golden.total.combinational;
            let pred = model.predict_comb_with(
                &run.config,
                &run.sim.events,
                run.workload,
                &mut FeatureScratch::new(),
            );
            assert!(((pred - truth) / truth).abs() < 0.2, "{pred} vs {truth}");
        }
    }

    #[test]
    fn predictions_are_non_negative() {
        let c = corpus();
        let model = LogicPowerModel::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        let points: Vec<_> = c
            .runs()
            .iter()
            .map(|run| PredictInput::new(&run.config, &run.sim.events, run.workload))
            .collect();
        let mut scratch = FeatureScratch::new();
        model.predict_batch_into(&points, &mut scratch);
        let columns = &scratch.columns;
        assert_eq!(columns.register.len(), Component::ALL.len() * points.len());
        assert!(columns.register.iter().all(|&p| p >= 0.0));
        assert!(columns.combinational.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn training_without_configs_fails() {
        let c = corpus();
        assert!(LogicPowerModel::train(&c, &[]).is_err());
    }
}
