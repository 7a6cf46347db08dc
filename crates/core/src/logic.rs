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
    batch_feature_matrix, hw_features, hw_features_into, model_feature_matrix, model_features_into,
    FeatureScratch, ModelFeatures,
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

    /// Predicted register (non-clock) power of one component in mW.
    pub fn predict_register_component(
        &self,
        component: Component,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
    ) -> f64 {
        self.predict_register_component_with(
            component,
            config,
            events,
            workload,
            &mut FeatureScratch::new(),
        )
    }

    /// [`LogicPowerModel::predict_register_component`] with a reusable feature
    /// scratch (the allocation-free batch-inference path).
    pub fn predict_register_component_with(
        &self,
        component: Component,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
        scratch: &mut FeatureScratch,
    ) -> f64 {
        let m = &self.per_component[component.index()];
        let row = scratch.row_mut();
        hw_features_into(component, config, row);
        let r = m.reg_hardware.predict(row).max(1.0);
        let row = scratch.row_mut();
        model_features_into(
            ModelFeatures::HW_EVENTS,
            component,
            config,
            events,
            workload,
            row,
        );
        let per_reg = m.reg_activity.predict(row).max(0.0);
        r * per_reg
    }

    /// Predicted combinational power of one component in mW.
    pub fn predict_comb_component(
        &self,
        component: Component,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
    ) -> f64 {
        self.predict_comb_component_with(
            component,
            config,
            events,
            workload,
            &mut FeatureScratch::new(),
        )
    }

    /// [`LogicPowerModel::predict_comb_component`] with a reusable feature
    /// scratch.
    pub fn predict_comb_component_with(
        &self,
        component: Component,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
        scratch: &mut FeatureScratch,
    ) -> f64 {
        let m = &self.per_component[component.index()];
        let row = scratch.row_mut();
        hw_features_into(component, config, row);
        let stable = m.comb_stable.predict(row).max(0.0);
        let row = scratch.row_mut();
        model_features_into(
            ModelFeatures::HW_EVENTS,
            component,
            config,
            events,
            workload,
            row,
        );
        let variation = m.comb_variation.predict(row).max(0.0);
        stable * variation
    }

    /// Predicted register power of the whole core in mW.
    pub fn predict_register(
        &self,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
    ) -> f64 {
        self.predict_register_with(config, events, workload, &mut FeatureScratch::new())
    }

    /// [`LogicPowerModel::predict_register`] with a reusable feature scratch.
    pub fn predict_register_with(
        &self,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
        scratch: &mut FeatureScratch,
    ) -> f64 {
        Component::ALL
            .iter()
            .map(|&c| self.predict_register_component_with(c, config, events, workload, scratch))
            .sum()
    }

    /// Predicted combinational power of the whole core in mW.
    pub fn predict_comb(
        &self,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
    ) -> f64 {
        self.predict_comb_with(config, events, workload, &mut FeatureScratch::new())
    }

    /// [`LogicPowerModel::predict_comb`] with a reusable feature scratch.
    pub fn predict_comb_with(
        &self,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
        scratch: &mut FeatureScratch,
    ) -> f64 {
        Component::ALL
            .iter()
            .map(|&c| self.predict_comb_component_with(c, config, events, workload, scratch))
            .sum()
    }

    /// Accumulates whole-core register power into `reg_acc` and combinational
    /// power into `comb_acc` (`reg_acc[i] += P_reg(points[i])`, likewise for
    /// comb), scoring forest-major: per component, one shared `HW_EVENTS`
    /// feature matrix feeds the activity ensemble and then the variation
    /// ensemble over the entire batch, keeping each ensemble's nodes
    /// cache-resident.  Bit-identical to [`LogicPowerModel::predict_register_with`]
    /// and [`LogicPowerModel::predict_comb_with`] per point.
    pub(crate) fn predict_batch_into(
        &self,
        points: &[PredictInput<'_>],
        scratch: &mut FeatureScratch,
        reg_acc: &mut [f64],
        comb_acc: &mut [f64],
    ) {
        debug_assert_eq!(points.len(), reg_acc.len());
        debug_assert_eq!(points.len(), comb_acc.len());
        if points.is_empty() {
            return;
        }
        let mut ensemble = Vec::with_capacity(points.len());
        for &component in Component::ALL.iter() {
            let m = &self.per_component[component.index()];
            let matrix = batch_feature_matrix(ModelFeatures::HW_EVENTS, component, points);
            m.reg_activity.forest().predict_into(&matrix, &mut ensemble);
            for (i, p) in points.iter().enumerate() {
                let row = scratch.row_mut();
                hw_features_into(component, p.config, row);
                let r = m.reg_hardware.predict(row).max(1.0);
                reg_acc[i] += r * ensemble[i].max(0.0);
            }
            m.comb_variation
                .forest()
                .predict_into(&matrix, &mut ensemble);
            for (i, p) in points.iter().enumerate() {
                let row = scratch.row_mut();
                hw_features_into(component, p.config, row);
                let stable = m.comb_stable.predict(row).max(0.0);
                comb_acc[i] += stable * ensemble[i].max(0.0);
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
            preds.push(
                model.predict_register(&run.config, &run.sim.events, run.workload)
                    + model.predict_comb(&run.config, &run.sim.events, run.workload),
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
            let pred = model.predict_comb(&run.config, &run.sim.events, run.workload);
            assert!(((pred - truth) / truth).abs() < 0.2, "{pred} vs {truth}");
        }
    }

    #[test]
    fn predictions_are_non_negative() {
        let c = corpus();
        let model = LogicPowerModel::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        for run in c.runs() {
            for comp in Component::ALL {
                assert!(
                    model.predict_register_component(
                        comp,
                        &run.config,
                        &run.sim.events,
                        run.workload
                    ) >= 0.0
                );
                assert!(
                    model.predict_comb_component(comp, &run.config, &run.sim.events, run.workload)
                        >= 0.0
                );
            }
        }
    }

    #[test]
    fn training_without_configs_fails() {
        let c = corpus();
        assert!(LogicPowerModel::train(&c, &[]).is_err());
    }
}
