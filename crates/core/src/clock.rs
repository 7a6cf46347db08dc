//! The clock power model (Section II-A of the paper).
//!
//! Clock power is decoupled as `P_clk = R·(1−g)·p_reg + α′·R·g` (Eq. 7): the register
//! count `R` and gating rate `g` are predicted from hardware parameters with ridge
//! regression, the effective active rate `α′` (which folds in the per-register pin power
//! and the clock-gating-cell overhead of Eq. 6) is predicted from hardware *and* event
//! parameters with gradient-boosted trees, and `p_reg` is looked up from the technology
//! library.

use crate::dataset::{Corpus, RunData};
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

/// Per-component sub-models of the clock power model.
#[derive(Debug, Clone)]
struct ComponentClockModel {
    /// Register-count model `F_reg(H)`.
    freg: RidgeRegression,
    /// Gating-rate model `F_gate(H)`.
    fgate: RidgeRegression,
    /// Effective-active-rate model `F_α′(H, E)` (the α′ of Eq. 6, in mW per gated
    /// register, i.e. with `p_reg` and the gating-cell overhead folded in).
    falpha: GradientBoosting,
}

impl ComponentClockModel {
    /// Register count `R` from the component's hardware row.
    fn register_count(&self, hw: &[f64]) -> f64 {
        self.freg.predict(hw).max(1.0)
    }

    /// Gating rate `g` from the component's hardware row.
    fn gating_rate(&self, hw: &[f64]) -> f64 {
        self.fgate.predict(hw).clamp(0.0, 0.99)
    }
}

/// The clock power model: one set of decoupled sub-models per component.
#[derive(Debug, Clone)]
pub struct ClockPowerModel {
    per_component: Vec<ComponentClockModel>,
    /// Clock-pin power per register, looked up from the technology library.
    preg_mw: f64,
}

impl ClockPowerModel {
    /// Trains the clock model on the runs of `train_configs`.
    ///
    /// Register-count and gating-rate labels are read from the training netlists (one
    /// sample per configuration); effective-active-rate labels are derived from the
    /// golden clock power of every training `(configuration, workload)` run.
    ///
    /// # Errors
    ///
    /// Returns an error if a sub-model cannot be fitted (e.g. no training runs).
    pub fn train(corpus: &Corpus, train_configs: &[ConfigId]) -> Result<Self, AutoPowerError> {
        if train_configs.is_empty() {
            return Err(AutoPowerError::NoTrainingConfigs);
        }
        for id in train_configs {
            if corpus.runs_for(*id).is_empty() {
                return Err(AutoPowerError::MissingConfig(*id));
            }
        }
        let preg_mw = corpus.library().cells().register_clock_pin_mw;
        let runs = corpus.training_runs(train_configs);

        let per_component = Component::ALL
            .iter()
            .map(|&component| {
                Self::train_component(component, corpus, train_configs, &runs, preg_mw)
            })
            .collect::<Result<Vec<_>, _>>()?;

        Ok(Self {
            per_component,
            preg_mw,
        })
    }

    fn train_component(
        component: Component,
        corpus: &Corpus,
        train_configs: &[ConfigId],
        runs: &[&RunData],
        preg_mw: f64,
    ) -> Result<ComponentClockModel, AutoPowerError> {
        // One structural sample per training configuration.
        let mut hw_rows = Vec::new();
        let mut reg_targets = Vec::new();
        let mut gate_targets = Vec::new();
        for &id in train_configs {
            let run = corpus.runs_for(id)[0];
            let netlist = run.netlist.component(component);
            hw_rows.push(hw_features(component, &run.config));
            reg_targets.push(netlist.registers as f64);
            gate_targets.push(netlist.gating_rate());
        }
        let mut freg = RidgeRegression::default();
        freg.fit(&hw_rows, &reg_targets)
            .map_err(AutoPowerError::fit(component, "register count"))?;
        let mut fgate = RidgeRegression::default();
        fgate
            .fit(&hw_rows, &gate_targets)
            .map_err(AutoPowerError::fit(component, "gating rate"))?;

        // One activity sample per training (configuration, workload) run.
        let mut alpha_targets = Vec::with_capacity(runs.len());
        for run in runs {
            let netlist = run.netlist.component(component);
            let r = netlist.registers as f64;
            let g = netlist.gating_rate();
            let gated = r * g;
            let golden_clock = run.golden.component(component).clock;
            let ungated_part = r * (1.0 - g) * preg_mw;
            let alpha_eff = if gated > 1e-9 {
                ((golden_clock - ungated_part) / gated).max(0.0)
            } else {
                0.0
            };
            alpha_targets.push(alpha_eff);
        }
        let he_matrix = model_feature_matrix(ModelFeatures::HW_EVENTS, component, runs)
            .ok_or_else(|| {
                AutoPowerError::fit(component, "effective active rate")(
                    autopower_ml::FitError::EmptyTrainingSet,
                )
            })?;
        let mut falpha = GradientBoosting::default();
        falpha
            .fit_matrix(&he_matrix, &alpha_targets)
            .map_err(AutoPowerError::fit(component, "effective active rate"))?;

        Ok(ComponentClockModel {
            freg,
            fgate,
            falpha,
        })
    }

    /// Predicted register count of one component.
    pub fn predict_register_count(&self, component: Component, config: &CpuConfig) -> f64 {
        self.per_component[component.index()].register_count(&hw_features(component, config))
    }

    /// Predicted gating rate of one component.
    pub fn predict_gating_rate(&self, component: Component, config: &CpuConfig) -> f64 {
        self.per_component[component.index()].gating_rate(&hw_features(component, config))
    }

    /// Predicted clock power of the whole core in mW: a batch of one through
    /// the batch path the sweep engine scores.
    pub fn predict_with(
        &self,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
        scratch: &mut FeatureScratch,
    ) -> f64 {
        self.predict_batch_into(&[PredictInput::new(config, events, workload)], scratch);
        fold_column(&scratch.columns.clock, 1, 0)
    }

    /// Writes each component's clock power (Eq. 7) at every point into the
    /// scratch's clock column, scoring forest-major: each component's α′
    /// ensemble walks the entire batch before the next component's, so an
    /// ensemble's nodes stay cache-resident across the batch.  Each point's
    /// hardware row is assembled once per component and feeds both the
    /// register-count and the gating-rate model.
    pub(crate) fn predict_batch_into(
        &self,
        points: &[PredictInput<'_>],
        scratch: &mut FeatureScratch,
    ) {
        let n = points.len();
        let FeatureScratch {
            row,
            matrix,
            ensembles: [alphas, _],
            columns,
        } = scratch;
        reset_column(&mut columns.clock, n);
        for &component in Component::ALL.iter() {
            let m = &self.per_component[component.index()];
            matrix.score_features(ModelFeatures::HW_EVENTS, component, points, |x| {
                m.falpha.forest().predict_into(x, alphas)
            });
            let terms = &mut columns.clock[component.index() * n..][..n];
            for ((term, p), alpha) in terms.iter_mut().zip(points).zip(alphas.iter()) {
                row.clear();
                hw_features_into(component, p.config, row);
                let r = m.register_count(row);
                let g = m.gating_rate(row);
                *term = r * (1.0 - g) * self.preg_mw + alpha.max(0.0) * r * g;
            }
        }
    }

    /// The register clock-pin power used by the model (from the technology library).
    pub fn preg_mw(&self) -> f64 {
        self.preg_mw
    }
}

impl Codec for ComponentClockModel {
    fn encode(&self, w: &mut Writer) {
        w.begin("clock-component");
        self.freg.encode(w);
        self.fgate.encode(w);
        self.falpha.encode(w);
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("clock-component")?;
        let freg = RidgeRegression::decode(r)?;
        let fgate = RidgeRegression::decode(r)?;
        let falpha = GradientBoosting::decode(r)?;
        r.end()?;
        Ok(Self {
            freg,
            fgate,
            falpha,
        })
    }
}

impl Codec for ClockPowerModel {
    fn encode(&self, w: &mut Writer) {
        w.begin("clock");
        w.f64("preg_mw", self.preg_mw);
        w.begin_list("components", self.per_component.len());
        for component in &self.per_component {
            component.encode(w);
        }
        w.end();
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("clock")?;
        let preg_mw = r.f64("preg_mw")?;
        let len = r.begin_list("components")?;
        if len != Component::ALL.len() {
            return Err(CodecError::new(
                r.line(),
                format!(
                    "clock model has {len} components, expected {}",
                    Component::ALL.len()
                ),
            ));
        }
        let mut per_component = Vec::with_capacity(len);
        for _ in 0..len {
            per_component.push(ComponentClockModel::decode(r)?);
        }
        r.end()?;
        r.end()?;
        Ok(Self {
            per_component,
            preg_mw,
        })
    }
}

#[cfg(test)]
impl ClockPowerModel {
    /// Every boosted sub-model, component by component.
    pub(crate) fn boosted(&self) -> impl Iterator<Item = &GradientBoosting> {
        self.per_component.iter().map(|c| &c.falpha)
    }

    /// Eq. 7 for one component at one point from per-row predictions: the
    /// reference the batch path is checked against.
    pub(crate) fn reference_component(
        &self,
        component: Component,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
    ) -> f64 {
        let m = &self.per_component[component.index()];
        let hw = hw_features(component, config);
        let r = m.freg.predict(&hw).max(1.0);
        let g = m.fgate.predict(&hw).clamp(0.0, 0.99);
        let row = crate::features::model_features(
            ModelFeatures::HW_EVENTS,
            component,
            config,
            events,
            workload,
        );
        let alpha_eff = m.falpha.predict(&row).max(0.0);
        r * (1.0 - g) * self.preg_mw + alpha_eff * r * g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::CorpusSpec;
    use autopower_config::{boom_configs, Workload};
    use autopower_ml::metrics;

    fn predict(model: &ClockPowerModel, run: &RunData) -> f64 {
        model.predict_with(
            &run.config,
            &run.sim.events,
            run.workload,
            &mut FeatureScratch::new(),
        )
    }

    fn corpus() -> Corpus {
        let cfgs = boom_configs();
        Corpus::generate(
            &[cfgs[0], cfgs[7], cfgs[14]],
            &[Workload::Dhrystone, Workload::Qsort, Workload::Vvadd],
            &CorpusSpec::fast(),
        )
    }

    #[test]
    fn training_requires_configs_present_in_the_corpus() {
        let c = corpus();
        assert!(matches!(
            ClockPowerModel::train(&c, &[]),
            Err(AutoPowerError::NoTrainingConfigs)
        ));
        assert!(matches!(
            ClockPowerModel::train(&c, &[ConfigId::new(3)]),
            Err(AutoPowerError::MissingConfig(_))
        ));
    }

    #[test]
    fn register_count_prediction_is_accurate_on_held_out_config() {
        let c = corpus();
        let model = ClockPowerModel::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        let test_run = c.run(ConfigId::new(8), Workload::Dhrystone).unwrap();
        let mut truths = Vec::new();
        let mut preds = Vec::new();
        for comp in Component::ALL {
            truths.push(test_run.netlist.component(comp).registers as f64);
            preds.push(model.predict_register_count(comp, &test_run.config));
        }
        let mape = metrics::mape(&truths, &preds);
        // The paper reports ~6.9 % MAPE for R and g with 2 known configurations.
        assert!(mape < 0.20, "register count MAPE {mape}");
    }

    #[test]
    fn gating_rate_stays_in_range_and_close_to_truth() {
        let c = corpus();
        let model = ClockPowerModel::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        let test_run = c.run(ConfigId::new(8), Workload::Vvadd).unwrap();
        for comp in Component::ALL {
            let g = model.predict_gating_rate(comp, &test_run.config);
            assert!((0.0..=0.99).contains(&g));
            let truth = test_run.netlist.component(comp).gating_rate();
            assert!((g - truth).abs() < 0.15, "{comp}: {g} vs {truth}");
        }
    }

    #[test]
    fn clock_power_prediction_tracks_golden_clock_power() {
        let c = corpus();
        let model = ClockPowerModel::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        let mut truths = Vec::new();
        let mut preds = Vec::new();
        for run in c.test_runs(&[ConfigId::new(1), ConfigId::new(15)]) {
            truths.push(run.golden.total.clock);
            preds.push(predict(&model, run));
        }
        let mape = metrics::mape(&truths, &preds);
        assert!(mape < 0.30, "clock power MAPE {mape}");
    }

    #[test]
    fn in_sample_prediction_is_tight() {
        let c = corpus();
        let train = [ConfigId::new(1), ConfigId::new(15)];
        let model = ClockPowerModel::train(&c, &train).unwrap();
        for run in c.training_runs(&train) {
            let pred = predict(&model, run);
            let truth = run.golden.total.clock;
            assert!(
                ((pred - truth) / truth).abs() < 0.15,
                "in-sample clock power {pred} vs {truth}"
            );
        }
    }
}
