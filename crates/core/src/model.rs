//! The end-to-end AutoPower model: power group decoupling assembled.

use crate::clock::ClockPowerModel;
use crate::dataset::{Corpus, RunData};
use crate::error::AutoPowerError;
use crate::features::{FeatureScratch, ModelFeatures};
use crate::logic::LogicPowerModel;
use crate::power_model::{ModelKind, PowerModel, PredictInput};
use crate::prediction::{ComponentBreakdown, Prediction};
use crate::serialize::{decode_library, encode_library};
use crate::sram::SramPowerModel;
use autopower_config::{Component, ConfigId, CpuConfig, Workload};
use autopower_perfsim::EventParams;
use autopower_powersim::PowerGroups;
use autopower_techlib::TechLibrary;
use serde::codec::{Codec, CodecError, Reader, Writer};

/// The full AutoPower model: one decoupled model per power group.
#[derive(Debug, Clone)]
pub struct AutoPower {
    clock: ClockPowerModel,
    sram: SramPowerModel,
    logic: LogicPowerModel,
    library: TechLibrary,
}

impl AutoPower {
    /// Trains AutoPower on the runs of `train_configs` (the few *known* configurations).
    ///
    /// # Errors
    ///
    /// Returns an error if any sub-model cannot be fitted or a requested configuration is
    /// absent from the corpus.
    pub fn train(corpus: &Corpus, train_configs: &[ConfigId]) -> Result<Self, AutoPowerError> {
        Self::train_with_features(corpus, train_configs, ModelFeatures::HW_EVENTS_PROGRAM)
    }

    /// Trains AutoPower with an explicit SRAM-activity feature mode (used by the
    /// program-level-feature ablation).
    ///
    /// # Errors
    ///
    /// Returns an error if any sub-model cannot be fitted or a requested configuration is
    /// absent from the corpus.
    pub fn train_with_features(
        corpus: &Corpus,
        train_configs: &[ConfigId],
        sram_features: ModelFeatures,
    ) -> Result<Self, AutoPowerError> {
        Ok(Self {
            clock: ClockPowerModel::train(corpus, train_configs)?,
            sram: SramPowerModel::train_with_features(corpus, train_configs, sram_features)?,
            logic: LogicPowerModel::train(corpus, train_configs)?,
            library: corpus.library().clone(),
        })
    }

    /// The clock power model.
    pub fn clock_model(&self) -> &ClockPowerModel {
        &self.clock
    }

    /// The SRAM power model.
    pub fn sram_model(&self) -> &SramPowerModel {
        &self.sram
    }

    /// The logic power model.
    pub fn logic_model(&self) -> &LogicPowerModel {
        &self.logic
    }

    /// Predicts the per-group power of one `(configuration, workload)` point from
    /// architecture-level information only.
    pub fn predict(
        &self,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
    ) -> PowerGroups {
        self.predict_scratch(config, events, workload, &mut FeatureScratch::new())
    }

    /// [`AutoPower::predict`] with feature rows assembled in a reusable
    /// scratch — the allocation-free path the batch-inference engines drive.
    pub fn predict_scratch(
        &self,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
        scratch: &mut FeatureScratch,
    ) -> PowerGroups {
        PowerGroups {
            clock: self.clock.predict_with(config, events, workload, scratch),
            sram: self
                .sram
                .predict_with(config, events, workload, &self.library, scratch),
            register: self
                .logic
                .predict_register_with(config, events, workload, scratch),
            combinational: self
                .logic
                .predict_comb_with(config, events, workload, scratch),
        }
    }

    /// Predicts the per-group power of one component.
    pub fn predict_component(
        &self,
        component: Component,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
    ) -> PowerGroups {
        PowerGroups {
            clock: self
                .clock
                .predict_component(component, config, events, workload),
            sram: self
                .sram
                .predict_component(component, config, events, workload, &self.library),
            register: self
                .logic
                .predict_register_component(component, config, events, workload),
            combinational: self
                .logic
                .predict_comb_component(component, config, events, workload),
        }
    }

    /// Convenience: predicts the power of a corpus run from its reported events.
    pub fn predict_run(&self, run: &RunData) -> PowerGroups {
        self.predict(&run.config, &run.sim.events, run.workload)
    }

    /// Predicted total power in mW for one run.
    pub fn predict_total(&self, run: &RunData) -> f64 {
        self.predict_run(run).total()
    }
}

impl PowerModel for AutoPower {
    fn kind(&self) -> ModelKind {
        ModelKind::AutoPower
    }

    /// Group-resolved: the canonical core-level prediction of the decoupled
    /// group models.
    fn predict_with(
        &self,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
        scratch: &mut FeatureScratch,
    ) -> Prediction {
        Prediction::grouped(self.predict_scratch(config, events, workload, scratch))
    }

    /// Forest-major batch prediction: every sub-model ensemble scores the
    /// whole batch before the next one runs, instead of ~77 ensembles
    /// alternating per point and evicting each other from cache.
    /// Bit-identical to the per-point default (each sub-model's batch path
    /// pins that invariant), so the sweep engine batches freely without
    /// perturbing goldens.
    fn predict_batch_with(
        &self,
        points: &[PredictInput<'_>],
        scratch: &mut FeatureScratch,
        out: &mut Vec<Prediction>,
    ) {
        let n = points.len();
        let mut clock = vec![0.0; n];
        let mut sram = vec![0.0; n];
        let mut register = vec![0.0; n];
        let mut combinational = vec![0.0; n];
        self.clock.predict_batch_into(points, scratch, &mut clock);
        self.sram
            .predict_batch_into(points, &self.library, scratch, &mut sram);
        self.logic
            .predict_batch_into(points, scratch, &mut register, &mut combinational);
        out.clear();
        out.reserve(n);
        for i in 0..n {
            out.push(Prediction::grouped(PowerGroups {
                clock: clock[i],
                sram: sram[i],
                register: register[i],
                combinational: combinational[i],
            }));
        }
    }

    /// The per-component detail view (each component fully group-resolved).
    fn predict_components(
        &self,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
    ) -> Option<ComponentBreakdown> {
        Some(ComponentBreakdown::from_groups(|component| {
            self.predict_component(component, config, events, workload)
        }))
    }

    fn serialize(&self, w: &mut Writer) {
        Codec::encode(self, w);
    }
}

impl Codec for AutoPower {
    fn encode(&self, w: &mut Writer) {
        w.begin("autopower");
        self.clock.encode(w);
        self.sram.encode(w);
        self.logic.encode(w);
        encode_library(w, &self.library);
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("autopower")?;
        let clock = ClockPowerModel::decode(r)?;
        let sram = SramPowerModel::decode(r)?;
        let logic = LogicPowerModel::decode(r)?;
        let library = decode_library(r)?;
        r.end()?;
        Ok(Self {
            clock,
            sram,
            logic,
            library,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::CorpusSpec;
    use crate::evaluation::evaluate_totals;
    use autopower_config::boom_configs;

    fn corpus() -> Corpus {
        let cfgs = boom_configs();
        Corpus::generate(
            &[cfgs[0], cfgs[4], cfgs[7], cfgs[11], cfgs[14]],
            &[Workload::Dhrystone, Workload::Qsort, Workload::Vvadd],
            &CorpusSpec::fast(),
        )
    }

    #[test]
    fn every_few_shot_forest_is_scored_from_a_region_table() {
        let model = AutoPower::train(&corpus(), &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        let forests: Vec<_> = model
            .clock
            .boosted()
            .chain(model.sram.boosted())
            .chain(model.logic.boosted())
            .map(autopower_ml::GradientBoosting::forest)
            .collect();
        assert!(forests.len() > 50, "{} forests", forests.len());
        for (i, forest) in forests.iter().enumerate() {
            let cells = forest.region_cells();
            assert!(
                cells.is_some(),
                "forest {i} ({} shapes) has no table",
                forest.shape_count()
            );
        }
    }

    #[test]
    fn few_shot_training_predicts_unseen_configs_accurately() {
        let c = corpus();
        let train = [ConfigId::new(1), ConfigId::new(15)];
        let model = AutoPower::train(&c, &train).unwrap();
        let test_runs = c.test_runs(&train);
        let summary = evaluate_totals(&test_runs, |run| model.predict_total(run));
        // The paper reports 4.36 % MAPE / 0.96 R2 on the full 15-config corpus; on this
        // reduced test corpus we only require the same ballpark of quality.
        assert!(summary.mape < 0.15, "AutoPower MAPE {}", summary.mape);
        assert!(
            summary.r_squared > 0.8,
            "AutoPower R2 {}",
            summary.r_squared
        );
    }

    #[test]
    fn per_group_predictions_sum_to_the_total() {
        let c = corpus();
        let model = AutoPower::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        let run = c.run(ConfigId::new(8), Workload::Qsort).unwrap();
        let p = model.predict_run(run);
        assert!((p.total() - (p.clock + p.sram + p.register + p.combinational)).abs() < 1e-12);
        assert!(p.is_physical());
    }

    #[test]
    fn component_predictions_sum_close_to_core_prediction() {
        let c = corpus();
        let model = AutoPower::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        let run = c.run(ConfigId::new(8), Workload::Vvadd).unwrap();
        let core = model.predict_run(run);
        let mut sum = PowerGroups::default();
        for comp in Component::ALL {
            sum += model.predict_component(comp, &run.config, &run.sim.events, run.workload);
        }
        assert!((sum.total() - core.total()).abs() < 1e-9);
    }

    #[test]
    fn batched_prediction_is_bit_identical_to_per_point() {
        let c = corpus();
        let model = AutoPower::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        let runs = c.runs();
        let points: Vec<PredictInput<'_>> = runs
            .iter()
            .map(|run| PredictInput {
                config: &run.config,
                events: &run.sim.events,
                workload: run.workload,
            })
            .collect();
        let mut scratch = FeatureScratch::new();
        let mut batch = Vec::new();
        PowerModel::predict_batch_with(&model, &points, &mut scratch, &mut batch);
        assert_eq!(batch.len(), runs.len());
        for (run, batched) in runs.iter().zip(&batch) {
            let single = PowerModel::predict_with(
                &model,
                &run.config,
                &run.sim.events,
                run.workload,
                &mut scratch,
            );
            let (s, b) = (single.groups().unwrap(), batched.groups().unwrap());
            for (name, sv, bv) in [
                ("clock", s.clock, b.clock),
                ("sram", s.sram, b.sram),
                ("register", s.register, b.register),
                ("combinational", s.combinational, b.combinational),
            ] {
                assert_eq!(
                    sv.to_bits(),
                    bv.to_bits(),
                    "{name} drifted on {} {}: {sv} vs {bv}",
                    run.config.id,
                    run.workload,
                );
            }
            assert_eq!(single.total().to_bits(), batched.total().to_bits());
        }
    }

    #[test]
    fn training_errors_are_propagated() {
        let c = corpus();
        assert!(AutoPower::train(&c, &[]).is_err());
        assert!(AutoPower::train(&c, &[ConfigId::new(2)]).is_err());
    }
}
