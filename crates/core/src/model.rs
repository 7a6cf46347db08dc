//! The end-to-end AutoPower model: power group decoupling assembled.

use crate::clock::ClockPowerModel;
use crate::dataset::Corpus;
use crate::error::AutoPowerError;
use crate::features::{FeatureScratch, ModelFeatures};
use crate::logic::LogicPowerModel;
use crate::pipeline::parallel_map;
use crate::power_model::{ModelKind, PowerModel, PredictInput};
use crate::prediction::{ComponentBreakdown, Prediction};
use crate::serialize::{decode_library, encode_library};
use crate::sram::SramPowerModel;
use autopower_config::{ConfigId, CpuConfig, Workload};
use autopower_ml::parallel::available_threads;
use autopower_perfsim::EventParams;
use autopower_techlib::TechLibrary;
use serde::codec::{Codec, CodecError, Reader, Writer};

/// One power group's fitted model, as a training worker returns it.
#[derive(Debug)]
enum SubModel {
    Clock(ClockPowerModel),
    Sram(SramPowerModel),
    Logic(LogicPowerModel),
}

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
        // The three power groups' models are independent fits: they run on
        // up to three cores and come back in group order, so the model (and
        // the first error, clock before SRAM before logic) is the serial one.
        let fitted = parallel_map(available_threads(), 3, |group| match group {
            0 => ClockPowerModel::train(corpus, train_configs).map(SubModel::Clock),
            1 => SramPowerModel::train_with_features(corpus, train_configs, sram_features)
                .map(SubModel::Sram),
            _ => LogicPowerModel::train(corpus, train_configs).map(SubModel::Logic),
        });
        let [clock, sram, logic]: [_; 3] = fitted.try_into().expect("one result per group");
        let (SubModel::Clock(clock), SubModel::Sram(sram), SubModel::Logic(logic)) =
            (clock?, sram?, logic?)
        else {
            unreachable!("sub-models come back in group order")
        };
        Ok(Self {
            clock,
            sram,
            logic,
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

    /// Writes every component's term of each power group at every point
    /// into the scratch's columns: each sub-model scores the whole batch
    /// forest-major, so ~77 ensembles do not alternate per point and evict
    /// each other from cache.
    fn score_columns(&self, points: &[PredictInput<'_>], scratch: &mut FeatureScratch) {
        self.clock.predict_batch_into(points, scratch);
        self.sram.predict_batch_into(points, &self.library, scratch);
        self.logic.predict_batch_into(points, scratch);
    }
}

impl PowerModel for AutoPower {
    fn kind(&self) -> ModelKind {
        ModelKind::AutoPower
    }

    /// Group-resolved: each group's component terms folded in
    /// [`Component::ALL`](autopower_config::Component::ALL) order.
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
        self.score_columns(points, scratch);
        let n = points.len();
        out.extend((0..n).map(|i| Prediction::grouped(scratch.columns.core(n, i))));
    }

    /// The per-component detail view: the same component terms the core
    /// groups fold, each component fully group-resolved.
    fn predict_components(
        &self,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
    ) -> Option<ComponentBreakdown> {
        let mut scratch = FeatureScratch::new();
        self.score_columns(&[PredictInput::new(config, events, workload)], &mut scratch);
        Some(ComponentBreakdown::from_groups(|component| {
            scratch.columns.component(component, 1, 0)
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
    use crate::dataset::{CorpusSpec, RunData};
    use crate::evaluation::evaluate_totals;
    use autopower_config::{boom_configs, Component};
    use autopower_powersim::PowerGroups;

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
        let g = p.groups().unwrap();
        assert!((p.total() - (g.clock + g.sram + g.register + g.combinational)).abs() < 1e-12);
        assert!(g.is_physical());
    }

    #[test]
    fn component_predictions_sum_close_to_core_prediction() {
        let c = corpus();
        let model = AutoPower::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        let run = c.run(ConfigId::new(8), Workload::Vvadd).unwrap();
        let core = model.predict_run(run);
        let components = model.predict_run_components(run).unwrap();
        assert_eq!(components.groups(), core.groups());
    }

    /// One component's groups at one point, from per-row sub-model
    /// predictions (Eq. 7, Eqs. 9–10, `F_reg·F_act` and `F_sta·F_var`): the
    /// reference the batch path is checked against.
    fn reference_component(model: &AutoPower, component: Component, run: &RunData) -> PowerGroups {
        let (config, events, workload) = (&run.config, &run.sim.events, run.workload);
        let (register, combinational) = model
            .logic
            .reference_component(component, config, events, workload);
        PowerGroups {
            clock: model
                .clock
                .reference_component(component, config, events, workload),
            sram: model.sram.reference_component(
                component,
                config,
                events,
                workload,
                &model.library,
            ),
            register,
            combinational,
        }
    }

    fn bits(g: PowerGroups) -> [u64; 4] {
        [g.clock, g.sram, g.register, g.combinational].map(f64::to_bits)
    }

    #[test]
    fn batched_prediction_is_bit_identical_to_per_point() {
        let c = corpus();
        let model = AutoPower::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        let runs = c.runs();
        let points: Vec<PredictInput<'_>> = runs
            .iter()
            .map(|run| PredictInput::new(&run.config, &run.sim.events, run.workload))
            .collect();
        let mut scratch = FeatureScratch::new();
        let mut batch = Vec::new();
        model.predict_batch_with(&points, &mut scratch, &mut batch);
        assert_eq!(batch.len(), runs.len());
        for (run, batched) in runs.iter().zip(&batch) {
            let mut core = PowerGroups::default();
            let components = model.predict_run_components(run).unwrap();
            for component in Component::ALL {
                let reference = reference_component(&model, component, run);
                let entry = components.component(component).groups.unwrap();
                assert_eq!(
                    bits(entry),
                    bits(reference),
                    "{component} drifted on {} {}",
                    run.config.id,
                    run.workload,
                );
                core += reference;
            }
            assert_eq!(
                bits(batched.groups().unwrap()),
                bits(core),
                "core groups drifted on {} {}",
                run.config.id,
                run.workload,
            );
            assert_eq!(batched.total().to_bits(), core.total().to_bits());
        }
    }

    #[test]
    fn training_errors_are_propagated() {
        let c = corpus();
        assert!(AutoPower::train(&c, &[]).is_err());
        assert!(AutoPower::train(&c, &[ConfigId::new(2)]).is_err());
    }
}
