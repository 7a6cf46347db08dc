//! The SRAM power model (Section II-B of the paper).
//!
//! SRAM power is modelled top-down along the four-level hierarchy
//! `Component → SRAM Position → SRAM Block → SRAM Macro`:
//!
//! 1. features are transferred from the component to each of its SRAM Positions,
//! 2. a scaling-pattern [`PositionHardwareModel`] estimates the width/depth/count of the
//!    SRAM Blocks implementing the position,
//! 3. an ML [`SramActivityModel`] estimates the block-level read/write frequencies,
//! 4. the macro-level mapping of the VLSI flow converts block shapes and frequencies into
//!    macro shapes and frequencies (Eq. 9), and the technology library's read/write
//!    energies give the power (Eq. 10).

mod activity;
mod hardware;
mod mapping;

pub use activity::SramActivityModel;
pub use hardware::{PositionHardwareModel, PredictedBlock, ScalingRule};
pub use mapping::predicted_block_power_mw;

use crate::dataset::Corpus;
use crate::error::AutoPowerError;
use crate::features::{fold_column, reset_column, FeatureScratch, ModelFeatures};
use crate::power_model::PredictInput;
use autopower_config::{Component, ConfigId, CpuConfig, SramPositionId, Workload};
use autopower_perfsim::EventParams;
use autopower_techlib::TechLibrary;
use serde::codec::{Codec, CodecError, Reader, Writer};

/// Sub-models of one SRAM Position.
#[derive(Debug, Clone)]
struct PositionModel {
    hardware: PositionHardwareModel,
    activity: SramActivityModel,
}

/// The SRAM power model: one hardware + activity model per SRAM Position, plus the
/// pin-toggling constant `C` of Eq. 10 calibrated from golden power.
#[derive(Debug, Clone)]
pub struct SramPowerModel {
    positions: Vec<PositionModel>,
    pin_constant_mw: f64,
    feature_mode: ModelFeatures,
}

impl SramPowerModel {
    /// Trains the SRAM model on the runs of `train_configs` with the paper's full
    /// feature set (hardware + events + program-level features).
    ///
    /// # Errors
    ///
    /// Returns an error if training data is missing or a sub-model cannot be fitted.
    pub fn train(corpus: &Corpus, train_configs: &[ConfigId]) -> Result<Self, AutoPowerError> {
        Self::train_with_features(corpus, train_configs, ModelFeatures::HW_EVENTS_PROGRAM)
    }

    /// Trains the SRAM model with an explicit feature mode (used by the program-level
    /// feature ablation).
    ///
    /// # Errors
    ///
    /// Returns an error if training data is missing or a sub-model cannot be fitted.
    pub fn train_with_features(
        corpus: &Corpus,
        train_configs: &[ConfigId],
        feature_mode: ModelFeatures,
    ) -> Result<Self, AutoPowerError> {
        if train_configs.is_empty() {
            return Err(AutoPowerError::NoTrainingConfigs);
        }
        for id in train_configs {
            if corpus.runs_for(*id).is_empty() {
                return Err(AutoPowerError::MissingConfig(*id));
            }
        }

        let mut positions = Vec::new();
        for position in autopower_config::sram_positions() {
            let hardware = PositionHardwareModel::fit(position.id, corpus, train_configs)?;
            let activity =
                SramActivityModel::train(position.id, corpus, train_configs, feature_mode)?;
            positions.push(PositionModel { hardware, activity });
        }

        let pin_constant_mw = Self::calibrate_pin_constant(corpus, train_configs);

        Ok(Self {
            positions,
            pin_constant_mw,
            feature_mode,
        })
    }

    /// Calibrates the pin-toggling constant `C` of Eq. 10 from the golden SRAM power of
    /// the training runs: the average per-block-instance residual between golden SRAM
    /// power and the read/write/leakage part reconstructed from true blocks and true
    /// activity.
    fn calibrate_pin_constant(corpus: &Corpus, train_configs: &[ConfigId]) -> f64 {
        let library = corpus.library();
        let mut residual_sum = 0.0;
        let mut instance_sum = 0.0;
        for run in corpus.training_runs(train_configs) {
            for component in Component::ALL {
                let netlist = run.netlist.component(component);
                if netlist.sram_blocks.is_empty() {
                    continue;
                }
                let golden = run.golden.component(component).sram;
                let mut modeled = 0.0;
                let mut instances = 0.0;
                for block in &netlist.sram_blocks {
                    let act = run
                        .sim
                        .activity
                        .position(block.position)
                        .expect("catalogue positions always have activity");
                    let predicted = PredictedBlock {
                        width: block.width,
                        depth: block.depth,
                        count: block.count,
                    };
                    modeled += mapping::predicted_block_power_mw(
                        &predicted,
                        act.reads_per_cycle / block.count as f64,
                        act.writes_per_cycle / block.count as f64,
                        0.0,
                        library,
                    );
                    instances += block.count as f64;
                }
                residual_sum += (golden - modeled).max(0.0);
                instance_sum += instances;
            }
        }
        if instance_sum > 0.0 {
            residual_sum / instance_sum
        } else {
            0.0
        }
    }

    fn position_model(&self, position: SramPositionId) -> Option<&PositionModel> {
        self.positions
            .iter()
            .find(|p| p.hardware.position() == position)
    }

    /// The calibrated pin-toggling constant `C` of Eq. 10, in mW per block instance.
    pub fn pin_constant_mw(&self) -> f64 {
        self.pin_constant_mw
    }

    /// The feature mode the activity models were trained with.
    pub fn feature_mode(&self) -> ModelFeatures {
        self.feature_mode
    }

    /// Predicted SRAM Block shape of one position (the hardware-model output).
    ///
    /// Returns `None` for positions that are not in the catalogue.
    pub fn predict_block(
        &self,
        position: SramPositionId,
        config: &CpuConfig,
    ) -> Option<PredictedBlock> {
        self.position_model(position)
            .map(|m| m.hardware.predict_block(config))
    }

    /// Predicted SRAM power of the whole core in mW: a batch of one through
    /// the batch path the sweep engine scores.
    pub fn predict_with(
        &self,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
        library: &TechLibrary,
        scratch: &mut FeatureScratch,
    ) -> f64 {
        let point = PredictInput::new(config, events, workload);
        self.predict_batch_into(&[point], library, scratch);
        fold_column(&scratch.columns.sram, 1, 0)
    }

    /// Writes each component's SRAM power (Eqs. 9–10, summed over its SRAM
    /// Positions from `0.0` in catalogue order) at every point into the
    /// scratch's SRAM column, scoring forest-major: per component, one
    /// shared feature matrix feeds every position's read and write ensembles
    /// over the entire batch, keeping each ensemble's nodes cache-resident.
    /// Components without SRAM positions keep a `0.0` term.
    pub(crate) fn predict_batch_into(
        &self,
        points: &[PredictInput<'_>],
        library: &TechLibrary,
        scratch: &mut FeatureScratch,
    ) {
        let n = points.len();
        let FeatureScratch {
            matrix,
            ensembles: [reads, writes],
            columns,
            ..
        } = scratch;
        reset_column(&mut columns.sram, n);
        for &component in Component::ALL.iter() {
            let mut models = self
                .positions
                .iter()
                .filter(|m| m.hardware.position().component == component)
                .peekable();
            // Components without SRAM positions never pay for feature
            // assembly.
            if models.peek().is_none() {
                continue;
            }
            let terms = &mut columns.sram[component.index() * n..][..n];
            matrix.score_features(self.feature_mode, component, points, |x| {
                for model in models {
                    model.activity.predict_batch_into(x, reads, writes);
                    for (i, p) in points.iter().enumerate() {
                        let block = model.hardware.predict_block(p.config);
                        terms[i] += mapping::predicted_block_power_mw(
                            &block,
                            reads[i].max(0.0),
                            writes[i].max(0.0),
                            self.pin_constant_mw,
                            library,
                        );
                    }
                }
            });
        }
    }
}

impl Codec for PositionModel {
    fn encode(&self, w: &mut Writer) {
        w.begin("position-model");
        self.hardware.encode(w);
        self.activity.encode(w);
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("position-model")?;
        let hardware = PositionHardwareModel::decode(r)?;
        let activity = SramActivityModel::decode(r)?;
        r.end()?;
        Ok(Self { hardware, activity })
    }
}

impl Codec for SramPowerModel {
    fn encode(&self, w: &mut Writer) {
        w.begin("sram");
        w.f64("pin_constant_mw", self.pin_constant_mw);
        self.feature_mode.encode(w);
        w.begin_list("positions", self.positions.len());
        for position in &self.positions {
            position.encode(w);
        }
        w.end();
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("sram")?;
        let pin_constant_mw = r.f64("pin_constant_mw")?;
        let feature_mode = ModelFeatures::decode(r)?;
        let len = r.begin_list("positions")?;
        let mut positions = Vec::with_capacity(len);
        for _ in 0..len {
            let position = PositionModel::decode(r)?;
            // Every position is scored from the model-level feature matrix,
            // so an activity model trained on another feature mode cannot be
            // served.
            let mode = position.activity.feature_mode();
            if mode != feature_mode {
                return Err(CodecError::new(
                    r.line(),
                    format!(
                        "SRAM position {} has activity feature mode {mode:?}, \
                         but the SRAM model's feature mode is {feature_mode:?}",
                        position.hardware.position()
                    ),
                ));
            }
            positions.push(position);
        }
        r.end()?;
        r.end()?;
        Ok(Self {
            positions,
            pin_constant_mw,
            feature_mode,
        })
    }
}

#[cfg(test)]
impl SramPowerModel {
    /// Every boosted sub-model, position by position.
    pub(crate) fn boosted(&self) -> impl Iterator<Item = &autopower_ml::GradientBoosting> {
        self.positions.iter().flat_map(|p| p.activity.boosted())
    }

    /// Eqs. 9–10 for one component at one point, summed over its positions
    /// from per-row predictions: the reference the batch path is checked
    /// against.
    pub(crate) fn reference_component(
        &self,
        component: Component,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
        library: &TechLibrary,
    ) -> f64 {
        use autopower_ml::Regressor;
        let row =
            crate::features::model_features(self.feature_mode, component, config, events, workload);
        let mut total = 0.0;
        for m in &self.positions {
            if m.hardware.position().component != component {
                continue;
            }
            let [read, write] = m.activity.boosted();
            total += mapping::predicted_block_power_mw(
                &m.hardware.predict_block(config),
                read.predict(&row).max(0.0),
                write.predict(&row).max(0.0),
                self.pin_constant_mw,
                library,
            );
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::CorpusSpec;
    use autopower_config::{boom_configs, Workload};
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
    fn hardware_model_recovers_block_capacities() {
        let c = corpus();
        let model = SramPowerModel::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        // On the held-out configuration the predicted block capacities should match the
        // true netlist capacities (the paper reports "nearly 0 MAPE" for the hardware
        // model); a small number of positions whose candidate parameters coincide on the
        // two training configurations may carry a bounded relative error.
        let run = c.run(ConfigId::new(8), Workload::Dhrystone).unwrap();
        let mut exact = 0usize;
        let mut total = 0usize;
        for component in Component::ALL {
            for block in &run.netlist.component(component).sram_blocks {
                let predicted = model.predict_block(block.position, &run.config).unwrap();
                total += 1;
                if predicted.bits() == block.bits() {
                    exact += 1;
                } else {
                    let rel =
                        (predicted.bits() as f64 - block.bits() as f64).abs() / block.bits() as f64;
                    assert!(rel < 0.2, "{}: relative error {rel}", block.position);
                }
            }
        }
        assert!(
            exact * 10 >= total * 8,
            "only {exact}/{total} positions exact"
        );
    }

    #[test]
    fn sram_power_prediction_tracks_golden_power() {
        let c = corpus();
        let train = [ConfigId::new(1), ConfigId::new(15)];
        let model = SramPowerModel::train(&c, &train).unwrap();
        let mut truths = Vec::new();
        let mut preds = Vec::new();
        for run in c.test_runs(&train) {
            truths.push(run.golden.total.sram);
            preds.push(model.predict_with(
                &run.config,
                &run.sim.events,
                run.workload,
                c.library(),
                &mut FeatureScratch::new(),
            ));
        }
        let mape = metrics::mape(&truths, &preds);
        assert!(mape < 0.30, "SRAM power MAPE {mape}");
    }

    #[test]
    fn pin_constant_is_close_to_the_golden_flow_constant() {
        // The golden flow uses 0.012 mW per block instance; calibration from golden
        // power should land near it.
        let c = corpus();
        let model = SramPowerModel::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        let calibrated = model.pin_constant_mw();
        assert!(
            (calibrated - 0.012).abs() < 0.006,
            "calibrated C = {calibrated}"
        );
    }

    #[test]
    fn component_prediction_sums_positions() {
        let c = corpus();
        let model = SramPowerModel::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        let run = c.run(ConfigId::new(8), Workload::Vvadd).unwrap();
        let point = PredictInput::new(&run.config, &run.sim.events, run.workload);
        let mut scratch = FeatureScratch::new();
        model.predict_batch_into(&[point], c.library(), &mut scratch);
        let term = |component: Component| scratch.columns.sram[component.index()];
        let by_positions = model.reference_component(
            Component::Ifu,
            point.config,
            point.events,
            point.workload,
            c.library(),
        );
        assert!(by_positions > 0.0);
        assert_eq!(term(Component::Ifu).to_bits(), by_positions.to_bits());
        // Components without SRAM predict exactly +0.0.
        assert_eq!(term(Component::FuPool).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn loading_refuses_a_position_with_another_feature_mode() {
        use crate::serialize::{decode_model, encode_model};
        let c = corpus();
        let model = crate::AutoPower::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        let text = encode_model(&model);
        assert!(decode_model(&text).is_ok());
        // Hand-edit the first position's activity model to drop the
        // program-level features the SRAM model's own mode keeps.
        let at = text.find("sram-activity").unwrap();
        let flag = at + text[at..].find("program true").unwrap();
        let edited = format!(
            "{}program false{}",
            &text[..flag],
            &text[flag + "program true".len()..]
        );
        let err = decode_model(&edited).unwrap_err();
        assert!(
            matches!(&err, AutoPowerError::ModelFormat(message) if message.contains("feature mode")),
            "{err}"
        );
    }

    #[test]
    fn ablation_feature_modes_are_respected() {
        let c = corpus();
        let full = SramPowerModel::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        let no_prog = SramPowerModel::train_with_features(
            &c,
            &[ConfigId::new(1), ConfigId::new(15)],
            ModelFeatures::HW_EVENTS,
        )
        .unwrap();
        assert_eq!(full.feature_mode(), ModelFeatures::HW_EVENTS_PROGRAM);
        assert_eq!(no_prog.feature_mode(), ModelFeatures::HW_EVENTS);
    }
}
