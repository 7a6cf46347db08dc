//! The SRAM Block activity model.
//!
//! Predicts the average per-block read and write frequencies of one SRAM Position from
//! the component's hardware parameters, its event parameters, and — unlike prior work —
//! microarchitecture-independent program-level features (Section II-B argues these make
//! the model robust to performance-simulator inaccuracy).

use crate::dataset::Corpus;
use crate::error::AutoPowerError;
use crate::features::{model_features_into, ModelFeatures};
use crate::serialize::{decode_position, encode_position};
use autopower_config::{ConfigId, SramPositionId};
use autopower_ml::{GradientBoosting, Matrix};
use serde::codec::{Codec, CodecError, Reader, Writer};

/// Read/write frequency model of one SRAM Position.
#[derive(Debug, Clone)]
pub struct SramActivityModel {
    position: SramPositionId,
    feature_mode: ModelFeatures,
    read_model: GradientBoosting,
    write_model: GradientBoosting,
}

impl SramActivityModel {
    /// Trains the activity model of `position` on the training runs.
    ///
    /// Labels are the *block-level* read/write frequencies of the training netlists:
    /// the position-level access rates observed in RTL-level (here: golden activity)
    /// simulation divided by the true block count.
    ///
    /// # Errors
    ///
    /// Returns an error if the training set is empty or malformed.
    pub fn train(
        position: SramPositionId,
        corpus: &Corpus,
        train_configs: &[ConfigId],
        feature_mode: ModelFeatures,
    ) -> Result<Self, AutoPowerError> {
        let component = position.component;
        // One flat row-major matrix feeds both the read and the write fit.
        let mut data = Vec::new();
        let mut samples = 0usize;
        let mut read_targets = Vec::new();
        let mut write_targets = Vec::new();
        for run in corpus.training_runs(train_configs) {
            let Some(block) = run.netlist.component(component).blocks_of(position) else {
                continue;
            };
            let Some(activity) = run.sim.activity.position(position) else {
                continue;
            };
            let count = block.count as f64;
            model_features_into(
                feature_mode,
                component,
                &run.config,
                &run.sim.events,
                run.workload,
                &mut data,
            );
            samples += 1;
            read_targets.push(activity.reads_per_cycle / count);
            write_targets.push(activity.writes_per_cycle / count);
        }
        if samples == 0 {
            return Err(AutoPowerError::fit(component, "SRAM read frequency")(
                autopower_ml::FitError::EmptyTrainingSet,
            ));
        }
        let matrix = Matrix::from_flat(samples, data.len() / samples, data);
        let mut read_model = GradientBoosting::default();
        read_model
            .fit_matrix(&matrix, &read_targets)
            .map_err(AutoPowerError::fit(component, "SRAM read frequency"))?;
        let mut write_model = GradientBoosting::default();
        write_model
            .fit_matrix(&matrix, &write_targets)
            .map_err(AutoPowerError::fit(component, "SRAM write frequency"))?;
        Ok(Self {
            position,
            feature_mode,
            read_model,
            write_model,
        })
    }

    /// The position this model describes.
    pub fn position(&self) -> SramPositionId {
        self.position
    }

    /// The feature mode this model was trained with.
    pub fn feature_mode(&self) -> ModelFeatures {
        self.feature_mode
    }

    /// Scores a whole feature matrix (one row per point, assembled in this
    /// model's feature mode) through the read and write ensembles.  Outputs
    /// are the *raw* ensemble predictions; the caller clamps them at `0.0`.
    pub(crate) fn predict_batch_into(
        &self,
        x: &Matrix,
        reads: &mut Vec<f64>,
        writes: &mut Vec<f64>,
    ) {
        self.read_model.forest().predict_into(x, reads);
        self.write_model.forest().predict_into(x, writes);
    }
}

impl Codec for SramActivityModel {
    fn encode(&self, w: &mut Writer) {
        w.begin("sram-activity");
        encode_position(w, self.position);
        self.feature_mode.encode(w);
        self.read_model.encode(w);
        self.write_model.encode(w);
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("sram-activity")?;
        let position = decode_position(r)?;
        let feature_mode = ModelFeatures::decode(r)?;
        let read_model = GradientBoosting::decode(r)?;
        let write_model = GradientBoosting::decode(r)?;
        r.end()?;
        Ok(Self {
            position,
            feature_mode,
            read_model,
            write_model,
        })
    }
}

#[cfg(test)]
impl SramActivityModel {
    /// The read and write frequency models.
    pub(crate) fn boosted(&self) -> [&GradientBoosting; 2] {
        [&self.read_model, &self.write_model]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{CorpusSpec, RunData};
    use crate::features::model_features;
    use autopower_config::{boom_configs, sram_positions_for, Component, Workload};

    /// Clamped per-block read/write frequencies of one run, scored as a batch
    /// of one.
    fn predict(m: &SramActivityModel, run: &RunData) -> (f64, f64) {
        let row = model_features(
            m.feature_mode(),
            m.position().component,
            &run.config,
            &run.sim.events,
            run.workload,
        );
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        m.predict_batch_into(&Matrix::from_rows(&[row]), &mut reads, &mut writes);
        (reads[0].max(0.0), writes[0].max(0.0))
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
    fn predictions_are_non_negative_and_finite() {
        let c = corpus();
        let train = [ConfigId::new(1), ConfigId::new(15)];
        let pos = sram_positions_for(Component::ICacheDataArray)[0].id;
        let m =
            SramActivityModel::train(pos, &c, &train, ModelFeatures::HW_EVENTS_PROGRAM).unwrap();
        for run in c.runs() {
            let (r, w) = predict(&m, run);
            assert!(r >= 0.0 && r.is_finite());
            assert!(w >= 0.0 && w.is_finite());
        }
    }

    #[test]
    fn read_frequency_prediction_correlates_with_truth() {
        let c = corpus();
        let train = [ConfigId::new(1), ConfigId::new(15)];
        let pos = sram_positions_for(Component::ICacheDataArray)[0].id;
        let m =
            SramActivityModel::train(pos, &c, &train, ModelFeatures::HW_EVENTS_PROGRAM).unwrap();
        let mut truth = Vec::new();
        let mut pred = Vec::new();
        for run in c.test_runs(&train) {
            let block = run
                .netlist
                .component(Component::ICacheDataArray)
                .blocks_of(pos)
                .unwrap();
            let act = run.sim.activity.position(pos).unwrap();
            truth.push(act.reads_per_cycle / block.count as f64);
            pred.push(predict(&m, run).0);
        }
        // With one held-out configuration and three workloads we only ask for a sane
        // relative error, not a tight one.
        for (t, p) in truth.iter().zip(&pred) {
            assert!(
                (p - t).abs() <= t.max(0.01) * 1.2 + 0.05,
                "pred {p} truth {t}"
            );
        }
    }

    #[test]
    fn untrained_position_data_is_an_error() {
        let c = corpus();
        let pos = sram_positions_for(Component::ICacheDataArray)[0].id;
        assert!(SramActivityModel::train(pos, &c, &[], ModelFeatures::HW_EVENTS_PROGRAM).is_err());
    }
}
