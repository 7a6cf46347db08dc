//! The McPAT-Calib baseline: a single ML model from (H, E) to total power.

use crate::dataset::Corpus;
use crate::error::AutoPowerError;
use crate::features::FeatureScratch;
use crate::power_model::{ModelKind, PowerModel, PredictInput};
use crate::prediction::Prediction;
use autopower_config::{ConfigId, CpuConfig, HwParam};
use autopower_ml::{GradientBoosting, Matrix};
use autopower_perfsim::EventParams;
use serde::codec::{Codec, CodecError, Reader, Writer};

/// The McPAT-Calib-style baseline.
///
/// Features are the full hardware-parameter vector (all 14 Table II parameters) plus all
/// event parameters; the target is the golden total power.  This mirrors how the paper
/// instantiates McPAT-Calib with XGBoost as the calibration model.
#[derive(Debug, Clone)]
pub struct McpatCalib {
    model: GradientBoosting,
}

impl McpatCalib {
    /// Feature row of one `(configuration, events)` point.
    pub fn features(config: &CpuConfig, events: &EventParams) -> Vec<f64> {
        let mut row = Vec::new();
        Self::features_into(config, events, &mut row);
        row
    }

    /// Appends the feature row of one point to `out` (the allocation-free
    /// twin of [`McpatCalib::features`]).
    pub fn features_into(config: &CpuConfig, events: &EventParams, out: &mut Vec<f64>) {
        out.extend(HwParam::ALL.iter().map(|&p| config.params.value(p) as f64));
        out.extend_from_slice(events.values());
    }

    /// Trains the baseline on the runs of `train_configs`.
    ///
    /// # Errors
    ///
    /// Returns an error if the training set is empty or malformed.
    pub fn train(corpus: &Corpus, train_configs: &[ConfigId]) -> Result<Self, AutoPowerError> {
        if train_configs.is_empty() {
            return Err(AutoPowerError::NoTrainingConfigs);
        }
        let fit_error = AutoPowerError::fit(
            autopower_config::Component::OtherLogic,
            "McPAT-Calib total power",
        );
        let runs = corpus.training_runs(train_configs);
        if runs.is_empty() {
            return Err(fit_error(autopower_ml::FitError::EmptyTrainingSet));
        }
        let mut data = Vec::new();
        for r in &runs {
            Self::features_into(&r.config, &r.sim.events, &mut data);
        }
        let matrix = Matrix::from_flat(runs.len(), data.len() / runs.len(), data);
        let targets: Vec<f64> = runs.iter().map(|r| r.golden.total_mw()).collect();
        let mut model = GradientBoosting::default();
        model.fit_matrix(&matrix, &targets).map_err(fit_error)?;
        Ok(Self { model })
    }
}

impl PowerModel for McpatCalib {
    fn kind(&self) -> ModelKind {
        ModelKind::McpatCalib
    }

    /// Total-only: the typed prediction carries the scalar and nothing else —
    /// no group slot to misread.
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
        let FeatureScratch {
            matrix,
            ensembles: [totals, _],
            ..
        } = scratch;
        matrix.score(
            points,
            |p, row| Self::features_into(p.config, p.events, row),
            |x| self.model.forest().predict_into(x, totals),
        );
        out.extend(totals.iter().map(|t| Prediction::total_only(t.max(0.0))));
    }

    fn serialize(&self, w: &mut Writer) {
        Codec::encode(self, w);
    }
}

impl Codec for McpatCalib {
    fn encode(&self, w: &mut Writer) {
        w.begin("mcpat-calib");
        self.model.encode(w);
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("mcpat-calib")?;
        let model = GradientBoosting::decode(r)?;
        r.end()?;
        Ok(Self { model })
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
            &[Workload::Dhrystone, Workload::Qsort, Workload::Vvadd],
            &CorpusSpec::fast(),
        )
    }

    #[test]
    fn baseline_learns_the_training_runs() {
        let c = corpus();
        let train = [ConfigId::new(1), ConfigId::new(15)];
        let m = McpatCalib::train(&c, &train).unwrap();
        for run in c.training_runs(&train) {
            let pred = m.predict_total(run);
            let truth = run.golden.total_mw();
            assert!(((pred - truth) / truth).abs() < 0.10, "{pred} vs {truth}");
        }
    }

    #[test]
    fn baseline_produces_positive_predictions_everywhere() {
        let c = corpus();
        let m = McpatCalib::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        for run in c.runs() {
            assert!(m.predict_total(run) > 0.0);
        }
    }

    #[test]
    fn feature_row_width_is_hw_plus_events() {
        let c = corpus();
        let run = &c.runs()[0];
        let row = McpatCalib::features(&run.config, &run.sim.events);
        assert_eq!(row.len(), 14 + EventParams::names().len());
    }

    #[test]
    fn empty_training_set_is_rejected() {
        let c = corpus();
        assert!(McpatCalib::train(&c, &[]).is_err());
    }
}
