//! Feature assembly: the `H`, `E` and program-level feature vectors of the sub-models.

use crate::dataset::RunData;
use crate::power_model::PredictInput;
use autopower_config::{Component, CpuConfig, Workload};
use autopower_ml::Matrix;
use autopower_perfsim::EventParams;
use autopower_powersim::PowerGroups;
use autopower_workloads::ProgramFeatures;
use serde::codec::{Codec, CodecError, Reader, Writer};

/// Hardware-parameter (`H`) features of one component: the values of the Table III
/// parameters the component is sensitive to.
pub fn hw_features(component: Component, config: &CpuConfig) -> Vec<f64> {
    let mut out = Vec::new();
    hw_features_into(component, config, &mut out);
    out
}

/// Appends the component's `H` features to `out` (the allocation-free twin of
/// [`hw_features`]).
pub fn hw_features_into(component: Component, config: &CpuConfig, out: &mut Vec<f64>) {
    out.extend(
        component
            .hw_params()
            .iter()
            .map(|&p| config.params.value(p) as f64),
    );
}

/// Names of the features returned by [`hw_features`], in the same order.
pub fn hw_feature_names(component: Component) -> Vec<String> {
    component
        .hw_params()
        .iter()
        .map(|p| p.name().to_owned())
        .collect()
}

/// Event-parameter (`E`) features of one component: the subset of simulator counters the
/// component's activity depends on.
pub fn event_features(component: Component, events: &EventParams) -> Vec<f64> {
    events.component_features(component)
}

/// Appends the component's `E` features to `out` (the allocation-free twin of
/// [`event_features`]).
pub fn event_features_into(component: Component, events: &EventParams, out: &mut Vec<f64>) {
    events.component_features_into(component, out);
}

/// Reusable buffers of the batch scoring path
/// ([`PowerModel::predict_batch_with`](crate::PowerModel::predict_batch_with)).
///
/// Scoring a batch assembles, per sub-model and component, one feature
/// matrix over the batch and one hardware row per point, runs each ensemble
/// over the matrix, and writes each component's term of each power group
/// into a per-component column.  The engine that scores thousands of points
/// — [`SweepEngine`](crate::SweepEngine), which also runs
/// [`sweep_multi`](crate::sweep_multi) and the prediction service's batches —
/// hands each worker one `FeatureScratch`, so that storage is allocated once
/// per worker instead of once per batch.  The scratch never changes a
/// prediction — it only re-uses storage.
#[derive(Debug, Clone, Default)]
pub struct FeatureScratch {
    /// One hardware-parameter row, refilled per (point, component).
    pub(crate) row: Vec<f64>,
    /// Storage of the batch feature matrix, refilled per (sub-model,
    /// component).
    pub(crate) matrix: BatchMatrix,
    /// Raw ensemble outputs over the batch.
    pub(crate) ensembles: [Vec<f64>; 2],
    /// Per-component power-group terms of the batch.
    pub(crate) columns: GroupColumns,
}

impl FeatureScratch {
    /// Creates an empty scratch (the first batch sizes the buffers).
    pub fn new() -> Self {
        Self::default()
    }
}

/// The reused storage of one batch feature matrix.
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchMatrix(Vec<f64>);

impl BatchMatrix {
    /// Assembles one row per point (`fill` appends a point's row) into the
    /// reused storage and hands the matrix to `score`.
    ///
    /// `points` must not be empty.
    pub(crate) fn score<R>(
        &mut self,
        points: &[PredictInput<'_>],
        mut fill: impl FnMut(&PredictInput<'_>, &mut Vec<f64>),
        score: impl FnOnce(&Matrix) -> R,
    ) -> R {
        let mut data = std::mem::take(&mut self.0);
        data.clear();
        for p in points {
            fill(p, &mut data);
        }
        let x = Matrix::from_flat(points.len(), data.len() / points.len(), data);
        let result = score(&x);
        self.0 = x.into_flat();
        result
    }

    /// [`BatchMatrix::score`] over one [`model_features`] row per point.
    pub(crate) fn score_features<R>(
        &mut self,
        which: ModelFeatures,
        component: Component,
        points: &[PredictInput<'_>],
        score: impl FnOnce(&Matrix) -> R,
    ) -> R {
        self.score(
            points,
            |p, out| model_features_into(which, component, p.config, p.events, p.workload, out),
            score,
        )
    }
}

/// Per-component terms of the four power groups over an `n`-point batch,
/// component-major: component `c`'s term at point `i` is at
/// `[c.index() * n + i]`.
#[derive(Debug, Clone, Default)]
pub(crate) struct GroupColumns {
    pub(crate) clock: Vec<f64>,
    pub(crate) sram: Vec<f64>,
    pub(crate) register: Vec<f64>,
    pub(crate) combinational: Vec<f64>,
}

impl GroupColumns {
    /// Component `component`'s groups at point `i` of an `n`-point batch.
    pub(crate) fn component(&self, component: Component, n: usize, i: usize) -> PowerGroups {
        let at = component.index() * n + i;
        PowerGroups {
            clock: self.clock[at],
            sram: self.sram[at],
            register: self.register[at],
            combinational: self.combinational[at],
        }
    }

    /// Core-level groups at point `i` of an `n`-point batch (see
    /// [`fold_column`]).
    pub(crate) fn core(&self, n: usize, i: usize) -> PowerGroups {
        PowerGroups {
            clock: fold_column(&self.clock, n, i),
            sram: fold_column(&self.sram, n, i),
            register: fold_column(&self.register, n, i),
            combinational: fold_column(&self.combinational, n, i),
        }
    }
}

/// Clears `column` to one `0.0` term per (component, point) of an `n`-point
/// batch.
pub(crate) fn reset_column(column: &mut Vec<f64>, n: usize) {
    column.clear();
    column.resize(Component::ALL.len() * n, 0.0);
}

/// Point `i`'s component terms of one column, folded left to right from
/// `0.0` in [`Component::ALL`] order.
pub(crate) fn fold_column(column: &[f64], n: usize, i: usize) -> f64 {
    column[i..]
        .iter()
        .step_by(n)
        .fold(0.0, |sum, term| sum + term)
}

/// Which feature blocks to include when assembling a sub-model's input row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelFeatures {
    /// Include the component's hardware parameters.
    pub hardware: bool,
    /// Include the component's event parameters.
    pub events: bool,
    /// Include the microarchitecture-independent program-level features.
    pub program: bool,
}

impl ModelFeatures {
    /// Hardware parameters only (`F_reg`, `F_gate`, `F_sta` in the paper).
    pub const HW_ONLY: ModelFeatures = ModelFeatures {
        hardware: true,
        events: false,
        program: false,
    };

    /// Hardware + event parameters (`F_α′`, `F_act`, `F_var`).
    pub const HW_EVENTS: ModelFeatures = ModelFeatures {
        hardware: true,
        events: true,
        program: false,
    };

    /// Hardware + events + program-level features (the SRAM activity model; the paper
    /// notes prior works ignore program-level features and that they improve robustness
    /// to simulator inaccuracy).
    pub const HW_EVENTS_PROGRAM: ModelFeatures = ModelFeatures {
        hardware: true,
        events: true,
        program: true,
    };
}

impl Codec for ModelFeatures {
    fn encode(&self, w: &mut Writer) {
        w.begin("features");
        w.bool("hardware", self.hardware);
        w.bool("events", self.events);
        w.bool("program", self.program);
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("features")?;
        let mode = Self {
            hardware: r.bool("hardware")?,
            events: r.bool("events")?,
            program: r.bool("program")?,
        };
        r.end()?;
        Ok(mode)
    }
}

/// Assembles one feature row for a `(component, configuration, workload)` sample.
pub fn model_features(
    which: ModelFeatures,
    component: Component,
    config: &CpuConfig,
    events: &EventParams,
    workload: Workload,
) -> Vec<f64> {
    let mut row = Vec::new();
    model_features_into(which, component, config, events, workload, &mut row);
    row
}

/// Appends one feature row to `out` (the allocation-free twin of
/// [`model_features`]; block order is identical).
pub fn model_features_into(
    which: ModelFeatures,
    component: Component,
    config: &CpuConfig,
    events: &EventParams,
    workload: Workload,
    out: &mut Vec<f64>,
) {
    if which.hardware {
        hw_features_into(component, config, out);
    }
    if which.events {
        event_features_into(component, events, out);
    }
    if which.program {
        ProgramFeatures::of(workload).push_into(out);
    }
}

/// Assembles the flat row-major training matrix of one sub-model: one
/// [`model_features`] row per run, written back to back into a single buffer
/// (no per-row allocation).  Returns `None` when there are no runs.
pub(crate) fn model_feature_matrix(
    which: ModelFeatures,
    component: Component,
    runs: &[&RunData],
) -> Option<Matrix> {
    if runs.is_empty() {
        return None;
    }
    let mut data = Vec::new();
    for run in runs {
        model_features_into(
            which,
            component,
            &run.config,
            &run.sim.events,
            run.workload,
            &mut data,
        );
    }
    let width = data.len() / runs.len();
    Some(Matrix::from_flat(runs.len(), width, data))
}

/// Names of the features assembled by [`model_features`], in the same order.
pub fn model_feature_names(which: ModelFeatures, component: Component) -> Vec<String> {
    let mut names = Vec::new();
    if which.hardware {
        names.extend(hw_feature_names(component));
    }
    if which.events {
        names.extend(
            EventParams::component_feature_names(component)
                .iter()
                .map(|s| (*s).to_owned()),
        );
    }
    if which.program {
        names.extend(ProgramFeatures::names().iter().map(|s| (*s).to_owned()));
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopower_config::boom_configs;
    use autopower_perfsim::{simulate, SimConfig};

    fn sample_events() -> EventParams {
        let cfg = boom_configs()[0];
        simulate(
            &cfg,
            Workload::Dhrystone,
            &SimConfig {
                max_instructions: 1_000,
                ..SimConfig::fast()
            },
        )
        .events
    }

    #[test]
    fn hw_features_follow_table_iii() {
        let cfg = boom_configs()[7];
        let f = hw_features(Component::Ifu, &cfg);
        assert_eq!(f, vec![8.0, 3.0, 24.0]);
        assert_eq!(
            hw_feature_names(Component::Ifu),
            vec!["FetchWidth", "DecodeWidth", "FetchBufferEntry"]
        );
    }

    #[test]
    fn feature_rows_match_their_names_for_every_component_and_mode() {
        let cfg = boom_configs()[0];
        let events = sample_events();
        for mode in [
            ModelFeatures::HW_ONLY,
            ModelFeatures::HW_EVENTS,
            ModelFeatures::HW_EVENTS_PROGRAM,
        ] {
            for c in Component::ALL {
                let row = model_features(mode, c, &cfg, &events, Workload::Dhrystone);
                let names = model_feature_names(mode, c);
                assert_eq!(row.len(), names.len(), "{c} mode {mode:?}");
                assert!(row.iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn program_features_extend_the_row() {
        let cfg = boom_configs()[0];
        let events = sample_events();
        let without = model_features(
            ModelFeatures::HW_EVENTS,
            Component::Rob,
            &cfg,
            &events,
            Workload::Qsort,
        );
        let with = model_features(
            ModelFeatures::HW_EVENTS_PROGRAM,
            Component::Rob,
            &cfg,
            &events,
            Workload::Qsort,
        );
        assert_eq!(with.len(), without.len() + ProgramFeatures::names().len());
        assert_eq!(&with[..without.len()], &without[..]);
    }
}
