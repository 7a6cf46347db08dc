//! Table IV: fine-grained time-based power-trace prediction for large workloads.

use crate::report::{format_table, percent};
use crate::{Experiments, ModelSource};
use autopower::{trace_errors, AutoPowerError, ModelKind, PowerTracePredictor, TraceErrors};
use autopower_config::{ConfigId, Workload};
use std::fmt;

/// One row of Table IV: errors of the trace prediction for one `(workload, config)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCase {
    /// The large workload (GEMM or SPMM).
    pub workload: Workload,
    /// The evaluated configuration.
    pub config: ConfigId,
    /// Number of 50-cycle intervals in the trace.
    pub intervals: usize,
    /// The error figures Table IV reports.
    pub errors: TraceErrors,
}

/// The full Table IV result.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceResult {
    /// The registry model that predicted the traces.
    pub model: ModelKind,
    /// The training configurations (average-power corpus, no trace data) —
    /// `None` when the model was loaded pre-trained: the serialized format
    /// carries no training-set record, so the report does not invent one.
    pub train_configs: Option<Vec<ConfigId>>,
    /// One case per `(workload, configuration)` pair.
    pub cases: Vec<TraceCase>,
}

impl TraceResult {
    /// Mean of the average-error column (a single headline number).
    pub fn mean_average_error(&self) -> f64 {
        if self.cases.is_empty() {
            return 0.0;
        }
        self.cases
            .iter()
            .map(|c| c.errors.average_error)
            .sum::<f64>()
            / self.cases.len() as f64
    }
}

impl fmt::Display for TraceResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let provenance = match &self.train_configs {
            Some(train) => format!("trained on {} configurations", train.len()),
            None => "loaded pre-trained".to_owned(),
        };
        writeln!(
            f,
            "Table IV — time-based power-trace prediction (50-cycle steps, {} {})",
            self.model.paper_name(),
            provenance
        )?;
        let rows: Vec<Vec<String>> = self
            .cases
            .iter()
            .map(|c| {
                vec![
                    c.workload.to_string(),
                    c.config.to_string(),
                    c.intervals.to_string(),
                    percent(c.errors.max_power_error),
                    percent(c.errors.min_power_error),
                    percent(c.errors.average_error),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            format_table(
                &[
                    "workload",
                    "config",
                    "intervals",
                    "max power err",
                    "min power err",
                    "average err"
                ],
                &rows
            )
        )
    }
}

impl Experiments {
    /// Table IV: trains AutoPower on the two known configurations (average-power
    /// corpus only) and predicts the 50-cycle power traces of GEMM and SPMM on the
    /// trace configurations.
    ///
    /// Shorthand for [`Experiments::table4_power_trace_with`] and
    /// [`ModelSource::Train`]`(`[`ModelKind::AutoPower`]`)`.
    ///
    /// # Panics
    ///
    /// Panics if training fails.
    pub fn table4_power_trace(&self) -> TraceResult {
        self.table4_power_trace_with(ModelSource::Train(ModelKind::AutoPower))
            .expect("AutoPower training succeeds")
    }

    /// Table IV under any model (the `table4` CLI verb): a registry model trained
    /// the way the sweep trains it (`--model`), or an already trained one
    /// (`--load-model`).  Only the trace corpus is generated for the prediction;
    /// a loaded model's report states it was loaded instead of claiming a
    /// training set the file does not record.
    ///
    /// # Errors
    ///
    /// Returns an error if the model fails to train.
    pub fn table4_power_trace_with(
        &self,
        source: ModelSource<'_>,
    ) -> Result<TraceResult, AutoPowerError> {
        self.with_model(source, |model, train_configs| {
            Ok(self.trace_cases(model, train_configs))
        })
    }

    fn trace_cases(
        &self,
        model: &dyn autopower::PowerModel,
        train_configs: Option<Vec<ConfigId>>,
    ) -> TraceResult {
        let predictor = PowerTracePredictor::new(model);
        let trace_corpus = self.trace_corpus();
        let mut cases = Vec::new();
        for workload in Workload::TRACE_WORKLOADS {
            for cfg in &self.settings().trace_configs {
                let Some(run) = trace_corpus.run(cfg.id, workload) else {
                    continue;
                };
                let golden = trace_corpus.golden_trace(run);
                let predicted = predictor.predict_trace(run);
                cases.push(TraceCase {
                    workload,
                    config: cfg.id,
                    intervals: golden.len(),
                    errors: trace_errors(&golden, &predicted),
                });
            }
        }
        TraceResult {
            model: model.kind(),
            train_configs,
            cases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_prediction_errors_are_bounded() {
        let exp = Experiments::fast();
        let r = exp.table4_power_trace();
        assert!(!r.cases.is_empty());
        for case in &r.cases {
            assert!(
                case.intervals > 10,
                "trace for {} has {} intervals",
                case.workload,
                case.intervals
            );
            // Table IV reports single- to low-double-digit percentage errors; on the fast
            // corpus we accept a looser band but still require sanity.
            assert!(case.errors.average_error < 0.35, "{:?}", case);
            assert!(case.errors.max_power_error < 0.6, "{:?}", case);
            assert!(case.errors.min_power_error < 0.6, "{:?}", case);
        }
        assert!(r.mean_average_error() < 0.3);
        assert!(r.to_string().contains("Table IV"));
        assert!(r.to_string().contains("AutoPower"));
    }

    #[test]
    fn trace_prediction_runs_under_a_baseline_model() {
        let exp = Experiments::fast();
        let r = exp
            .table4_power_trace_with(ModelSource::Train(ModelKind::McpatCalibComponent))
            .unwrap();
        assert_eq!(r.model, ModelKind::McpatCalibComponent);
        assert!(!r.cases.is_empty());
        for case in &r.cases {
            assert!(case.errors.average_error.is_finite());
            assert!(case.errors.average_error >= 0.0);
        }
        assert!(r.to_string().contains("McPAT-Calib + Component"));
    }
}
