//! Time-based power-trace prediction (Section III-B.5, Table IV).
//!
//! A trained model predicts the power of each simulation interval (50 cycles by
//! default) from the interval's event parameters.  No additional training on
//! time-based data is performed — exactly the setting of Table IV.  The
//! predictor is model-agnostic: any [`PowerModel`] from the registry (AutoPower
//! or a baseline) can drive it.
//!
//! Golden traces stay [`PowerTrace`]s (the golden flow always resolves
//! groups); predicted traces are [`PredictedPowerTrace`]s whose samples carry
//! typed [`Prediction`]s — a total-only model predicts interval totals and
//! nothing else, with no group slot to misread.

use crate::dataset::{Corpus, RunData};
use crate::features::FeatureScratch;
use crate::power_model::{PowerModel, PredictInput};
use crate::prediction::Prediction;
use autopower_config::{ConfigId, Workload};
use autopower_powersim::PowerTrace;
use serde::Serialize;

/// One predicted interval: the typed prediction plus its time coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictedSample {
    /// Cycle at which the interval starts.
    pub start_cycle: u64,
    /// Length of the interval in cycles.
    pub cycles: u64,
    /// Predicted power of the interval.
    pub power: Prediction,
}

/// A predicted time-based power trace for one `(configuration, workload)`
/// pair — the model-side counterpart of the golden [`PowerTrace`].
#[derive(Debug, Clone, PartialEq)]
pub struct PredictedPowerTrace {
    /// The evaluated configuration.
    pub config: ConfigId,
    /// The executed workload.
    pub workload: Workload,
    /// Nominal interval length in cycles (the paper uses 50).
    pub interval_cycles: u32,
    /// Samples in execution order.
    pub samples: Vec<PredictedSample>,
}

impl PredictedPowerTrace {
    /// Total power values of all samples, in mW.
    pub fn totals(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.power.total()).collect()
    }

    /// Maximum sample power in mW (0 for an empty trace), mirroring
    /// [`PowerTrace::max_power`].
    pub fn max_power(&self) -> f64 {
        self.totals().into_iter().fold(0.0, f64::max)
    }

    /// Minimum sample power in mW (0 for an empty trace), mirroring
    /// [`PowerTrace::min_power`].
    pub fn min_power(&self) -> f64 {
        let min = self.totals().into_iter().fold(f64::INFINITY, f64::min);
        if min.is_finite() {
            min
        } else {
            0.0
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Predicts time-based power traces with any trained [`PowerModel`].
#[derive(Debug, Clone)]
pub struct PowerTracePredictor<'a> {
    model: &'a dyn PowerModel,
}

impl<'a> PowerTracePredictor<'a> {
    /// Wraps a trained model.
    pub fn new(model: &'a dyn PowerModel) -> Self {
        Self { model }
    }

    /// Predicts the power trace of one run, one sample per simulation
    /// interval, scoring every interval in one batch.
    pub fn predict_trace(&self, run: &RunData) -> PredictedPowerTrace {
        let intervals = &run.sim.intervals;
        let events: Vec<_> = intervals
            .iter()
            .map(|interval| run.sim.interval_events(interval))
            .collect();
        let points: Vec<_> = events
            .iter()
            .map(|events| PredictInput::new(&run.config, events, run.workload))
            .collect();
        let mut powers = Vec::with_capacity(points.len());
        self.model
            .predict_batch_with(&points, &mut FeatureScratch::new(), &mut powers);
        let samples = intervals
            .iter()
            .zip(powers)
            .map(|(interval, power)| PredictedSample {
                start_cycle: interval.start_cycle,
                cycles: interval.counters.cycles,
                power,
            })
            .collect();
        PredictedPowerTrace {
            config: run.config.id,
            workload: run.workload,
            interval_cycles: run.sim.sim_config.interval_cycles,
            samples,
        }
    }
}

/// The error figures Table IV reports for one trace: maximum-power error, minimum-power
/// error, and the average per-interval error, all as fractions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TraceErrors {
    /// Relative error of the predicted maximum power.
    pub max_power_error: f64,
    /// Relative error of the predicted minimum power.
    pub min_power_error: f64,
    /// Mean absolute relative error over all intervals.
    pub average_error: f64,
}

impl TraceErrors {
    /// Maximum-power error in percent.
    pub fn max_power_error_percent(&self) -> f64 {
        self.max_power_error * 100.0
    }

    /// Minimum-power error in percent.
    pub fn min_power_error_percent(&self) -> f64 {
        self.min_power_error * 100.0
    }

    /// Average error in percent.
    pub fn average_error_percent(&self) -> f64 {
        self.average_error * 100.0
    }
}

/// Compares a predicted trace against the golden trace of the same run.
///
/// # Panics
///
/// Panics if the traces have different lengths or are empty.
pub fn trace_errors(golden: &PowerTrace, predicted: &PredictedPowerTrace) -> TraceErrors {
    assert!(!golden.is_empty(), "golden trace is empty");
    assert_eq!(
        golden.samples.len(),
        predicted.samples.len(),
        "traces must have the same number of intervals"
    );
    let g = golden.totals();
    let p = predicted.totals();
    // Relative error is undefined where the golden power is zero; those
    // intervals are excluded from the numerator AND the denominator (dividing
    // by the full interval count would silently bias the average low).
    let mut n = 0usize;
    let mut sum = 0.0;
    for (t, q) in g.iter().zip(&p) {
        if *t > 0.0 {
            n += 1;
            sum += ((q - t) / t).abs();
        }
    }
    let avg = if n == 0 { 0.0 } else { sum / n as f64 };
    TraceErrors {
        max_power_error: rel_err(golden.max_power(), predicted.max_power()),
        min_power_error: rel_err(golden.min_power(), predicted.min_power()),
        average_error: avg,
    }
}

fn rel_err(truth: f64, pred: f64) -> f64 {
    if truth == 0.0 {
        0.0
    } else {
        ((pred - truth) / truth).abs()
    }
}

/// Convenience: golden trace, predicted trace and their errors for one run.
pub fn evaluate_trace_prediction(
    corpus: &Corpus,
    model: &dyn PowerModel,
    run: &RunData,
) -> (PowerTrace, PredictedPowerTrace, TraceErrors) {
    let golden = corpus.golden_trace(run);
    let predicted = PowerTracePredictor::new(model).predict_trace(run);
    let errors = trace_errors(&golden, &predicted);
    (golden, predicted, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::CorpusSpec;
    use crate::model::AutoPower;
    use crate::power_model::ModelKind;
    use autopower_config::boom_configs;

    fn corpus() -> Corpus {
        let cfgs = boom_configs();
        Corpus::generate(
            &[cfgs[0], cfgs[1], cfgs[14]],
            &[Workload::Dhrystone, Workload::Vvadd, Workload::Gemm],
            &CorpusSpec::fast(),
        )
    }

    #[test]
    fn predicted_trace_has_one_sample_per_interval() {
        let c = corpus();
        let model = AutoPower::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        let run = c.run(ConfigId::new(2), Workload::Gemm).unwrap();
        let trace = PowerTracePredictor::new(&model).predict_trace(run);
        assert_eq!(trace.samples.len(), run.sim.intervals.len());
        assert!(trace.samples.iter().all(|s| s.power.total() > 0.0));
        // AutoPower resolves groups per interval; the typed samples carry them.
        assert!(trace.samples.iter().all(|s| s.power.groups().is_some()));
    }

    #[test]
    fn total_only_models_predict_total_only_traces() {
        let c = corpus();
        let model = ModelKind::McpatCalib
            .train(&c, &[ConfigId::new(1), ConfigId::new(15)])
            .unwrap();
        let run = c.run(ConfigId::new(2), Workload::Gemm).unwrap();
        let trace = PowerTracePredictor::new(model.as_ref()).predict_trace(run);
        assert!(!trace.is_empty());
        for s in &trace.samples {
            assert!(s.power.total() >= 0.0);
            assert!(s.power.groups().is_none(), "no parked group slot");
        }
        let errors = trace_errors(&c.golden_trace(run), &trace);
        assert!(errors.average_error.is_finite());
    }

    #[test]
    fn trace_errors_are_reasonable_for_a_trained_model() {
        let c = corpus();
        let model = AutoPower::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        let run = c.run(ConfigId::new(2), Workload::Gemm).unwrap();
        let (_, _, errors) = evaluate_trace_prediction(&c, &model, run);
        // Table IV reports single- to low-double-digit percentage errors; allow a loose
        // band here because the test corpus is tiny.
        assert!(
            errors.average_error < 0.35,
            "average error {}",
            errors.average_error
        );
        assert!(errors.max_power_error < 0.5);
        assert!(errors.min_power_error < 0.5);
    }

    #[test]
    fn identical_traces_have_zero_error() {
        let c = corpus();
        let run = c.run(ConfigId::new(1), Workload::Dhrystone).unwrap();
        let golden = c.golden_trace(run);
        let predicted = PredictedPowerTrace {
            config: golden.config,
            workload: golden.workload,
            interval_cycles: golden.interval_cycles,
            samples: golden
                .samples
                .iter()
                .map(|s| PredictedSample {
                    start_cycle: s.start_cycle,
                    cycles: s.cycles,
                    power: Prediction::grouped(s.power),
                })
                .collect(),
        };
        let e = trace_errors(&golden, &predicted);
        assert_eq!(e.max_power_error, 0.0);
        assert_eq!(e.min_power_error, 0.0);
        assert_eq!(e.average_error, 0.0);
        assert_eq!(e.average_error_percent(), 0.0);
    }

    #[test]
    fn zero_power_intervals_do_not_bias_the_average_error() {
        use autopower_powersim::{PowerGroups, PowerSample};
        let golden_trace = |totals: &[f64]| PowerTrace {
            config: ConfigId::new(1),
            workload: Workload::Gemm,
            interval_cycles: 50,
            samples: totals
                .iter()
                .enumerate()
                .map(|(i, &t)| PowerSample {
                    start_cycle: i as u64 * 50,
                    cycles: 50,
                    power: PowerGroups {
                        clock: t,
                        sram: 0.0,
                        register: 0.0,
                        combinational: 0.0,
                    },
                })
                .collect(),
        };
        let predicted_trace = |totals: &[f64]| PredictedPowerTrace {
            config: ConfigId::new(1),
            workload: Workload::Gemm,
            interval_cycles: 50,
            samples: totals
                .iter()
                .enumerate()
                .map(|(i, &t)| PredictedSample {
                    start_cycle: i as u64 * 50,
                    cycles: 50,
                    power: Prediction::total_only(t),
                })
                .collect(),
        };
        // Golden [10, 0, 20] vs predicted [11, 5, 22]: 10 % relative error on
        // each of the two non-zero intervals.  The zero-power interval carries
        // no defined relative error and must not shrink the mean (the old
        // divide-by-all-intervals code reported 6.67 % here).
        let golden = golden_trace(&[10.0, 0.0, 20.0]);
        let predicted = predicted_trace(&[11.0, 5.0, 22.0]);
        let e = trace_errors(&golden, &predicted);
        assert!((e.average_error - 0.1).abs() < 1e-12, "{}", e.average_error);
        // All-zero golden traces degrade to a zero average error, not NaN.
        let zeros = golden_trace(&[0.0, 0.0]);
        let pred = predicted_trace(&[1.0, 2.0]);
        assert_eq!(trace_errors(&zeros, &pred).average_error, 0.0);
    }

    #[test]
    #[should_panic(expected = "same number of intervals")]
    fn mismatched_traces_panic() {
        let c = corpus();
        let model = AutoPower::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        let run_a = c.run(ConfigId::new(1), Workload::Dhrystone).unwrap();
        let run_b = c.run(ConfigId::new(1), Workload::Gemm).unwrap();
        let predicted = PowerTracePredictor::new(&model).predict_trace(run_b);
        let _ = trace_errors(&c.golden_trace(run_a), &predicted);
    }
}
