//! Experiment harness: regenerates every table and figure of the AutoPower evaluation.
//!
//! Each experiment is a method on [`Experiments`], which owns the (lazily generated and
//! cached) corpora so that several experiments can share the expensive simulation work.
//! The binary `autopower-experiments` exposes every experiment as a subcommand; the
//! benches in `autopower-bench` wrap the same methods.
//!
//! | Paper artefact | Method | Subcommand |
//! |---|---|---|
//! | Fig. 1 (Observation 1, power-group breakdown) | [`Experiments::obs1_breakdown`] | `obs1` |
//! | Table I (metadata-table scaling example) | [`Experiments::table1_hardware_model`] | `table1` |
//! | Fig. 4 (accuracy, 2 training configurations) | [`Experiments::fig4_accuracy_two_configs`] | `fig4` |
//! | Fig. 5 (accuracy, 3 training configurations) | [`Experiments::fig5_accuracy_three_configs`] | `fig5` |
//! | Fig. 6 (sweep over #training configurations) | [`Experiments::fig6_training_sweep`] | `fig6` |
//! | Fig. 7 (clock detail, all component-resolving models) | [`Experiments::fig7_clock_detail`] | `fig7` |
//! | Fig. 8 (SRAM detail, all component-resolving models) | [`Experiments::fig8_sram_detail`] | `fig8` |
//! | Table IV (time-based power traces) | [`Experiments::table4_power_trace_with`] | `table4` |
//! | Ablations (program features, simulator inaccuracy) | [`Experiments::ablation_study`] | `ablation` |
//! | Design-space sweep (generated configurations) | [`Experiments::design_space_sweep`] | `sweep` |
//! | Streaming sweep (bounded memory, checkpoint/resume) | [`Experiments::streaming_sweep`] | `sweep --stream` / `--full` |
//! | Pareto frontier (power vs IPC vs area proxy) | [`Experiments::pareto_frontier`] | `pareto` |
//! | Leave-one-out cross-validation | [`Experiments::cross_validation_model`] | `xval` |
//! | Model-disagreement sweep (all registry models) | [`Experiments::model_comparison`] | `compare` |
//!
//! The three sweep verbs take one [`SweepRequest`]: the model
//! ([`ModelSource`]: trained here or loaded), the scope ([`StreamScope`]:
//! sampled or the full space) and an optional surrogate backend
//! ([`SurrogateSpec`]).  Table IV takes the same [`ModelSource`].
//!
//! The `sweep`, `pareto`, `table4` and `xval` subcommands accept `--model
//! NAME` and run under any [`ModelKind`](autopower::ModelKind) registry model;
//! `compare` sweeps the same generated design space under *every* registry
//! model and reports where they disagree.
//!
//! Trained models persist across processes: `save-model --model NAME --out
//! FILE` trains on the sweep corpus and writes the registry-tagged model
//! file; `--load-model FILE` on `sweep`, `pareto` and `table4` restores it
//! with [`autopower::load_model`] ([`ModelSource::Loaded`]) and predicts
//! without retraining — bit-identical to the retrained run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablation;
mod accuracy;
mod compare;
mod design_sweep;
mod detail;
mod obs1;
mod report;
mod settings;
mod stream_sweep;
mod surrogate_exp;
mod sweep;
mod table1;
mod trace_exp;
mod xval_exp;

pub use ablation::AblationResult;
pub use accuracy::{compare_methods, AccuracyComparison, MethodAccuracy};
pub use compare::ModelComparison;
pub use design_sweep::DesignSweepResult;
pub use detail::{ComponentDetailRow, GroupDetailResult, SubModelAccuracy};
pub use obs1::BreakdownResult;
pub use report::{format_table, percent};
pub use settings::ExperimentSettings;
pub use stream_sweep::{
    ModelSource, ParetoResult, StreamOptions, StreamScope, StreamSweepResult, SurrogateSpec,
    SweepRequest, DEFAULT_SWEEP_COUNT,
};
pub use surrogate_exp::{SurrogateOptions, DEFAULT_AUDIT_RATE, DEFAULT_SURROGATE_TRAIN};
pub use sweep::{SweepPoint, SweepResult};
pub use table1::{BlockShape, Table1Result};
pub use trace_exp::{TraceCase, TraceResult};
pub use xval_exp::XvalResult;

use autopower::{Corpus, CorpusSpec};
use autopower_config::Workload;
use std::sync::{Arc, OnceLock};

/// The experiment harness: owns the settings and caches the generated corpora.
///
/// The corpus caches are [`OnceLock`]s, so the harness is `Send + Sync`: benches
/// and parallel drivers can share one `Experiments` (and hence one set of
/// generated corpora) across threads.
pub struct Experiments {
    settings: ExperimentSettings,
    average_corpus: OnceLock<Arc<Corpus>>,
    trace_corpus: OnceLock<Arc<Corpus>>,
    train_corpus: OnceLock<Arc<Corpus>>,
}

impl Experiments {
    /// Creates a harness with the given settings.
    pub fn new(settings: ExperimentSettings) -> Self {
        Self {
            settings,
            average_corpus: OnceLock::new(),
            trace_corpus: OnceLock::new(),
            train_corpus: OnceLock::new(),
        }
    }

    /// Creates a harness with the paper-scale settings.
    pub fn paper() -> Self {
        Self::new(ExperimentSettings::paper())
    }

    /// Creates a harness with small, fast settings (tests, benches, smoke runs).
    pub fn fast() -> Self {
        Self::new(ExperimentSettings::fast())
    }

    /// The settings in use.
    pub fn settings(&self) -> &ExperimentSettings {
        &self.settings
    }

    /// The average-power corpus (riscv-tests workloads), generated on first use.
    ///
    /// Hands out a shared [`Arc`]: the nine experiments all read the same
    /// cached corpus instead of each deep-cloning every run.
    pub fn average_corpus(&self) -> Arc<Corpus> {
        Arc::clone(self.average_corpus.get_or_init(|| {
            Arc::new(Corpus::generate(
                &self.settings.configs,
                &self.settings.average_workloads,
                &CorpusSpec {
                    sim: self.settings.average_sim,
                    threads: self.settings.threads,
                },
            ))
        }))
    }

    /// The trace corpus (GEMM / SPMM on the trace target configurations plus the
    /// training configurations), generated on first use and shared like
    /// [`Experiments::average_corpus`].
    pub fn trace_corpus(&self) -> Arc<Corpus> {
        Arc::clone(self.trace_corpus.get_or_init(|| {
            let mut configs = self.settings.trace_configs.clone();
            for id in &self.settings.train_two {
                let cfg = autopower_config::config_by_id(*id);
                if !configs.iter().any(|c| c.id == cfg.id) {
                    configs.push(cfg);
                }
            }
            let workloads: Vec<Workload> = Workload::TRACE_WORKLOADS.to_vec();
            Arc::new(Corpus::generate(
                &configs,
                &workloads,
                &CorpusSpec {
                    sim: self.settings.trace_sim,
                    threads: self.settings.threads,
                },
            ))
        }))
    }

    /// Trains one registry model exactly the way the `sweep` experiment
    /// does (same corpus, same two-configuration training set) — the
    /// `save-model` CLI path.  A model saved from here and restored with
    /// [`autopower::load_model`] sweeps bit-identically to a
    /// [`ModelSource::Train`] run that retrains.
    ///
    /// # Errors
    ///
    /// Returns an error if training fails.
    pub fn train_sweep_model(
        &self,
        kind: autopower::ModelKind,
    ) -> Result<Box<dyn autopower::PowerModel>, autopower::AutoPowerError> {
        let corpus = self.sweep_training_corpus();
        kind.train(&corpus, &self.settings().train_two)
    }

    /// Runs `score` with the model a request names and its provenance: a
    /// [`ModelSource::Train`] model is trained here
    /// ([`Experiments::train_sweep_model`]) and reported as trained on
    /// [`ExperimentSettings::train_two`]; a [`ModelSource::Loaded`] model is
    /// borrowed as is, with no training set (its file records none).
    pub(crate) fn with_model<R>(
        &self,
        source: ModelSource<'_>,
        score: impl FnOnce(
            &dyn autopower::PowerModel,
            Option<Vec<autopower_config::ConfigId>>,
        ) -> Result<R, autopower::AutoPowerError>,
    ) -> Result<R, autopower::AutoPowerError> {
        match source {
            ModelSource::Train(kind) => {
                let model = self.train_sweep_model(kind)?;
                score(model.as_ref(), Some(self.settings.train_two.clone()))
            }
            ModelSource::Loaded(model) => score(model, None),
        }
    }

    /// Corpus backing the design-space sweep's training.
    ///
    /// Training only reads the runs of the training configurations, so a
    /// standalone `sweep` must not pay for golden power on the other 13
    /// configurations: when no earlier experiment has generated the full
    /// average-power corpus yet, a corpus restricted to
    /// [`ExperimentSettings::train_two`] is generated (and cached) instead.
    /// Both corpora contain bit-identical runs for the training
    /// configurations, so the trained model is the same either way.
    pub(crate) fn sweep_training_corpus(&self) -> Arc<Corpus> {
        if let Some(full) = self.average_corpus.get() {
            return Arc::clone(full);
        }
        Arc::clone(self.train_corpus.get_or_init(|| {
            let train: Vec<autopower_config::CpuConfig> = self
                .settings
                .train_two
                .iter()
                .map(|&id| autopower_config::config_by_id(id))
                .collect();
            Arc::new(Corpus::generate(
                &train,
                &self.settings.average_workloads,
                &CorpusSpec {
                    sim: self.settings.average_sim,
                    threads: self.settings.threads,
                },
            ))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_is_shareable_across_threads() {
        fn check<T: Send + Sync>() {}
        check::<Experiments>();
        // A shared harness generates its corpus exactly once even under
        // concurrent first use.
        let exp = std::sync::Arc::new(Experiments::fast());
        let corpora: Vec<Arc<Corpus>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let exp = Arc::clone(&exp);
                    scope.spawn(move || exp.average_corpus())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for c in &corpora[1..] {
            assert!(Arc::ptr_eq(&corpora[0], c));
        }
    }

    #[test]
    fn corpora_are_cached_and_consistent() {
        let exp = Experiments::fast();
        let a = exp.average_corpus();
        let b = exp.average_corpus();
        // Repeated calls hand out the same allocation — no deep clones.
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.runs().len(), b.runs().len());
        assert_eq!(
            a.runs().len(),
            exp.settings().configs.len() * exp.settings().average_workloads.len()
        );
        let t = exp.trace_corpus();
        assert!(t.runs().iter().all(|r| r.workload.is_trace_workload()));
    }
}
