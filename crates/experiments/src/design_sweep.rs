//! Design-space sweep: scoring generated (non-seed) configurations through the
//! few-shot model — the tool the paper's introduction promises an architect.
//!
//! Unlike the figure/table experiments, this one leaves the 15 seeded
//! configurations behind: it trains AutoPower on the usual two known
//! configurations, draws `count` fresh configurations from
//! [`DesignSpace::boom`], and batch-predicts their per-group power across the
//! average-power workloads.  No synthesis and no golden power simulation run
//! for any generated configuration — only a fast performance simulation per
//! `(configuration, workload)` pair.

use crate::report::format_table;
use crate::stream_sweep::{StreamScope, SurrogateSpec, SweepRequest};
use crate::surrogate_exp::{audit_section, refuse_unaudited};
use crate::Experiments;
use autopower::{
    rank_by_efficiency, summarize, AuditReport, AutoPowerError, ConfigSummary, ModelKind,
    PowerModel, SimBackend, SweepEngine, SweepSpec,
};
use autopower_config::{ConfigId, CpuConfig, HwParam, Workload};
use autopower_perfsim::SimCacheStats;
use std::fmt;

/// Seed of the design-space draw: fixed so the swept configurations (and hence
/// the printed summary) are reproducible across runs and thread counts.
pub(crate) const SAMPLE_SEED: u64 = 0xA070_90E5;

/// How many best configurations the ranked summary prints (shared with the
/// streaming report so both top tables cover the same k).
pub(crate) const TOP_K: usize = 10;

/// Result of the design-space sweep experiment.
#[derive(Debug, Clone)]
pub struct DesignSweepResult {
    /// The registry model that scored the sweep.
    pub model: ModelKind,
    /// The known configurations the model was trained on — `None` when the
    /// model was loaded pre-trained: the serialized format carries no
    /// training-set record, so the report does not invent one.
    pub train_configs: Option<Vec<ConfigId>>,
    /// The workloads every configuration was scored on.
    pub workloads: Vec<Workload>,
    /// One summary per generated configuration, in draw order.
    pub summaries: Vec<ConfigSummary>,
    /// Simulation-cache statistics of the sweep — `None` when the cache was
    /// disabled (`--no-sim-cache`).
    pub cache_stats: Option<SimCacheStats>,
    /// Audit error table of the surrogate backend, `None` for exact sweeps.
    pub audit: Option<AuditReport>,
    /// Audited fraction of the surrogate run, `None` for exact sweeps.
    pub audit_rate: Option<f64>,
}

impl DesignSweepResult {
    /// Quantile of the per-configuration mean total power (q in `[0, 1]`,
    /// nearest-rank on the sorted totals).
    ///
    /// # Panics
    ///
    /// Panics if the sweep is empty.
    pub fn total_power_quantile(&self, q: f64) -> f64 {
        let totals = sorted(self.summaries.iter().map(|s| s.mean_total).collect());
        quantile(&totals, q)
    }

    /// The `k` most energy-efficient configurations (lowest predicted energy
    /// per instruction), best first.
    pub fn top_by_efficiency(&self, k: usize) -> Vec<&ConfigSummary> {
        let mut ranked = rank_by_efficiency(&self.summaries);
        ranked.truncate(k);
        ranked
    }
}

/// Sorts one power series ascending in IEEE total order, as the streaming
/// sketch does: a NaN prediction (a model file may decode to one) sorts past
/// `+inf` instead of aborting the report.
fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank quantile of an ascending series (the single implementation
/// behind both [`DesignSweepResult::total_power_quantile`] and the printed
/// report).
///
/// # Panics
///
/// Panics if `values` is empty.
fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "empty series has no quantiles");
    values[((values.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize]
}

/// One report row: a label plus min/p25/median/p75/max of a series.
fn quantile_row(label: &str, values: Vec<f64>) -> Vec<String> {
    let values = sorted(values);
    let mut row = vec![label.to_owned()];
    for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
        row.push(format!("{:.2}", quantile(&values, q)));
    }
    row
}

impl fmt::Display for DesignSweepResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let provenance = match &self.train_configs {
            Some(train) => format!(
                "trained on {}",
                train
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join("+")
            ),
            None => "loaded pre-trained".to_owned(),
        };
        writeln!(
            f,
            "Design-space sweep — {} generated configurations x {} workloads, \
             {} {}",
            self.summaries.len(),
            self.workloads.len(),
            self.model.paper_name(),
            provenance,
        )?;
        writeln!(f, "{}", describe_cache(self.cache_stats))?;
        writeln!(f)?;
        writeln!(
            f,
            "predicted power across the space (mW, mean over workloads)"
        )?;
        type GroupGetter = fn(&ConfigSummary) -> f64;
        // Per-group quantile rows exist exactly when the summaries carry a
        // group view; a total-only model's report has only the total row —
        // there is no parked slot to print.
        let resolves_groups = self.summaries.iter().all(|s| s.mean_groups.is_some());
        let groups: &[(&str, GroupGetter)] = if resolves_groups {
            &[
                ("clock", |s| s.mean_groups.expect("group-resolved").clock),
                ("sram", |s| s.mean_groups.expect("group-resolved").sram),
                ("register", |s| {
                    s.mean_groups.expect("group-resolved").register
                }),
                ("combinational", |s| {
                    s.mean_groups.expect("group-resolved").combinational
                }),
                ("total", |s| s.mean_total),
            ]
        } else {
            &[("total", |s| s.mean_total)]
        };
        let rows: Vec<Vec<String>> = groups
            .iter()
            .map(|(label, get)| quantile_row(label, self.summaries.iter().map(get).collect()))
            .collect();
        writeln!(
            f,
            "{}",
            format_table(&["group", "min", "p25", "median", "p75", "max"], &rows)
        )?;
        writeln!(
            f,
            "top {} configurations by predicted energy per instruction",
            TOP_K.min(self.summaries.len())
        )?;
        let rows: Vec<Vec<String>> = self
            .top_by_efficiency(TOP_K)
            .iter()
            .map(|s| {
                vec![
                    s.config.id.to_string(),
                    s.config.value(HwParam::FetchWidth).to_string(),
                    s.config.value(HwParam::DecodeWidth).to_string(),
                    s.config.value(HwParam::RobEntry).to_string(),
                    s.config.value(HwParam::IntIssueWidth).to_string(),
                    s.config.value(HwParam::CacheWay).to_string(),
                    format!("{:.2}", s.mean_ipc),
                    format!("{:.2}", s.mean_total),
                    format!("{:.2}", s.energy_per_instruction),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            format_table(
                &[
                    "config",
                    "fetch",
                    "decode",
                    "rob",
                    "issue",
                    "ways",
                    "IPC",
                    "power(mW)",
                    "pJ/instr",
                ],
                &rows
            )
        )?;
        if let Some(report) = &self.audit {
            writeln!(f)?;
            write!(
                f,
                "{}",
                audit_section(
                    report,
                    self.audit_rate.unwrap_or(0.0),
                    self.workloads.len(),
                    self.summaries.len() as u64,
                )
            )?;
        }
        Ok(())
    }
}

/// One report line describing what the simulation cache did for a sweep.
///
/// Shared by the `sweep` and `compare` reports so the wording (and the
/// "disabled" spelling the `--no-sim-cache` runs grep for) stays in one place.
pub(crate) fn describe_cache(stats: Option<SimCacheStats>) -> String {
    match stats {
        Some(s) if s.hits > 0 => format!(
            "simulation cache: {} of {} simulations deduplicated ({:.1}% hit rate)",
            s.hits,
            s.lookups(),
            100.0 * s.hit_rate(),
        ),
        // An enabled cache that was never consulted (e.g. a resumed sweep
        // with nothing left to stream) has no hit rate to report — saying
        // "no duplicates among 0 simulations" would be misleading.
        Some(s) if s.lookups() == 0 => {
            "simulation cache: enabled, idle (no simulations ran)".to_owned()
        }
        Some(s) => format!(
            "simulation cache: no duplicates among {} simulations",
            s.misses
        ),
        None => "simulation cache: disabled".to_owned(),
    }
}

/// Everything a design-space sweep needs besides a trained model: the
/// training set, the generated configurations and the sweep settings.
/// Deliberately *without* a corpus — a sweep under a loaded model must not pay
/// for corpus generation at all; training paths fetch the corpus separately
/// ([`Experiments::sweep_training_corpus`]).
pub(crate) struct SweepInputs {
    pub train: Vec<ConfigId>,
    pub configs: Vec<CpuConfig>,
    pub workloads: Vec<Workload>,
    pub spec: SweepSpec,
}

impl Experiments {
    /// The shared inputs of the `sweep` and `compare` experiments — one
    /// definition so `compare` provably scores exactly the space (and uses
    /// exactly the settings) the `sweep` experiment does.
    ///
    /// # Errors
    ///
    /// Returns [`AutoPowerError::EmptyEvaluation`] if the scope holds no
    /// configuration — an empty sweep has nothing to report.
    pub(crate) fn sweep_inputs(&self, scope: StreamScope) -> Result<SweepInputs, AutoPowerError> {
        let space = &self.settings().sweep_space;
        let configs = match scope {
            StreamScope::Sampled(count) => space.sample(count, SAMPLE_SEED),
            StreamScope::Full => space.enumerate().collect(),
        };
        if configs.is_empty() {
            return Err(AutoPowerError::EmptyEvaluation);
        }
        Ok(SweepInputs {
            train: self.settings().train_two.clone(),
            configs,
            workloads: self.settings().average_workloads.clone(),
            spec: self.sweep_spec(),
        })
    }

    /// The engine settings every sweeping experiment (`sweep`, `compare`,
    /// `pareto`) derives from the experiment settings.
    pub(crate) fn sweep_spec(&self) -> SweepSpec {
        SweepSpec {
            sim: self.settings().average_sim,
            threads: self.settings().threads,
            use_sim_cache: self.settings().sim_cache,
            chunk_configs: match self.settings().chunk_configs {
                0 => SweepSpec::paper().chunk_configs,
                n => n,
            },
        }
    }

    /// The engine a sweep verb scores with: exact simulation, or the
    /// surrogate backend when one is given.
    ///
    /// # Errors
    ///
    /// Returns an error if the surrogate is incompatible with the sweep.
    pub(crate) fn sweep_engine<'m>(
        &self,
        model: &'m dyn PowerModel,
        surrogate: Option<SurrogateSpec<'m>>,
    ) -> Result<SweepEngine<'m>, AutoPowerError> {
        let engine = SweepEngine::new(model, self.sweep_spec());
        match surrogate {
            Some(s) => engine.with_backend(SimBackend::Surrogate {
                surrogate: s.surrogate,
                audit_rate: s.audit_rate,
            }),
            None => Ok(engine),
        }
    }

    /// Scores the request's scope and keeps every point (the `sweep` CLI
    /// verb): per-group power quantiles plus the most energy-efficient
    /// configurations.  With a surrogate, every configuration's event rates
    /// come from it and the deterministic audit fraction is additionally
    /// simulated exactly to bound its error (those points are emitted
    /// bit-identically to an exact sweep).
    ///
    /// Deterministic end to end: the design-space draw is fixed-seeded, corpus
    /// generation and batch inference are bit-identical for every thread
    /// count, so the printed summary never depends on `--threads`.  A loaded
    /// model sweeps bit-identically to the same model retrained (pinned by
    /// the serialization parity tests).
    ///
    /// # Errors
    ///
    /// Returns [`AutoPowerError::EmptyEvaluation`] if the scope holds no
    /// configuration, and an error if training fails, the surrogate is
    /// incompatible with the sweep settings, or a surrogate run audited zero
    /// configurations.
    pub fn design_space_sweep(
        &self,
        request: &SweepRequest<'_>,
    ) -> Result<DesignSweepResult, AutoPowerError> {
        let inputs = self.sweep_inputs(request.scope)?;
        self.with_model(request.model, |model, train_configs| {
            let engine = self.sweep_engine(model, request.surrogate)?;
            let points = engine.run(&inputs.configs, &inputs.workloads);
            let audit = engine.audit_report();
            if let (Some(report), Some(s)) = (&audit, &request.surrogate) {
                refuse_unaudited(report, inputs.configs.len() as u64, s.audit_rate)?;
            }
            Ok(DesignSweepResult {
                model: model.kind(),
                train_configs,
                summaries: summarize(&points, inputs.workloads.len()),
                workloads: inputs.workloads,
                cache_stats: inputs.spec.use_sim_cache.then(|| engine.cache_stats()),
                audit,
                audit_rate: request.surrogate.map(|s| s.audit_rate),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream_sweep::{ModelSource, StreamOptions};
    use crate::surrogate_exp::SurrogateOptions;
    use autopower::{ParetoConstraints, QuantileSketch};

    /// The default request over `count` sampled configurations.
    fn sampled(count: usize) -> SweepRequest<'static> {
        SweepRequest {
            scope: StreamScope::Sampled(count),
            ..SweepRequest::default()
        }
    }

    #[test]
    fn surrogate_materialized_sweep_audits_and_matches_exact_under_full_audit() {
        let exp = Experiments::fast();
        let surrogate = exp
            .sweep_surrogate(&SurrogateOptions {
                train_count: 10,
                ..SurrogateOptions::default()
            })
            .unwrap();
        let exact = exp.design_space_sweep(&sampled(12)).unwrap();
        let audited = exp
            .design_space_sweep(&SweepRequest {
                surrogate: Some(SurrogateSpec {
                    surrogate: &surrogate,
                    audit_rate: 1.0,
                }),
                ..sampled(12)
            })
            .unwrap();
        // Every point was simulated exactly, so the summaries are bit-equal.
        assert_eq!(audited.summaries, exact.summaries);
        let report = audited
            .audit
            .as_ref()
            .expect("surrogate sweeps carry an audit");
        assert_eq!(
            report.audited_points,
            12 * exp.settings().average_workloads.len() as u64
        );
        let text = audited.to_string();
        assert!(text.contains("surrogate audit"), "got: {text}");
        assert!(text.contains("predicted total power"));
        assert!(!exact.to_string().contains("surrogate audit"));

        // A materialized surrogate sweep that audits nothing is refused
        // outright — it is never "interrupted", so there is no exemption.
        let err = exp
            .design_space_sweep(&SweepRequest {
                surrogate: Some(SurrogateSpec {
                    surrogate: &surrogate,
                    audit_rate: 1e-9,
                }),
                ..sampled(12)
            })
            .unwrap_err();
        assert!(err.to_string().contains("audited zero"), "got: {err}");
    }

    #[test]
    fn sweep_scores_the_requested_number_of_generated_configs() {
        let exp = Experiments::fast();
        let result = exp.design_space_sweep(&sampled(24)).unwrap();
        assert_eq!(result.summaries.len(), 24);
        for s in &result.summaries {
            assert!(!s.config.id.is_seed(), "{} is a seed", s.config.id);
            assert!(s.mean_total > 0.0);
            assert!(s.mean_groups.is_some(), "AutoPower resolves groups");
            assert!(s.mean_ipc > 0.0);
        }
        // Quantiles are ordered and the efficiency ranking is sorted.
        assert!(result.total_power_quantile(0.0) <= result.total_power_quantile(0.5));
        assert!(result.total_power_quantile(0.5) <= result.total_power_quantile(1.0));
        let top = result.top_by_efficiency(5);
        assert_eq!(top.len(), 5);
        for pair in top.windows(2) {
            assert!(pair[0].energy_per_instruction <= pair[1].energy_per_instruction);
        }
        // The printed summary names the sweep and contains both tables.
        let text = result.to_string();
        assert!(text.contains("24 generated configurations"));
        assert!(text.contains("median"));
        assert!(text.contains("pJ/instr"));
    }

    #[test]
    fn sweep_runs_under_a_baseline_model() {
        let exp = Experiments::fast();
        let result = exp
            .design_space_sweep(&SweepRequest {
                model: ModelSource::Train(ModelKind::McpatCalib),
                ..sampled(12)
            })
            .unwrap();
        assert_eq!(result.model, ModelKind::McpatCalib);
        assert_eq!(result.summaries.len(), 12);
        for s in &result.summaries {
            assert!(s.mean_total > 0.0);
            // Total-only model: the typed summary simply has no group view.
            assert!(s.mean_groups.is_none());
        }
        let text = result.to_string();
        assert!(text.contains("McPAT-Calib"));
        // The per-group quantile rows are suppressed for total-only models.
        assert!(!text.contains("clock"));
        assert!(text.contains("total"));
    }

    #[test]
    fn sweep_is_reproducible() {
        let exp = Experiments::fast();
        let a = exp.design_space_sweep(&sampled(8)).unwrap();
        let b = exp.design_space_sweep(&sampled(8)).unwrap();
        assert_eq!(a.summaries, b.summaries);
    }

    #[test]
    fn standalone_sweep_matches_sweep_after_full_corpus() {
        // A standalone sweep trains on the restricted (train-configs-only)
        // corpus; after another experiment populated the full average-power
        // corpus, training reuses it.  Both paths must produce the same model
        // and hence the same sweep.
        let standalone = Experiments::fast();
        let a = standalone.design_space_sweep(&sampled(6)).unwrap();
        let warmed = Experiments::fast();
        let _ = warmed.average_corpus();
        let b = warmed.design_space_sweep(&sampled(6)).unwrap();
        assert_eq!(a.summaries, b.summaries);
    }

    #[test]
    fn empty_sweep_is_rejected() {
        // A zero-count sample and a design space with no valid configuration
        // (decode wider than fetch) are both refused by every verb with a
        // typed error, before any training.
        let empty_space = Experiments::new(
            crate::ExperimentSettings::fast().with_sweep_space(
                autopower_config::DesignSpace::boom()
                    .with_axis(HwParam::FetchWidth, vec![2])
                    .with_axis(HwParam::DecodeWidth, vec![4]),
            ),
        );
        let exp = Experiments::fast();
        for (exp, scope) in [
            (&exp, StreamScope::Sampled(0)),
            (&empty_space, StreamScope::Full),
        ] {
            let request = SweepRequest {
                scope,
                ..SweepRequest::default()
            };
            let empty = |result: Result<(), AutoPowerError>| {
                assert!(
                    matches!(result, Err(AutoPowerError::EmptyEvaluation)),
                    "{scope:?}: {result:?}"
                );
            };
            empty(exp.design_space_sweep(&request).map(drop));
            empty(
                exp.streaming_sweep(&request, &StreamOptions::default())
                    .map(drop),
            );
            empty(
                exp.pareto_frontier(&request, ParetoConstraints::default())
                    .map(drop),
            );
        }
        assert!(matches!(
            exp.model_comparison(0),
            Err(AutoPowerError::EmptyEvaluation)
        ));
    }

    #[test]
    fn nan_predictions_sort_like_the_streaming_sketch() {
        // A model file can decode to NaN weights; the report must still
        // print, ranking NaN the way the streaming sketch does.
        let series = vec![3.0, f64::NAN, 1.0, -f64::NAN, 2.0, f64::INFINITY, 0.5];
        let row = quantile_row("total", series.clone());
        let mut sketch = QuantileSketch::new(1024);
        for &v in &series {
            sketch.insert(v);
        }
        let expected: Vec<String> = [0.0, 0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|&q| format!("{:.2}", sketch.quantile(q).unwrap()))
            .collect();
        assert_eq!(row[1..], expected[..]);
        assert_eq!(row[1], "NaN");
        assert_eq!(row[5], "NaN");
    }
}
