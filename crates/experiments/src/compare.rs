//! Model-disagreement sweep (`compare` subcommand): every registry model
//! scores the *same* generated design space, and the report shows where they
//! disagree — top-k rank divergence and per-group power deltas against
//! AutoPower.
//!
//! This is the payoff of the [`PowerModel`](autopower::PowerModel) refactor:
//! the baselines were historically dead-ended behind ad-hoc inherent methods,
//! so a question like "would McPAT-Calib have picked the same design?" was
//! unanswerable.  Now every model drives the identical batch-inference path,
//! so disagreement is a one-loop experiment.

use crate::design_sweep::describe_cache;
use crate::report::format_table;
use crate::{Experiments, StreamScope};
use autopower::{
    rank_by_efficiency, summarize, sweep_multi_with_stats, AutoPowerError, ConfigSummary,
    ModelKind, PowerGroups, PowerModel,
};
use autopower_config::{ConfigId, Workload};
use autopower_perfsim::SimCacheStats;
use std::fmt;

/// How many best-by-efficiency configurations the rank-divergence report uses.
const TOP_K: usize = 10;

/// Every registry model's sweep over one shared generated design space.
#[derive(Debug, Clone)]
pub struct ModelComparison {
    /// The known configurations every model was trained on.
    pub train_configs: Vec<ConfigId>,
    /// The workloads every configuration was scored on.
    pub workloads: Vec<Workload>,
    /// Size of the top-k window used for rank divergence.
    pub top_k: usize,
    /// One `(model, per-configuration summaries)` entry per registry model,
    /// in [`ModelKind::ALL`] order; all entries cover the same configurations
    /// in the same draw order.
    pub per_model: Vec<(ModelKind, Vec<ConfigSummary>)>,
    /// Simulation-cache statistics of the shared sweep (`None` when the cache
    /// was disabled).  The simulations are shared by all models, so these
    /// numbers describe the whole comparison, not one model.
    pub cache_stats: Option<SimCacheStats>,
}

impl ModelComparison {
    /// The reference model every disagreement figure is measured against
    /// (AutoPower, the first registry entry).
    pub fn reference(&self) -> ModelKind {
        self.per_model[0].0
    }

    /// The per-configuration summaries of one model.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not part of the comparison.
    pub fn summaries(&self, kind: ModelKind) -> &[ConfigSummary] {
        &self
            .per_model
            .iter()
            .find(|(k, _)| *k == kind)
            .unwrap_or_else(|| panic!("comparison has no {kind} entry"))
            .1
    }

    /// Configuration ids ranked by one model's predicted energy per
    /// instruction, best (lowest) first.
    pub fn ranking(&self, kind: ModelKind) -> Vec<ConfigId> {
        rank_by_efficiency(self.summaries(kind))
            .iter()
            .map(|s| s.config.id)
            .collect()
    }

    /// One efficiency ranking per model, in [`ModelKind::ALL`] order — the
    /// precomputed form the report uses so ranks are not re-sorted per cell.
    fn rankings(&self) -> Vec<(ModelKind, Vec<ConfigId>)> {
        self.per_model
            .iter()
            .map(|(kind, _)| (*kind, self.ranking(*kind)))
            .collect()
    }

    /// 1-based rank of a configuration under one model's efficiency ordering.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not part of the sweep.
    pub fn rank_of(&self, kind: ModelKind, id: ConfigId) -> usize {
        self.ranking(kind)
            .iter()
            .position(|&c| c == id)
            .expect("configuration is part of the sweep")
            + 1
    }

    /// How many of the reference model's top-k configurations also appear in
    /// `kind`'s top-k — `top_k` means perfect agreement on the short-list.
    pub fn top_k_overlap(&self, kind: ModelKind) -> usize {
        let reference = self.ranking(self.reference());
        let reference_top = &reference[..self.top_k.min(reference.len())];
        let other = self.ranking(kind);
        let other_top = &other[..self.top_k.min(other.len())];
        reference_top
            .iter()
            .filter(|id| other_top.contains(id))
            .count()
    }

    /// Mean relative difference of one model's per-configuration mean total
    /// power against the reference model's.
    pub fn mean_total_delta(&self, kind: ModelKind) -> f64 {
        let reference = self.summaries(self.reference());
        let other = self.summaries(kind);
        let n = reference.len() as f64;
        reference
            .iter()
            .zip(other)
            .map(|(r, o)| {
                let truth = r.mean_total;
                ((o.mean_total - truth) / truth).abs()
            })
            .sum::<f64>()
            / n
    }

    /// Mean absolute per-group delta (mW) against the reference model, or
    /// `None` when either side's summaries carry no group structure (the
    /// typed summaries simply have no group view to compare — nothing is
    /// parked).
    pub fn mean_group_delta(&self, kind: ModelKind) -> Option<PowerGroups> {
        let reference = self.summaries(self.reference());
        let other = self.summaries(kind);
        let n = reference.len() as f64;
        let mut delta = PowerGroups::default();
        for (r, o) in reference.iter().zip(other) {
            let (rg, og) = (r.mean_groups?, o.mean_groups?);
            delta.clock += (og.clock - rg.clock).abs();
            delta.sram += (og.sram - rg.sram).abs();
            delta.register += (og.register - rg.register).abs();
            delta.combinational += (og.combinational - rg.combinational).abs();
        }
        Some(delta.scaled(1.0 / n))
    }
}

impl fmt::Display for ModelComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let count = self.per_model[0].1.len();
        writeln!(
            f,
            "Model comparison — {} registry models x {} generated configurations x {} workloads, \
             trained on {}",
            self.per_model.len(),
            count,
            self.workloads.len(),
            self.train_configs
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join("+"),
        )?;
        writeln!(f, "{}", describe_cache(self.cache_stats))?;
        writeln!(f)?;

        // Headline disagreement per model, AutoPower as the reference.  Every
        // ranking is computed exactly once up front — overlap and rank cells
        // below are lookups, not re-sorts.
        let k = self.top_k.min(count);
        let rankings = self.rankings();
        let reference_top = &rankings[0].1[..k];
        let rows: Vec<Vec<String>> = self
            .per_model
            .iter()
            .zip(&rankings)
            .map(|((kind, summaries), (_, ranking))| {
                let n = summaries.len() as f64;
                let mean_total = summaries.iter().map(|s| s.mean_total).sum::<f64>() / n;
                let mean_epi = summaries
                    .iter()
                    .map(|s| s.energy_per_instruction)
                    .sum::<f64>()
                    / n;
                let overlap = reference_top
                    .iter()
                    .filter(|id| ranking[..k].contains(id))
                    .count();
                vec![
                    kind.paper_name().to_owned(),
                    format!("{mean_total:.2}"),
                    format!("{mean_epi:.2}"),
                    format!("{overlap}/{k}"),
                    format!("{:.1}%", self.mean_total_delta(*kind) * 100.0),
                    match self.mean_group_delta(*kind) {
                        Some(d) => format!(
                            "{:.2}/{:.2}/{:.2}/{:.2}",
                            d.clock, d.sram, d.register, d.combinational
                        ),
                        None => "n/a (total-only)".to_owned(),
                    },
                ]
            })
            .collect();
        writeln!(
            f,
            "{}",
            format_table(
                &[
                    "model",
                    "mean power(mW)",
                    "mean pJ/instr",
                    "top-k overlap",
                    "mean |dTotal|",
                    "group deltas clk/sram/reg/comb (mW)",
                ],
                &rows
            )
        )?;

        // Rank divergence: where does each model place AutoPower's short-list?
        writeln!(
            f,
            "rank of {}'s top {k} configurations under every model",
            self.reference().paper_name()
        )?;
        let header: Vec<String> = std::iter::once("config".to_owned())
            .chain(self.per_model.iter().map(|(kind, _)| kind.to_string()))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = reference_top
            .iter()
            .map(|&id| {
                std::iter::once(id.to_string())
                    .chain(rankings.iter().map(|(_, ranking)| {
                        let rank = ranking
                            .iter()
                            .position(|&c| c == id)
                            .expect("all models rank the same configurations")
                            + 1;
                        rank.to_string()
                    }))
                    .collect()
            })
            .collect();
        write!(f, "{}", format_table(&header_refs, &rows))
    }
}

impl Experiments {
    /// Sweeps the same fixed-seeded generated design space under every
    /// registry model and reports where they disagree (the `compare`
    /// subcommand).
    ///
    /// Shares its inputs with [`Experiments::design_space_sweep`] (same seed,
    /// same training set, same sweep settings), so the compared space is
    /// exactly the space the `sweep` experiment scores.  The performance
    /// simulation of each `(configuration, workload)` pair runs once and is
    /// shared by all models ([`sweep_multi_with_stats`]) — simulation output
    /// does not depend on the model.
    ///
    /// # Errors
    ///
    /// Returns [`AutoPowerError::EmptyEvaluation`] if `count` is zero, and an
    /// error if any model fails to train.
    pub fn model_comparison(&self, count: usize) -> Result<ModelComparison, AutoPowerError> {
        let inputs = self.sweep_inputs(StreamScope::Sampled(count))?;
        let corpus = self.sweep_training_corpus();
        let models = ModelKind::ALL
            .into_iter()
            .map(|kind| kind.train(&corpus, &inputs.train))
            .collect::<Result<Vec<Box<dyn PowerModel>>, AutoPowerError>>()?;
        let refs: Vec<&dyn PowerModel> = models.iter().map(Box::as_ref).collect();
        let (point_sets, cache_stats) =
            sweep_multi_with_stats(&refs, &inputs.spec, &inputs.configs, &inputs.workloads);
        let per_model = ModelKind::ALL
            .into_iter()
            .zip(point_sets)
            .map(|(kind, points)| (kind, summarize(&points, inputs.workloads.len())))
            .collect();
        Ok(ModelComparison {
            train_configs: inputs.train,
            workloads: inputs.workloads,
            top_k: TOP_K,
            per_model,
            cache_stats: inputs.spec.use_sim_cache.then_some(cache_stats),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registry_model_scores_the_same_space() {
        let exp = Experiments::fast();
        let cmp = exp.model_comparison(12).unwrap();
        assert_eq!(cmp.per_model.len(), ModelKind::ALL.len());
        assert_eq!(cmp.reference(), ModelKind::AutoPower);
        let reference_ids: Vec<ConfigId> = cmp
            .summaries(ModelKind::AutoPower)
            .iter()
            .map(|s| s.config.id)
            .collect();
        for (kind, summaries) in &cmp.per_model {
            assert_eq!(summaries.len(), 12, "{kind} swept a different count");
            let ids: Vec<ConfigId> = summaries.iter().map(|s| s.config.id).collect();
            assert_eq!(ids, reference_ids, "{kind} swept a different space");
            assert!(summaries.iter().all(|s| s.mean_total > 0.0));
        }
    }

    #[test]
    fn disagreement_figures_are_zero_against_the_reference_itself() {
        let exp = Experiments::fast();
        let cmp = exp.model_comparison(10).unwrap();
        assert_eq!(cmp.top_k_overlap(ModelKind::AutoPower), cmp.top_k.min(10));
        assert_eq!(cmp.mean_total_delta(ModelKind::AutoPower), 0.0);
        let self_delta = cmp.mean_group_delta(ModelKind::AutoPower).unwrap();
        assert_eq!(self_delta.total(), 0.0);
        // Total-only models have no meaningful group split to compare.
        assert!(cmp.mean_group_delta(ModelKind::McpatCalib).is_none());
        assert!(cmp.mean_group_delta(ModelKind::AutoPowerMinus).is_some());
    }

    #[test]
    fn report_names_every_model_and_both_tables() {
        let exp = Experiments::fast();
        let cmp = exp.model_comparison(8).unwrap();
        let text = cmp.to_string();
        for kind in ModelKind::ALL {
            assert!(text.contains(kind.paper_name()), "missing {kind}");
        }
        assert!(text.contains("top-k overlap"));
        assert!(text.contains("rank of AutoPower's top"));
        // Ranks are within 1..=count for every model.
        for kind in ModelKind::ALL {
            for id in cmp.ranking(kind) {
                let rank = cmp.rank_of(kind, id);
                assert!((1..=8).contains(&rank));
            }
        }
    }
}
