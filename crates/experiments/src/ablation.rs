//! Ablation studies on the design choices DESIGN.md calls out:
//!
//! * A1 — program-level features in the SRAM activity model (Section II-B argues they
//!   make the model robust to performance-simulator inaccuracy);
//! * A2 — sensitivity to the simulator-inaccuracy level itself (the event-parameter
//!   distortion of the gem5 substitute).

use crate::report::{format_table, percent};
use crate::Experiments;
use autopower::{evaluate_totals, AutoPower, Corpus, CorpusSpec, ModelFeatures, PowerModel};
use std::fmt;

/// Result of the ablation study.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// `(distortion, MAPE with program features, MAPE without program features)`.
    pub rows: Vec<(f64, f64, f64)>,
}

impl AblationResult {
    /// Whether program-level features helped (lower or equal MAPE) at the highest
    /// distortion level evaluated.
    pub fn program_features_help_under_inaccuracy(&self) -> bool {
        self.rows
            .last()
            .map(|(_, with, without)| with <= without)
            .unwrap_or(false)
    }
}

impl fmt::Display for AblationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Ablation — program-level features vs. performance-simulator inaccuracy"
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(d, with, without)| {
                vec![
                    format!("{:.0}%", d * 100.0),
                    percent(*with),
                    percent(*without),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            format_table(
                &[
                    "event distortion",
                    "MAPE (with program features)",
                    "MAPE (without)"
                ],
                &rows
            )
        )
    }
}

impl Experiments {
    /// Runs the ablation study: for each simulator-inaccuracy level, trains AutoPower
    /// with and without program-level features and compares test MAPE.
    pub fn ablation_study(&self) -> AblationResult {
        let settings = self.settings();
        let train = settings.train_two.clone();
        let distortions = [0.0, settings.average_sim.event_distortion.max(0.05), 0.25];
        let mut rows = Vec::new();
        for &distortion in &distortions {
            let spec = CorpusSpec {
                sim: settings.average_sim,
                threads: settings.threads,
            }
            .with_distortion(distortion);
            let corpus = Corpus::generate(&settings.configs, &settings.average_workloads, &spec);
            let with = train_and_score(&corpus, &train, ModelFeatures::HW_EVENTS_PROGRAM);
            let without = train_and_score(&corpus, &train, ModelFeatures::HW_EVENTS);
            rows.push((distortion, with, without));
        }
        AblationResult { rows }
    }
}

fn train_and_score(
    corpus: &Corpus,
    train: &[autopower_config::ConfigId],
    features: ModelFeatures,
) -> f64 {
    let model = AutoPower::train_with_features(corpus, train, features).expect("training succeeds");
    let test_runs = corpus.test_runs(train);
    evaluate_totals(&test_runs, |run| model.predict_total(run)).mape
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_produces_one_row_per_distortion_level() {
        let exp = Experiments::fast();
        let r = exp.ablation_study();
        assert_eq!(r.rows.len(), 3);
        for (d, with, without) in &r.rows {
            assert!(*d >= 0.0);
            assert!(*with >= 0.0 && *without >= 0.0);
            assert!(
                *with < 0.5 && *without < 0.5,
                "MAPE should stay sane: {with} / {without}"
            );
        }
        assert!(r.to_string().contains("event distortion"));
    }
}
