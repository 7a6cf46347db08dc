//! Corpus generation: running the full substrate flow (synthesis → performance
//! simulation → golden power) for a set of configurations and workloads.
//!
//! A [`Corpus`] is the in-memory equivalent of the paper's data collection: for every
//! `(configuration, workload)` pair it holds the synthesized netlist, the performance
//! simulation (event parameters + true activity + intervals) and the golden power
//! report.  Models are then trained on the runs of the *known* configurations and
//! evaluated on the rest; the evaluation only ever reads `H`, `E` and the golden totals.

use std::sync::Arc;

use autopower_config::{ConfigId, CpuConfig, Workload};
use autopower_netlist::Netlist;
use autopower_perfsim::{SimConfig, SimResult};
use autopower_powersim::{evaluate_trace, PowerReport, PowerTrace};
use autopower_techlib::TechLibrary;

use crate::pipeline::SubstratePipeline;

/// Everything the flow produces for one `(configuration, workload)` pair.
#[derive(Debug, Clone)]
pub struct RunData {
    /// The simulated configuration.
    pub config: CpuConfig,
    /// The executed workload.
    pub workload: Workload,
    /// Synthesized netlist of the configuration.  Synthesis runs once per
    /// configuration; all of that configuration's runs share this allocation.
    pub netlist: Arc<Netlist>,
    /// Performance-simulation result (event parameters, true activity, intervals).
    pub sim: SimResult,
    /// Golden average power report.
    pub golden: PowerReport,
}

/// Parameters of corpus generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusSpec {
    /// Performance-simulation knobs (instruction budget, interval length, distortion).
    pub sim: SimConfig,
    /// Worker threads of the substrate pipeline: `0` (the default) uses one
    /// worker per available core, `1` generates serially, and any other value
    /// is an explicit pool size.  The corpus is bit-identical for every value.
    pub threads: usize,
}

impl CorpusSpec {
    /// The paper-scale settings (50 k instructions per run, 8 % event distortion).
    pub fn paper() -> Self {
        Self {
            sim: SimConfig::paper(),
            threads: 0,
        }
    }

    /// Small, fast settings for tests and doctests.
    pub fn fast() -> Self {
        Self {
            sim: SimConfig::fast(),
            threads: 0,
        }
    }

    /// Same settings with a different event-distortion level (used by the simulator
    /// inaccuracy ablation).
    pub fn with_distortion(mut self, distortion: f64) -> Self {
        self.sim.event_distortion = distortion;
        self
    }

    /// Same settings with an explicit worker-thread count (`0` = one per
    /// available core, `1` = serial generation).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The worker-thread count generation will actually use: the explicit
    /// setting, or the available parallelism when the setting is `0`.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            autopower_ml::parallel::available_threads()
        } else {
            self.threads
        }
    }
}

impl Default for CorpusSpec {
    fn default() -> Self {
        Self::paper()
    }
}

/// A complete data set: one [`RunData`] per `(configuration, workload)` pair, plus the
/// technology library every run was evaluated with.
#[derive(Debug, Clone)]
pub struct Corpus {
    library: TechLibrary,
    spec: CorpusSpec,
    runs: Vec<RunData>,
}

impl Corpus {
    /// Runs the full flow for every `(configuration, workload)` pair.
    ///
    /// Generation runs on the staged substrate pipeline
    /// ([`SubstratePipeline`]) with the worker count of
    /// [`CorpusSpec::threads`], and is deterministic for every worker count:
    /// the same inputs always produce the same corpus, bit for bit.
    pub fn generate(configs: &[CpuConfig], workloads: &[Workload], spec: &CorpusSpec) -> Self {
        let library = TechLibrary::tsmc40_like();
        Self::generate_with_library(configs, workloads, spec, library)
    }

    /// Like [`Corpus::generate`] but with an explicit technology library.
    pub fn generate_with_library(
        configs: &[CpuConfig],
        workloads: &[Workload],
        spec: &CorpusSpec,
        library: TechLibrary,
    ) -> Self {
        let runs = SubstratePipeline::new(configs, workloads, spec, &library).run();
        Self {
            library,
            spec: *spec,
            runs,
        }
    }

    /// The technology library the corpus was generated with.
    pub fn library(&self) -> &TechLibrary {
        &self.library
    }

    /// The generation parameters.
    pub fn spec(&self) -> &CorpusSpec {
        &self.spec
    }

    /// All runs.
    pub fn runs(&self) -> &[RunData] {
        &self.runs
    }

    /// All runs of one configuration.
    pub fn runs_for(&self, config: ConfigId) -> Vec<&RunData> {
        self.runs.iter().filter(|r| r.config.id == config).collect()
    }

    /// All runs of the given training configurations.
    pub fn training_runs(&self, train_configs: &[ConfigId]) -> Vec<&RunData> {
        self.runs
            .iter()
            .filter(|r| train_configs.contains(&r.config.id))
            .collect()
    }

    /// All runs *not* belonging to the given training configurations.
    pub fn test_runs(&self, train_configs: &[ConfigId]) -> Vec<&RunData> {
        self.runs
            .iter()
            .filter(|r| !train_configs.contains(&r.config.id))
            .collect()
    }

    /// One specific run, if present.
    pub fn run(&self, config: ConfigId, workload: Workload) -> Option<&RunData> {
        self.runs
            .iter()
            .find(|r| r.config.id == config && r.workload == workload)
    }

    /// The distinct configuration identifiers present in the corpus, in insertion order.
    pub fn config_ids(&self) -> Vec<ConfigId> {
        let mut ids = Vec::new();
        for r in &self.runs {
            if !ids.contains(&r.config.id) {
                ids.push(r.config.id);
            }
        }
        ids
    }

    /// The distinct workloads present in the corpus, in insertion order.
    pub fn workloads(&self) -> Vec<Workload> {
        let mut ws = Vec::new();
        for r in &self.runs {
            if !ws.contains(&r.workload) {
                ws.push(r.workload);
            }
        }
        ws
    }

    /// Golden time-based power trace of one run (computed on demand from the run's
    /// intervals).
    pub fn golden_trace(&self, run: &RunData) -> PowerTrace {
        evaluate_trace(&run.netlist, &run.sim, &self.library)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopower_config::boom_configs;

    fn small_corpus() -> Corpus {
        let cfgs = boom_configs();
        Corpus::generate(
            &[cfgs[0], cfgs[14]],
            &[Workload::Dhrystone, Workload::Vvadd],
            &CorpusSpec::fast(),
        )
    }

    #[test]
    fn corpus_contains_every_pair() {
        let c = small_corpus();
        assert_eq!(c.runs().len(), 4);
        assert_eq!(c.config_ids().len(), 2);
        assert_eq!(c.workloads().len(), 2);
        assert!(c.run(ConfigId::new(1), Workload::Vvadd).is_some());
        assert!(c.run(ConfigId::new(8), Workload::Vvadd).is_none());
    }

    #[test]
    fn training_and_test_split_partitions_the_runs() {
        let c = small_corpus();
        let train = c.training_runs(&[ConfigId::new(1)]);
        let test = c.test_runs(&[ConfigId::new(1)]);
        assert_eq!(train.len(), 2);
        assert_eq!(test.len(), 2);
        assert!(train.iter().all(|r| r.config.id == ConfigId::new(1)));
        assert!(test.iter().all(|r| r.config.id == ConfigId::new(15)));
    }

    #[test]
    fn golden_power_is_attached_and_positive() {
        let c = small_corpus();
        for r in c.runs() {
            assert!(r.golden.total_mw() > 0.0);
            assert_eq!(r.golden.config, r.config.id);
            assert_eq!(r.golden.workload, r.workload);
        }
    }

    #[test]
    fn golden_trace_matches_run_intervals() {
        let c = small_corpus();
        let run = &c.runs()[0];
        let trace = c.golden_trace(run);
        assert_eq!(trace.samples.len(), run.sim.intervals.len());
    }

    #[test]
    fn distortion_override_is_applied() {
        let spec = CorpusSpec::fast().with_distortion(0.0);
        assert_eq!(spec.sim.event_distortion, 0.0);
    }
}
