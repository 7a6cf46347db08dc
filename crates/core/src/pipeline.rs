//! Staged, parallel substrate pipeline for corpus generation.
//!
//! Corpus generation is the hottest path of the reproduction: every experiment
//! regenerates one pass of the paper's data-collection flow per
//! `(configuration, workload)` pair.  This module models that flow as three
//! explicit stages and executes each stage across a scoped thread pool:
//!
//! 1. **Synthesize** — one netlist per *configuration* (not per run); the
//!    result is memoized behind an [`Arc`] and shared by every workload of the
//!    configuration.
//! 2. **Simulate** — one performance simulation per `(configuration, workload)`
//!    pair; this is the dominant cost at paper-scale instruction budgets.
//! 3. **Evaluate** — one golden power report per run, combining the stage-1
//!    netlist with the stage-2 activity snapshot.
//!
//! Every stage writes its results into a slot indexed by the *input* position,
//! so the assembled corpus is bit-identical regardless of worker count or
//! scheduling: `threads(1)` reproduces the historical serial behaviour and
//! `threads(n)` merely overlaps independent substrate invocations, all of
//! which are pure functions of their inputs.

use std::sync::Arc;

use autopower_config::{CpuConfig, Workload};
pub(crate) use autopower_ml::parallel::{parallel_map, parallel_map_with};
use autopower_netlist::{synthesize, Netlist};
use autopower_perfsim::{simulate_with, SimResult, SimScratch};
use autopower_powersim::{evaluate_run, PowerReport};
use autopower_techlib::TechLibrary;

use crate::dataset::{CorpusSpec, RunData};

/// The staged corpus-generation pipeline.
///
/// Borrows its inputs; [`SubstratePipeline::run`] produces one [`RunData`] per
/// `(configuration, workload)` pair in input order.  Constructed internally by
/// [`Corpus::generate`](crate::Corpus::generate); exposed publicly so callers
/// with bespoke scheduling needs (sharded generation, custom libraries) can
/// drive the stages directly.
#[derive(Debug, Clone, Copy)]
pub struct SubstratePipeline<'a> {
    configs: &'a [CpuConfig],
    workloads: &'a [Workload],
    spec: &'a CorpusSpec,
    library: &'a TechLibrary,
}

impl<'a> SubstratePipeline<'a> {
    /// Creates a pipeline over the full cross product `configs` × `workloads`.
    pub fn new(
        configs: &'a [CpuConfig],
        workloads: &'a [Workload],
        spec: &'a CorpusSpec,
        library: &'a TechLibrary,
    ) -> Self {
        Self {
            configs,
            workloads,
            spec,
            library,
        }
    }

    /// Number of `(configuration, workload)` runs the pipeline will produce.
    pub fn run_count(&self) -> usize {
        self.configs.len() * self.workloads.len()
    }

    /// Stage 1: synthesizes every configuration once, in parallel.
    ///
    /// Returns one shared netlist per configuration, in input order.
    pub fn synthesize_stage(&self, threads: usize) -> Vec<Arc<Netlist>> {
        let configs = self.configs;
        let library = self.library;
        parallel_map(threads, configs.len(), |i| {
            Arc::new(synthesize(&configs[i], library))
        })
    }

    /// Stage 2: performance-simulates every `(configuration, workload)` pair,
    /// in parallel.
    ///
    /// Results are in run order (configuration-major, workload-minor), matching
    /// [`SubstratePipeline::synthesize_stage`] through `run_index /
    /// workloads.len()`.
    pub fn simulate_stage(&self, threads: usize) -> Vec<SimResult> {
        let per_config = self.workloads.len();
        let configs = self.configs;
        let workloads = self.workloads;
        let sim = &self.spec.sim;
        // Each worker reuses one simulation scratch (machine + materialized
        // instruction streams) across every run it claims; results are
        // bit-identical to fresh per-run simulation.
        parallel_map_with(threads, self.run_count(), SimScratch::new, |scratch, i| {
            simulate_with(
                &configs[i / per_config],
                workloads[i % per_config],
                sim,
                scratch,
            )
        })
    }

    /// Stage 3: evaluates the golden power report of every run, in parallel.
    ///
    /// `netlists` and `sims` are the outputs of the two earlier stages.
    ///
    /// # Panics
    ///
    /// Panics if `netlists` or `sims` do not match this pipeline's dimensions.
    pub fn evaluate_stage(
        &self,
        threads: usize,
        netlists: &[Arc<Netlist>],
        sims: &[SimResult],
    ) -> Vec<PowerReport> {
        assert_eq!(
            netlists.len(),
            self.configs.len(),
            "one netlist per configuration"
        );
        assert_eq!(sims.len(), self.run_count(), "one simulation per run");
        let per_config = self.workloads.len();
        let library = self.library;
        parallel_map(threads, self.run_count(), |i| {
            evaluate_run(&netlists[i / per_config], &sims[i], library)
        })
    }

    /// Runs all three stages and assembles the runs in deterministic input
    /// order.
    pub fn run(&self) -> Vec<RunData> {
        let threads = self.spec.effective_threads();
        let netlists = self.synthesize_stage(threads);
        let sims = self.simulate_stage(threads);
        let goldens = self.evaluate_stage(threads, &netlists, &sims);

        let per_config = self.workloads.len().max(1);
        sims.into_iter()
            .zip(goldens)
            .enumerate()
            .map(|(i, (sim, golden))| RunData {
                config: self.configs[i / per_config],
                workload: self.workloads[i % per_config],
                netlist: Arc::clone(&netlists[i / per_config]),
                sim,
                golden,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopower_config::boom_configs;

    #[test]
    fn parallel_map_preserves_order_under_contention() {
        for threads in [1, 2, 5, 16] {
            let out = parallel_map(threads, 97, |i| i * i);
            assert_eq!(out, (0..97).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single_inputs() {
        assert_eq!(parallel_map(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(8, 1, |i| i + 41), vec![41]);
    }

    #[test]
    fn stages_share_one_netlist_per_configuration() {
        let cfgs = boom_configs();
        let configs = [cfgs[0], cfgs[14]];
        let workloads = [Workload::Dhrystone, Workload::Vvadd];
        let spec = CorpusSpec::fast().threads(4);
        let library = TechLibrary::tsmc40_like();
        let pipeline = SubstratePipeline::new(&configs, &workloads, &spec, &library);
        let runs = pipeline.run();
        assert_eq!(runs.len(), 4);
        // Both workloads of one configuration point at the same netlist allocation.
        assert!(Arc::ptr_eq(&runs[0].netlist, &runs[1].netlist));
        assert!(Arc::ptr_eq(&runs[2].netlist, &runs[3].netlist));
        assert!(!Arc::ptr_eq(&runs[0].netlist, &runs[2].netlist));
    }

    #[test]
    fn pipeline_matches_serial_generation_bit_for_bit() {
        let cfgs = boom_configs();
        let configs = [cfgs[0], cfgs[7], cfgs[14]];
        let workloads = [Workload::Dhrystone, Workload::Qsort];
        let library = TechLibrary::tsmc40_like();

        let serial_spec = CorpusSpec::fast().threads(1);
        let parallel_spec = CorpusSpec::fast().threads(6);
        let serial = SubstratePipeline::new(&configs, &workloads, &serial_spec, &library).run();
        let parallel = SubstratePipeline::new(&configs, &workloads, &parallel_spec, &library).run();

        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.config.id, p.config.id);
            assert_eq!(s.workload, p.workload);
            assert_eq!(s.netlist, p.netlist);
            assert_eq!(s.sim.counters, p.sim.counters);
            assert_eq!(s.golden.total_mw(), p.golden.total_mw());
        }
    }
}
