//! Regression tests for the parallel substrate pipeline: a corpus generated on a
//! worker pool must be bit-identical to the serial one, at every layer of the run
//! data, and downstream training must not observe any difference.

use autopower::{AutoPower, Corpus, CorpusSpec, PowerModel};
use autopower_config::{boom_configs, ConfigId, Workload};
use autopower_perfsim::SimConfig;

fn spec(threads: usize) -> CorpusSpec {
    CorpusSpec {
        sim: SimConfig {
            max_instructions: 5_000,
            ..SimConfig::fast()
        },
        ..CorpusSpec::fast()
    }
    .threads(threads)
}

fn paper_shaped_inputs() -> (Vec<autopower_config::CpuConfig>, Vec<Workload>) {
    let all = boom_configs();
    let configs = vec![all[0], all[3], all[7], all[11], all[14]];
    let workloads = vec![Workload::Dhrystone, Workload::Qsort, Workload::Vvadd];
    (configs, workloads)
}

#[test]
fn parallel_corpus_is_bit_identical_to_serial() {
    let (configs, workloads) = paper_shaped_inputs();
    let serial = Corpus::generate(&configs, &workloads, &spec(1));
    let parallel = Corpus::generate(&configs, &workloads, &spec(8));

    assert_eq!(serial.runs().len(), parallel.runs().len());
    for (s, p) in serial.runs().iter().zip(parallel.runs()) {
        // Run identity and order.
        assert_eq!(s.config.id, p.config.id);
        assert_eq!(s.workload, p.workload);
        // Synthesized netlists (full structural equality).
        assert_eq!(s.netlist, p.netlist);
        // Performance simulation: counters, event parameters and intervals.
        assert_eq!(s.sim.counters, p.sim.counters);
        assert_eq!(s.sim.intervals.len(), p.sim.intervals.len());
        // Golden power, bit for bit.
        assert_eq!(s.golden.total_mw(), p.golden.total_mw());
        assert_eq!(s.golden.total, p.golden.total);
    }
}

#[test]
fn auto_thread_default_matches_serial() {
    let all = boom_configs();
    let configs = [all[0], all[14]];
    let workloads = [Workload::Median];
    // threads = 0 resolves to the available parallelism; the corpus must still
    // be identical to the serial one.
    let auto = Corpus::generate(&configs, &workloads, &spec(0));
    let serial = Corpus::generate(&configs, &workloads, &spec(1));
    for (a, s) in auto.runs().iter().zip(serial.runs()) {
        assert_eq!(a.netlist, s.netlist);
        assert_eq!(a.sim.counters, s.sim.counters);
        assert_eq!(a.golden.total_mw(), s.golden.total_mw());
    }
}

#[test]
fn models_trained_on_serial_and_parallel_corpora_agree() {
    let (configs, workloads) = paper_shaped_inputs();
    let serial = Corpus::generate(&configs, &workloads, &spec(1));
    let parallel = Corpus::generate(&configs, &workloads, &spec(8));
    let train = [ConfigId::new(1), ConfigId::new(15)];
    let model_s = AutoPower::train(&serial, &train).expect("training succeeds");
    let model_p = AutoPower::train(&parallel, &train).expect("training succeeds");
    for (rs, rp) in serial.runs().iter().zip(parallel.runs()) {
        assert_eq!(model_s.predict_run(rs), model_p.predict_run(rp));
    }
}

#[test]
fn oversubscribed_pool_is_still_deterministic() {
    // More workers than runs: the pool must neither deadlock nor reorder.
    let all = boom_configs();
    let configs = [all[2]];
    let workloads = [Workload::Towers];
    let wide = Corpus::generate(&configs, &workloads, &spec(32));
    let narrow = Corpus::generate(&configs, &workloads, &spec(1));
    assert_eq!(wide.runs().len(), 1);
    assert_eq!(
        wide.runs()[0].golden.total_mw(),
        narrow.runs()[0].golden.total_mw()
    );
}
