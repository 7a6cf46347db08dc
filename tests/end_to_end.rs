//! Workspace-level integration test: the full flow from configurations to few-shot
//! power prediction, spanning every crate.

use autopower::baselines::McpatCalib;
use autopower::{evaluate_totals, AutoPower, Corpus, CorpusSpec, PowerModel};
use autopower_config::{boom_configs, ConfigId, Workload};
use autopower_perfsim::SimConfig;

fn small_spec() -> CorpusSpec {
    CorpusSpec {
        sim: SimConfig {
            max_instructions: 5_000,
            ..SimConfig::fast()
        },
        ..CorpusSpec::fast()
    }
}

#[test]
fn full_flow_end_to_end() {
    let all = boom_configs();
    let configs = [all[0], all[4], all[7], all[11], all[14]];
    let workloads = [Workload::Dhrystone, Workload::Qsort, Workload::Vvadd];
    let corpus = Corpus::generate(&configs, &workloads, &small_spec());
    assert_eq!(corpus.runs().len(), configs.len() * workloads.len());

    let train = [ConfigId::new(1), ConfigId::new(15)];
    let model = AutoPower::train(&corpus, &train).expect("AutoPower trains from two configs");
    let baseline = McpatCalib::train(&corpus, &train).expect("baseline trains");

    let test_runs = corpus.test_runs(&train);
    let ours = evaluate_totals(&test_runs, |run| model.predict_total(run));
    let theirs = evaluate_totals(&test_runs, |run| baseline.predict_total(run));

    // Headline claim of the paper, reproduced in shape: the decoupled model is more
    // accurate than the monolithic ML baseline in the few-shot regime.
    assert!(
        ours.mape < theirs.mape,
        "AutoPower MAPE {} should beat McPAT-Calib MAPE {}",
        ours.mape,
        theirs.mape
    );
    assert!(ours.mape < 0.15, "AutoPower MAPE {}", ours.mape);
    assert!(ours.r_squared > 0.8, "AutoPower R^2 {}", ours.r_squared);
}

#[test]
fn corpus_generation_is_fully_deterministic() {
    let all = boom_configs();
    let configs = [all[0], all[14]];
    let workloads = [Workload::Median];
    let a = Corpus::generate(&configs, &workloads, &small_spec());
    let b = Corpus::generate(&configs, &workloads, &small_spec());
    for (ra, rb) in a.runs().iter().zip(b.runs()) {
        assert_eq!(ra.golden.total_mw(), rb.golden.total_mw());
        assert_eq!(ra.sim.counters, rb.sim.counters);
        assert_eq!(ra.netlist, rb.netlist);
    }
}

#[test]
fn trained_model_predictions_are_deterministic_and_physical() {
    let all = boom_configs();
    let configs = [all[0], all[7], all[14]];
    let workloads = [Workload::Dhrystone, Workload::Rsort];
    let corpus = Corpus::generate(&configs, &workloads, &small_spec());
    let train = [ConfigId::new(1), ConfigId::new(15)];
    let m1 = AutoPower::train(&corpus, &train).expect("training succeeds");
    let m2 = AutoPower::train(&corpus, &train).expect("training succeeds");
    for run in corpus.runs() {
        let p1 = m1.predict_run(run);
        let p2 = m2.predict_run(run);
        assert_eq!(p1, p2, "training and prediction must be deterministic");
        assert!(p1.is_physical());
        assert!(p1.total() > 0.0);
    }
}

#[test]
fn predictions_scale_with_configuration_size() {
    // A basic sanity property: the predicted power of the largest configuration exceeds
    // that of the smallest one for the same workload.
    let all = boom_configs();
    let configs = [all[0], all[4], all[9], all[14]];
    let workloads = [Workload::Dhrystone, Workload::Vvadd];
    let corpus = Corpus::generate(&configs, &workloads, &small_spec());
    let model = AutoPower::train(&corpus, &[ConfigId::new(1), ConfigId::new(15)])
        .expect("training succeeds");
    let small = corpus.run(ConfigId::new(5), Workload::Dhrystone).unwrap();
    let large = corpus.run(ConfigId::new(10), Workload::Dhrystone).unwrap();
    assert!(model.predict_total(large) > model.predict_total(small));
}
