//! Quickstart: train AutoPower from two known configurations and predict the power of
//! every other configuration in the design space.
//!
//! Run with `cargo run --release --example quickstart`.

use autopower::{evaluate_totals, AutoPower, Corpus, CorpusSpec, PowerModel};
use autopower_config::{boom_configs, ConfigId, Workload};

fn main() {
    // 1. Build the data corpus: synthesize, simulate and power-evaluate every
    //    (configuration, workload) pair.  In the paper this is weeks of EDA runtime; here
    //    it is the synthetic substrate flow.
    let configs = boom_configs();
    let workloads = [
        Workload::Dhrystone,
        Workload::Qsort,
        Workload::Spmv,
        Workload::Vvadd,
    ];
    println!(
        "generating corpus: {} configurations x {} workloads ...",
        configs.len(),
        workloads.len()
    );
    let corpus = Corpus::generate(&configs, &workloads, &CorpusSpec::paper());

    // 2. Train AutoPower from only two *known* configurations (the few-shot setting).
    let known = [ConfigId::new(1), ConfigId::new(15)];
    let model = AutoPower::train(&corpus, &known).expect("training succeeds");
    println!("trained AutoPower on {known:?}");

    // 3. Predict the power of every unseen configuration and compare with golden power.
    let test_runs = corpus.test_runs(&known);
    let summary = evaluate_totals(&test_runs, |run| model.predict_total(run));
    println!(
        "\n{} unseen (configuration, workload) points: MAPE {:.2}%  R^2 {:.3}\n",
        summary.pairs.len(),
        summary.mape_percent(),
        summary.r_squared
    );

    println!("config  workload   golden (mW)  predicted (mW)");
    println!("------------------------------------------------");
    for pair in summary.pairs.iter().take(12) {
        println!(
            "{:<7} {:<10} {:>11.2} {:>15.2}",
            pair.config.to_string(),
            pair.workload.to_string(),
            pair.truth,
            pair.prediction
        );
    }
    println!("... ({} more rows)", summary.pairs.len().saturating_sub(12));
}
