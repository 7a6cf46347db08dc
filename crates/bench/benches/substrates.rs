//! Micro-benchmarks of the substrates: synthesis, performance simulation, golden power
//! evaluation, ML training and the macro mapping rule.
//!
//! Run with `cargo bench --bench substrates [filter]`.

use autopower::{AutoPower, PowerModel, PowerTracePredictor};
use autopower_bench::harness::Bench;
use autopower_bench::{bench_configs, bench_corpus};
use autopower_config::{ConfigId, Workload};
use autopower_ml::{GbdtParams, GradientBoosting, Regressor, RidgeRegression};
use autopower_netlist::synthesize;
use autopower_perfsim::{simulate, SimConfig};
use autopower_powersim::evaluate_run;
use autopower_techlib::TechLibrary;
use autopower_workloads::StreamGenerator;
use std::hint::black_box;

fn main() {
    let bench = Bench::from_args();
    let lib = TechLibrary::tsmc40_like();
    let configs = bench_configs();
    let short_sim = SimConfig {
        max_instructions: 4_000,
        ..SimConfig::fast()
    };

    bench.bench("substrate_netlist_synthesis", || {
        black_box(synthesize(&configs[2], &lib))
    });

    bench.bench("substrate_perfsim_4k_instructions", || {
        black_box(simulate(&configs[1], Workload::Qsort, &short_sim))
    });

    bench.bench("substrate_stream_10k_instructions", || {
        let gen = StreamGenerator::new(Workload::Gemm, 3);
        black_box(gen.take(10_000).count())
    });

    let netlist = synthesize(&configs[1], &lib);
    let sim = simulate(&configs[1], Workload::Dhrystone, &short_sim);
    bench.bench("substrate_golden_power_report", || {
        black_box(evaluate_run(&netlist, &sim, &lib))
    });

    bench.bench("substrate_macro_mapping", || {
        black_box(lib.sram().map_block(black_box(120), black_box(320)))
    });

    let ridge_x: Vec<Vec<f64>> = (0..32)
        .map(|i| vec![i as f64, (i * i % 17) as f64, 3.0])
        .collect();
    let ridge_y: Vec<f64> = ridge_x.iter().map(|r| 2.0 * r[0] + 0.3 * r[1]).collect();
    bench.bench("ml_ridge_fit_32x3", || {
        let mut m = RidgeRegression::default();
        m.fit(&ridge_x, &ridge_y).expect("well-formed training set");
        black_box(m.predict(&ridge_x[7]))
    });

    let gbdt_x: Vec<Vec<f64>> = (0..24)
        .map(|i| vec![(i % 3) as f64, (i % 8) as f64, (i * 7 % 13) as f64])
        .collect();
    let gbdt_y: Vec<f64> = gbdt_x
        .iter()
        .map(|r| r[0] * 3.0 + (r[1] - 4.0).abs())
        .collect();
    let gbdt_params = GbdtParams {
        n_estimators: 60,
        ..GbdtParams::default()
    };
    bench.bench("ml_gbdt_fit_24x3_60trees", || {
        let mut m = GradientBoosting::new(gbdt_params);
        m.fit(&gbdt_x, &gbdt_y).expect("well-formed training set");
        black_box(m.predict(&gbdt_x[5]))
    });

    let corpus = bench_corpus();
    let train = [ConfigId::new(1), ConfigId::new(15)];
    bench.bench("autopower_train_2cfg", || {
        black_box(AutoPower::train(&corpus, &train).expect("training succeeds"))
    });

    let model = AutoPower::train(&corpus, &train).expect("training succeeds");
    let run = corpus
        .run(ConfigId::new(8), Workload::Vvadd)
        .expect("run exists");
    bench.bench("autopower_predict_single_run", || {
        black_box(model.predict_run(run))
    });
    bench.bench("autopower_predict_power_trace", || {
        black_box(PowerTracePredictor::new(&model).predict_trace(run))
    });
}
