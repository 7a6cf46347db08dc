//! Train + predict throughput of every `ModelKind` registry model, plus the
//! raw GBDT fit cost at paper-scale settings.
//!
//! Trains each of the four registry models on the same fast corpus and
//! measures (a) time to train and (b) single-run prediction throughput
//! through the `dyn PowerModel` trait path — the cost the sweep, trace and
//! cross-validation engines actually pay per point.  `train_surrogate_fast`
//! times the activity-surrogate fit of the repository benchmark's set-up.  The `gbdt_fit_*` benches
//! isolate the boosting trainer itself (120 trees, the paper's setting) on a
//! synthetic 128 × 32 design so the pre-sorted tree builder is measured
//! without any substrate cost; `gbdt_predict_batch_*` time batched forest
//! inference, including the few-shot 6-row fit every AutoPower sub-model is.
//!
//! Run with `cargo bench --bench models [filter] [--json FILE]`.

use autopower::{
    surrogate_gbdt_params, ActivitySurrogate, Corpus, CorpusSpec, ModelKind, PowerModel, SweepSpec,
    SURROGATE_TRAIN_SEED,
};
use autopower_bench::harness::Bench;
use autopower_config::{boom_configs, ConfigId, DesignSpace, Workload};
use autopower_ml::{GbdtParams, GradientBoosting, Matrix, Regressor};
use std::hint::black_box;

/// Synthetic paper-scale regression design: 128 samples × 32 features.
fn synthetic() -> (Vec<Vec<f64>>, Vec<f64>) {
    let x: Vec<Vec<f64>> = (0..128)
        .map(|i| {
            (0..32)
                .map(|j| ((i * 31 + j * 17) % 97) as f64 * 0.13 + (i % 7) as f64)
                .collect()
        })
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|r| r[0] * 2.0 + (r[1] * 0.3).sin() * 5.0 + r[2] * r[3] * 0.01)
        .collect();
    (x, y)
}

/// Few-shot training design: 6 of the synthetic rows, spread over the range.
fn few_shot() -> (Vec<Vec<f64>>, Vec<f64>) {
    let (x, y) = synthetic();
    (0..6).map(|i| (x[i * 21].clone(), y[i * 21])).unzip()
}

fn main() {
    let bench = Bench::from_args();

    let (x, y) = synthetic();
    let matrix = Matrix::from_rows(&x);
    bench.bench("gbdt_fit_128x32_120trees", || {
        let mut m = GradientBoosting::new(GbdtParams::default());
        m.fit_matrix(&matrix, &y).expect("fit succeeds");
        black_box(m)
    });
    bench.bench("gbdt_fit_128x32_120trees_subsampled", || {
        let mut m = GradientBoosting::new(GbdtParams {
            subsample: 0.8,
            colsample: 0.8,
            ..GbdtParams::default()
        });
        m.fit_matrix(&matrix, &y).expect("fit succeeds");
        black_box(m)
    });
    {
        let mut m = GradientBoosting::new(GbdtParams::default());
        m.fit_matrix(&matrix, &y).expect("fit succeeds");
        let mut out = Vec::new();
        bench.bench("gbdt_predict_batch_128x32_120trees", || {
            m.forest().predict_into(&matrix, &mut out);
            black_box(out.last().copied())
        });
    }
    {
        // The power model's regime: every sub-model is fit on 6 rows (two
        // known configurations x three workloads), then scores sweep chunks
        // of 64 configurations x 3 workloads.
        let (x6, y6) = few_shot();
        let mut m = GradientBoosting::new(GbdtParams::default());
        m.fit(&x6, &y6).expect("fit succeeds");
        let probes: Vec<Vec<f64>> = x.iter().cycle().take(192).cloned().collect();
        let probes = Matrix::from_rows(&probes);
        let mut out = Vec::new();
        bench.bench("gbdt_predict_batch_192x32_6shot_120trees", || {
            m.forest().predict_into(&probes, &mut out);
            black_box(out.last().copied())
        });
    }

    let cfgs = boom_configs();
    let workloads = [Workload::Dhrystone, Workload::Qsort, Workload::Vvadd];
    let corpus = Corpus::generate(
        &[cfgs[0], cfgs[7], cfgs[14]],
        &workloads,
        &CorpusSpec::fast(),
    );
    let train = [ConfigId::new(1), ConfigId::new(15)];
    let runs = corpus.runs();
    println!(
        "\nregistry model train + predict throughput ({} training runs, {} predict runs)\n",
        corpus.training_runs(&train).len(),
        runs.len()
    );

    for kind in ModelKind::ALL {
        bench.bench(&format!("train_{kind}"), || {
            black_box(kind.train(&corpus, &train).expect("training succeeds"))
        });
    }

    // The activity surrogate as the repository benchmark fits it at set-up:
    // 24 sampled configurations, each simulated on three workloads, then
    // one ensemble per (workload, event) output.
    let space = DesignSpace::boom();
    bench.bench("train_surrogate_fast", || {
        black_box(
            ActivitySurrogate::train(
                &space,
                &workloads,
                &SweepSpec::fast().sim,
                24,
                SURROGATE_TRAIN_SEED,
                &surrogate_gbdt_params(),
            )
            .expect("training succeeds"),
        )
    });

    let models: Vec<(ModelKind, Box<dyn PowerModel>)> = ModelKind::ALL
        .into_iter()
        .map(|kind| {
            (
                kind,
                kind.train(&corpus, &train).expect("training succeeds"),
            )
        })
        .collect();
    for (kind, model) in &models {
        bench.bench(&format!("predict_all_runs_{kind}"), || {
            runs.iter().map(|run| model.predict_total(run)).sum::<f64>()
        });
    }

    bench.finish();
}
