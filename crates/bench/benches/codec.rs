//! Cost of the text codec on its two heavy users: the streaming sweep's
//! checkpoint and the saved model file.
//!
//! * `checkpoint_encode_8192` encodes the checkpoint of an aggregator that
//!   has folded 8,192 configurations (default `StreamSpec`, every power
//!   series resolved).  The checkpoint does not change between iterations,
//!   so after the first one every retained entry's text is cached: the
//!   best case of a re-encode.
//! * `checkpoint_resave` is one chunk of a long streaming sweep's save loop:
//!   starting from an aggregator that has folded 57,344 configurations, each
//!   iteration folds the next 64 summaries, clones the aggregator and
//!   encodes its checkpoint, so the timing includes the text the sketch
//!   compactions invalidate, as a sweep's saves do.
//! * `model_save_fast` saves a fast-trained `autopower` model (temp file +
//!   rename, the path `save-model --fast` takes); `model_load_fast` loads it
//!   back (the cold-start and hot-reload path).
//!
//! Run with `cargo bench --bench codec [filter] [--json FILE]`.

use autopower::{
    encode_checkpoint, load_model, save_model, ChunkCursor, ConfigSummary, Corpus, CorpusSpec,
    ModelKind, PowerGroups, StreamSpec, SweepAggregator, SweepCheckpoint,
};
use autopower_bench::harness::Bench;
use autopower_config::{boom_configs, ConfigId, CpuConfig, DesignSpace, Workload};
use std::hint::black_box;

/// Configurations folded into the benchmarked checkpoint.
const CHECKPOINT_CONFIGS: usize = 8192;

/// Configurations folded before `checkpoint_resave` starts timing.
const RESAVE_START_CONFIGS: usize = 57_344;

/// Configurations folded per timed `checkpoint_resave` iteration (one chunk).
const RESAVE_CHUNK: usize = 64;

/// The `i`-th deterministic pseudo-summary, for `config`.
fn summary(i: usize, config: CpuConfig) -> ConfigSummary {
    let x = i as f64;
    let groups = PowerGroups {
        clock: 3.0 + (x * 0.7).sin(),
        sram: 2.0 + (x * 0.3).cos(),
        register: 1.0 + (x * 0.013).sin().abs(),
        combinational: 4.0 + (x * 0.05).cos(),
    };
    let mean_ipc = 0.8 + (x * 0.11).sin().abs();
    ConfigSummary {
        config,
        mean_total: groups.total(),
        mean_groups: Some(groups),
        mean_ipc,
        energy_per_instruction: groups.total() / mean_ipc,
    }
}

/// A checkpoint of `aggregator`, `offset` configurations in.
fn checkpoint_of(aggregator: SweepAggregator, offset: usize) -> SweepCheckpoint {
    SweepCheckpoint {
        fingerprint: 0x5EED,
        cursor: ChunkCursor {
            offset: offset as u64,
        },
        aggregator,
        audit: None,
    }
}

/// A checkpoint after `CHECKPOINT_CONFIGS` deterministic pseudo-summaries.
fn checkpoint() -> SweepCheckpoint {
    let mut aggregator = SweepAggregator::new(3, &StreamSpec::default());
    for (i, config) in DesignSpace::boom()
        .sample(CHECKPOINT_CONFIGS, 11)
        .into_iter()
        .enumerate()
    {
        aggregator.push_summary(summary(i, config));
    }
    checkpoint_of(aggregator, CHECKPOINT_CONFIGS)
}

fn main() {
    let bench = Bench::from_args();

    if bench.should_run("checkpoint_encode_8192") {
        let checkpoint = checkpoint();
        println!(
            "checkpoint of {CHECKPOINT_CONFIGS} configs: {} bytes\n",
            encode_checkpoint(&checkpoint).len()
        );
        bench.bench("checkpoint_encode_8192", || {
            black_box(encode_checkpoint(&checkpoint))
        });
    }

    if bench.should_run("checkpoint_resave") {
        // The space holds fewer distinct configurations than the sweep
        // folds, so the summaries cycle through a sample (each summary's
        // power and IPC still differ).
        let configs = DesignSpace::boom().sample(1 << 14, 12);
        let mut aggregator = SweepAggregator::new(3, &StreamSpec::default());
        let mut folded = 0;
        while folded < RESAVE_START_CONFIGS {
            aggregator.push_summary(summary(folded, configs[folded % configs.len()]));
            folded += 1;
        }
        println!(
            "checkpoint after {folded} configs: {} bytes\n",
            encode_checkpoint(&checkpoint_of(aggregator.clone(), folded)).len()
        );
        bench.bench("checkpoint_resave", || {
            for _ in 0..RESAVE_CHUNK {
                aggregator.push_summary(summary(folded, configs[folded % configs.len()]));
                folded += 1;
            }
            black_box(encode_checkpoint(&checkpoint_of(
                aggregator.clone(),
                folded,
            )))
        });
    }

    if bench.should_run("model_") {
        let cfgs = boom_configs();
        let corpus = Corpus::generate(
            &[cfgs[0], cfgs[14]],
            &[Workload::Dhrystone, Workload::Qsort, Workload::Vvadd],
            &CorpusSpec::fast(),
        );
        let model = ModelKind::AutoPower
            .train(&corpus, &[ConfigId::new(1), ConfigId::new(15)])
            .expect("train the saved model");
        let path =
            std::env::temp_dir().join(format!("autopower-codec-bench-{}.apm", std::process::id()));
        save_model(model.as_ref(), &path).expect("save the model");
        println!(
            "fast autopower model: {} bytes\n",
            std::fs::metadata(&path).expect("saved model").len()
        );
        bench.bench("model_save_fast", || {
            save_model(model.as_ref(), &path).expect("save the model")
        });
        bench.bench("model_load_fast", || {
            black_box(load_model(&path).expect("load the model"))
        });
        std::fs::remove_file(&path).ok();
    }

    bench.finish();
}
