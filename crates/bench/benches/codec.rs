//! Cost of the text codec on its two heavy users: the streaming sweep's
//! checkpoint and the saved model file.
//!
//! * `checkpoint_encode_8192` encodes the checkpoint of an aggregator that
//!   has folded 8,192 configurations (default `StreamSpec`, every power
//!   series resolved) — what a long sweep re-encodes after every chunk.
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
use autopower_config::{boom_configs, ConfigId, DesignSpace, Workload};
use std::hint::black_box;

/// Configurations folded into the benchmarked checkpoint.
const CHECKPOINT_CONFIGS: usize = 8192;

/// A checkpoint after `CHECKPOINT_CONFIGS` deterministic pseudo-summaries.
fn checkpoint() -> SweepCheckpoint {
    let mut aggregator = SweepAggregator::new(3, &StreamSpec::default());
    for (i, config) in DesignSpace::boom()
        .sample(CHECKPOINT_CONFIGS, 11)
        .into_iter()
        .enumerate()
    {
        let x = i as f64;
        let groups = PowerGroups {
            clock: 3.0 + (x * 0.7).sin(),
            sram: 2.0 + (x * 0.3).cos(),
            register: 1.0 + (x * 0.013).sin().abs(),
            combinational: 4.0 + (x * 0.05).cos(),
        };
        let mean_ipc = 0.8 + (x * 0.11).sin().abs();
        aggregator.push_summary(ConfigSummary {
            config,
            mean_total: groups.total(),
            mean_groups: Some(groups),
            mean_ipc,
            energy_per_instruction: groups.total() / mean_ipc,
        });
    }
    SweepCheckpoint {
        fingerprint: 0x5EED,
        cursor: ChunkCursor {
            offset: CHECKPOINT_CONFIGS as u64,
        },
        aggregator,
        audit: None,
    }
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
