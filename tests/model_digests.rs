//! Model-bytes golden: the FNV-1a-64 digest and byte length of the encoded
//! form of every registry model, trained exactly the way `save-model --fast`
//! trains it, and of the activity surrogate at the repository benchmark's
//! settings (24 sampled configurations, `SURROGATE_TRAIN_SEED`).
//!
//! Training runs its independent fits concurrently; the encoded bytes must
//! not depend on that (or on anything else about the host), so any drift in
//! training or in the writer shows up here as a changed digest.

use autopower_repro::config::{DesignSpace, Workload};
use autopower_repro::experiments::Experiments;
use autopower_repro::model::{
    encode_model, encode_surrogate, surrogate_gbdt_params, ActivitySurrogate, ModelKind, SweepSpec,
    SURROGATE_TRAIN_SEED,
};

/// One `name digest bytes` line per encoded artefact (see the file header).
const DIGESTS: &str = include_str!("data/model_digests.txt");

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest_line(name: &str, text: &str) -> String {
    format!("{name} {:016X} {}", fnv1a64(text.as_bytes()), text.len())
}

#[test]
fn encoded_models_match_the_committed_digests() {
    let experiments = Experiments::fast();
    let mut lines: Vec<String> = ModelKind::ALL
        .into_iter()
        .map(|kind| {
            let model = experiments.train_sweep_model(kind).unwrap();
            digest_line(kind.registry_name(), &encode_model(model.as_ref()))
        })
        .collect();
    let surrogate = ActivitySurrogate::train(
        &DesignSpace::boom(),
        &[Workload::Dhrystone, Workload::Qsort, Workload::Vvadd],
        &SweepSpec::fast().sim,
        24,
        SURROGATE_TRAIN_SEED,
        &surrogate_gbdt_params(),
    )
    .unwrap();
    lines.push(digest_line("surrogate", &encode_surrogate(&surrogate)));

    let committed: Vec<&str> = DIGESTS
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .collect();
    assert_eq!(
        committed,
        lines,
        "encoded bytes drifted; the digests of this build are:\n{}",
        lines.join("\n")
    );
}
