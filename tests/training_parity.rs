//! Training parity: the pre-sorted tree trainer and flat-forest inference of
//! PR 5 must reproduce the PR 4 predictions **bit for bit**.
//!
//! The golden bit patterns below were captured from the PR 4 trainer (per-node
//! row sorts, boxed-tree inference) on the standard fast corpus before the
//! refactor landed.  Any change to split selection, accumulation order, tie
//! breaking or traversal shows up here as a hard failure — this is the
//! regression fence around the repo's standing "predictions never move"
//! invariant.

use autopower_repro::config::{boom_configs, ConfigId, Workload};
use autopower_repro::ml::{GbdtParams, GradientBoosting, Matrix, Regressor};
use autopower_repro::model::{
    Corpus, CorpusSpec, FeatureScratch, ModelKind, PredictInput, Prediction,
};
use autopower_repro::powersim::PowerGroups;

/// `predict_total` bits of every registry model over every run of the
/// standard fast corpus (3 configs × 3 workloads, trained on C1+C15),
/// captured from the PR 4 trainer.
const GOLDEN_TOTAL_BITS: [(ModelKind, [u64; 9]); 4] = [
    (
        ModelKind::AutoPower,
        [
            0x404360abe9981dfb,
            0x403fccd5268637ae,
            0x40420fd048b3a6eb,
            0x4052f8b2ca53d454,
            0x405144314d5aa935,
            0x40535537c80d15cd,
            0x40596cebe947913f,
            0x4056422084b04710,
            0x40654a1142f30757,
        ],
    ),
    (
        ModelKind::McpatCalib,
        [
            0x404362ccb6fbb176,
            0x403ff3ee5200c984,
            0x40421189c58b7cbb,
            0x405964b0bb9bf5cb,
            0x405637bc81b354f7,
            0x405964b0bb9bf5cb,
            0x405964b0bb9bf5cb,
            0x405637bc81b354f7,
            0x406545b66aaf3885,
        ],
    ),
    (
        ModelKind::McpatCalibComponent,
        [
            0x404364b298635357,
            0x403fec61eabdc377,
            0x404211d76178fa04,
            0x4055d61375305a77,
            0x40500961c3b82844,
            0x40559c1eaf23083d,
            0x4059676b58ee06ef,
            0x4056389d7ec64707,
            0x406545b8a7cdd1a4,
        ],
    ),
    (
        ModelKind::AutoPowerMinus,
        [
            0x4043655624c61f27,
            0x403febc423745cd2,
            0x404211b5e738fb29,
            0x40550d241ec4a547,
            0x404f0646786689cd,
            0x4054b62882157768,
            0x405967a57fe46c10,
            0x405638a6d5c6b01a,
            0x4065460410008d5e,
        ],
    ),
];

fn corpus() -> Corpus {
    let cfgs = boom_configs();
    Corpus::generate(
        &[cfgs[0], cfgs[7], cfgs[14]],
        &[Workload::Dhrystone, Workload::Qsort, Workload::Vvadd],
        &CorpusSpec::fast(),
    )
}

#[test]
fn presorted_training_reproduces_the_pr4_goldens_for_every_registry_model() {
    let c = corpus();
    let train = [ConfigId::new(1), ConfigId::new(15)];
    for (kind, golden) in GOLDEN_TOTAL_BITS {
        let model = kind.train(&c, &train).unwrap();
        for (run, &want) in c.runs().iter().zip(golden.iter()) {
            let got = model.predict_total(run);
            assert_eq!(
                got.to_bits(),
                want,
                "{kind} drifted on {:?}/{:?}: predicted {got}, golden {}",
                run.config.id,
                run.workload,
                f64::from_bits(want)
            );
        }
    }
}

#[test]
fn flat_forest_serves_the_same_bits_as_the_recursive_reference() {
    // The same property the ml-crate proptests pin, exercised here on real
    // power-model feature distributions: a GBDT trained on corpus-shaped data
    // predicts identically through the flat and the recursive path.
    let c = corpus();
    let runs = c.runs();
    let rows: Vec<Vec<f64>> = runs
        .iter()
        .map(|r| autopower_repro::model::baselines::McpatCalib::features(&r.config, &r.sim.events))
        .collect();
    let targets: Vec<f64> = runs.iter().map(|r| r.golden.total_mw()).collect();
    let mut m = GradientBoosting::new(GbdtParams::default());
    m.fit(&rows, &targets).unwrap();
    let matrix = Matrix::from_rows(&rows);
    let mut batched = Vec::new();
    m.forest().predict_into(&matrix, &mut batched);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(m.predict(row).to_bits(), m.predict_recursive(row).to_bits());
        assert_eq!(batched[i].to_bits(), m.predict_recursive(row).to_bits());
    }
}

/// Every float a prediction carries, as bits: the total, the core groups and
/// each component's total and groups.
fn prediction_bits(p: &Prediction) -> Vec<u64> {
    let mut bits = vec![p.total().to_bits()];
    let groups = |g: PowerGroups| [g.clock, g.sram, g.register, g.combinational];
    bits.extend(p.groups().into_iter().flat_map(groups).map(f64::to_bits));
    for (_, entry) in p.components().into_iter().flat_map(|b| b.iter()) {
        bits.push(entry.total.to_bits());
        bits.extend(entry.groups.into_iter().flat_map(groups).map(f64::to_bits));
    }
    bits
}

#[test]
fn one_batch_of_all_runs_matches_each_run_scored_as_a_batch_of_one() {
    let c = corpus();
    let train = [ConfigId::new(1), ConfigId::new(15)];
    let points: Vec<PredictInput<'_>> = c
        .runs()
        .iter()
        .map(|run| PredictInput::new(&run.config, &run.sim.events, run.workload))
        .collect();
    // One scratch shared across every model and call: neither reuse nor the
    // rest of the batch ever changes a prediction.
    let mut scratch = FeatureScratch::new();
    let (mut batch, mut single) = (Vec::new(), Vec::new());
    for kind in ModelKind::ALL {
        let model = kind.train(&c, &train).unwrap();
        model.predict_batch_with(&points, &mut scratch, &mut batch);
        assert_eq!(batch.len(), points.len(), "{kind}");
        for (point, batched) in points.iter().zip(&batch) {
            model.predict_batch_with(std::slice::from_ref(point), &mut scratch, &mut single);
            assert_eq!(single.len(), 1, "{kind}");
            assert_eq!(
                prediction_bits(&single[0]),
                prediction_bits(batched),
                "{kind} scored {} {} differently alone",
                point.config.id,
                point.workload
            );
        }
    }
}
