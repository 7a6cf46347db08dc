//! Registry parity: for every registry model, typed predictions made through
//! `Box<dyn PowerModel>` carry the model's resolved structure, the
//! per-component views match goldens committed before scoring collapsed onto
//! one batch path, and the model-agnostic engines (sweep, trace, xval) accept
//! baselines.  Totals are pinned by `tests/training_parity.rs`.

use autopower_repro::config::{boom_configs, Component, ConfigId, DesignSpace, Workload};
use autopower_repro::model::{
    cross_validate_model, AutoPower, Corpus, CorpusSpec, FeatureScratch, ModelKind, PowerModel,
    PowerTracePredictor, PredictInput, Resolution, SweepEngine, SweepSpec,
};
use autopower_repro::perfsim::{simulate_counters_with, EventParams, SimScratch};
use autopower_repro::powersim::PowerGroups;

/// `predict_components` bits of the three component-resolving models on
/// [`corpus`], one line per (model, run, component).
const COMPONENT_GOLDENS: &str = include_str!("data/component_goldens.txt");

fn corpus() -> Corpus {
    let cfgs = boom_configs();
    Corpus::generate(
        &[cfgs[0], cfgs[7], cfgs[14]],
        &[Workload::Dhrystone, Workload::Qsort, Workload::Vvadd],
        &CorpusSpec::fast(),
    )
}

fn train_ids() -> [ConfigId; 2] {
    [ConfigId::new(1), ConfigId::new(15)]
}

fn bits(groups: PowerGroups) -> [u64; 4] {
    [
        groups.clock.to_bits(),
        groups.sram.to_bits(),
        groups.register.to_bits(),
        groups.combinational.to_bits(),
    ]
}

/// Checks `kind`'s per-component view of every corpus run against the
/// committed goldens: each entry's total and, where resolved, its groups.
fn assert_component_view_matches_goldens(kind: ModelKind) {
    let c = corpus();
    let model = kind.train(&c, &train_ids()).unwrap();
    let mut goldens = COMPONENT_GOLDENS
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| line.split_whitespace().collect::<Vec<_>>())
        .filter(|fields| fields[0] == kind.registry_name());
    for run in c.runs() {
        let breakdown = model.predict_run_components(run).unwrap();
        for (component, entry) in breakdown.iter() {
            let fields = goldens
                .next()
                .expect("one golden line per run and component");
            let key = [
                run.config.id.to_string(),
                run.workload.to_string(),
                component.to_string(),
            ];
            assert_eq!(fields[1..4], key, "{kind}: goldens out of order");
            let want: Vec<u64> = fields[4..]
                .iter()
                .map(|hex| u64::from_str_radix(hex, 16).unwrap())
                .collect();
            let mut got = vec![entry.total.to_bits()];
            got.extend(entry.groups.map(bits).into_iter().flatten());
            assert_eq!(got, want, "{kind} drifted on {key:?}");
        }
    }
    assert!(goldens.next().is_none(), "{kind}: unused goldens");
}

#[test]
fn autopower_core_groups_fold_the_component_view() {
    let c = corpus();
    let boxed: Box<dyn PowerModel> = ModelKind::AutoPower.train(&c, &train_ids()).unwrap();
    for run in c.runs() {
        let typed = boxed.predict_run(run);
        assert!(matches!(typed.resolution(), Resolution::Grouped(_)));
        // The core groups are the component terms folded in Component::ALL
        // order.
        let mut folded = PowerGroups::default();
        for (_, entry) in boxed.predict_run_components(run).unwrap().iter() {
            folded += entry.groups.unwrap();
        }
        assert_eq!(bits(typed.groups().unwrap()), bits(folded));
        assert_eq!(typed.total().to_bits(), folded.total().to_bits());
        assert_eq!(boxed.predict_total(run).to_bits(), typed.total().to_bits());
    }
}

#[test]
fn autopower_component_view_matches_the_committed_goldens() {
    assert_component_view_matches_goldens(ModelKind::AutoPower);
}

#[test]
fn autopower_minus_component_view_matches_the_committed_goldens() {
    assert_component_view_matches_goldens(ModelKind::AutoPowerMinus);
    let c = corpus();
    let boxed: Box<dyn PowerModel> = ModelKind::AutoPowerMinus.train(&c, &train_ids()).unwrap();
    for run in c.runs() {
        // AutoPower− is fully component-resolved; its core-level groups are
        // the Component::ALL-ordered sum of the component groups.
        let typed = boxed.predict_run(run);
        assert!(matches!(typed.resolution(), Resolution::PerComponent(_)));
        let breakdown = typed.components().unwrap();
        assert_eq!(Some(breakdown), boxed.predict_run_components(run).as_ref());
        let mut folded = PowerGroups::default();
        for component in Component::ALL {
            folded += breakdown.component(component).groups.unwrap();
        }
        assert_eq!(bits(typed.groups().unwrap()), bits(folded));
    }
}

#[test]
fn mcpat_calib_predictions_are_total_only() {
    let c = corpus();
    let boxed: Box<dyn PowerModel> = ModelKind::McpatCalib.train(&c, &train_ids()).unwrap();
    for run in c.runs() {
        // The typed prediction carries the scalar as TotalOnly — no group
        // structure to misread.
        let typed = boxed.predict_run(run);
        assert!(matches!(typed.resolution(), Resolution::TotalOnly));
        assert!(typed.groups().is_none());
        assert!(typed.components().is_none());
        assert!(boxed.predict_run_components(run).is_none());
    }
}

#[test]
fn mcpat_calib_component_view_matches_the_committed_goldens() {
    assert_component_view_matches_goldens(ModelKind::McpatCalibComponent);
    let c = corpus();
    let boxed: Box<dyn PowerModel> = ModelKind::McpatCalibComponent
        .train(&c, &train_ids())
        .unwrap();
    for run in c.runs() {
        // Component-resolved but without per-component groups: each entry
        // carries the component's scalar, no group split.
        let typed = boxed.predict_run(run);
        assert!(typed.groups().is_none());
        let breakdown = typed.components().unwrap();
        assert!(!breakdown.resolves_groups());
        assert!(breakdown.iter().all(|(_, entry)| entry.groups.is_none()));
        assert_eq!(Some(breakdown), boxed.predict_run_components(run).as_ref());
    }
}

#[test]
fn sweep_engine_under_dyn_autopower_matches_predict_batch() {
    let c = corpus();
    let boxed: Box<dyn PowerModel> = ModelKind::AutoPower.train(&c, &train_ids()).unwrap();
    let configs = DesignSpace::boom().sample(6, 7);
    let workloads = [Workload::Dhrystone, Workload::Vvadd];
    let spec = SweepSpec::fast().threads(1);
    // The engine's exact path scores what the model's own batch method
    // scores on the simulated events of every pair.
    let swept = SweepEngine::new(boxed.as_ref(), spec).run(&configs, &workloads);
    let mut sim = SimScratch::new();
    let events: Vec<EventParams> = configs
        .iter()
        .flat_map(|config| workloads.iter().map(move |&w| (config, w)))
        .map(|(config, w)| {
            let counters = simulate_counters_with(config, w, &spec.sim, &mut sim);
            EventParams::from_counters(&counters, config.id, w, spec.sim.event_distortion)
        })
        .collect();
    let points: Vec<PredictInput<'_>> = swept
        .iter()
        .zip(&events)
        .map(|(p, e)| PredictInput::new(&p.config, e, p.workload))
        .collect();
    let mut batch = Vec::new();
    boxed.predict_batch_with(&points, &mut FeatureScratch::new(), &mut batch);
    assert_eq!(swept.len(), configs.len() * workloads.len());
    for (point, predicted) in swept.iter().zip(&batch) {
        assert_eq!(point.power, *predicted);
        assert_eq!(point.power.total().to_bits(), predicted.total().to_bits());
    }
}

#[test]
fn trace_predictor_under_dyn_model_matches_inherent_predictions() {
    let c = corpus();
    let inherent = AutoPower::train(&c, &train_ids()).unwrap();
    let boxed: Box<dyn PowerModel> = ModelKind::AutoPower.train(&c, &train_ids()).unwrap();
    let run = c.run(ConfigId::new(8), Workload::Qsort).unwrap();
    let via_inherent = PowerTracePredictor::new(&inherent).predict_trace(run);
    let via_trait = PowerTracePredictor::new(boxed.as_ref()).predict_trace(run);
    assert_eq!(via_inherent, via_trait);
}

#[test]
fn cross_validation_runs_under_a_baseline_model() {
    let c = corpus();
    let ids = c.config_ids();
    let xv = cross_validate_model(&c, &ids, ModelKind::McpatCalib).unwrap();
    assert_eq!(xv.model, ModelKind::McpatCalib);
    assert_eq!(xv.folds.len(), ids.len());
    let pooled = xv.pooled();
    assert_eq!(pooled.pairs.len(), c.runs().len());
    assert!(pooled.mape.is_finite());
    assert!(xv.worst_fold_mape() >= pooled.mape - 1e-12);
}
