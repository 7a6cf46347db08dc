//! The two sweep phases: exact and surrogate-backed streaming sweeps.
//!
//! Untraced, each phase streams its configuration source through a
//! `SweepEngine` on `nproc` threads into a `SweepAggregator`, saving a
//! checkpoint after every chunk, until its time budget runs out.
//!
//! Traced, a fixed number of configurations is first streamed through a
//! serial engine (untraced: the reference wall time and folded state), then
//! replayed serially through the public layer functions in the engine's
//! order — cache lookup around simulation and event derivation (or batched
//! surrogate inference, event derivation and the audit simulations), batched
//! power inference, aggregator fold, checkpoint — with a span around each
//! call.  The replay must reproduce the engine bit for bit: its points are
//! compared with a parallel `SweepEngine::run` and its folded state and audit
//! table with the serial engine's.

use crate::inputs::{Inputs, WORKLOADS};
use crate::setup::{nproc, Ready};
use crate::trace::Tracer;
use crate::{Budget, Checks, Metrics};
use autopower::{
    audit_selected, config_summary, save_checkpoint, AuditAccumulator, AuditReport, ChunkCursor,
    ConfigSummary, FeatureScratch, PredictInput, Prediction, SimBackend, StreamSpec,
    SweepAggregator, SweepCheckpoint, SweepEngine, SweepPoint, SweepSpec,
};
use autopower_config::{boom_configs, CpuConfig, Workload};
use autopower_ml::Matrix;
use autopower_perfsim::{
    simulate_counters_with, EventCounters, EventParams, SimCache, SimConfig, SimKey, SimScratch,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// Share of configurations the surrogate sweep simulates exactly.
pub const AUDIT_RATE: f64 = 0.02;

/// Configurations the full audit behind `audit_mape_pct` covers.
const AUDIT_CONFIGS: usize = 1024;

/// Configurations replayed by the traced run of each phase.
const REPLAY_EXACT: usize = 2048;
const REPLAY_SURROGATE: usize = 8192;

/// Checkpoint fingerprint; the benchmark never resumes, so any value works.
const FINGERPRINT: u64 = 0xBE4C_4A11;

/// One of the two sweep phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Exact,
    Surrogate,
}

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::Exact => "exact",
            Phase::Surrogate => "surrogate",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Exact => 0,
            Phase::Surrogate => 1,
        }
    }

    fn backend(self, ready: &Ready) -> SimBackend<'_> {
        match self {
            Phase::Exact => SimBackend::Exact,
            Phase::Surrogate => SimBackend::Surrogate {
                surrogate: &ready.surrogate,
                audit_rate: AUDIT_RATE,
            },
        }
    }

    fn budget(self, budget: &Budget) -> Duration {
        match self {
            Phase::Exact => budget.exact,
            Phase::Surrogate => budget.surrogate,
        }
    }
}

/// The sweep settings every phase runs under.
pub fn spec(threads: usize) -> SweepSpec {
    SweepSpec::fast().threads(threads)
}

fn engine(ready: &Ready, phase: Phase, threads: usize) -> Result<SweepEngine<'_>, String> {
    SweepEngine::new(ready.power_model(), spec(threads))
        .with_backend(phase.backend(ready))
        .map_err(|e| e.to_string())
}

/// Configurations one engine streams before a fresh one takes over.  Each
/// pass starts with an empty `SimCache`, so memory (and `peak_rss_mb`) stays
/// bounded however many configurations a run gets through.
const PASS: usize = 4096;

/// What one streaming sweep did.
struct Streamed {
    configs: u64,
    secs: f64,
    aggregator: SweepAggregator,
    audit: Option<AuditReport>,
}

/// Streams `source` in passes of [`PASS`] configurations, one engine per
/// pass carrying the audit state over, checkpointing after every chunk,
/// until the source ends or `budget` (if any) has passed.
fn stream(
    ready: &Ready,
    phase: Phase,
    threads: usize,
    mut source: impl Iterator<Item = CpuConfig>,
    budget: Option<Duration>,
    checkpoint: &Path,
) -> Result<Streamed, String> {
    let mut aggregator = SweepAggregator::new(WORKLOADS.len(), &StreamSpec::default());
    let start = Instant::now();
    let deadline = budget.map(|b| start + b);
    let mut configs = 0u64;
    let mut audit = None;
    loop {
        let engine = engine(ready, phase, threads)?;
        if let Some(state) = audit.take() {
            engine.restore_audit_state(state);
        }
        let mut in_time = true;
        let progress = engine
            .stream(
                source.by_ref().take(PASS),
                &WORKLOADS,
                &mut aggregator,
                |folded, done| {
                    save_checkpoint(
                        &SweepCheckpoint {
                            fingerprint: FINGERPRINT,
                            cursor: ChunkCursor {
                                offset: configs + done,
                            },
                            aggregator: folded.clone(),
                            audit: engine.audit_state(),
                        },
                        checkpoint,
                    )?;
                    in_time = deadline.is_none_or(|d| Instant::now() < d);
                    Ok(in_time)
                },
            )
            .map_err(|e| e.to_string())?;
        configs += progress.configs_streamed;
        audit = engine.audit_state();
        if !in_time || progress.configs_streamed < PASS as u64 {
            break;
        }
    }
    Ok(Streamed {
        configs,
        secs: start.elapsed().as_secs_f64(),
        aggregator,
        audit: audit.map(|a| a.report()),
    })
}

/// One untimed pass over the seed configurations C1–C15, which no sweep
/// source emits, so code, allocator and caches are warm before timing.
fn warm_up(ready: &Ready, phase: Phase, dir: &Path) -> Result<(), String> {
    let warm = boom_configs().into_iter();
    stream(ready, phase, nproc(), warm, None, &dir.join("warm-up.ckpt")).map(|_| ())
}

/// `audit_mape_pct`: the surrogate audited on every one of
/// [`AUDIT_CONFIGS`] sampled configurations, outside the timed region (the
/// timed sweep audits too few to pin the error down).
fn audit_mape_pct(ready: &Ready, inputs: &Inputs) -> Result<(f64, u64), String> {
    let configs = inputs.audit_set(AUDIT_CONFIGS);
    let engine = SweepEngine::new(ready.power_model(), spec(nproc()))
        .with_backend(SimBackend::Surrogate {
            surrogate: &ready.surrogate,
            audit_rate: 1.0,
        })
        .map_err(|e| e.to_string())?;
    engine.run(&configs, &WORKLOADS);
    let report = engine.audit_report().expect("surrogate backend");
    Ok((
        report.total_mape.unwrap_or(f64::NAN) * 100.0,
        report.audited_points,
    ))
}

/// One end-to-end sweep phase: `configs_per_s.<phase>`, and
/// `audit_mape_pct` after the surrogate phase.
pub fn timed(
    ready: &Ready,
    inputs: &Inputs,
    phase: Phase,
    budget: &Budget,
    dir: &Path,
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    warm_up(ready, phase, dir)?;
    let source = inputs.source(phase.index());
    let checkpoint = dir.join(format!("{}.ckpt", phase.name()));
    let run = stream(
        ready,
        phase,
        nproc(),
        source,
        Some(phase.budget(budget)),
        &checkpoint,
    )?;
    println!(
        "{:<9} sweep: {} configs x {} workloads in {:.3} s on {} threads",
        phase.name(),
        run.configs,
        WORKLOADS.len(),
        run.secs,
        nproc()
    );
    metrics.put(
        format!("configs_per_s.{}", phase.name()),
        run.configs as f64 / run.secs,
        "1/s",
    );
    if let Some(audit) = &run.audit {
        checks.check(audit.audited_points > 0, || {
            "surrogate sweep audited no points".to_owned()
        });
        let (mape, points) = audit_mape_pct(ready, inputs)?;
        println!(
                "surrogate audit: the timed sweep audited {} points; a full audit of \
                 {AUDIT_CONFIGS} sampled configs ({points} points) gives total-power MAPE {mape:.4}%",
                audit.audited_points
            );
        metrics.put("audit_mape_pct", mape, "%");
    }
    let saved = autopower::load_checkpoint(&checkpoint).map_err(|e| e.to_string())?;
    checks.check(
        saved.aggregator == run.aggregator && saved.cursor.offset == run.configs,
        || format!("{} checkpoint does not hold the final state", phase.name()),
    );
    check_retained(ready, phase, &run.aggregator, checks);
    Ok(())
}

/// Scores one configuration point by point through the public per-point
/// path and folds it like the aggregator does.
fn per_point_summary(ready: &Ready, phase: Phase, config: &CpuConfig) -> ConfigSummary {
    let sim = spec(1).sim;
    let mut scratch = SimScratch::new();
    let mut events = EventParams::empty();
    let mut raw = vec![0.0; EventParams::names().len()];
    let points: Vec<SweepPoint> = WORKLOADS
        .iter()
        .map(|&workload| {
            let ipc = if phase == Phase::Exact || audit_selected(config.id, AUDIT_RATE) {
                let counters = simulate_counters_with(config, workload, &sim, &mut scratch);
                EventParams::from_counters_into(
                    &counters,
                    config.id,
                    workload,
                    sim.event_distortion,
                    &mut events,
                );
                counters.ipc()
            } else {
                let features = SimKey::new(config, workload, &sim).features();
                ready
                    .surrogate
                    .predict_raw_into(workload, &features, &mut raw);
                EventParams::from_raw_rates_into(
                    &raw,
                    config.id,
                    workload,
                    sim.event_distortion,
                    &mut events,
                );
                raw[0]
            };
            SweepPoint {
                config: *config,
                workload,
                power: ready.power_model().predict(config, &events, workload),
                ipc,
            }
        })
        .collect();
    config_summary(&points)
}

fn same_summary(a: &ConfigSummary, b: &ConfigSummary) -> bool {
    a == b
        && a.mean_total.to_bits() == b.mean_total.to_bits()
        && a.mean_ipc.to_bits() == b.mean_ipc.to_bits()
}

/// Re-scores every configuration the aggregator retained (top-k table and
/// Pareto frontier) through the per-point path; each must match bit for bit.
fn check_retained(ready: &Ready, phase: Phase, aggregator: &SweepAggregator, checks: &mut Checks) {
    let retained = aggregator
        .top()
        .into_iter()
        .chain(aggregator.pareto().entries().iter().map(|e| &e.summary));
    for summary in retained {
        let expected = per_point_summary(ready, phase, &summary.config);
        checks.check(same_summary(summary, &expected), || {
            format!(
                "{} sweep summary of {:?} differs from the per-point path",
                phase.name(),
                summary.config.id
            )
        });
    }
}

/// Counters the replay keeps besides its spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub lookups: u64,
    pub hits: u64,
    pub sims: u64,
    pub sim_cycles: u64,
    pub points: u64,
}

/// One audited point awaiting its shadow prediction.
struct Audit {
    index: usize,
    exact_raw: Vec<f64>,
    surrogate_raw: Vec<f64>,
    shadow: EventParams,
}

/// Serial scorer that calls each layer's public function the way
/// `SweepEngine` does, with a span around every call.
pub struct Replayer<'a> {
    ready: &'a Ready,
    phase: Phase,
    sim: SimConfig,
    scratch: SimScratch,
    features: FeatureScratch,
    events: Vec<EventParams>,
    ipcs: Vec<f64>,
    predictions: Vec<Prediction>,
    forest_out: Vec<f64>,
    /// Points of the last chunk (its events are `events[..scored]`).
    scored: usize,
    pub audit: AuditAccumulator,
    pub counts: Counts,
}

impl<'a> Replayer<'a> {
    pub fn new(ready: &'a Ready, phase: Phase) -> Self {
        Self {
            ready,
            phase,
            sim: spec(1).sim,
            scratch: SimScratch::new(),
            features: FeatureScratch::new(),
            events: Vec::new(),
            ipcs: Vec::new(),
            predictions: Vec::new(),
            forest_out: Vec::new(),
            scored: 0,
            audit: AuditAccumulator::new(EventParams::names().len()),
            counts: Counts::default(),
        }
    }

    /// Event parameters of the last chunk's points, in point order.
    pub fn events(&self) -> &[EventParams] {
        &self.events[..self.scored]
    }

    /// `SimCache::counters_for` around `simulate_counters_with`.
    fn counters(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        cache: &SimCache,
        config: &CpuConfig,
        workload: Workload,
    ) -> EventCounters {
        let Self {
            sim,
            scratch,
            counts,
            ..
        } = self;
        counts.lookups += 1;
        let mut simulated = false;
        let counters = tracer.span("perfsim.cache", id, |t| {
            cache.counters_for(SimKey::new(config, workload, sim), || {
                simulated = true;
                t.span("perfsim.sim", id, |_| {
                    simulate_counters_with(config, workload, sim, scratch)
                })
            })
        });
        if simulated {
            counts.sims += 1;
            counts.sim_cycles += counters.cycles;
        } else {
            counts.hits += 1;
        }
        counters
    }

    /// Scores `configs × workloads` as one engine chunk, appending the points
    /// (configuration-major) to `out`.
    pub fn score_chunk(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        cache: &SimCache,
        configs: &[CpuConfig],
        workloads: &[Workload],
        out: &mut Vec<SweepPoint>,
    ) {
        let per_config = workloads.len();
        let n = configs.len() * per_config;
        let event_count = EventParams::names().len();
        let distortion = self.sim.event_distortion;
        self.events.resize(n, EventParams::empty());
        self.ipcs.clear();
        self.ipcs.resize(n, 0.0);

        // Batched surrogate inference, one feature matrix per workload.
        let mut raw_all = Vec::new();
        if self.phase == Phase::Surrogate {
            let Self {
                ready,
                sim,
                forest_out,
                ..
            } = self;
            raw_all = tracer.span("surrogate.infer", id, |_| {
                let mut raw_all = vec![0.0; n * event_count];
                let mut batch = vec![0.0; configs.len() * event_count];
                for (w, &workload) in workloads.iter().enumerate() {
                    let mut flat = Vec::with_capacity(configs.len() * SimKey::FEATURE_COUNT);
                    for config in configs {
                        flat.extend_from_slice(&SimKey::new(config, workload, sim).features());
                    }
                    let x = Matrix::from_flat(configs.len(), SimKey::FEATURE_COUNT, flat);
                    ready
                        .surrogate
                        .predict_raw_batch_into(workload, &x, forest_out, &mut batch);
                    for c in 0..configs.len() {
                        let idx = c * per_config + w;
                        raw_all[idx * event_count..(idx + 1) * event_count]
                            .copy_from_slice(&batch[c * event_count..(c + 1) * event_count]);
                    }
                }
                raw_all
            });
        }

        // Event parameters and IPC per point.
        let mut audits = Vec::new();
        for (c, config) in configs.iter().enumerate() {
            for (w, &workload) in workloads.iter().enumerate() {
                let idx = c * per_config + w;
                let exact = self.phase == Phase::Exact || audit_selected(config.id, AUDIT_RATE);
                if exact {
                    let counters = self.counters(tracer, id, cache, config, workload);
                    let target = &mut self.events[idx];
                    tracer.span("perfsim.events", id, |_| {
                        EventParams::from_counters_into(
                            &counters, config.id, workload, distortion, target,
                        )
                    });
                    self.ipcs[idx] = counters.ipc();
                    if self.phase == Phase::Surrogate {
                        let raw = &raw_all[idx * event_count..(idx + 1) * event_count];
                        let mut shadow = EventParams::empty();
                        tracer.span("surrogate.events", id, |_| {
                            EventParams::from_raw_rates_into(
                                raw,
                                config.id,
                                workload,
                                distortion,
                                &mut shadow,
                            )
                        });
                        audits.push(Audit {
                            index: idx,
                            exact_raw: EventParams::raw_rates(&counters).to_vec(),
                            surrogate_raw: raw.to_vec(),
                            shadow,
                        });
                    }
                } else {
                    let raw = &raw_all[idx * event_count..(idx + 1) * event_count];
                    let target = &mut self.events[idx];
                    tracer.span("surrogate.events", id, |_| {
                        EventParams::from_raw_rates_into(
                            raw, config.id, workload, distortion, target,
                        )
                    });
                    self.ipcs[idx] = raw[0];
                }
            }
        }

        // One batched power prediction over every point plus the audited
        // points' shadow entries.
        {
            let Self {
                ready,
                events,
                features,
                predictions,
                ..
            } = self;
            tracer.span("power.infer", id, |_| {
                let mut inputs = Vec::with_capacity(n + audits.len());
                for (idx, e) in events[..n].iter().enumerate() {
                    inputs.push(PredictInput {
                        config: &configs[idx / per_config],
                        events: e,
                        workload: workloads[idx % per_config],
                    });
                }
                for audit in &audits {
                    inputs.push(PredictInput {
                        config: &configs[audit.index / per_config],
                        events: &audit.shadow,
                        workload: workloads[audit.index % per_config],
                    });
                }
                ready
                    .power_model()
                    .predict_batch_with(&inputs, features, predictions);
            });
        }
        self.counts.points += (n + audits.len()) as u64;

        if !audits.is_empty() {
            let Self {
                predictions, audit, ..
            } = self;
            tracer.span("surrogate.audit", id, |_| {
                for (a, shadow) in audits.iter().zip(&predictions[n..]) {
                    audit.record(
                        &a.exact_raw,
                        &a.surrogate_raw,
                        predictions[a.index].total(),
                        shadow.total(),
                    );
                }
            });
        }
        self.predictions.truncate(n);
        for (idx, power) in self.predictions.drain(..).enumerate() {
            out.push(SweepPoint {
                config: configs[idx / per_config],
                workload: workloads[idx % per_config],
                power,
                ipc: self.ipcs[idx],
            });
        }
        self.scored = n;
    }
}

/// Bit-for-bit equality of two sweep points.
pub fn same_point(a: &SweepPoint, b: &SweepPoint) -> bool {
    let groups = |p: &SweepPoint| {
        p.power
            .groups()
            .map(|g| [g.clock, g.sram, g.register, g.combinational].map(f64::to_bits))
    };
    a == b
        && a.ipc.to_bits() == b.ipc.to_bits()
        && a.power.total().to_bits() == b.power.total().to_bits()
        && groups(a) == groups(b)
}

/// What the traced replay of one phase produced.
struct Replayed {
    points: Vec<SweepPoint>,
    events: Vec<EventParams>,
    aggregator: SweepAggregator,
    audit: AuditAccumulator,
    counts: Counts,
    checkpoint_bytes: u64,
    peak_points: usize,
}

/// Replays `configs` chunk by chunk the way `SweepEngine::stream` does.
fn replay_sweep(
    ready: &Ready,
    phase: Phase,
    mut source: impl Iterator<Item = CpuConfig>,
    tracer: &mut Tracer,
    checkpoint: &Path,
) -> Result<Replayed, String> {
    let chunk = spec(1).chunk_configs;
    let mut cache = SimCache::new();
    let mut replayer = Replayer::new(ready, phase);
    let mut aggregator = SweepAggregator::new(WORKLOADS.len(), &StreamSpec::default());
    let mut points = Vec::new();
    let mut events = Vec::new();
    let mut buffer = Vec::with_capacity(chunk);
    let mut folded = 0u64;
    let mut checkpoint_bytes = 0;
    let mut peak_points = 0;
    tracer.enter("replay", 0);
    for id in 0.. {
        if folded > 0 && folded.is_multiple_of(PASS as u64) {
            cache = SimCache::new();
        }
        tracer.span("config.enumerate", id, |_| {
            buffer.clear();
            buffer.extend(source.by_ref().take(chunk));
        });
        if buffer.is_empty() {
            break;
        }
        let first = points.len();
        replayer.score_chunk(tracer, id, &cache, &buffer, &WORKLOADS, &mut points);
        if phase == Phase::Exact {
            events.extend_from_slice(replayer.events());
        }
        peak_points = peak_points.max(points.len() - first);
        tracer.span("stream.fold", id, |_| {
            for point in &points[first..] {
                aggregator.push(point.clone());
            }
        });
        folded += buffer.len() as u64;
        let audit = (phase == Phase::Surrogate).then(|| replayer.audit.clone());
        tracer
            .span("stream.checkpoint", id, |_| {
                save_checkpoint(
                    &SweepCheckpoint {
                        fingerprint: FINGERPRINT,
                        cursor: ChunkCursor { offset: folded },
                        aggregator: aggregator.clone(),
                        audit,
                    },
                    checkpoint,
                )
            })
            .map_err(|e| e.to_string())?;
        checkpoint_bytes = std::fs::metadata(checkpoint)
            .map_err(|e| e.to_string())?
            .len();
    }
    tracer.exit();
    Ok(Replayed {
        points,
        events,
        aggregator,
        audit: replayer.audit,
        counts: replayer.counts,
        checkpoint_bytes,
        peak_points,
    })
}

/// Per-layer self times of one traced phase, in ms, plus coverage.
pub struct LayerTimes {
    pub self_ms: std::collections::BTreeMap<&'static str, f64>,
    pub wall_ms: f64,
}

impl LayerTimes {
    pub fn of(tracer: &Tracer) -> Self {
        Self {
            self_ms: tracer.self_ms(),
            wall_ms: tracer.root_ms("replay"),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.self_ms.get(name).copied().unwrap_or(0.0)
    }

    /// Share of the traced wall time covered by layer spans (everything but
    /// the root's own time).
    pub fn coverage(&self) -> f64 {
        1.0 - self.get("replay") / self.wall_ms
    }
}

/// Time of the per-group sub-model calls over the replayed points, in ms:
/// clock, SRAM, logic (register + combinational).
fn group_split(ready: &Ready, points: &[SweepPoint], events: &[EventParams]) -> [f64; 3] {
    let model = &ready.model;
    let library = ready.corpus.library();
    let mut scratch = FeatureScratch::new();
    let mut sink = 0.0;
    let mut time = |f: &mut dyn FnMut(&SweepPoint, &EventParams) -> f64| {
        let t = Instant::now();
        for (p, e) in points.iter().zip(events) {
            sink += f(p, e);
        }
        t.elapsed().as_secs_f64() * 1e3
    };
    let clock = time(&mut |p, e| {
        model
            .clock_model()
            .predict_with(&p.config, e, p.workload, &mut scratch)
    });
    let sram = time(&mut |p, e| {
        model
            .sram_model()
            .predict_with(&p.config, e, p.workload, library, &mut scratch)
    });
    let logic = time(&mut |p, e| {
        let l = model.logic_model();
        l.predict_register_with(&p.config, e, p.workload, &mut scratch)
            + l.predict_comb_with(&p.config, e, p.workload, &mut scratch)
    });
    std::hint::black_box(sink);
    [clock, sram, logic]
}

/// The traced run of both sweep phases: per-layer metrics and the replay's
/// bit-identity checks.
pub fn traced(
    ready: &Ready,
    inputs: &Inputs,
    dir: &Path,
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    let mut exact_ms_per_config = f64::NAN;
    for phase in [Phase::Exact, Phase::Surrogate] {
        let p = phase.name();
        let count = match phase {
            Phase::Exact => REPLAY_EXACT,
            Phase::Surrogate => REPLAY_SURROGATE,
        };
        let checkpoint = dir.join(format!("{p}.ckpt"));
        warm_up(ready, phase, dir)?;

        // Untraced serial engine pass: reference wall time and state.
        let reference = stream(
            ready,
            phase,
            1,
            inputs.source(phase.index()).take(count),
            None,
            &checkpoint,
        )?;

        let mut tracer = Tracer::new();
        let replayed = replay_sweep(
            ready,
            phase,
            inputs.source(phase.index()).take(count),
            &mut tracer,
            &checkpoint,
        )?;
        let layers = LayerTimes::of(&tracer);
        tracer
            .write_jsonl(&dir.join(format!("trace-{p}.jsonl")))
            .map_err(|e| e.to_string())?;

        // Bit identity against the engine.
        let configs: Vec<CpuConfig> = inputs.source(phase.index()).take(count).collect();
        let engine_points = engine(ready, phase, nproc())?.run(&configs, &WORKLOADS);
        let mismatches = engine_points
            .iter()
            .zip(&replayed.points)
            .filter(|(a, b)| !same_point(a, b))
            .count()
            + engine_points.len().abs_diff(replayed.points.len());
        checks.add(engine_points.len() as u64, mismatches as u64);
        if mismatches > 0 {
            eprintln!("check failed: {mismatches} {p} replay points differ from the engine");
        }
        checks.check(replayed.aggregator == reference.aggregator, || {
            format!("{p} replay folded state differs from the serial engine")
        });
        checks.check(
            reference
                .audit
                .as_ref()
                .is_none_or(|a| *a == replayed.audit.report()),
            || format!("{p} replay audit table differs from the engine"),
        );

        let c = replayed.counts;
        let wall = layers.wall_ms;
        let reference_ms = reference.secs * 1e3;
        println!(
            "{p:<9} replay: {} configs, traced {wall:.1} ms vs untraced serial engine \
             {reference_ms:.1} ms, coverage {:.4}",
            configs.len(),
            layers.coverage()
        );
        metrics.put(
            format!("config.enumerate_ms.{p}"),
            layers.get("config.enumerate"),
            "ms",
        );
        let power_ms = layers.get("power.infer");
        match phase {
            Phase::Exact => {
                let sim_ms = layers.get("perfsim.sim");
                metrics.put("perfsim.sim_ms.exact", sim_ms, "ms");
                metrics.put("perfsim.sims.exact", c.sims as f64, "count");
                metrics.put("perfsim.sim_cycles.exact", c.sim_cycles as f64, "count");
                metrics.put(
                    "perfsim.ns_per_cycle.exact",
                    sim_ms * 1e6 / c.sim_cycles.max(1) as f64,
                    "ns",
                );
                metrics.put(
                    "perfsim.events_ms.exact",
                    layers.get("perfsim.events"),
                    "ms",
                );
                metrics.put("perfsim.cache_lookups.exact", c.lookups as f64, "count");
                metrics.put(
                    "perfsim.cache_hit_ratio.exact",
                    c.hits as f64 / c.lookups.max(1) as f64,
                    "ratio",
                );
                metrics.put("perfsim.cache_ms.exact", layers.get("perfsim.cache"), "ms");
                exact_ms_per_config = wall / configs.len() as f64;
            }
            Phase::Surrogate => {
                metrics.put("surrogate.infer_ms", layers.get("surrogate.infer"), "ms");
                metrics.put("surrogate.events_ms", layers.get("surrogate.events"), "ms");
                metrics.put("surrogate.audit_sims", c.sims as f64, "count");
                let audit_ms = layers.get("perfsim.cache")
                    + layers.get("perfsim.sim")
                    + layers.get("perfsim.events")
                    + layers.get("surrogate.audit");
                metrics.put("surrogate.audit_ms", audit_ms, "ms");
                // The most a surrogate sweep can gain over an exact one if
                // everything but power inference vanished.
                let power_ms_per_config = power_ms / configs.len() as f64;
                metrics.put(
                    "surrogate.ceiling_x",
                    exact_ms_per_config / power_ms_per_config,
                    "x",
                );
            }
        }
        metrics.put(format!("power.infer_ms.{p}"), power_ms, "ms");
        metrics.put(format!("power.points.{p}"), c.points as f64, "count");
        metrics.put(
            format!("power.us_per_point.{p}"),
            power_ms * 1e3 / c.points.max(1) as f64,
            "us",
        );
        if phase == Phase::Exact {
            let [clock, sram, logic] = group_split(ready, &replayed.points, &replayed.events);
            metrics.put("power.clock_ms.exact", clock, "ms");
            metrics.put("power.sram_ms.exact", sram, "ms");
            metrics.put("power.logic_ms.exact", logic, "ms");
        }
        metrics.put(
            format!("stream.fold_ms.{p}"),
            layers.get("stream.fold"),
            "ms",
        );
        metrics.put(
            format!("stream.checkpoint_ms.{p}"),
            layers.get("stream.checkpoint"),
            "ms",
        );
        metrics.put(
            format!("stream.checkpoint_bytes.{p}"),
            replayed.checkpoint_bytes as f64,
            "bytes",
        );
        metrics.put(
            format!("stream.peak_points.{p}"),
            replayed.peak_points as f64,
            "count",
        );
        metrics.put(format!("trace.coverage.{p}"), layers.coverage(), "ratio");
        metrics.put(
            format!("trace.overhead_pct.{p}"),
            (wall - reference_ms) / reference_ms * 100.0,
            "%",
        );
    }
    Ok(())
}
