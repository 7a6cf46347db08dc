//! Streaming design-space sweep and Pareto-frontier experiments.
//!
//! The materializing `sweep` experiment retains every scored point; this
//! module is the bounded-memory counterpart built on
//! [`SweepEngine::stream`](autopower::SweepEngine) + [`SweepAggregator`]:
//! it can walk the **full** enumerable design space (`--full`), not just
//! `--count N` samples, holding O(top-k + sketches + one chunk) memory, and it
//! can checkpoint at every chunk boundary (`--checkpoint FILE`) and resume
//! (`--resume`) to a byte-identical report.
//!
//! Two reproducibility contracts shape the code:
//!
//! * **Bit-identity with the materialized path.** A sampled streaming sweep
//!   folds the exact points `SweepEngine::run` would produce (same scoring
//!   path), through the same per-configuration fold, so its top-k table is
//!   `rank_by_efficiency(...)[..k]` bit for bit and its (uncompacted) sketch
//!   quantiles match the materialized nearest-rank table.
//! * **Resume-invariance of the report.** [`StreamSweepResult`]'s `Display`
//!   depends only on state a resumed run rebuilds exactly (the aggregator and
//!   the sweep inputs).  Process-local observations — cache hit rates, peak
//!   retained points — go to [`StreamSweepResult::diagnostics`] (printed to
//!   stderr by the CLI), because a resumed process's cache never saw the
//!   chunks before the checkpoint and would report different numbers.

use crate::design_sweep::{describe_cache, SAMPLE_SEED, TOP_K};
use crate::report::format_table;
use crate::surrogate_exp::{audit_section, refuse_unaudited};
use crate::Experiments;
use autopower::{
    encode_model, encode_surrogate, load_checkpoint_salvaged, save_checkpoint, ActivitySurrogate,
    AuditReport, AutoPowerError, CheckpointSalvage, ChunkCursor, ModelKind, ParetoConstraints,
    ParetoEntry, PowerModel, PowerSeries, StreamSpec, SweepAggregator, SweepCheckpoint,
};
use autopower_config::{ConfigId, DesignSpace, HwParam, Workload};
use autopower_perfsim::{SimCacheStats, SimConfig};
use std::fmt;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Per-level capacity of the streaming quantile sketches: exact quantiles up
/// to 1024 configurations per series, bounded-error summaries beyond.
const SKETCH_LEVEL_CAPACITY: usize = 1024;

/// Which configurations a streaming sweep scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamScope {
    /// The fixed-seeded `count`-configuration sample the materializing
    /// `sweep` experiment scores (same seed, same draw).
    Sampled(usize),
    /// Every valid non-seed configuration of the design space, in enumeration
    /// order (`--full`).
    Full,
}

/// Checkpoint/interruption knobs of a streaming sweep.
#[derive(Debug, Clone, Default)]
pub struct StreamOptions {
    /// Write a checkpoint here after every completed chunk.
    pub checkpoint: Option<PathBuf>,
    /// Resume from the checkpoint instead of starting over (requires
    /// `checkpoint`).
    pub resume: bool,
    /// Stop (checkpointed) after this many chunks; `0` streams to the end.
    /// The deterministic stand-in for "the process was killed at a chunk
    /// boundary" used by tests and the CI resume smoke.
    pub max_chunks: u64,
}

/// Surrogate backing of a sweep run: the trained per-event surrogate plus the
/// deterministic audit fraction (`--surrogate` / `--audit-rate`).
#[derive(Debug, Clone, Copy)]
pub struct SurrogateSpec<'a> {
    /// The trained surrogate the engine predicts raw event rates with.
    pub surrogate: &'a ActivitySurrogate,
    /// Fraction of swept configurations simulated exactly to bound the
    /// surrogate's error; must be in `(0, 1]`.
    pub audit_rate: f64,
}

/// Where a sweep's power model comes from.
#[derive(Debug, Clone, Copy)]
pub enum ModelSource<'a> {
    /// Train this registry model on the two known configurations
    /// ([`Experiments::train_sweep_model`]); reports name the training set.
    Train(ModelKind),
    /// Score with an already trained model, e.g. one restored with
    /// [`autopower::load_model`] (the `--load-model` CLI path).  No training
    /// corpus is generated, and reports say "loaded pre-trained": the model
    /// file records no training set.
    Loaded(&'a dyn PowerModel),
}

/// Number of generated configurations a sweep scores when nothing else is
/// asked for (the CLI's `--count` default).
pub const DEFAULT_SWEEP_COUNT: usize = 256;

/// What a sweep verb scores: the model, the configurations and the
/// simulation backend.  Shared by [`Experiments::design_space_sweep`],
/// [`Experiments::streaming_sweep`] and [`Experiments::pareto_frontier`].
///
/// `Default` trains AutoPower, samples [`DEFAULT_SWEEP_COUNT`]
/// configurations and simulates every point exactly.
#[derive(Debug, Clone, Copy)]
pub struct SweepRequest<'a> {
    /// The model that scores the sweep.
    pub model: ModelSource<'a>,
    /// Which configurations are scored.
    pub scope: StreamScope,
    /// Score with a learned surrogate instead of exact simulation.
    pub surrogate: Option<SurrogateSpec<'a>>,
}

impl Default for SweepRequest<'_> {
    fn default() -> Self {
        Self {
            model: ModelSource::Train(ModelKind::AutoPower),
            scope: StreamScope::Sampled(DEFAULT_SWEEP_COUNT),
            surrogate: None,
        }
    }
}

/// Result of a streaming design-space sweep.
#[derive(Debug, Clone)]
pub struct StreamSweepResult {
    /// The registry model that scored the sweep.
    pub model: ModelKind,
    /// The training set, `None` when the model was loaded pre-trained.
    pub train_configs: Option<Vec<ConfigId>>,
    /// The workloads every configuration was scored on.
    pub workloads: Vec<Workload>,
    /// What was swept.
    pub scope: StreamScope,
    /// Exact cardinality of the scope ([`DesignSpace::total`] for
    /// [`StreamScope::Full`]).
    pub scope_total: u64,
    /// Configurations folded so far (equals `scope_total` when `complete`).
    pub streamed: u64,
    /// Whether the scope was exhausted (`false` after a `max_chunks` stop).
    pub complete: bool,
    /// The checkpoint the sweep wrote to / resumed from, if any.
    pub checkpoint: Option<PathBuf>,
    /// The folded aggregate: top-k, sketches, Pareto frontier.
    pub aggregator: SweepAggregator,
    /// This-process cache statistics (`None` when the cache was disabled).
    /// **Not** resume-invariant — reported via
    /// [`StreamSweepResult::diagnostics`], never in `Display`.
    pub cache_stats: Option<SimCacheStats>,
    /// This-process peak number of points materialized at once (one chunk).
    pub peak_retained_points: usize,
    /// Audit error table of the surrogate backend, `None` for exact sweeps.
    /// Resume-invariant: the accumulator travels with the checkpoint.
    pub audit: Option<AuditReport>,
    /// Audited fraction of the surrogate run, `None` for exact sweeps.
    pub audit_rate: Option<f64>,
    /// What checkpoint salvage had to recover on resume (torn main file,
    /// newer `.tmp` sibling), `None` for a clean load.  **Not**
    /// resume-invariant — reported via [`StreamSweepResult::diagnostics`],
    /// never in `Display`.
    pub salvage: Option<CheckpointSalvage>,
}

impl StreamSweepResult {
    /// Describes what the scope covers, e.g. `"full space (59832
    /// configurations)"`.
    fn scope_description(&self) -> String {
        match self.scope {
            StreamScope::Sampled(count) => format!("{count} sampled configurations"),
            StreamScope::Full => format!("full space ({} configurations)", self.scope_total),
        }
    }

    /// Process-local observations excluded from the (resume-invariant)
    /// report: cache behaviour and memory high-water marks.  The CLI prints
    /// this to stderr so one-shot and resumed stdout stay byte-identical.
    pub fn diagnostics(&self) -> String {
        let mut text = describe_cache(self.cache_stats);
        let _ = write!(
            text,
            "\npeak retained points: {} (materializing this scope would retain {}); \
             aggregator state: {} values",
            self.peak_retained_points,
            self.scope_total * self.workloads.len() as u64,
            self.aggregator.retained_state(),
        );
        if let Some(salvage) = &self.salvage {
            let _ = write!(text, "\ncheckpoint salvaged: {}", salvage.reason);
        }
        text
    }
}

impl fmt::Display for StreamSweepResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let provenance = match &self.train_configs {
            Some(train) => format!(
                "trained on {}",
                train
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join("+")
            ),
            None => "loaded pre-trained".to_owned(),
        };
        writeln!(
            f,
            "Streaming design-space sweep — {} x {} workloads, {} {}",
            self.scope_description(),
            self.workloads.len(),
            self.model.paper_name(),
            provenance,
        )?;
        if !self.complete {
            writeln!(
                f,
                "interrupted at a chunk boundary: {} of {} configurations folded; \
                 rerun with --resume to continue",
                self.streamed, self.scope_total
            )?;
            return Ok(());
        }
        writeln!(
            f,
            "bounded-memory aggregation: top-{} retention + per-group quantile sketches",
            self.aggregator.top_k()
        )?;
        writeln!(f)?;
        let exact = PowerSeries::ALL
            .iter()
            .all(|&s| self.aggregator.series(s).sketch().is_exact());
        writeln!(
            f,
            "predicted power across the space (mW, mean over workloads; {})",
            if exact {
                "exact quantiles"
            } else {
                "sketched quantiles, exact min/max"
            }
        )?;
        let series: &[PowerSeries] = if self.aggregator.resolves_groups() {
            &PowerSeries::ALL
        } else {
            &[PowerSeries::Total]
        };
        let rows: Vec<Vec<String>> = series
            .iter()
            .map(|&s| {
                let sketch = self.aggregator.series(s);
                let cell = |v: Option<f64>| format!("{:.2}", v.expect("non-empty sweep"));
                vec![
                    s.label().to_owned(),
                    cell(sketch.min()),
                    cell(sketch.quantile(0.25)),
                    cell(sketch.quantile(0.5)),
                    cell(sketch.quantile(0.75)),
                    cell(sketch.max()),
                ]
            })
            .collect();
        writeln!(
            f,
            "{}",
            format_table(&["group", "min", "p25", "median", "p75", "max"], &rows)
        )?;
        let top = self.aggregator.top();
        writeln!(
            f,
            "top {} configurations by predicted energy per instruction",
            top.len()
        )?;
        let rows: Vec<Vec<String>> = top
            .iter()
            .map(|s| {
                vec![
                    s.config.id.to_string(),
                    s.config.value(HwParam::FetchWidth).to_string(),
                    s.config.value(HwParam::DecodeWidth).to_string(),
                    s.config.value(HwParam::RobEntry).to_string(),
                    s.config.value(HwParam::IntIssueWidth).to_string(),
                    s.config.value(HwParam::CacheWay).to_string(),
                    format!("{:.2}", s.mean_ipc),
                    format!("{:.2}", s.mean_total),
                    format!("{:.2}", s.energy_per_instruction),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            format_table(
                &[
                    "config",
                    "fetch",
                    "decode",
                    "rob",
                    "issue",
                    "ways",
                    "IPC",
                    "power(mW)",
                    "pJ/instr",
                ],
                &rows
            )
        )?;
        if let Some(report) = &self.audit {
            writeln!(f)?;
            write!(
                f,
                "{}",
                audit_section(
                    report,
                    self.audit_rate.unwrap_or(0.0),
                    self.workloads.len(),
                    self.streamed,
                )
            )?;
        }
        Ok(())
    }
}

/// Result of the `pareto` experiment: the non-dominated
/// power-vs-IPC-vs-area-proxy frontier of a streamed sweep.
#[derive(Debug, Clone)]
pub struct ParetoResult {
    /// The registry model that scored the sweep.
    pub model: ModelKind,
    /// The training set, `None` when the model was loaded pre-trained.
    pub train_configs: Option<Vec<ConfigId>>,
    /// The workloads every configuration was scored on.
    pub workloads: Vec<Workload>,
    /// What was swept.
    pub scope: StreamScope,
    /// Exact cardinality of the scope.
    pub scope_total: u64,
    /// The frontier, sorted by mean total power ascending.
    pub frontier: Vec<ParetoEntry>,
    /// Feasibility constraints applied before the frontier fold
    /// (`--max-power` / `--min-ipc`); default = unconstrained.
    pub constraints: ParetoConstraints,
    /// Audit error table of the surrogate backend, `None` for exact runs.
    pub audit: Option<AuditReport>,
    /// Audited fraction of the surrogate run, `None` for exact runs.
    pub audit_rate: Option<f64>,
    /// This-process cache statistics (stderr diagnostics, like the streaming
    /// sweep's).
    pub cache_stats: Option<SimCacheStats>,
}

impl ParetoResult {
    /// Process-local observations excluded from the report (see
    /// [`StreamSweepResult::diagnostics`]).
    pub fn diagnostics(&self) -> String {
        describe_cache(self.cache_stats)
    }
}

impl fmt::Display for ParetoResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let provenance = match &self.train_configs {
            Some(train) => format!(
                "trained on {}",
                train
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join("+")
            ),
            None => "loaded pre-trained".to_owned(),
        };
        let scope = match self.scope {
            StreamScope::Sampled(count) => format!("{count} sampled configurations"),
            StreamScope::Full => format!("full space ({} configurations)", self.scope_total),
        };
        writeln!(
            f,
            "Pareto frontier — {} x {} workloads, {} {}",
            scope,
            self.workloads.len(),
            self.model.paper_name(),
            provenance,
        )?;
        writeln!(
            f,
            "{} non-dominated configurations (minimize power and area proxy, maximize IPC)",
            self.frontier.len()
        )?;
        if self.constraints.is_constrained() {
            let mut bounds = Vec::new();
            if let Some(p) = self.constraints.max_power {
                bounds.push(format!("mean power <= {p} mW"));
            }
            if let Some(i) = self.constraints.min_ipc {
                bounds.push(format!("mean IPC >= {i}"));
            }
            writeln!(
                f,
                "feasibility: {} (applied before the frontier fold)",
                bounds.join(", ")
            )?;
        }
        writeln!(f)?;
        let rows: Vec<Vec<String>> = self
            .frontier
            .iter()
            .map(|e| {
                let s = &e.summary;
                vec![
                    s.config.id.to_string(),
                    s.config.value(HwParam::FetchWidth).to_string(),
                    s.config.value(HwParam::DecodeWidth).to_string(),
                    s.config.value(HwParam::RobEntry).to_string(),
                    s.config.value(HwParam::IntIssueWidth).to_string(),
                    s.config.value(HwParam::CacheWay).to_string(),
                    format!("{:.2}", s.mean_total),
                    format!("{:.2}", s.mean_ipc),
                    format!("{:.1}", e.area),
                    format!("{:.2}", s.energy_per_instruction),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            format_table(
                &[
                    "config",
                    "fetch",
                    "decode",
                    "rob",
                    "issue",
                    "ways",
                    "power(mW)",
                    "IPC",
                    "area(kFBE)",
                    "pJ/instr",
                ],
                &rows
            )
        )?;
        if let Some(report) = &self.audit {
            writeln!(f)?;
            write!(
                f,
                "{}",
                audit_section(
                    report,
                    self.audit_rate.unwrap_or(0.0),
                    self.workloads.len(),
                    self.scope_total,
                )
            )?;
        }
        Ok(())
    }
}

/// 64-bit FNV-1a, the checkpoint fingerprint hash.
fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut hash = if seed == 0 {
        0xcbf2_9ce4_8422_2325
    } else {
        seed
    };
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Fingerprint of everything a checkpoint's aggregate depends on: the space
/// axes, the workloads, the trained model (its serialized text, so two
/// same-kind models with different weights collide with probability ~0), the
/// scope and the simulation settings.  Resume refuses a checkpoint whose
/// fingerprint does not match — folding the tail of a *different* sweep onto
/// a checkpointed head would silently corrupt the report.
fn sweep_fingerprint(
    space: &DesignSpace,
    workloads: &[Workload],
    model: &dyn PowerModel,
    scope: StreamScope,
    sim: &SimConfig,
) -> u64 {
    let mut canonical = String::new();
    for axis in space.axes() {
        let _ = write!(canonical, "axis {}:", axis.param.name());
        for v in &axis.values {
            let _ = write!(canonical, "{v},");
        }
        canonical.push(';');
    }
    for w in workloads {
        let _ = write!(canonical, "workload {w};");
    }
    match scope {
        StreamScope::Sampled(count) => {
            let _ = write!(canonical, "scope sampled:{count}:{SAMPLE_SEED:016x};");
        }
        StreamScope::Full => canonical.push_str("scope full;"),
    }
    let _ = write!(
        canonical,
        "sim {}:{}:{:016x}:{};",
        sim.max_instructions,
        sim.stream_seed,
        sim.event_distortion.to_bits(),
        sim.interval_cycles,
    );
    let hash = fnv1a(0, canonical.as_bytes());
    fnv1a(hash, encode_model(model).as_bytes())
}

impl Experiments {
    /// Streams the request's scope through the bounded-memory aggregator (the
    /// `sweep --stream` / `sweep --full` CLI path), checkpointing, resuming
    /// and stopping as `options` say.
    ///
    /// # Errors
    ///
    /// Returns [`AutoPowerError::EmptyEvaluation`] if the scope holds no
    /// configuration, and an error if training or checkpoint handling fails,
    /// the surrogate is incompatible with the sweep, or a *completed*
    /// surrogate sweep audited zero configurations (its error table would be
    /// empty).
    pub fn streaming_sweep(
        &self,
        request: &SweepRequest<'_>,
        options: &StreamOptions,
    ) -> Result<StreamSweepResult, AutoPowerError> {
        self.stream_with(request, options, ParetoConstraints::default())
    }

    /// Computes the power-vs-IPC-vs-area Pareto frontier of the request's
    /// scope (the `pareto` CLI verb), keeping only the configurations that
    /// satisfy `constraints` (`--max-power` / `--min-ipc`) before the
    /// frontier fold.  Always streams — the frontier needs no point
    /// retention.
    ///
    /// # Errors
    ///
    /// Returns an error under the same conditions as
    /// [`Experiments::streaming_sweep`].
    ///
    /// # Panics
    ///
    /// Panics if `constraints` carry a non-finite or non-positive bound (the
    /// CLI validates them at parse time).
    pub fn pareto_frontier(
        &self,
        request: &SweepRequest<'_>,
        constraints: ParetoConstraints,
    ) -> Result<ParetoResult, AutoPowerError> {
        let sweep = self.stream_with(request, &StreamOptions::default(), constraints)?;
        Ok(ParetoResult {
            model: sweep.model,
            train_configs: sweep.train_configs,
            workloads: sweep.workloads,
            scope: sweep.scope,
            scope_total: sweep.scope_total,
            frontier: sweep
                .aggregator
                .pareto()
                .sorted_by_power()
                .into_iter()
                .cloned()
                .collect(),
            constraints: *sweep.aggregator.pareto_constraints(),
            audit: sweep.audit,
            audit_rate: sweep.audit_rate,
            cache_stats: sweep.cache_stats,
        })
    }

    fn stream_with(
        &self,
        request: &SweepRequest<'_>,
        options: &StreamOptions,
        constraints: ParetoConstraints,
    ) -> Result<StreamSweepResult, AutoPowerError> {
        let space = &self.settings().sweep_space;
        let scope = request.scope;
        let scope_total = match scope {
            StreamScope::Sampled(count) => count as u64,
            StreamScope::Full => space.total(),
        };
        if scope_total == 0 {
            return Err(AutoPowerError::EmptyEvaluation);
        }
        self.with_model(request.model, |model, train_configs| {
            let workloads = self.settings().average_workloads.clone();
            let spec = self.sweep_spec();
            let mut fingerprint = sweep_fingerprint(space, &workloads, model, scope, &spec.sim);
            // Surrogate backing and constraints join the fingerprint: resuming
            // a checkpoint under a different surrogate, audit rate or
            // feasibility bound would silently mix two different sweeps.
            // Exact unconstrained runs fold nothing, keeping their
            // fingerprints (and old checkpoints) unchanged.
            let mut extra = String::new();
            if let Some(p) = constraints.max_power {
                let _ = write!(extra, "max-power {:016x};", p.to_bits());
            }
            if let Some(i) = constraints.min_ipc {
                let _ = write!(extra, "min-ipc {:016x};", i.to_bits());
            }
            if let Some(s) = &request.surrogate {
                let _ = write!(extra, "audit-rate {:016x};", s.audit_rate.to_bits());
            }
            fingerprint = fnv1a(fingerprint, extra.as_bytes());
            if let Some(s) = &request.surrogate {
                fingerprint = fnv1a(fingerprint, encode_surrogate(s.surrogate).as_bytes());
            }
            let stream_spec = StreamSpec {
                top_k: TOP_K,
                sketch_level_capacity: SKETCH_LEVEL_CAPACITY,
            };
            let (mut aggregator, start, saved_audit, salvage) = if options.resume {
                let path = options.checkpoint.as_ref().ok_or_else(|| {
                    AutoPowerError::Checkpoint("--resume requires --checkpoint FILE".to_owned())
                })?;
                // Salvage mode: a main file torn by a crash falls back to a
                // complete fingerprint-matching `.tmp` sibling; what was
                // recovered is surfaced through `diagnostics()`.
                let (checkpoint, salvage) = load_checkpoint_salvaged(path, Some(fingerprint))?;
                if checkpoint.fingerprint != fingerprint {
                    return Err(AutoPowerError::Checkpoint(format!(
                        "{} belongs to a different sweep (space, workloads, model, scope or \
                         simulation settings changed since it was written)",
                        path.display()
                    )));
                }
                if checkpoint.aggregator.per_config() != workloads.len() {
                    return Err(AutoPowerError::Checkpoint(format!(
                        "{} aggregates {} workload(s) per configuration, this sweep has {}",
                        path.display(),
                        checkpoint.aggregator.per_config(),
                        workloads.len()
                    )));
                }
                (
                    checkpoint.aggregator,
                    checkpoint.cursor.offset,
                    checkpoint.audit,
                    salvage,
                )
            } else {
                (
                    SweepAggregator::new(workloads.len(), &stream_spec)
                        .with_pareto_constraints(constraints)?,
                    0,
                    None,
                    None,
                )
            };

            let engine = self.sweep_engine(model, request.surrogate)?;
            if let Some(audit) = saved_audit {
                engine.restore_audit_state(audit);
            }
            let checkpoint_path = options.checkpoint.clone();
            let max_chunks = options.max_chunks;
            let mut chunks_done = 0u64;
            let after_chunk = |aggregator: &SweepAggregator, folded: u64| {
                if let Some(path) = &checkpoint_path {
                    save_checkpoint(
                        &SweepCheckpoint {
                            fingerprint,
                            cursor: ChunkCursor {
                                offset: start + folded,
                            },
                            aggregator: aggregator.clone(),
                            audit: engine.audit_state(),
                        },
                        path,
                    )?;
                }
                chunks_done += 1;
                Ok(max_chunks == 0 || chunks_done < max_chunks)
            };
            let skip = usize::try_from(start).map_err(|_| {
                AutoPowerError::Checkpoint(format!("cursor offset {start} overflows"))
            })?;
            let progress = match scope {
                StreamScope::Full => engine.stream(
                    space.enumerate().skip(skip),
                    &workloads,
                    &mut aggregator,
                    after_chunk,
                )?,
                StreamScope::Sampled(count) => engine.stream(
                    space.sample(count, SAMPLE_SEED).into_iter().skip(skip),
                    &workloads,
                    &mut aggregator,
                    after_chunk,
                )?,
            };
            debug_assert_eq!(
                aggregator.configs_folded(),
                start + progress.configs_streamed
            );
            let audit = engine.audit_report();
            if let (Some(report), Some(s)) = (&audit, &request.surrogate) {
                // An *interrupted* run may legitimately have audited nothing
                // yet; a completed one presenting an empty error table would
                // be a silently-unvalidated report.
                if progress.complete {
                    refuse_unaudited(report, aggregator.configs_folded(), s.audit_rate)?;
                }
            }
            Ok(StreamSweepResult {
                model: model.kind(),
                train_configs,
                workloads,
                scope,
                scope_total,
                streamed: aggregator.configs_folded(),
                complete: progress.complete,
                checkpoint: options.checkpoint.clone(),
                cache_stats: spec.use_sim_cache.then(|| engine.cache_stats()),
                peak_retained_points: progress.peak_retained_points,
                audit,
                audit_rate: request.surrogate.map(|s| s.audit_rate),
                salvage,
                aggregator,
            })
        })
    }
}

/// A design space folded small enough that full-space streaming is test-cheap
/// (a few dozen valid configurations).
#[cfg(test)]
fn tiny_space() -> DesignSpace {
    DesignSpace::boom()
        .with_axis(HwParam::FetchWidth, vec![4])
        .with_axis(HwParam::DecodeWidth, vec![2])
        .with_axis(HwParam::RobEntry, vec![48, 64])
        .with_axis(HwParam::IntIssueWidth, vec![2])
        .with_axis(HwParam::MemFpIssueWidth, vec![1])
        .with_axis(HwParam::CacheWay, vec![2, 4])
        .with_axis(HwParam::DtlbEntry, vec![8])
        .with_axis(HwParam::BranchCount, vec![8, 12])
        .with_axis(HwParam::MshrEntry, vec![2, 4])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surrogate_exp::SurrogateOptions;
    use crate::ExperimentSettings;
    use autopower::area_proxy;

    /// A request scoring `scope` under a freshly trained `kind`, exactly.
    fn request(scope: StreamScope, kind: ModelKind) -> SweepRequest<'static> {
        SweepRequest {
            model: ModelSource::Train(kind),
            scope,
            surrogate: None,
        }
    }

    #[test]
    fn sampled_streaming_matches_the_materialized_sweep_bit_for_bit() {
        let exp = Experiments::fast();
        let materialized = exp
            .design_space_sweep(&request(StreamScope::Sampled(16), ModelKind::AutoPower))
            .unwrap();
        let streamed = exp
            .streaming_sweep(
                &request(StreamScope::Sampled(16), ModelKind::AutoPower),
                &StreamOptions::default(),
            )
            .unwrap();
        assert!(streamed.complete);
        assert_eq!(streamed.streamed, 16);

        // Same top-10, bit for bit.
        let expected = materialized.top_by_efficiency(TOP_K);
        assert_eq!(streamed.aggregator.top(), expected);

        // Exact (uncompacted) quantiles equal the materialized report's.
        let series = streamed.aggregator.series(PowerSeries::Total);
        assert!(series.sketch().is_exact());
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let expected = materialized.total_power_quantile(q);
            let got = series.quantile(q).unwrap();
            assert_eq!(got.to_bits(), expected.to_bits(), "quantile {q} diverged");
        }
        assert_eq!(series.min(), Some(materialized.total_power_quantile(0.0)));
        assert_eq!(series.max(), Some(materialized.total_power_quantile(1.0)));

        let text = streamed.to_string();
        assert!(text.contains("16 sampled configurations"));
        assert!(text.contains("exact quantiles"));
        assert!(text.contains("pJ/instr"));
        // Process-local numbers stay out of the resume-invariant report.
        assert!(!text.contains("cache"));
        assert!(streamed.diagnostics().contains("simulation cache"));
        assert!(streamed.diagnostics().contains("peak retained points"));
    }

    #[test]
    fn full_space_streaming_covers_total_exactly() {
        let space = tiny_space();
        let total = space.total();
        assert!(total > 0);
        let settings = ExperimentSettings::fast()
            .with_sweep_space(space)
            .with_chunk(4);
        let exp = Experiments::new(settings);
        let result = exp
            .streaming_sweep(
                &request(StreamScope::Full, ModelKind::AutoPower),
                &StreamOptions::default(),
            )
            .unwrap();
        assert!(result.complete);
        assert_eq!(result.scope_total, total);
        assert_eq!(result.streamed, total);
        assert_eq!(result.aggregator.configs_folded(), total);
        // One chunk's points at a time, never the whole space.
        assert_eq!(
            result.peak_retained_points,
            4 * exp.settings().average_workloads.len()
        );
        assert!(result.to_string().contains("full space"));
    }

    #[test]
    fn max_chunks_interrupts_and_resume_completes_byte_identically() {
        let dir = std::env::temp_dir().join(format!("autopower-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.ckpt");
        let settings = || {
            ExperimentSettings::fast()
                .with_sweep_space(tiny_space())
                .with_chunk(3)
                .with_threads(2)
        };
        let scope = StreamScope::Full;

        // One-shot reference run, no checkpointing at all.
        let one_shot = Experiments::new(settings())
            .streaming_sweep(
                &request(scope, ModelKind::AutoPower),
                &StreamOptions::default(),
            )
            .unwrap();
        assert!(one_shot.complete);

        // "Killed" after two chunks, at a checkpointed boundary.
        let interrupted = Experiments::new(settings())
            .streaming_sweep(
                &request(scope, ModelKind::AutoPower),
                &StreamOptions {
                    checkpoint: Some(path.clone()),
                    resume: false,
                    max_chunks: 2,
                },
            )
            .unwrap();
        assert!(!interrupted.complete);
        assert_eq!(interrupted.streamed, 6);
        assert!(interrupted.to_string().contains("--resume"));

        // Resumed in a fresh harness (fresh corpus, fresh caches).
        let resumed = Experiments::new(settings())
            .streaming_sweep(
                &request(scope, ModelKind::AutoPower),
                &StreamOptions {
                    checkpoint: Some(path.clone()),
                    resume: true,
                    max_chunks: 0,
                },
            )
            .unwrap();
        assert!(resumed.complete);
        assert_eq!(resumed.streamed, one_shot.streamed);
        assert_eq!(resumed.aggregator, one_shot.aggregator);
        assert_eq!(
            resumed.to_string(),
            one_shot.to_string(),
            "resumed report is not byte-identical to the one-shot run"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_refuses_a_foreign_checkpoint() {
        let dir = std::env::temp_dir().join(format!("autopower-foreign-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("foreign.ckpt");
        let exp = Experiments::fast();
        // Checkpoint a 6-config sampled sweep...
        exp.streaming_sweep(
            &request(StreamScope::Sampled(6), ModelKind::AutoPower),
            &StreamOptions {
                checkpoint: Some(path.clone()),
                resume: false,
                max_chunks: 0,
            },
        )
        .unwrap();
        // ...then try to resume it as a different scope and a different model.
        for (scope, kind) in [
            (StreamScope::Sampled(8), ModelKind::AutoPower),
            (StreamScope::Sampled(6), ModelKind::McpatCalib),
        ] {
            let err = exp
                .streaming_sweep(
                    &request(scope, kind),
                    &StreamOptions {
                        checkpoint: Some(path.clone()),
                        resume: true,
                        max_chunks: 0,
                    },
                )
                .unwrap_err();
            assert!(
                err.to_string().contains("different sweep"),
                "unexpected error: {err}"
            );
        }
        // Resume without a checkpoint path is rejected up front.
        let err = exp
            .streaming_sweep(
                &request(StreamScope::Sampled(6), ModelKind::AutoPower),
                &StreamOptions {
                    checkpoint: None,
                    resume: true,
                    max_chunks: 0,
                },
            )
            .unwrap_err();
        assert!(err.to_string().contains("--checkpoint"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn total_only_streaming_reports_only_the_total_row() {
        let exp = Experiments::fast();
        let result = exp
            .streaming_sweep(
                &request(StreamScope::Sampled(6), ModelKind::McpatCalib),
                &StreamOptions::default(),
            )
            .unwrap();
        assert!(!result.aggregator.resolves_groups());
        let text = result.to_string();
        assert!(!text.contains("clock"));
        assert!(text.contains("total"));
        assert!(text.contains("McPAT-Calib"));
    }

    #[test]
    fn pareto_frontier_is_non_dominated_and_sorted_by_power() {
        let settings = ExperimentSettings::fast().with_sweep_space(tiny_space());
        let exp = Experiments::new(settings);
        let result = exp
            .pareto_frontier(
                &request(StreamScope::Full, ModelKind::AutoPower),
                ParetoConstraints::default(),
            )
            .unwrap();
        assert!(!result.frontier.is_empty());
        assert!(result.frontier.len() as u64 <= result.scope_total);
        for pair in result.frontier.windows(2) {
            assert!(pair[0].summary.mean_total <= pair[1].summary.mean_total);
        }
        for a in &result.frontier {
            assert_eq!(a.area, area_proxy(&a.summary.config));
            for b in &result.frontier {
                let dominates = a.summary.mean_total <= b.summary.mean_total
                    && a.summary.mean_ipc >= b.summary.mean_ipc
                    && a.area <= b.area;
                assert!(
                    std::ptr::eq(a, b) || !dominates,
                    "{} dominates {}",
                    a.summary.config.id,
                    b.summary.config.id
                );
            }
        }
        let text = result.to_string();
        assert!(text.contains("Pareto frontier"));
        assert!(text.contains("area(kFBE)"));
        assert!(text.contains("full space"));
    }

    #[test]
    fn surrogate_streaming_with_full_audit_matches_exact_bit_for_bit() {
        let exp = Experiments::fast();
        let surrogate = exp
            .sweep_surrogate(&SurrogateOptions {
                train_count: 10,
                ..SurrogateOptions::default()
            })
            .unwrap();
        let exact = exp
            .streaming_sweep(
                &request(StreamScope::Sampled(12), ModelKind::AutoPower),
                &StreamOptions::default(),
            )
            .unwrap();
        let spec = Some(SurrogateSpec {
            surrogate: &surrogate,
            audit_rate: 1.0,
        });
        let audited = exp
            .streaming_sweep(
                &SweepRequest {
                    surrogate: spec,
                    ..request(StreamScope::Sampled(12), ModelKind::AutoPower)
                },
                &StreamOptions::default(),
            )
            .unwrap();
        // Audit rate 1.0 simulates every configuration exactly, so the folded
        // aggregate is bit-identical to the exact backend's.
        assert_eq!(audited.aggregator, exact.aggregator);
        let report = audited
            .audit
            .as_ref()
            .expect("surrogate runs carry an audit");
        assert_eq!(
            report.audited_points,
            12 * exp.settings().average_workloads.len() as u64
        );
        assert_eq!(audited.audit_rate, Some(1.0));
        let text = audited.to_string();
        assert!(text.contains("surrogate audit"), "got: {text}");
        assert!(text.contains("12 of 12 configurations"), "got: {text}");
        assert!(text.contains("predicted total power"));
        // Exact sweeps print no audit section at all.
        assert!(exact.audit.is_none());
        assert!(!exact.to_string().contains("surrogate audit"));
    }

    #[test]
    fn surrogate_checkpoint_resume_is_byte_identical_including_the_audit_table() {
        let dir = std::env::temp_dir().join(format!("autopower-surres-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("surrogate.ckpt");
        let settings = || {
            ExperimentSettings::fast()
                .with_sweep_space(tiny_space())
                .with_chunk(3)
                .with_threads(2)
        };
        let scope = StreamScope::Full;
        // The surrogate is trained deterministically, so each harness can
        // train its own copy and the fingerprints still match.
        let train = |exp: &Experiments| {
            exp.sweep_surrogate(&SurrogateOptions {
                train_count: 8,
                ..SurrogateOptions::default()
            })
            .unwrap()
        };

        let one_shot_exp = Experiments::new(settings());
        let one_shot_surrogate = train(&one_shot_exp);
        let backed = |surrogate| {
            Some(SurrogateSpec {
                surrogate,
                audit_rate: 0.5,
            })
        };
        let one_shot = one_shot_exp
            .streaming_sweep(
                &SweepRequest {
                    surrogate: backed(&one_shot_surrogate),
                    ..request(scope, ModelKind::AutoPower)
                },
                &StreamOptions::default(),
            )
            .unwrap();
        assert!(one_shot.complete);
        assert!(one_shot.audit.as_ref().unwrap().audited_points > 0);

        let interrupted_exp = Experiments::new(settings());
        let interrupted_surrogate = train(&interrupted_exp);
        let interrupted = interrupted_exp
            .streaming_sweep(
                &SweepRequest {
                    surrogate: backed(&interrupted_surrogate),
                    ..request(scope, ModelKind::AutoPower)
                },
                &StreamOptions {
                    checkpoint: Some(path.clone()),
                    resume: false,
                    max_chunks: 2,
                },
            )
            .unwrap();
        assert!(!interrupted.complete);

        let resumed_exp = Experiments::new(settings());
        let resumed_surrogate = train(&resumed_exp);
        let resumed = resumed_exp
            .streaming_sweep(
                &SweepRequest {
                    surrogate: backed(&resumed_surrogate),
                    ..request(scope, ModelKind::AutoPower)
                },
                &StreamOptions {
                    checkpoint: Some(path.clone()),
                    resume: true,
                    max_chunks: 0,
                },
            )
            .unwrap();
        assert!(resumed.complete);
        assert_eq!(resumed.aggregator, one_shot.aggregator);
        assert_eq!(resumed.audit, one_shot.audit);
        assert_eq!(
            resumed.to_string(),
            one_shot.to_string(),
            "resumed surrogate report (audit table included) is not byte-identical"
        );

        // An exact checkpoint cannot be resumed as a surrogate sweep (and
        // vice versa): the surrogate and audit rate join the fingerprint.
        let err = resumed_exp
            .streaming_sweep(
                &request(scope, ModelKind::AutoPower),
                &StreamOptions {
                    checkpoint: Some(path.clone()),
                    resume: true,
                    max_chunks: 0,
                },
            )
            .unwrap_err();
        assert!(err.to_string().contains("different sweep"), "got: {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unaudited_surrogate_runs_are_refused_unless_interrupted() {
        let dir = std::env::temp_dir().join(format!("autopower-unaud-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unaudited.ckpt");
        // Two-configuration chunks, so `max_chunks: 1` genuinely interrupts
        // the six-configuration sweep below.
        let exp = Experiments::new(ExperimentSettings::fast().with_chunk(2));
        let surrogate = exp
            .sweep_surrogate(&SurrogateOptions {
                train_count: 8,
                ..SurrogateOptions::default()
            })
            .unwrap();
        // An audit rate this small deterministically selects none of the
        // sampled configurations.
        let spec = Some(SurrogateSpec {
            surrogate: &surrogate,
            audit_rate: 1e-9,
        });
        let err = exp
            .streaming_sweep(
                &SweepRequest {
                    surrogate: spec,
                    ..request(StreamScope::Sampled(6), ModelKind::AutoPower)
                },
                &StreamOptions::default(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("audited zero"), "got: {err}");

        // Interrupted at a chunk boundary the same run is *not* refused (the
        // audit may simply not have reached an audited configuration yet) —
        // and with zero exact simulations the enabled cache reports itself
        // idle instead of a misleading 0.0% hit rate.
        let interrupted = exp
            .streaming_sweep(
                &SweepRequest {
                    surrogate: spec,
                    ..request(StreamScope::Sampled(6), ModelKind::AutoPower)
                },
                &StreamOptions {
                    checkpoint: Some(path.clone()),
                    resume: false,
                    max_chunks: 1,
                },
            )
            .unwrap();
        assert!(!interrupted.complete);
        assert_eq!(interrupted.audit.as_ref().unwrap().audited_points, 0);
        let diagnostics = interrupted.diagnostics();
        assert!(diagnostics.contains("idle"), "got: {diagnostics}");
        assert!(!diagnostics.contains("0.0%"), "got: {diagnostics}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn constrained_pareto_drops_infeasible_configurations_end_to_end() {
        let settings = ExperimentSettings::fast().with_sweep_space(tiny_space());
        let exp = Experiments::new(settings);
        let unconstrained = exp
            .pareto_frontier(
                &request(StreamScope::Full, ModelKind::AutoPower),
                ParetoConstraints::default(),
            )
            .unwrap();
        assert!(!unconstrained.constraints.is_constrained());
        assert!(
            unconstrained.frontier.len() >= 2,
            "need a splittable frontier"
        );
        // Bound the power between the frontier's extremes so the constraint
        // genuinely carves something away.
        let bound = unconstrained.frontier[unconstrained.frontier.len() / 2]
            .summary
            .mean_total;
        let constraints = ParetoConstraints {
            max_power: Some(bound),
            min_ipc: None,
        };
        let constrained = exp
            .pareto_frontier(
                &request(StreamScope::Full, ModelKind::AutoPower),
                constraints,
            )
            .unwrap();
        assert!(constrained.frontier.len() < unconstrained.frontier.len());
        assert!(!constrained.frontier.is_empty());
        for entry in &constrained.frontier {
            assert!(entry.summary.mean_total <= bound);
            // For a max-power bound, pre-filtering coincides with filtering
            // the unconstrained frontier: every surviving entry is one of
            // the unconstrained frontier's entries.
            assert!(
                unconstrained
                    .frontier
                    .iter()
                    .any(|u| u.summary.config.id == entry.summary.config.id),
                "{} is not on the unconstrained frontier",
                entry.summary.config.id
            );
        }
        let text = constrained.to_string();
        assert!(text.contains("feasibility:"), "got: {text}");
        assert!(text.contains("applied before the frontier fold"));
        assert!(!unconstrained.to_string().contains("feasibility:"));
    }

    #[test]
    fn surrogate_pareto_reports_the_audit_table() {
        let settings = ExperimentSettings::fast().with_sweep_space(tiny_space());
        let exp = Experiments::new(settings);
        let surrogate = exp
            .sweep_surrogate(&SurrogateOptions {
                train_count: 8,
                ..SurrogateOptions::default()
            })
            .unwrap();
        let spec = Some(SurrogateSpec {
            surrogate: &surrogate,
            audit_rate: 1.0,
        });
        let result = exp
            .pareto_frontier(
                &SweepRequest {
                    surrogate: spec,
                    ..request(StreamScope::Full, ModelKind::AutoPower)
                },
                ParetoConstraints::default(),
            )
            .unwrap();
        // Full audit: the frontier equals the exact run's.
        let exact = exp
            .pareto_frontier(
                &request(StreamScope::Full, ModelKind::AutoPower),
                ParetoConstraints::default(),
            )
            .unwrap();
        assert_eq!(result.frontier, exact.frontier);
        assert!(result.audit.as_ref().unwrap().audited_points > 0);
        let text = result.to_string();
        assert!(text.contains("surrogate audit"), "got: {text}");
        assert!(text.contains("predicted total power"));
    }

    #[test]
    fn surrogate_error_bound_stays_within_the_committed_envelope() {
        // The acceptance space: 200 sampled configurations, default training
        // budget, default audit rate.  The thresholds are the committed error
        // envelope — if surrogate quality regresses past them, this fails.
        let exp = Experiments::fast();
        let surrogate = exp.sweep_surrogate(&SurrogateOptions::default()).unwrap();
        let spec = Some(SurrogateSpec {
            surrogate: &surrogate,
            audit_rate: 0.25,
        });
        let result = exp
            .streaming_sweep(
                &SweepRequest {
                    surrogate: spec,
                    ..request(StreamScope::Sampled(200), ModelKind::AutoPower)
                },
                &StreamOptions::default(),
            )
            .unwrap();
        let report = result.audit.expect("audited sweep");
        assert!(report.audited_points > 0);
        let ipc = &report.per_event[0];
        assert_eq!(ipc.name, "ipc");
        let ipc_mape = ipc.mape.expect("ipc error is defined");
        let total_mape = report.total_mape.expect("total error is defined");
        assert!(
            ipc_mape < 0.15,
            "surrogate ipc MAPE {ipc_mape:.4} breached the committed 15% envelope"
        );
        assert!(
            total_mape < 0.10,
            "surrogate total-power MAPE {total_mape:.4} breached the committed 10% envelope"
        );
    }

    #[test]
    fn loaded_models_match_trained_ones_on_every_verb() {
        let exp = Experiments::fast();
        let scope = StreamScope::Sampled(24);
        for kind in [ModelKind::AutoPower, ModelKind::McpatCalib] {
            let trained = exp.train_sweep_model(kind).unwrap();
            let loaded = autopower::decode_model(&encode_model(trained.as_ref())).unwrap();
            let loaded = SweepRequest {
                model: ModelSource::Loaded(loaded.as_ref()),
                ..request(scope, kind)
            };
            let fresh = request(scope, kind);

            let stream = |request| {
                exp.streaming_sweep(request, &StreamOptions::default())
                    .unwrap()
            };
            let (a, b) = (stream(&loaded), stream(&fresh));
            assert_eq!(a.aggregator, b.aggregator, "{kind} streaming sweep");
            assert_eq!(a.train_configs, None);
            assert_eq!(b.train_configs, Some(exp.settings().train_two.clone()));

            let pareto = |request| {
                exp.pareto_frontier(request, ParetoConstraints::default())
                    .unwrap()
                    .frontier
            };
            assert_eq!(pareto(&loaded), pareto(&fresh), "{kind} pareto frontier");

            let table4 = |request: &SweepRequest<'_>| {
                exp.table4_power_trace_with(request.model).unwrap().cases
            };
            assert_eq!(table4(&loaded), table4(&fresh), "{kind} table4");
        }
    }

    #[test]
    fn fingerprint_separates_every_input_dimension() {
        let exp = Experiments::fast();
        let corpus = exp.sweep_training_corpus();
        let auto = ModelKind::AutoPower
            .train(&corpus, &exp.settings().train_two)
            .unwrap();
        let mcpat = ModelKind::McpatCalib
            .train(&corpus, &exp.settings().train_two)
            .unwrap();
        let space = DesignSpace::boom();
        let workloads = [Workload::Dhrystone, Workload::Qsort];
        let sim = SimConfig::fast();
        let base = sweep_fingerprint(
            &space,
            &workloads,
            auto.as_ref(),
            StreamScope::Sampled(8),
            &sim,
        );
        // Stable for identical inputs.
        assert_eq!(
            base,
            sweep_fingerprint(
                &space,
                &workloads,
                auto.as_ref(),
                StreamScope::Sampled(8),
                &sim
            )
        );
        // Any dimension changing changes the fingerprint.
        let variants = [
            sweep_fingerprint(
                &space.clone().with_axis(HwParam::CacheWay, vec![2]),
                &workloads,
                auto.as_ref(),
                StreamScope::Sampled(8),
                &sim,
            ),
            sweep_fingerprint(
                &space,
                &[Workload::Dhrystone],
                auto.as_ref(),
                StreamScope::Sampled(8),
                &sim,
            ),
            sweep_fingerprint(
                &space,
                &workloads,
                mcpat.as_ref(),
                StreamScope::Sampled(8),
                &sim,
            ),
            sweep_fingerprint(&space, &workloads, auto.as_ref(), StreamScope::Full, &sim),
            sweep_fingerprint(
                &space,
                &workloads,
                auto.as_ref(),
                StreamScope::Sampled(9),
                &sim,
            ),
            sweep_fingerprint(
                &space,
                &workloads,
                auto.as_ref(),
                StreamScope::Sampled(8),
                &SimConfig {
                    stream_seed: sim.stream_seed + 1,
                    ..sim
                },
            ),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "variant {i} collided with the base fingerprint");
        }
    }
}
