//! Learned activity surrogate: sweep at prediction speed with the performance
//! simulator demoted to a sampled oracle.
//!
//! Even after exact memoization and the allocation-free hot loop, a sweep
//! point still pays ~milliseconds of genuinely stepped pipeline cycles per
//! simulation.  The remaining lever is error-bounded approximation: a small
//! per-event GBDT ensemble that maps the **simulation-visible** configuration
//! parameters straight to the simulator's event rates, so scoring a point
//! costs a few thousand tree-node hops instead of a simulation.  The paper's
//! own thesis — calibrated ML models can replace expensive estimates when
//! validated against goldens — applied one layer down the stack.
//!
//! Soundness leans on two existing exactness proofs:
//!
//! * [`SimKey::features`] is the projection of a configuration onto everything
//!   the simulator reads — the same projection that makes the simulation
//!   cache exact — so the surrogate's inputs are *sufficient*: no hidden
//!   variable can make two feature-identical configurations simulate
//!   differently.
//! * The surrogate predicts the **raw** (pre-distortion) event rates of
//!   [`EventParams::raw_rates`], and [`EventParams::from_raw_rates_into`]
//!   re-applies the same deterministic `(config, workload, event)` distortion
//!   the exact path applies.  A perfect surrogate therefore reproduces the
//!   exact pipeline's event parameters bit for bit.
//!
//! The simulator stays in the loop as an **oracle**: it generates the
//! training set from a seeded sample of the target space, and during the
//! sweep a deterministic audit fraction of configurations is simulated
//! exactly — those points are emitted bit-identical to a full-sim sweep,
//! and the surrogate's predictions for them feed a per-event and end-to-end
//! power error bound ([`AuditReport`]).  A sweep that audited nothing has no
//! error bound, and reports refuse to print it as if it did.

use crate::error::AutoPowerError;
use autopower_config::{seed, ConfigId, DesignSpace, Workload};
use autopower_ml::parallel::{available_threads, parallel_map_with};
use autopower_ml::{fit_multi_output, GbdtParams, GradientBoosting, Matrix};
use autopower_perfsim::{
    simulate_counters_with, EventParams, SimCache, SimConfig, SimKey, SimScratch,
};
use serde::codec::{Codec, CodecError, Reader, Writer};
use std::path::Path;

/// Version tag of the serialized surrogate format; bumped on layout changes
/// so a stale file fails loudly instead of deserializing garbage.
pub const SURROGATE_FORMAT_VERSION: u64 = 2;

/// Seed of the training-set sample of the target space.  Deliberately
/// distinct from the sweep's own sample seed so the surrogate does not train
/// on exactly the configurations it will be asked to predict (overlap is
/// still possible — the audit, not the split, is the error bound).
pub const SURROGATE_TRAIN_SEED: u64 = 0x5EED_0AC1E;

/// Salt of the deterministic audit selection hash.
const AUDIT_SALT: u64 = 0xAD17_5EED;

/// Fixed-point scale of audit error accumulation: absolute percentage errors
/// are rounded to multiples of 2^-32 and summed as integers, making the
/// accumulated sums independent of the (thread-dependent) accumulation order.
const APE_SCALE: f64 = 4_294_967_296.0;

/// GBDT hyper-parameters tuned for the surrogate: the per-event targets are
/// smooth in the 11 structural features, so a short, strongly-shrunk ensemble
/// keeps inference at a few thousand node hops per point — the budget that
/// makes the sweep prediction-speed.
///
/// Tuned against a full-audit error scan on the 96-config benchmark space:
/// 24 trees at shrinkage 0.3 match the audit MAPE of ensembles twice the
/// size (the surrogate is training-data-limited, not capacity-limited) at
/// half the inference cost.
pub fn surrogate_gbdt_params() -> GbdtParams {
    GbdtParams {
        n_estimators: 24,
        learning_rate: 0.3,
        max_depth: 3,
        ..GbdtParams::default()
    }
}

/// Whether a configuration is in the deterministic audit fraction of a
/// surrogate sweep.
///
/// A pure function of the configuration identity and the rate — independent
/// of thread count, chunking, stream order and resume position — so the set
/// of audited configurations is a property of the sweep, not of its
/// execution.  `rate >= 1` audits everything, `rate <= 0` nothing.
pub fn audit_selected(config: ConfigId, audit_rate: f64) -> bool {
    if audit_rate >= 1.0 {
        return true;
    }
    if audit_rate <= 0.0 {
        return false;
    }
    seed::unit_uniform(seed::combine(AUDIT_SALT, config.index() as u64)) < audit_rate
}

/// A per-event GBDT ensemble predicting a workload's raw event rates from the
/// simulation-visible configuration features.
///
/// One independent ensemble per `(workload, event)` pair, all fitted over one
/// shared feature matrix ([`fit_multi_output`]).  The training simulation
/// knobs (`max_instructions`, `stream_seed`) are recorded and re-validated at
/// use, because predictions are only meaningful for the exact simulation the
/// surrogate learned.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivitySurrogate {
    max_instructions: u64,
    stream_seed: u64,
    train_count: u64,
    train_seed: u64,
    workloads: Vec<Workload>,
    /// `models[w][e]` predicts event `e` of `workloads[w]`.
    models: Vec<Vec<GradientBoosting>>,
}

impl ActivitySurrogate {
    /// Trains a surrogate on `count` configurations sampled from `space` with
    /// `train_seed`, simulating every `(configuration, workload)` pair
    /// exactly (the oracle's training set) and fitting one GBDT per
    /// `(workload, event)` output over the shared feature matrix.
    ///
    /// Training is parallel and bit-identical for any core count: the
    /// oracle simulations and the per-output fits each run on every
    /// available core and are collected in a fixed order.
    ///
    /// # Errors
    ///
    /// Returns [`AutoPowerError::Surrogate`] when `count` is zero, no
    /// workloads are given, or a per-output fit fails.
    pub fn train(
        space: &DesignSpace,
        workloads: &[Workload],
        sim: &SimConfig,
        count: usize,
        train_seed: u64,
        params: &GbdtParams,
    ) -> Result<Self, AutoPowerError> {
        if count == 0 {
            return Err(AutoPowerError::Surrogate(
                "surrogate training needs at least one sampled configuration".into(),
            ));
        }
        if workloads.is_empty() {
            return Err(AutoPowerError::Surrogate(
                "surrogate training needs at least one workload".into(),
            ));
        }
        let configs = space.sample(count, train_seed);
        let event_count = EventParams::names().len();

        // One shared feature matrix: SimKey::features ignores the workload,
        // so every workload's outputs regress over the same rows.
        let mut features = Vec::with_capacity(configs.len() * SimKey::FEATURE_COUNT);
        for config in &configs {
            features.extend(SimKey::new(config, workloads[0], sim).features());
        }
        let x = Matrix::from_flat(configs.len(), SimKey::FEATURE_COUNT, features);

        // Oracle pass: exact simulations on every core, one scratch per
        // worker, deduplicated along the simulation-invisible axes exactly
        // like the sweep itself.  Rates come back in (config, workload)
        // order whatever the scheduling.
        let cache = SimCache::new();
        let rates = parallel_map_with(
            available_threads(),
            configs.len() * workloads.len(),
            SimScratch::new,
            |scratch, i| {
                let (config, workload) = (
                    &configs[i / workloads.len()],
                    workloads[i % workloads.len()],
                );
                let counters = cache.counters_for(SimKey::new(config, workload, sim), || {
                    simulate_counters_with(config, workload, sim, scratch)
                });
                EventParams::raw_rates(&counters)
            },
        );
        let mut targets: Vec<Vec<f64>> =
            vec![Vec::with_capacity(configs.len()); workloads.len() * event_count];
        for (i, raw) in rates.iter().enumerate() {
            let w = i % workloads.len();
            for (e, &rate) in raw.iter().enumerate() {
                targets[w * event_count + e].push(rate);
            }
        }

        let flat_models = fit_multi_output(params, &x, &targets).map_err(|e| {
            AutoPowerError::Surrogate(format!("fitting the surrogate ensembles: {e}"))
        })?;
        let mut models: Vec<Vec<GradientBoosting>> = Vec::with_capacity(workloads.len());
        let mut iter = flat_models.into_iter();
        for _ in workloads {
            models.push(iter.by_ref().take(event_count).collect());
        }
        Ok(Self {
            max_instructions: sim.max_instructions,
            stream_seed: sim.stream_seed,
            train_count: count as u64,
            train_seed,
            workloads: workloads.to_vec(),
            models,
        })
    }

    /// The workloads this surrogate can predict.
    pub fn workloads(&self) -> &[Workload] {
        &self.workloads
    }

    /// Whether the surrogate was trained for `workload`.
    pub fn covers(&self, workload: Workload) -> bool {
        self.workloads.contains(&workload)
    }

    /// Number of configurations the training set sampled.
    pub fn train_count(&self) -> u64 {
        self.train_count
    }

    /// Seed of the training-set sample.
    pub fn train_seed(&self) -> u64 {
        self.train_seed
    }

    /// Checks that `sim` runs the exact simulation this surrogate learned.
    ///
    /// # Errors
    ///
    /// Returns [`AutoPowerError::Surrogate`] when the instruction budget or
    /// stream seed differ (the predicted rates would silently describe a
    /// different simulation).  `interval_cycles` and `event_distortion` are
    /// irrelevant: the former is pure observation, the latter is re-applied
    /// downstream of the predicted raw rates.
    pub fn compatible_with(&self, sim: &SimConfig) -> Result<(), AutoPowerError> {
        if self.max_instructions != sim.max_instructions || self.stream_seed != sim.stream_seed {
            return Err(AutoPowerError::Surrogate(format!(
                "surrogate was trained for max_instructions={} stream_seed={} but the sweep \
                 simulates max_instructions={} stream_seed={}",
                self.max_instructions, self.stream_seed, sim.max_instructions, sim.stream_seed
            )));
        }
        Ok(())
    }

    /// Predicts the raw (pre-distortion) event rates of `workload` for a
    /// configuration's [`SimKey::features`] vector, clamped to the physical
    /// lower bound of zero.
    ///
    /// # Panics
    ///
    /// Panics if the surrogate does not cover `workload` (callers validate
    /// coverage before sweeping) or `out` is not one slot per event.
    pub fn predict_raw_into(&self, workload: Workload, features: &[f64], out: &mut [f64]) {
        let slot = self
            .workloads
            .iter()
            .position(|&w| w == workload)
            .unwrap_or_else(|| panic!("surrogate does not cover workload {workload}"));
        let models = &self.models[slot];
        assert_eq!(out.len(), models.len(), "one output slot per event");
        for (o, model) in out.iter_mut().zip(models) {
            *o = model.forest().predict_row(features).max(0.0);
        }
    }

    /// Batched twin of [`ActivitySurrogate::predict_raw_into`]: predicts the
    /// raw event rates of `workload` for every feature row of `x` at once,
    /// forest-major — each per-event ensemble walks the whole batch before
    /// the next one runs, so an ensemble's nodes stay cache-resident across
    /// the batch instead of being evicted between points.
    ///
    /// `out` is row-major: `out[r * events + e]` is event `e` of row `r`.
    /// Bit-identical to calling [`ActivitySurrogate::predict_raw_into`] per
    /// row ([`FlatForest::predict_into`](autopower_ml::FlatForest::predict_into)
    /// pins batched-vs-single bit-identity, and the zero clamp is applied
    /// per value either way).
    ///
    /// # Panics
    ///
    /// Panics if the surrogate does not cover `workload` or `out` is not one
    /// slot per `(row, event)` pair.
    pub fn predict_raw_batch_into(
        &self,
        workload: Workload,
        x: &Matrix,
        scratch: &mut Vec<f64>,
        out: &mut [f64],
    ) {
        let slot = self
            .workloads
            .iter()
            .position(|&w| w == workload)
            .unwrap_or_else(|| panic!("surrogate does not cover workload {workload}"));
        let models = &self.models[slot];
        let events = models.len();
        assert_eq!(
            out.len(),
            x.rows() * events,
            "one output slot per (row, event)"
        );
        for (e, model) in models.iter().enumerate() {
            model.forest().predict_into(x, scratch);
            for (r, &v) in scratch.iter().enumerate() {
                out[r * events + e] = v.max(0.0);
            }
        }
    }
}

impl Codec for ActivitySurrogate {
    fn encode(&self, w: &mut Writer) {
        w.begin("surrogate");
        w.u64("max_instructions", self.max_instructions);
        w.u64("stream_seed", self.stream_seed);
        w.u64("train_count", self.train_count);
        w.u64("train_seed", self.train_seed);
        w.begin_list("workloads", self.workloads.len());
        for workload in &self.workloads {
            w.str("name", workload.name());
        }
        w.end();
        w.begin_list("ensembles", self.models.len());
        for ensemble in &self.models {
            w.begin_list("events", ensemble.len());
            for model in ensemble {
                model.encode(w);
            }
            w.end();
        }
        w.end();
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("surrogate")?;
        let max_instructions = r.u64("max_instructions")?;
        let stream_seed = r.u64("stream_seed")?;
        let count_line = r.line();
        let train_count = r.u64("train_count")?;
        if train_count == 0 {
            return Err(CodecError::new(
                count_line,
                "surrogate records an empty training sample",
            ));
        }
        let train_seed = r.u64("train_seed")?;
        let workloads_line = r.line();
        let n_workloads = r.begin_list("workloads")?;
        let mut workloads = Vec::with_capacity(n_workloads);
        for _ in 0..n_workloads {
            let line = r.line();
            let name = r.str("name")?;
            let workload = Workload::ALL
                .into_iter()
                .find(|w| w.name() == name)
                .ok_or_else(|| CodecError::new(line, format!("unknown workload '{name}'")))?;
            if workloads.contains(&workload) {
                return Err(CodecError::new(
                    line,
                    format!("duplicate workload '{name}'"),
                ));
            }
            workloads.push(workload);
        }
        r.end()?;
        if workloads.is_empty() {
            return Err(CodecError::new(
                workloads_line,
                "surrogate covers no workloads",
            ));
        }
        let ensembles_line = r.line();
        let n_ensembles = r.begin_list("ensembles")?;
        if n_ensembles != workloads.len() {
            return Err(CodecError::new(
                ensembles_line,
                format!(
                    "surrogate holds {n_ensembles} ensemble(s) for {} workload(s)",
                    workloads.len()
                ),
            ));
        }
        let event_count = EventParams::names().len();
        let mut models = Vec::with_capacity(n_ensembles);
        for _ in 0..n_ensembles {
            let events_line = r.line();
            let n_events = r.begin_list("events")?;
            if n_events != event_count {
                return Err(CodecError::new(
                    events_line,
                    format!("expected {event_count} event models, found {n_events}"),
                ));
            }
            let mut ensemble = Vec::with_capacity(n_events);
            for _ in 0..n_events {
                ensemble.push(GradientBoosting::decode(r)?);
            }
            r.end()?;
            models.push(ensemble);
        }
        r.end()?;
        r.end()?;
        Ok(Self {
            max_instructions,
            stream_seed,
            train_count,
            train_seed,
            workloads,
            models,
        })
    }
}

/// Serializes a surrogate to its version-tagged text form.
pub fn encode_surrogate(surrogate: &ActivitySurrogate) -> String {
    let mut w = Writer::new();
    w.begin("autopower-surrogate");
    w.u64("version", SURROGATE_FORMAT_VERSION);
    surrogate.encode(&mut w);
    w.end();
    w.finish()
}

/// Restores a surrogate from [`encode_surrogate`] text.
///
/// # Errors
///
/// Returns [`AutoPowerError::Surrogate`] on a malformed stream or version
/// mismatch.
pub fn decode_surrogate(text: &str) -> Result<ActivitySurrogate, AutoPowerError> {
    let mut r = Reader::new(text);
    (|| -> Result<ActivitySurrogate, CodecError> {
        r.begin("autopower-surrogate")?;
        let version_line = r.line();
        let version = r.u64("version")?;
        if version != SURROGATE_FORMAT_VERSION {
            return Err(CodecError::new(
                version_line,
                format!(
                    "unsupported surrogate format version {version} (this build reads version \
                     {SURROGATE_FORMAT_VERSION})"
                ),
            ));
        }
        let surrogate = ActivitySurrogate::decode(&mut r)?;
        r.end()?;
        r.expect_eof()?;
        Ok(surrogate)
    })()
    .map_err(|e| AutoPowerError::Surrogate(format!("malformed surrogate file: {e}")))
}

/// Saves a surrogate to `path` (see [`encode_surrogate`] for the format).
///
/// # Errors
///
/// Returns [`AutoPowerError::Surrogate`] if the file cannot be written.
pub fn save_surrogate(
    surrogate: &ActivitySurrogate,
    path: impl AsRef<Path>,
) -> Result<(), AutoPowerError> {
    let path = path.as_ref();
    std::fs::write(path, encode_surrogate(surrogate))
        .map_err(|e| AutoPowerError::Surrogate(format!("writing {}: {e}", path.display())))
}

/// Loads a surrogate saved by [`save_surrogate`].
///
/// # Errors
///
/// Returns [`AutoPowerError::Surrogate`] if the file cannot be read or does
/// not parse.
pub fn load_surrogate(path: impl AsRef<Path>) -> Result<ActivitySurrogate, AutoPowerError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| AutoPowerError::Surrogate(format!("reading {}: {e}", path.display())))?;
    decode_surrogate(&text)
}

// ---------------------------------------------------------------------------
// Audit error accounting
// ---------------------------------------------------------------------------

/// Order-independent accumulator of surrogate-vs-exact errors over the
/// audited points of a sweep.
///
/// Absolute percentage errors are accumulated as fixed-point integers
/// (scaled by the private `APE_SCALE` constant, 2^32 per unit), so the
/// sums — and therefore the reported MAPE — are
/// bit-identical for every thread count and accumulation order, and
/// serialize exactly into a sweep checkpoint for resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditAccumulator {
    points: u64,
    /// Per event: (scaled APE sum, points with a defined APE).
    per_event: Vec<(u128, u64)>,
    total: (u128, u64),
}

/// Scaled APE of one `(exact, predicted)` pair, or `None` when the error is
/// undefined (exact value zero with a non-zero prediction).
fn scaled_ape(exact: f64, predicted: f64) -> Option<u128> {
    if exact == 0.0 {
        return (predicted == 0.0).then_some(0);
    }
    let ape = ((predicted - exact) / exact).abs();
    ape.is_finite().then(|| (ape * APE_SCALE).round() as u128)
}

impl AuditAccumulator {
    /// An empty accumulator over `event_count` event features.
    pub fn new(event_count: usize) -> Self {
        Self {
            points: 0,
            per_event: vec![(0, 0); event_count],
            total: (0, 0),
        }
    }

    /// Folds one audited point: the exact and surrogate-predicted raw event
    /// rates, and the exact and surrogate-predicted total power.
    ///
    /// # Panics
    ///
    /// Panics if the rate slices do not match the accumulator's event count.
    pub fn record(
        &mut self,
        exact_raw: &[f64],
        predicted_raw: &[f64],
        exact_total: f64,
        predicted_total: f64,
    ) {
        assert_eq!(exact_raw.len(), self.per_event.len());
        assert_eq!(predicted_raw.len(), self.per_event.len());
        self.points += 1;
        for (slot, (&e, &p)) in self
            .per_event
            .iter_mut()
            .zip(exact_raw.iter().zip(predicted_raw))
        {
            if let Some(ape) = scaled_ape(e, p) {
                slot.0 += ape;
                slot.1 += 1;
            }
        }
        if let Some(ape) = scaled_ape(exact_total, predicted_total) {
            self.total.0 += ape;
            self.total.1 += 1;
        }
    }

    /// Folds every point `other` recorded into this accumulator.  The sums
    /// are integers, so absorbing is exact: recording points into several
    /// accumulators and absorbing them gives the same state as recording
    /// them all into one, in any order.
    ///
    /// # Panics
    ///
    /// Panics if the two accumulators track different event counts.
    pub fn absorb(&mut self, other: &AuditAccumulator) {
        assert_eq!(self.per_event.len(), other.per_event.len());
        self.points += other.points;
        for (slot, &(sum, n)) in self.per_event.iter_mut().zip(&other.per_event) {
            slot.0 += sum;
            slot.1 += n;
        }
        self.total.0 += other.total.0;
        self.total.1 += other.total.1;
    }

    /// Number of audited points folded so far.
    pub fn points(&self) -> u64 {
        self.points
    }

    /// Summarizes the accumulated errors into the table a report prints.
    pub fn report(&self) -> AuditReport {
        let mape = |(sum, n): (u128, u64)| (n > 0).then(|| (sum as f64 / APE_SCALE) / n as f64);
        AuditReport {
            audited_points: self.points,
            per_event: EventParams::names()
                .iter()
                .zip(&self.per_event)
                .map(|(&name, &slot)| AuditEventError {
                    name,
                    mape: mape(slot),
                    samples: slot.1,
                })
                .collect(),
            total_mape: mape(self.total),
            total_samples: self.total.1,
        }
    }
}

impl Codec for AuditAccumulator {
    fn encode(&self, w: &mut Writer) {
        w.begin("audit");
        w.u64("points", self.points);
        w.begin_list("events", self.per_event.len());
        for &(sum, n) in &self.per_event {
            w.begin("event");
            w.u64("sum_hi", (sum >> 64) as u64);
            w.u64("sum_lo", sum as u64);
            w.u64("samples", n);
            w.end();
        }
        w.end();
        w.u64("total_hi", (self.total.0 >> 64) as u64);
        w.u64("total_lo", self.total.0 as u64);
        w.u64("total_samples", self.total.1);
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("audit")?;
        Self::decode_fields(r)
    }
}

impl AuditAccumulator {
    /// Decodes the fields and closing brace of an `audit` block whose opening
    /// line was already consumed (via `try_begin` on the optional checkpoint
    /// section).
    pub(crate) fn decode_fields(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let points = r.u64("points")?;
        let events_line = r.line();
        let n_events = r.begin_list("events")?;
        if n_events != EventParams::names().len() {
            return Err(CodecError::new(
                events_line,
                format!(
                    "expected {} audited event features, found {n_events}",
                    EventParams::names().len()
                ),
            ));
        }
        let mut per_event = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            r.begin("event")?;
            let hi = r.u64("sum_hi")?;
            let lo = r.u64("sum_lo")?;
            let n = r.u64("samples")?;
            r.end()?;
            per_event.push(((u128::from(hi) << 64) | u128::from(lo), n));
        }
        r.end()?;
        let hi = r.u64("total_hi")?;
        let lo = r.u64("total_lo")?;
        let total_samples = r.u64("total_samples")?;
        r.end()?;
        Ok(Self {
            points,
            per_event,
            total: ((u128::from(hi) << 64) | u128::from(lo), total_samples),
        })
    }
}

/// One event feature's audited error bound.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEventError {
    /// The event feature's canonical name.
    pub name: &'static str,
    /// Mean absolute percentage error over the audited points, or `None`
    /// when no audited point had a defined error for this feature.
    pub mape: Option<f64>,
    /// Audited points with a defined error for this feature.
    pub samples: u64,
}

/// The audit error table of a surrogate sweep: per-event and end-to-end
/// (predicted total power) MAPE against full-simulation goldens.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Audited `(configuration, workload)` points.
    pub audited_points: u64,
    /// Per-event error bounds, in canonical [`EventParams::names`] order.
    pub per_event: Vec<AuditEventError>,
    /// MAPE of the surrogate-predicted total power against the exact-sim
    /// prediction, or `None` when nothing was audited.
    pub total_mape: Option<f64>,
    /// Audited points contributing to [`AuditReport::total_mape`].
    pub total_samples: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopower_config::HwParam;

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

    fn tiny_surrogate() -> ActivitySurrogate {
        ActivitySurrogate::train(
            &tiny_space(),
            &[Workload::Dhrystone, Workload::Qsort],
            &SimConfig::fast(),
            12,
            SURROGATE_TRAIN_SEED,
            &surrogate_gbdt_params(),
        )
        .unwrap()
    }

    #[test]
    fn trains_covers_and_predicts_physical_rates() {
        let surrogate = tiny_surrogate();
        assert!(surrogate.covers(Workload::Dhrystone));
        assert!(surrogate.covers(Workload::Qsort));
        assert!(!surrogate.covers(Workload::Spmv));
        assert_eq!(surrogate.train_count(), 12);

        let config = tiny_space().sample(1, 99)[0];
        let sim = SimConfig::fast();
        let features = SimKey::new(&config, Workload::Qsort, &sim).features();
        let mut out = vec![0.0; EventParams::names().len()];
        surrogate.predict_raw_into(Workload::Qsort, &features, &mut out);
        assert!(out.iter().all(|v| v.is_finite() && *v >= 0.0));
        // IPC (raw[0]) of any real pipeline is positive and below the widest
        // commit width.
        assert!(out[0] > 0.0 && out[0] < 8.0);
    }

    #[test]
    fn predictions_track_the_oracle_on_training_points() {
        let surrogate = tiny_surrogate();
        let sim = SimConfig::fast();
        let configs = tiny_space().sample(12, SURROGATE_TRAIN_SEED);
        let mut out = vec![0.0; EventParams::names().len()];
        let mut scratch = SimScratch::new();
        for config in &configs {
            let counters = simulate_counters_with(config, Workload::Dhrystone, &sim, &mut scratch);
            let exact = EventParams::raw_rates(&counters);
            let features = SimKey::new(config, Workload::Dhrystone, &sim).features();
            surrogate.predict_raw_into(Workload::Dhrystone, &features, &mut out);
            // On its own training points the ensemble should reproduce IPC
            // closely — this is a fit-sanity bound, not the audit bound.
            assert!(
                (out[0] - exact[0]).abs() / exact[0] < 0.25,
                "training-point ipc error too large: {} vs {}",
                out[0],
                exact[0]
            );
        }
    }

    #[test]
    fn codec_roundtrips_bit_for_bit() {
        let surrogate = tiny_surrogate();
        let text = encode_surrogate(&surrogate);
        let restored = decode_surrogate(&text).unwrap();
        assert_eq!(restored, surrogate);
        assert_eq!(encode_surrogate(&restored), text);
        // Same predictions bit for bit.
        let config = tiny_space().sample(1, 7)[0];
        let features = SimKey::new(&config, Workload::Dhrystone, &SimConfig::fast()).features();
        let mut a = vec![0.0; EventParams::names().len()];
        let mut b = a.clone();
        surrogate.predict_raw_into(Workload::Dhrystone, &features, &mut a);
        restored.predict_raw_into(Workload::Dhrystone, &features, &mut b);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn decode_rejects_tampered_streams() {
        let text = encode_surrogate(&tiny_surrogate());
        let bad_version =
            text.replace(&format!("version {SURROGATE_FORMAT_VERSION}"), "version 99");
        assert!(decode_surrogate(&bad_version)
            .unwrap_err()
            .to_string()
            .contains("version"));
        let bad_workload = text.replace("name dhrystone", "name no-such-workload");
        assert!(decode_surrogate(&bad_workload)
            .unwrap_err()
            .to_string()
            .contains("unknown workload"));
        let truncated = &text[..text.len() / 2];
        assert!(decode_surrogate(truncated).is_err());
    }

    #[test]
    fn compatibility_is_pinned_to_the_training_simulation() {
        let surrogate = tiny_surrogate();
        let sim = SimConfig::fast();
        assert!(surrogate.compatible_with(&sim).is_ok());
        let reseeded = SimConfig {
            stream_seed: sim.stream_seed + 1,
            ..sim
        };
        assert!(surrogate.compatible_with(&reseeded).is_err());
        let longer = SimConfig {
            max_instructions: sim.max_instructions * 2,
            ..sim
        };
        assert!(surrogate.compatible_with(&longer).is_err());
        // Observation-only knobs do not pin compatibility.
        let observed = SimConfig {
            interval_cycles: sim.interval_cycles * 2,
            event_distortion: 0.5,
            ..sim
        };
        assert!(surrogate.compatible_with(&observed).is_ok());
    }

    #[test]
    fn audit_selection_is_deterministic_and_tracks_the_rate() {
        let ids: Vec<ConfigId> = (1..=1000).map(ConfigId::generated).collect();
        let selected: Vec<bool> = ids.iter().map(|&id| audit_selected(id, 0.25)).collect();
        // Pure function of identity: same answer on re-query.
        for (id, &s) in ids.iter().zip(&selected) {
            assert_eq!(audit_selected(*id, 0.25), s);
        }
        let count = selected.iter().filter(|&&s| s).count();
        assert!(
            (150..=350).contains(&count),
            "rate 0.25 selected {count} of 1000"
        );
        // Rate monotonicity: everything selected at a rate stays selected at
        // a higher rate (the underlying uniform draw is shared).
        for &id in &ids {
            if audit_selected(id, 0.1) {
                assert!(audit_selected(id, 0.5));
            }
        }
        assert!(ids.iter().all(|&id| audit_selected(id, 1.0)));
        assert!(!ids.iter().any(|&id| audit_selected(id, 0.0)));
    }

    #[test]
    fn accumulator_is_order_independent_and_roundtrips() {
        let n = EventParams::names().len();
        let point = |k: u64| {
            let exact: Vec<f64> = (0..n).map(|e| 0.5 + e as f64 + k as f64 * 0.01).collect();
            let predicted: Vec<f64> = exact.iter().map(|v| v * 1.03).collect();
            (exact, predicted, 100.0 + k as f64, 102.0 + k as f64)
        };
        let mut forward = AuditAccumulator::new(n);
        let mut backward = AuditAccumulator::new(n);
        for k in 0..50 {
            let (e, p, et, pt) = point(k);
            forward.record(&e, &p, et, pt);
        }
        for k in (0..50).rev() {
            let (e, p, et, pt) = point(k);
            backward.record(&e, &p, et, pt);
        }
        assert_eq!(forward, backward, "accumulation order leaked into sums");
        // Recording into separate accumulators and absorbing them is exact.
        let mut even = AuditAccumulator::new(n);
        let mut odd = AuditAccumulator::new(n);
        for k in 0..50 {
            let (e, p, et, pt) = point(k);
            let part = if k % 2 == 0 { &mut even } else { &mut odd };
            part.record(&e, &p, et, pt);
        }
        odd.absorb(&even);
        assert_eq!(odd, forward, "absorbing split accumulators diverged");
        let report = forward.report();
        assert_eq!(report.audited_points, 50);
        for event in &report.per_event {
            assert_eq!(event.samples, 50);
            let mape = event.mape.unwrap();
            assert!((mape - 0.03).abs() < 1e-6, "{}: {mape}", event.name);
        }
        assert!(report.total_mape.unwrap() > 0.0);
        assert_eq!(report.total_samples, 50);

        // Codec roundtrip is exact (integer sums).
        let mut w = Writer::new();
        forward.encode(&mut w);
        let text = w.finish();
        let mut r = Reader::new(&text);
        let restored = AuditAccumulator::decode(&mut r).unwrap();
        r.expect_eof().unwrap();
        assert_eq!(restored, forward);
    }

    #[test]
    fn undefined_errors_are_skipped_not_poisoned() {
        let n = EventParams::names().len();
        let mut acc = AuditAccumulator::new(n);
        let mut exact = vec![1.0; n];
        let mut predicted = vec![1.1; n];
        // Event 0: exact zero, prediction non-zero — undefined, skipped.
        exact[0] = 0.0;
        predicted[0] = 0.5;
        // Event 1: both zero — a perfect prediction, counted as zero error.
        exact[1] = 0.0;
        predicted[1] = 0.0;
        acc.record(&exact, &predicted, 10.0, 11.0);
        let report = acc.report();
        assert_eq!(report.per_event[0].samples, 0);
        assert_eq!(report.per_event[0].mape, None);
        assert_eq!(report.per_event[1].samples, 1);
        assert_eq!(report.per_event[1].mape, Some(0.0));
        assert!((report.per_event[2].mape.unwrap() - 0.1).abs() < 1e-6);
        assert!((report.total_mape.unwrap() - 0.1).abs() < 1e-6);
    }
}
