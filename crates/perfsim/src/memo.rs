//! Exact simulation memoization for design-space sweeps.
//!
//! The simulator reads only a projection of the hardware configuration:
//! power-only parameters (physical register counts, SRAM banking, …) never
//! reach the pipeline, associativities are folded (`ICacheWay`/`DCacheWay`
//! share one value, as do the TLBs), and the branch predictor sees
//! `BranchCount` only through its power-of-two table size. [`SimKey`] is that
//! projection made hashable: two configurations with equal keys execute the
//! exact same simulation, instruction for instruction, so a sweep can reuse
//! the whole-run [`EventCounters`] — a provably bit-identical collapse of the
//! design space along simulation-invisible axes.
//!
//! [`SimCache`] is the sharded concurrent map the sweep engine consults, with
//! hit/miss statistics for the sweep report.
//!
//! # Bounded caches
//!
//! A sweep's cache lives as long as the sweep and is unbounded
//! ([`SimCache::new`]): it holds at most one entry per distinct key the sweep
//! asks for, and its statistics feed the sweep report.  A resident process —
//! the prediction server keeps one cache for its whole lifetime — instead
//! uses [`SimCache::bounded`], which holds at most
//! [`SimCache::BOUNDED_ENTRIES`] entries.  Each of the 16 shards is
//! pre-sized for its 224 entries (`HashMap::with_capacity(224)` fills, but
//! never regrows, a 256-bucket table), and a shard that is full when a new
//! key arrives is cleared before the insert.  Clearing keeps the table's
//! allocation, so the cache's footprint is fixed at start-up: an entry is a
//! ~64 B key plus ~208 B of counters, ~1 MB for the whole table.  Eviction
//! cannot change an answer — the counters are a pure function of the key, so
//! an evicted pair is simulated again to the same bits — it only costs the
//! simulation the entry had saved.
//!
//! Every shard map is valid at rest (a lookup or an insert either happened
//! or did not), so a lock poisoned by a panicking holder is recovered rather
//! than propagated: a long-lived cache must not turn one panic into a failure
//! of every later lookup.

use crate::events::EventCounters;
use crate::SimConfig;
use autopower_config::{CpuConfig, HwParam, Workload};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The simulation-visible projection of one `(configuration, workload, knobs)`
/// triple.
///
/// Equal keys are a proof of equal simulations: every value the pipeline,
/// caches, TLBs, predictor and stream generator read is part of the key.
/// `interval_cycles` and `event_distortion` are deliberately absent — interval
/// recording is pure observation and distortion is applied downstream of the
/// counters, so neither changes the counters this key caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimKey {
    fetch_width: u32,
    fetch_buffer_entries: u32,
    decode_width: u32,
    rob_entries: u32,
    int_issue_width: u32,
    mem_fp_issue_width: u32,
    cache_ways: u32,
    tlb_entries: u32,
    ldq_stq_entries: u32,
    mshr_entries: u32,
    /// `BranchCount` folded to the predictor's power-of-two table size: the
    /// only way the parameter reaches the simulation.
    predictor_entries: u32,
    max_instructions: u64,
    stream_seed: u64,
    workload: Workload,
}

/// Names of the numeric simulation-visible parameters, in the order
/// [`SimKey::features`] emits them.  This is the canonical surrogate feature
/// order: everything the simulator reads from the hardware configuration,
/// nothing it does not.
const FEATURE_NAMES: [&str; 11] = [
    "fetch_width",
    "fetch_buffer_entries",
    "decode_width",
    "rob_entries",
    "int_issue_width",
    "mem_fp_issue_width",
    "cache_ways",
    "tlb_entries",
    "ldq_stq_entries",
    "mshr_entries",
    "predictor_entries",
];

impl SimKey {
    /// Number of numeric features in [`SimKey::features`].
    pub const FEATURE_COUNT: usize = FEATURE_NAMES.len();

    /// Projects `(config, workload, sim)` onto the simulation-visible key.
    pub fn new(config: &CpuConfig, workload: Workload, sim: &SimConfig) -> Self {
        let p = &config.params;
        Self {
            fetch_width: p.value(HwParam::FetchWidth),
            fetch_buffer_entries: p.value(HwParam::FetchBufferEntry),
            decode_width: p.value(HwParam::DecodeWidth),
            rob_entries: p.value(HwParam::RobEntry),
            int_issue_width: p.value(HwParam::IntIssueWidth),
            mem_fp_issue_width: p.value(HwParam::MemFpIssueWidth),
            cache_ways: p.value(HwParam::CacheWay),
            tlb_entries: p.value(HwParam::DtlbEntry),
            ldq_stq_entries: p.value(HwParam::LdqStqEntry),
            mshr_entries: p.value(HwParam::MshrEntry),
            predictor_entries: (256 * p.value(HwParam::BranchCount)).next_power_of_two(),
            max_instructions: sim.max_instructions,
            stream_seed: sim.stream_seed,
            workload,
        }
    }

    /// The key's numeric parameters as an ML feature vector, in
    /// [`SimKey::feature_names`] order.
    ///
    /// Two configurations with equal feature vectors (for the same workload
    /// and simulation knobs) run bit-identical simulations — the projection
    /// that makes [`SimCache`] sound is exactly what makes these features
    /// *sufficient* for a learned surrogate of the simulator.  The workload,
    /// `max_instructions` and `stream_seed` are deliberately absent: a
    /// surrogate is trained per workload under fixed simulation knobs, and
    /// the sweep fingerprint guards those from drifting between training and
    /// inference.
    pub fn features(&self) -> [f64; Self::FEATURE_COUNT] {
        [
            f64::from(self.fetch_width),
            f64::from(self.fetch_buffer_entries),
            f64::from(self.decode_width),
            f64::from(self.rob_entries),
            f64::from(self.int_issue_width),
            f64::from(self.mem_fp_issue_width),
            f64::from(self.cache_ways),
            f64::from(self.tlb_entries),
            f64::from(self.ldq_stq_entries),
            f64::from(self.mshr_entries),
            f64::from(self.predictor_entries),
        ]
    }

    /// Names of the features [`SimKey::features`] emits, in order.
    pub fn feature_names() -> &'static [&'static str] {
        &FEATURE_NAMES
    }
}

/// Number of independent shards; bounds lock contention under parallel sweeps.
const SHARDS: usize = 16;

/// Entries one shard of a [`SimCache::bounded`] cache holds before it is
/// cleared: `HashMap::with_capacity(224)` allocates 256 buckets, whose 7/8
/// load factor admits exactly 224 entries, so a full shard never regrows.
const BOUNDED_SHARD_ENTRIES: usize = 224;

/// Hit/miss statistics of a [`SimCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimCacheStats {
    /// Lookups answered from the cache (simulations deduplicated away).
    pub hits: u64,
    /// Lookups that had to simulate.
    pub misses: u64,
}

impl SimCacheStats {
    /// Total lookups the cache has answered (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache — never NaN: a cache with
    /// zero lookups (empty sweep, fully-resumed sweep) reports `0.0`, and
    /// reports should prefer [`SimCacheStats::lookups`] to distinguish "idle"
    /// from "no duplicates".
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// A sharded map from [`SimKey`] to whole-run [`EventCounters`].
///
/// Thread-safe: workers race at most into computing the same key twice, and
/// both computations produce identical counters (the simulation is
/// deterministic in the key), so sweep output never depends on thread count
/// or interleaving.
#[derive(Debug)]
pub struct SimCache {
    shards: Vec<Mutex<HashMap<SimKey, EventCounters>>>,
    /// Entries a shard holds before it is cleared; `None` is unbounded.
    shard_capacity: Option<usize>,
    hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
    shard_clears: AtomicU64,
}

/// Locks a shard, recovering from poisoning: a shard map is valid at rest.
fn relock(
    shard: &Mutex<HashMap<SimKey, EventCounters>>,
) -> MutexGuard<'_, HashMap<SimKey, EventCounters>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SimCache {
    /// Most entries a [`SimCache::bounded`] cache ever holds (3,584: 16
    /// shards of 224).  At ~272 B per entry that is ~1 MB, fixed at
    /// construction.
    pub const BOUNDED_ENTRIES: usize = SHARDS * BOUNDED_SHARD_ENTRIES;

    /// Creates an empty, unbounded cache: the cache of one sweep.
    pub fn new() -> Self {
        Self::with_shard_capacity(None)
    }

    /// Creates an empty cache that never holds more than
    /// [`SimCache::BOUNDED_ENTRIES`] entries: the cache of a resident
    /// process.  Each shard's table is allocated at its full size here and
    /// never regrows; a full shard is cleared when a new key arrives.
    pub fn bounded() -> Self {
        Self::with_shard_capacity(Some(BOUNDED_SHARD_ENTRIES))
    }

    fn with_shard_capacity(shard_capacity: Option<usize>) -> Self {
        Self {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(HashMap::with_capacity(shard_capacity.unwrap_or(0))))
                .collect(),
            shard_capacity,
            hasher: RandomState::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            shard_clears: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &SimKey) -> &Mutex<HashMap<SimKey, EventCounters>> {
        let h = self.hasher.hash_one(key);
        &self.shards[(h as usize) % SHARDS]
    }

    /// Returns the counters for `key`, running `simulate` on a miss.
    ///
    /// The computation runs outside the shard lock, so concurrent workers are
    /// never serialized behind a simulation.  Two workers may therefore both
    /// simulate one key; the one whose insert creates the entry counts the
    /// miss and the other counts a hit, so the statistics count one miss per
    /// stored entry whatever the thread timing.  In a bounded cache, an
    /// insert into a full shard clears the shard first.
    pub fn counters_for(
        &self,
        key: SimKey,
        simulate: impl FnOnce() -> EventCounters,
    ) -> EventCounters {
        let shard = self.shard(&key);
        if let Some(counters) = relock(shard).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return *counters;
        }
        let counters = simulate();
        let mut map = relock(shard);
        if let Some(existing) = map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return *existing;
        }
        if self.shard_capacity.is_some_and(|cap| map.len() >= cap) {
            map.clear();
            self.shard_clears.fetch_add(1, Ordering::Relaxed);
        }
        map.insert(key, counters);
        self.misses.fetch_add(1, Ordering::Relaxed);
        counters
    }

    /// Hit/miss statistics accumulated so far.
    pub fn stats(&self) -> SimCacheStats {
        SimCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// How many times a full shard of a bounded cache was cleared (always
    /// zero for an unbounded one).
    pub fn shard_clears(&self) -> u64 {
        self.shard_clears.load(Ordering::Relaxed)
    }

    /// Number of distinct simulations stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| relock(s).len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for SimCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use autopower_config::{boom_configs, DesignSpace};

    #[test]
    fn equal_keys_for_power_only_differences() {
        // BranchCount 10 and 16 both round to a 4096-entry predictor table;
        // every other simulation-visible parameter matches.
        use autopower_config::HwParam;
        let space = DesignSpace::boom()
            .with_axis(HwParam::FetchWidth, vec![4])
            .with_axis(HwParam::DecodeWidth, vec![2])
            .with_axis(HwParam::RobEntry, vec![64])
            .with_axis(HwParam::IntIssueWidth, vec![2])
            .with_axis(HwParam::MemFpIssueWidth, vec![1])
            .with_axis(HwParam::CacheWay, vec![4])
            .with_axis(HwParam::DtlbEntry, vec![16])
            .with_axis(HwParam::BranchCount, vec![10, 16])
            .with_axis(HwParam::MshrEntry, vec![4]);
        let configs: Vec<_> = space.enumerate().collect();
        assert_eq!(configs.len(), 2);
        let (a, b) = (configs[0], configs[1]);
        let sim = SimConfig::fast();
        assert_eq!(
            SimKey::new(&a, Workload::Qsort, &sim),
            SimKey::new(&b, Workload::Qsort, &sim)
        );
        // The proof obligation behind the cache: equal keys, equal counters.
        let ca = simulate(&a, Workload::Qsort, &sim).counters;
        let cb = simulate(&b, Workload::Qsort, &sim).counters;
        assert_eq!(ca, cb);
    }

    #[test]
    fn distinct_keys_for_simulation_visible_differences() {
        let cfgs = boom_configs();
        let sim = SimConfig::fast();
        let a = SimKey::new(&cfgs[0], Workload::Qsort, &sim);
        let b = SimKey::new(&cfgs[14], Workload::Qsort, &sim);
        assert_ne!(a, b);
        // Workload and stream seed are part of the key.
        assert_ne!(a, SimKey::new(&cfgs[0], Workload::Vvadd, &sim));
        let reseeded = SimConfig {
            stream_seed: sim.stream_seed + 1,
            ..sim
        };
        assert_ne!(a, SimKey::new(&cfgs[0], Workload::Qsort, &reseeded));
    }

    #[test]
    fn interval_and_distortion_knobs_do_not_split_keys() {
        let cfg = boom_configs()[3];
        let a = SimConfig::fast();
        let b = SimConfig {
            interval_cycles: 200,
            event_distortion: 0.5,
            ..a
        };
        assert_eq!(
            SimKey::new(&cfg, Workload::Towers, &a),
            SimKey::new(&cfg, Workload::Towers, &b)
        );
    }

    #[test]
    fn cache_returns_memoized_counters_and_counts_stats() {
        let cache = SimCache::new();
        let cfg = boom_configs()[5];
        let sim = SimConfig::fast();
        let key = SimKey::new(&cfg, Workload::Median, &sim);
        let first = cache.counters_for(key, || simulate(&cfg, Workload::Median, &sim).counters);
        let second = cache.counters_for(key, || panic!("hit must not simulate"));
        assert_eq!(first, second);
        assert_eq!(cache.stats(), SimCacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_raced_miss_counts_once_and_the_loser_counts_a_hit() {
        let cache = SimCache::new();
        let cfg = boom_configs()[5];
        let sim = SimConfig::fast();
        let key = SimKey::new(&cfg, Workload::Median, &sim);
        let counters = simulate(&cfg, Workload::Median, &sim).counters;
        // Each thread waits inside `simulate` until both have missed, so
        // both race to insert the same key.
        let both_missed = std::sync::Barrier::new(2);
        let results: Vec<EventCounters> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        cache.counters_for(key, || {
                            both_missed.wait();
                            counters
                        })
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(results, vec![counters, counters]);
        assert_eq!(cache.stats(), SimCacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn features_align_with_names_and_separate_visible_differences() {
        let cfgs = boom_configs();
        let sim = SimConfig::fast();
        let a = SimKey::new(&cfgs[0], Workload::Qsort, &sim);
        let b = SimKey::new(&cfgs[14], Workload::Qsort, &sim);
        assert_eq!(SimKey::feature_names().len(), SimKey::FEATURE_COUNT);
        assert_eq!(a.features().len(), SimKey::FEATURE_COUNT);
        assert!(a.features().iter().all(|v| v.is_finite() && *v >= 1.0));
        assert_ne!(a.features(), b.features());
        // Equal keys project onto equal feature vectors by construction.
        assert_eq!(
            a.features(),
            SimKey::new(&cfgs[0], Workload::Qsort, &sim).features()
        );
    }

    /// A distinct key per `i` (the stream seed is part of the key) and
    /// counters that name it, so no test below needs a real simulation.
    fn synthetic(i: u64) -> (SimKey, EventCounters) {
        let sim = SimConfig {
            stream_seed: i,
            ..SimConfig::fast()
        };
        let key = SimKey::new(&boom_configs()[0], Workload::Qsort, &sim);
        let counters = EventCounters {
            cycles: i + 1,
            committed: i,
            ..EventCounters::default()
        };
        (key, counters)
    }

    #[test]
    fn bounded_cache_never_holds_more_than_its_bound() {
        let cache = SimCache::bounded();
        let n = 3 * SimCache::BOUNDED_ENTRIES as u64;
        for i in 0..n {
            let (key, counters) = synthetic(i);
            assert_eq!(cache.counters_for(key, || counters), counters);
            assert!(
                cache.len() <= SimCache::BOUNDED_ENTRIES,
                "{} entries",
                cache.len()
            );
        }
        // Every key was new, so every lookup missed, and reaching three times
        // the bound must have cleared shards along the way.
        assert_eq!(cache.stats(), SimCacheStats { hits: 0, misses: n });
        assert!(cache.shard_clears() > 0);
        // The shards keep the tables they were built with.
        for shard in &cache.shards {
            assert!(shard.lock().unwrap().capacity() >= BOUNDED_SHARD_ENTRIES);
        }
        // An unbounded cache keeps everything.
        let unbounded = SimCache::new();
        for i in 0..n {
            let (key, counters) = synthetic(i);
            unbounded.counters_for(key, || counters);
        }
        assert_eq!(unbounded.len(), n as usize);
        assert_eq!(unbounded.shard_clears(), 0);
    }

    #[test]
    fn a_cleared_shard_gives_back_the_same_counters() {
        let cache = SimCache::with_shard_capacity(Some(2));
        let cfg = boom_configs()[5];
        let sim = SimConfig::fast();
        let key = SimKey::new(&cfg, Workload::Median, &sim);
        let first = cache.counters_for(key, || simulate(&cfg, Workload::Median, &sim).counters);
        // Fill every shard past its capacity of two: the key's shard is
        // cleared at least once, so the key is gone and simulates again.
        let mut i = 0;
        while cache.shard_clears() < SHARDS as u64 * 2 {
            let (other, counters) = synthetic(i);
            cache.counters_for(other, || counters);
            i += 1;
        }
        assert!(cache.len() <= SHARDS * 2);
        let mut simulated = false;
        let again = cache.counters_for(key, || {
            simulated = true;
            simulate(&cfg, Workload::Median, &sim).counters
        });
        assert!(
            simulated,
            "the evicted key was answered without a simulation"
        );
        assert_eq!(again, first);
        // Now cached again: a hit, without a simulation.
        assert_eq!(
            cache.counters_for(key, || panic!("hit must not simulate")),
            first
        );
    }

    #[test]
    fn a_poisoned_shard_still_answers() {
        let cache = SimCache::bounded();
        let (key, counters) = synthetic(7);
        cache.counters_for(key, || counters);
        // Panic while holding every shard's lock.
        for shard in &cache.shards {
            let _ = std::thread::scope(|s| {
                s.spawn(|| {
                    let _guard = shard.lock().unwrap();
                    panic!("deliberate poison");
                })
                .join()
            });
            assert!(shard.is_poisoned());
        }
        assert_eq!(
            cache.counters_for(key, || panic!("hit must not simulate")),
            counters
        );
        let (fresh, fresh_counters) = synthetic(8);
        assert_eq!(cache.counters_for(fresh, || fresh_counters), fresh_counters);
        assert_eq!(cache.stats(), SimCacheStats { hits: 1, misses: 2 });
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn hit_rate_is_zero_when_idle() {
        let stats = SimCache::new().stats();
        assert_eq!(stats.lookups(), 0);
        let rate = stats.hit_rate();
        assert_eq!(rate, 0.0);
        assert!(!rate.is_nan(), "idle hit rate must never be NaN");
    }
}
