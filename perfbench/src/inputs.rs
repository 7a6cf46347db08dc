//! Benchmark inputs, all derived from the workload and the seed.
//!
//! The two workloads differ in how much work their inputs share:
//!
//! * `enumerated` sweeps contiguous slices of `DesignSpace::boom().enumerate()`
//!   and serves from a small pool of neighbouring configurations.  Neighbours
//!   differ mostly along simulation-invisible axes, so most simulations are
//!   `SimCache` hits and served (configuration, workload) pairs recur often.
//! * `sampled` sweeps `DesignSpace::sample(n, seed)` draws and serves from a
//!   large sampled pool, so configurations share little and requests rarely
//!   repeat a pair.

use autopower_config::seed::{combine, splitmix64};
use autopower_config::{CpuConfig, DesignSpace, Enumerate, Workload as SimWorkload};
use std::str::FromStr;
use std::sync::OnceLock;

/// The simulated programs every configuration is scored on.
pub const WORKLOADS: [SimWorkload; 3] = [
    SimWorkload::Dhrystone,
    SimWorkload::Qsort,
    SimWorkload::Vvadd,
];

/// Configurations drawn per `DesignSpace::sample` call of the sampled source.
const SAMPLE_PASS: usize = 8192;

/// The enumerated source reads `REGIONS` slices spread evenly over the space,
/// `RUN` configurations (one engine chunk) at a time, so a run covers every
/// part of the space whatever its offset and length.
const REGIONS: u64 = 8;
const RUN: usize = 64;

/// Serve pools: `POOL_RUNS` runs of `POOL_RUN` enumeration neighbours (small
/// enough that pairs repeat), or a large sample (large enough that they
/// rarely do).
const POOL_RUNS: u64 = 64;
const POOL_RUN: u64 = 4;
const POOL_SAMPLED: usize = 4096;

/// The BOOM design space, built once.
pub fn space() -> &'static DesignSpace {
    static SPACE: OnceLock<DesignSpace> = OnceLock::new();
    SPACE.get_or_init(DesignSpace::boom)
}

/// Which benchmark workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Enumerated,
    Sampled,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Enumerated => "enumerated",
            Workload::Sampled => "sampled",
        }
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "enumerated" => Ok(Workload::Enumerated),
            "sampled" => Ok(Workload::Sampled),
            _ => Err(format!("unknown workload {s}")),
        }
    }
}

/// Deterministic pseudo-random stream (splitmix64 over a counter).
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
    next: u64,
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed,
            next: 0,
        }
    }

    pub fn u64(&mut self) -> u64 {
        self.next += 1;
        splitmix64(combine(self.state, self.next))
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.u64() % n as u64) as usize
    }
}

/// An endless configuration stream: the order a sweep consumes them in.
#[derive(Debug, Clone)]
pub enum ConfigSource {
    /// `REGIONS` contiguous enumeration slices, each wrapping at the end of
    /// the space, taken `RUN` configurations at a time in turn.
    Enumerated {
        slices: Vec<Enumerate<'static>>,
        emitted: usize,
    },
    /// Successive `sample(SAMPLE_PASS, seed_k)` draws.
    Sampled {
        seed: u64,
        pass: u64,
        pending: std::vec::IntoIter<CpuConfig>,
    },
}

impl Iterator for ConfigSource {
    type Item = CpuConfig;

    fn next(&mut self) -> Option<CpuConfig> {
        match self {
            ConfigSource::Enumerated { slices, emitted } => {
                let count = slices.len();
                let slice = &mut slices[(*emitted / RUN) % count];
                *emitted += 1;
                slice.next().or_else(|| {
                    *slice = space().enumerate();
                    slice.next()
                })
            }
            ConfigSource::Sampled {
                seed,
                pass,
                pending,
            } => pending.next().or_else(|| {
                *pass += 1;
                *pending = space()
                    .sample(SAMPLE_PASS, combine(*seed, *pass))
                    .into_iter();
                pending.next()
            }),
        }
    }
}

/// Everything a run consumes, fixed by `(workload, seed)`.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// Enumeration offset of the first slice (enumerated workload only).
    offset: u64,
    /// Configurations the serve phase draws its requests from.
    pub pool: Vec<CpuConfig>,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Self {
        let total = space().total();
        let offset = splitmix64(combine(seed, 0x0FF5E7)) % total;
        let pool = match workload {
            // Runs of neighbours spread evenly over the space, so the pool
            // shares simulations like a slice does without depending on
            // which region one slice happens to land in.
            Workload::Enumerated => (0..POOL_RUNS)
                .flat_map(|r| {
                    let start = (offset + r * total / POOL_RUNS + total / 4) % total;
                    space().enumerate_chunk(start.min(total - POOL_RUN), POOL_RUN as usize)
                })
                .collect(),
            Workload::Sampled => space().sample(POOL_SAMPLED, combine(seed, 0x5E12E)),
        };
        Self {
            workload,
            seed,
            offset,
            pool,
        }
    }

    /// The configurations `audit_mape_pct` audits: a seeded sample for both
    /// workloads, since the error of a few contiguous slices depends more on
    /// where they land than on the surrogate.
    pub fn audit_set(&self, count: usize) -> Vec<CpuConfig> {
        space().sample(count, combine(self.seed, 0xA0D17))
    }

    /// The configuration stream of one sweep phase (0 = exact, 1 =
    /// surrogate), positioned at its first configuration.  The two phases
    /// read different slices.  Seeking the enumeration scans the grid up to
    /// each offset, so callers build the source before the timed region.
    pub fn source(&self, phase: usize) -> ConfigSource {
        match self.workload {
            Workload::Enumerated => {
                let total = space().total();
                let slices = (0..REGIONS)
                    .map(|r| {
                        let start = (self.offset
                            + r * total / REGIONS
                            + phase as u64 * total / (2 * REGIONS))
                            % total;
                        let mut slice = space().enumerate();
                        if start > 0 {
                            slice.nth(start as usize - 1);
                        }
                        slice
                    })
                    .collect();
                ConfigSource::Enumerated { slices, emitted: 0 }
            }
            Workload::Sampled => {
                let seed = combine(self.seed, phase as u64 + 1);
                ConfigSource::Sampled {
                    seed,
                    pass: 0,
                    pending: space().sample(SAMPLE_PASS, combine(seed, 0)).into_iter(),
                }
            }
        }
    }
}
