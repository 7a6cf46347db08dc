//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload enumerated --seed 1 --seconds 40 --trace 0
//! ```
//!
//! One run trains the `autopower` model on C1 + C15 at the fast settings,
//! then measures the three ways the trained model is used, each in its own
//! timed phases: an exact streaming sweep, a surrogate-backed streaming sweep,
//! and open-loop traffic against a resident prediction server, whose
//! fixed-rate blocks run before, between and after the sweeps.  The workload
//! picks where the configurations come from (see [`inputs`]); the seed picks
//! which ones.  `--trace 0` prints the end-to-end metrics, measured with
//! tracing off; `--trace 1` replays the same inputs serially through the
//! public layer functions and prints the per-layer metrics.  Both check the
//! outputs and print one JSON line last.

mod inputs;
mod serve;
mod setup;
mod stats;
mod sweep;
mod trace;

use inputs::Inputs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: perfbench --workload <enumerated|sampled> --seed <u64> --seconds <n> --trace <0|1>";

/// Parsed command line.
struct Args {
    workload: inputs::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.parse()?),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                // Non-finite values are not JSON; they only arise from a
                // broken measurement, which the checks already report.
                let value = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Output checks: how many were made and how many failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// How the measured time of one run is split between the phases.
pub struct Budget {
    pub exact: Duration,
    pub surrogate: Duration,
    /// The light and heavy serve phases, interleaved.
    pub fixed: Duration,
    pub ladder: Duration,
}

impl Budget {
    fn new(seconds: u64) -> Self {
        let share = |f: f64| Duration::from_secs_f64(seconds as f64 * f);
        Self {
            exact: share(0.2),
            surrogate: share(0.125),
            fixed: share(0.375),
            ladder: share(0.3),
        }
    }
}

/// Scratch directory for model files, checkpoints and span dumps, inside the
/// benchmark's own directory (relative to the checkout root the benchmark is
/// run from).
fn work_dir(args: &Args) -> PathBuf {
    PathBuf::from("perfbench").join("work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ))
}

fn run(args: &Args) -> Result<(Metrics, Checks), String> {
    let dir = work_dir(args);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let inputs = Inputs::new(args.workload, args.seed);
    let budget = Budget::new(args.seconds);
    let mut metrics = Metrics::default();
    let mut checks = Checks::default();

    let ready = setup::Ready::prepare(&dir, &mut metrics, args.trace)?;
    if args.trace {
        sweep::traced(&ready, &inputs, &dir, &mut metrics, &mut checks)?;
        serve::traced(&ready, &inputs, &budget, &dir, &mut metrics, &mut checks)?;
    } else {
        let mut fixed = serve::Fixed::new(&ready, &inputs, &budget);
        for phase in [sweep::Phase::Exact, sweep::Phase::Surrogate] {
            fixed.block()?;
            sweep::timed(
                &ready,
                &inputs,
                phase,
                &budget,
                &dir,
                &mut metrics,
                &mut checks,
            )?;
        }
        fixed.block()?;
        fixed.finish(&budget, &mut metrics, &mut checks)?;
        ready.accuracy(&mut metrics);
        metrics.put("peak_rss_mb", setup::peak_rss_mb(), "MB");
    }
    ready.shutdown()?;
    // Model files and checkpoints are per-run scratch; span dumps stay.
    for entry in std::fs::read_dir(&dir).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_none_or(|ext| ext != "jsonl") {
            let _ = std::fs::remove_file(path);
        }
    }
    // Succeeds only when no span dump is left in it.
    let _ = std::fs::remove_dir(&dir);
    Ok((metrics, checks))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((metrics, checks)) => {
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                checks.failed == 0,
                checks.attempted.max(1),
                checks.failed,
                metrics.json()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
