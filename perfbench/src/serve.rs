//! The serve phase: open-loop traffic against the resident prediction server.
//!
//! Requests arrive on a seeded Poisson schedule and are sent over `nproc`
//! connections.  A request is timed from the moment it was due, so when
//! every connection is busy the wait for a free one counts, and the
//! generator reports how late it sent.  Two fixed offered rates (`light`,
//! `heavy`), sent in blocks spread over the run, give the latency figures;
//! a stepped rate ladder gives `max_rps`: the highest step whose tail latency
//! stays within [`LIMIT_MS`] with no failed or shed request and no growing
//! send lateness.  The ladder climbs from [`LADDER_START`] while steps pass,
//! or descends from it while they fail, so it brackets the limit on a fast
//! host and on a slow one.
//!
//! Most requests score one configuration on one workload; a minority are
//! small batches (a few configurations on all three workloads).  A failed or
//! shed request counts as missing the latency limit.

use crate::inputs::{Inputs, Rng, WORKLOADS};
use crate::setup::{nproc, Ready};
use crate::stats::{median, tail, Tail};
use crate::sweep::{spec, Phase, Replayer};
use crate::trace::Tracer;
use crate::{Budget, Checks, Metrics};
use autopower::{EngineScratch, ModelKind, SweepEngine, SweepPoint};
use autopower_config::seed::combine;
use autopower_config::{boom_configs, CpuConfig, Workload};
use autopower_perfsim::SimCache;
use autopower_serve::client::{Client, ClientError};
use autopower_serve::protocol::{decode_frame, encode_frame, ErrorCode, Frame, ServedPoint};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Offered rates of the two fixed-load phases, requests per second.
const LIGHT_RPS: f64 = 150.0;
const HEAVY_RPS: f64 = 300.0;
/// Within a block of the fixed-load phases, `LIGHT_SPAN` at the light rate
/// and `HEAVY_SPAN` at the heavy rate alternate.
const LIGHT_SPAN: Duration = Duration::from_millis(1000);
const HEAVY_SPAN: Duration = Duration::from_millis(500);
/// Tail-latency limit `max_rps` is judged against.
pub const LIMIT_MS: f64 = 50.0;
/// The ladder starts at this rate and moves by `LADDER_FACTOR` per step of
/// length `STEP`.
const LADDER_START: f64 = 1100.0;
const LADDER_FACTOR: f64 = 1.05;
const STEP: Duration = Duration::from_millis(1500);
/// A step whose send lateness grows by more than this from its first fifth
/// to its last fifth is building a backlog.
const GROWTH_MS: f64 = 10.0;
/// Share of requests that are small batches, and their size.
const BATCH_SHARE: f64 = 0.10;
const BATCH_CONFIGS: usize = 3;
/// Every `CHECK_EVERY`-th response is compared with an offline sweep.
const CHECK_EVERY: usize = 2;
/// The tail is the highest percentile with at least this many samples beyond.
const TAIL_BEYOND: usize = 10;
/// A phase is cut into windows of about this many requests; the reported
/// median and tail are the medians of the windows' medians and tails, so one
/// stall on a shared host moves one window, not the figure.
const WINDOW: usize = 200;

/// One predict request.
#[derive(Debug, Clone)]
struct Request {
    configs: Vec<CpuConfig>,
    workloads: Vec<Workload>,
}

/// A request and the offset from the phase start at which it is due.
type Scheduled = (Duration, Request);

/// Poisson arrivals at `rate` for `length`, requests drawn from `pool`.
fn traffic(pool: &[CpuConfig], seed: u64, rate: f64, length: Duration) -> Vec<Scheduled> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= length.as_secs_f64() {
            return out;
        }
        let request = if rng.unit() < BATCH_SHARE {
            Request {
                configs: (0..BATCH_CONFIGS)
                    .map(|_| pool[rng.below(pool.len())])
                    .collect(),
                workloads: WORKLOADS.to_vec(),
            }
        } else {
            Request {
                configs: vec![pool[rng.below(pool.len())]],
                workloads: vec![WORKLOADS[rng.below(WORKLOADS.len())]],
            }
        };
        out.push((Duration::from_secs_f64(t), request));
    }
}

/// How one request ended.
#[derive(Debug)]
enum Outcome {
    Ok(Vec<ServedPoint>),
    Shed,
    Failed(String),
}

/// One sent request.
#[derive(Debug)]
struct Sent {
    /// Send time minus due time.
    late: Duration,
    /// Completion time minus due time.
    latency: Duration,
    outcome: Outcome,
}

/// Sends `schedule` open-loop over `nproc` connections and waits for every
/// answer.  Results are in schedule order.
fn drive(addr: SocketAddr, schedule: &[Scheduled]) -> Result<Vec<Sent>, String> {
    let cursor = AtomicUsize::new(0);
    // A short lead so every connection is open before the first request
    // is due.
    let start = Instant::now() + Duration::from_millis(20);
    let per_thread: Vec<Vec<(usize, Sent)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nproc())
            .map(|_| {
                scope.spawn(|| -> Result<Vec<(usize, Sent)>, String> {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some((offset, request)) = schedule.get(i) else {
                            return Ok(done);
                        };
                        let due = start + *offset;
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let outcome = match client.predict(
                            ModelKind::AutoPower,
                            &request.configs,
                            &request.workloads,
                        ) {
                            Ok(points) => Outcome::Ok(points),
                            Err(ClientError::Server {
                                code: ErrorCode::Overloaded,
                                ..
                            }) => Outcome::Shed,
                            Err(e) => Outcome::Failed(e.to_string()),
                        };
                        let finished = Instant::now();
                        done.push((
                            i,
                            Sent {
                                late: sent.saturating_duration_since(due),
                                latency: finished.saturating_duration_since(due),
                                outcome,
                            },
                        ));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect::<Result<_, _>>()
    })?;
    let mut all: Vec<(usize, Sent)> = per_thread.into_iter().flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    Ok(all.into_iter().map(|(_, s)| s).collect())
}

/// Latency and outcome summary of one phase or ladder step.
struct PhaseStats {
    rate: f64,
    sent: usize,
    ok: usize,
    shed: usize,
    failed: usize,
    /// Median over the windows of each window's median.
    p50_ms: f64,
    /// Median over the windows of each window's tail.
    tail_ms: f64,
    /// One window's tail percentile and sample count, and the window count.
    window: Tail,
    windows: usize,
    late_ms: f64,
    /// Mean lateness over the last fifth of the sends minus that over the
    /// first fifth: a growing backlog shows here first.
    late_growth_ms: f64,
}

impl PhaseStats {
    /// Summarises the requests of one phase, in the order they were due.
    fn of(rate: f64, sent: &[&Sent]) -> Self {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let latencies: Vec<f64> = sent
            .iter()
            .map(|s| match s.outcome {
                Outcome::Ok(_) => ms(s.latency),
                _ => f64::INFINITY,
            })
            .collect();
        let windows = (latencies.len() / WINDOW).max(1);
        let size = latencies.len().div_ceil(windows).max(1);
        let p50s: Vec<f64> = latencies.chunks(size).map(median).collect();
        let tails: Vec<Tail> = latencies
            .chunks(size)
            .filter_map(|w| tail(w, TAIL_BEYOND))
            .collect();
        let tail_ms = if tails.is_empty() {
            f64::INFINITY
        } else {
            median(&tails.iter().map(|t| t.value).collect::<Vec<_>>())
        };
        let window = tails.first().copied().unwrap_or(Tail {
            percentile: f64::NAN,
            value: f64::INFINITY,
            samples: latencies.len(),
        });
        let late: Vec<f64> = sent.iter().map(|s| ms(s.late)).collect();
        let fifth = late.len() / 5;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let count = |f: fn(&Outcome) -> bool| sent.iter().filter(|s| f(&s.outcome)).count();
        Self {
            rate,
            sent: sent.len(),
            ok: count(|o| matches!(o, Outcome::Ok(_))),
            shed: count(|o| matches!(o, Outcome::Shed)),
            failed: count(|o| matches!(o, Outcome::Failed(_))),
            p50_ms: median(&p50s),
            tail_ms,
            window,
            windows: tails.len(),
            late_ms: mean(&late),
            late_growth_ms: mean(&late[late.len() - fifth..]) - mean(&late[..fifth]),
        }
    }

    fn passes(&self) -> bool {
        self.ok == self.sent && self.tail_ms <= LIMIT_MS && self.late_growth_ms <= GROWTH_MS
    }

    fn print(&self, label: &str) {
        println!(
            "serve {label:<14} {:>7.1} rps: sent {} ok {} shed {} failed {}; p50 {:.3} ms; \
             tail {:.3} ms = median over {} windows of p{:.2} ({} samples, {TAIL_BEYOND} beyond); \
             send lateness mean {:.3} ms, grew {:.3} ms",
            self.rate,
            self.sent,
            self.ok,
            self.shed,
            self.failed,
            self.p50_ms,
            self.tail_ms,
            self.windows,
            self.window.percentile,
            self.window.samples,
            self.late_ms,
            self.late_growth_ms,
        );
    }
}

/// Every request sent in a run, with its answer.
#[derive(Default)]
struct Log {
    requests: Vec<Request>,
    sent: Vec<Sent>,
}

impl Log {
    /// Sends `schedule`, logs every request with its answer, and returns the
    /// answers in schedule order.
    fn run(&mut self, addr: SocketAddr, schedule: Vec<Scheduled>) -> Result<Vec<&Sent>, String> {
        let sent = drive(addr, &schedule)?;
        let from = self.sent.len();
        self.requests
            .extend(schedule.into_iter().map(|(_, request)| request));
        self.sent.extend(sent);
        Ok(self.sent[from..].iter().collect())
    }

    /// Share of requested (configuration, workload) pairs an earlier request
    /// in the run already asked for.
    fn repeat_share(&self) -> f64 {
        let mut seen = HashSet::new();
        let mut pairs = 0usize;
        let mut repeats = 0usize;
        for r in &self.requests {
            for c in &r.configs {
                for &w in &r.workloads {
                    pairs += 1;
                    if !seen.insert((c.params, w)) {
                        repeats += 1;
                    }
                }
            }
        }
        repeats as f64 / pairs.max(1) as f64
    }

    /// Compares every `CHECK_EVERY`-th answer with an offline
    /// `SweepEngine::run` over the same slices.
    fn check(&self, ready: &Ready, checks: &mut Checks) {
        let engine = SweepEngine::new(ready.power_model(), spec(nproc()));
        for (i, (request, sent)) in self.requests.iter().zip(&self.sent).enumerate() {
            match &sent.outcome {
                Outcome::Ok(points) if i % CHECK_EVERY == 0 => {
                    let offline = engine.run(&request.configs, &request.workloads);
                    checks.check(same_served(points, &offline), || {
                        format!("served answer {i} differs from the offline sweep")
                    });
                }
                Outcome::Ok(_) => {}
                Outcome::Shed => checks.check(false, || format!("request {i} was shed")),
                Outcome::Failed(e) => checks.check(false, || format!("request {i} failed: {e}")),
            }
        }
    }
}

fn same_served(served: &[ServedPoint], offline: &[SweepPoint]) -> bool {
    served.len() == offline.len()
        && served.iter().zip(offline).all(|(s, o)| {
            s.power == o.power
                && s.ipc.to_bits() == o.ipc.to_bits()
                && s.power.total().to_bits() == o.power.total().to_bits()
        })
}

/// A few untimed requests for the seed configurations C1–C15, which no
/// serve pool holds.
fn warm_up(addr: SocketAddr, seed: u64) -> Result<(), String> {
    let warm = traffic(&boom_configs(), seed, LIGHT_RPS, Duration::from_millis(300));
    drive(addr, &warm).map(|_| ())
}

/// The light and heavy phases are sent in this many blocks, one before each
/// sweep phase and one after them, so their samples span most of a run.
pub const BLOCKS: u32 = 3;

/// The light and heavy phases.  A slow spell of a shared host lands in a few
/// of their windows instead of in all of them: the blocks are spread over the
/// run, and within a block the two rates alternate in short spans.
pub struct Fixed<'a> {
    ready: &'a Ready,
    inputs: &'a Inputs,
    /// Length of one block.
    block: Duration,
    /// Blocks sent so far.
    blocks: u64,
    log: Log,
    /// Whether each logged request belongs to the heavy phase.
    heavy: Vec<bool>,
}

impl<'a> Fixed<'a> {
    pub fn new(ready: &'a Ready, inputs: &'a Inputs, budget: &Budget) -> Self {
        Self {
            ready,
            inputs,
            block: budget.fixed / BLOCKS,
            blocks: 0,
            log: Log::default(),
            heavy: Vec::new(),
        }
    }

    /// Sends one block: a warm-up, then light and heavy spans in turn.
    pub fn block(&mut self) -> Result<(), String> {
        let addr = self.ready.server.addr();
        let seed = combine(self.inputs.seed, 0x100 * (self.blocks + 1));
        warm_up(addr, seed)?;
        let cycle = LIGHT_SPAN + HEAVY_SPAN;
        let cycles = (self.block.as_secs_f64() / cycle.as_secs_f64()).max(1.0) as u32;
        let mut schedule = Vec::new();
        for c in 0..cycles {
            let spans = [
                (LIGHT_RPS, LIGHT_SPAN, cycle * c),
                (HEAVY_RPS, HEAVY_SPAN, cycle * c + LIGHT_SPAN),
            ];
            for (k, (rate, length, start)) in spans.into_iter().enumerate() {
                let seed = combine(seed, 1 + 2 * u64::from(c) + k as u64);
                for (due, request) in traffic(&self.inputs.pool, seed, rate, length) {
                    schedule.push((start + due, request));
                    self.heavy.push(k == 1);
                }
            }
        }
        self.log.run(addr, schedule)?;
        self.blocks += 1;
        Ok(())
    }

    /// Light and heavy statistics over every block sent.
    fn stats(&self) -> [PhaseStats; 2] {
        let phase = |want: bool| {
            self.log
                .sent
                .iter()
                .zip(&self.heavy)
                .filter(|(_, h)| **h == want)
                .map(|(s, _)| s)
                .collect::<Vec<_>>()
        };
        let stats = [
            PhaseStats::of(LIGHT_RPS, &phase(false)),
            PhaseStats::of(HEAVY_RPS, &phase(true)),
        ];
        stats[0].print("light");
        stats[1].print("heavy");
        stats
    }

    /// The end-to-end serve metrics: the latencies of the blocks sent, then
    /// the ladder for `max_rps`, then the output checks.
    pub fn finish(
        mut self,
        budget: &Budget,
        metrics: &mut Metrics,
        checks: &mut Checks,
    ) -> Result<(), String> {
        let [light, heavy] = self.stats();
        metrics.put("lat_p50_ms.light", light.p50_ms, "ms");
        metrics.put("lat_p50_ms.heavy", heavy.p50_ms, "ms");

        // The ladder: from the start rate, climb while steps pass or descend
        // while they fail, until the direction would turn or the budget is
        // spent.  A failing step is run once more before it counts, so one stall
        // on a shared host does not decide the outcome.
        let addr = self.ready.server.addr();
        let mut best = [&light, &heavy]
            .into_iter()
            .filter(|s| s.passes())
            .map(|s| s.rate)
            .fold(0.0, f64::max);
        let mut climbing = None;
        let mut retried = false;
        let mut rate = LADDER_START;
        let steps = (budget.ladder.as_secs_f64() / STEP.as_secs_f64()).floor() as u64;
        for step in 0..steps {
            let seed = combine(self.inputs.seed, 100 + step);
            let schedule = traffic(&self.inputs.pool, seed, rate, STEP);
            let stats = PhaseStats::of(rate, &self.log.run(addr, schedule)?);
            stats.print(&format!("ladder step {step}"));
            let passed = stats.passes();
            if !passed && !retried {
                retried = true;
                continue;
            }
            retried = false;
            if passed {
                best = best.max(rate);
            }
            if climbing.is_some_and(|up| up != passed) {
                break;
            }
            climbing = Some(passed);
            rate = if passed {
                rate * LADDER_FACTOR
            } else {
                rate / LADDER_FACTOR
            };
        }
        println!("serve max_rps {best:.1} (tail limit {LIMIT_MS} ms)");
        metrics.put("max_rps", best, "1/s");
        self.log.check(self.ready, checks);
        Ok(())
    }
}

/// The traced serve run: the light and heavy phases against the server, then
/// every request replayed offline twice — through `SweepEngine::run_with`
/// with a reused `EngineScratch` (untraced, like a server worker) and through
/// the public layer functions under spans — and through the protocol codec.
pub fn traced(
    ready: &Ready,
    inputs: &Inputs,
    budget: &Budget,
    dir: &Path,
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    let mut fixed = Fixed::new(ready, inputs, budget);
    for _ in 0..BLOCKS {
        fixed.block()?;
    }
    // The tails swing too much between runs on a shared host to carry a
    // regression bound, so they are reported here rather than end to end.
    let [light, heavy] = fixed.stats();
    metrics.put("serve.lat_tail_ms.light", light.tail_ms, "ms");
    metrics.put("serve.lat_tail_ms.heavy", heavy.tail_ms, "ms");
    let log = fixed.log;
    let answered: Vec<(&Request, &Vec<ServedPoint>)> = log
        .requests
        .iter()
        .zip(&log.sent)
        .filter_map(|(r, s)| match &s.outcome {
            Outcome::Ok(points) => Some((r, points)),
            _ => None,
        })
        .collect();
    let n = answered.len().max(1) as f64;

    // Wire codec, both directions of every exchange.
    let mut encode_ns = 0u128;
    let mut decode_ns = 0u128;
    for (request, points) in &answered {
        let frames = [
            Frame::PredictRequest {
                kind: ModelKind::AutoPower,
                configs: request.configs.clone(),
                workloads: request.workloads.clone(),
            },
            Frame::PredictResponse {
                points: points.to_vec(),
            },
        ];
        for frame in &frames {
            let t = Instant::now();
            let bytes = encode_frame(frame);
            encode_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            let decoded = decode_frame(&bytes).map_err(|e| e.to_string())?;
            decode_ns += t.elapsed().as_nanos();
            checks.check(decoded.0 == *frame, || {
                "frame does not round-trip".to_owned()
            });
        }
    }
    let encode_us = encode_ns as f64 / 1e3 / n;
    let decode_us = decode_ns as f64 / 1e3 / n;

    // Scoring as a server worker does it: one engine per batch, one
    // long-lived scratch.
    let mut scratch = EngineScratch::new();
    let mut out = Vec::new();
    let t = Instant::now();
    for (request, _) in &answered {
        let engine = SweepEngine::new(ready.power_model(), spec(1));
        engine.run_with(&request.configs, &request.workloads, &mut scratch, &mut out);
    }
    let score_ms = t.elapsed().as_secs_f64() * 1e3;

    // The same scoring under spans, checked against the served answers.
    let mut tracer = Tracer::new();
    let mut replayer = Replayer::new(ready, Phase::Exact);
    tracer.enter("replay", 0);
    for (id, (request, points)) in answered.iter().enumerate() {
        out.clear();
        let cache = SimCache::new();
        replayer.score_chunk(
            &mut tracer,
            id as u64,
            &cache,
            &request.configs,
            &request.workloads,
            &mut out,
        );
        checks.check(same_served(points, &out), || {
            format!("replay of served answer {id} differs")
        });
    }
    tracer.exit();
    let layers = crate::sweep::LayerTimes::of(&tracer);
    tracer
        .write_jsonl(&dir.join("trace-serve.jsonl"))
        .map_err(|e| e.to_string())?;

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let ok: Vec<&Sent> = log
        .sent
        .iter()
        .filter(|s| matches!(s.outcome, Outcome::Ok(_)))
        .collect();
    let latency_ms = ok.iter().map(|s| ms(s.latency)).sum::<f64>() / n;
    let late_ms = ok.iter().map(|s| ms(s.late)).sum::<f64>() / n;
    let per_request_score = score_ms / n;
    println!(
        "serve replay: {} answered requests, {} points; per request: latency {latency_ms:.3} ms, \
         send lateness {late_ms:.3} ms, score {per_request_score:.3} ms, codec {:.1} us",
        answered.len(),
        replayer.counts.points,
        encode_us + decode_us
    );
    metrics.put("serve.encode_us", encode_us, "us");
    metrics.put("serve.decode_us", decode_us, "us");
    metrics.put("serve.score_ms", per_request_score, "ms");
    metrics.put(
        "serve.wait_ms",
        latency_ms - late_ms - per_request_score - (encode_us + decode_us) / 1e3,
        "ms",
    );
    metrics.put("serve.gen_late_ms", late_ms, "ms");
    let count = |f: fn(&Outcome) -> bool| log.sent.iter().filter(|s| f(&s.outcome)).count() as f64;
    metrics.put("serve.sent", log.sent.len() as f64, "count");
    metrics.put("serve.ok", count(|o| matches!(o, Outcome::Ok(_))), "count");
    metrics.put(
        "serve.failed",
        count(|o| matches!(o, Outcome::Failed(_))),
        "count",
    );
    metrics.put("serve.shed", count(|o| matches!(o, Outcome::Shed)), "count");
    metrics.put("serve.repeat_share", log.repeat_share(), "ratio");
    metrics.put("perfsim.sim_ms.serve", layers.get("perfsim.sim") / n, "ms");
    metrics.put(
        "perfsim.events_ms.serve",
        layers.get("perfsim.events") / n,
        "ms",
    );
    metrics.put(
        "perfsim.cache_ms.serve",
        layers.get("perfsim.cache") / n,
        "ms",
    );
    let power_ms = layers.get("power.infer");
    metrics.put("power.infer_ms.serve", power_ms / n, "ms");
    metrics.put(
        "power.us_per_point.serve",
        power_ms * 1e3 / replayer.counts.points.max(1) as f64,
        "us",
    );
    metrics.put("trace.coverage.serve", layers.coverage(), "ratio");
    metrics.put(
        "trace.overhead_pct.serve",
        (layers.wall_ms - score_ms) / score_ms * 100.0,
        "%",
    );
    log.check(ready, checks);
    Ok(())
}
