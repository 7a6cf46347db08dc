//! Load generator for the prediction server: requests/sec and latency
//! percentiles over loopback TCP against an in-process `serve::Server`.
//!
//! Starts a server from a saved fast-trained `autopower` model (the
//! cold-start path the real binary takes — no retraining), then drives it
//! with concurrent client connections and records the mean per-request wall
//! time (the throughput entry: requests/sec = 1e9 / ns_per_iter) and the
//! p50/p99 request latencies.  Two batch shapes bracket the service's
//! envelope: single-config requests (latency-bound) and 16-config ×
//! 3-workload requests (batch-scoring-bound).
//!
//! The server keeps one simulation cache for its lifetime, so a request
//! that repeats earlier pairs costs no simulation.  The `b1w1` and `b16w3`
//! rows therefore give every request fresh configurations, drawn from a
//! sampled pool larger than both passes together: they time the miss path,
//! simulation included.  `b1w1_repeat` sends one configuration over and
//! over and times the hit path.
//!
//! Run with `cargo bench --bench serve [filter] [--json FILE]`.

use autopower::{save_model, Corpus, CorpusSpec, ModelKind};
use autopower_bench::harness::Bench;
use autopower_config::{boom_configs, ConfigId, CpuConfig, DesignSpace, Workload};
use autopower_serve::client::{Client, RetryPolicy};
use autopower_serve::server::{ServeOptions, Server};
use std::time::{Duration, Instant};

/// Client connections driving the server concurrently.
const CONNECTIONS: usize = 4;

/// Requests issued per connection per scenario.
const REQUESTS_PER_CONNECTION: usize = 25;

/// Connections in the overload scenario — enough to keep the shedding queue
/// saturated on one worker.
const OVERLOAD_CONNECTIONS: usize = 8;

/// Configurations per request in the overload scenario (× 3 workloads).
const OVERLOAD_CONFIGS: usize = 4;

/// Queue bound (points) of the overload scenario's server: small enough that
/// shedding actually happens under `OVERLOAD_CONNECTIONS` concurrent batches.
const OVERLOAD_MAX_QUEUE: usize = 64;

/// Trains the served model once and saves it where the server will load it.
fn saved_model_path() -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("autopower-serve-bench-{}.apm", std::process::id()));
    let cfgs = boom_configs();
    let corpus = Corpus::generate(
        &[cfgs[0], cfgs[14]],
        &[Workload::Dhrystone, Workload::Vvadd],
        &CorpusSpec::fast(),
    );
    let model = ModelKind::AutoPower
        .train(&corpus, &[ConfigId::new(1), ConfigId::new(15)])
        .expect("train the served model");
    save_model(model.as_ref(), &path).expect("save the served model");
    path
}

/// Requests one pass of a scenario sends: every connection's requests.
const REQUESTS_PER_PASS: usize = CONNECTIONS * REQUESTS_PER_CONNECTION;

/// Drives one pass of a scenario: every connection issues
/// `REQUESTS_PER_CONNECTION` requests of `per_request` configurations each,
/// request `k` of the pass scoring `pool[k * per_request..][..per_request]`;
/// returns every request latency plus the pass's wall time.
fn drive(
    server: &Server,
    pool: &[CpuConfig],
    per_request: usize,
    workloads: &[Workload],
) -> (Vec<Duration>, Duration) {
    assert_eq!(pool.len(), REQUESTS_PER_PASS * per_request);
    let start = Instant::now();
    let mut latencies: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = pool
            .chunks(REQUESTS_PER_CONNECTION * per_request)
            .map(|requests| {
                scope.spawn(move || {
                    let mut client = Client::connect(server.addr()).expect("connect");
                    requests
                        .chunks(per_request)
                        .map(|configs| {
                            let sent = Instant::now();
                            client
                                .predict(ModelKind::AutoPower, configs, workloads)
                                .expect("predict");
                            sent.elapsed()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed();
    latencies.sort_unstable();
    (latencies, wall)
}

/// The `k`-th percentile of sorted latencies (nearest-rank).
fn percentile(sorted: &[Duration], k: usize) -> Duration {
    let rank = (sorted.len() * k).div_ceil(100).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Times one scenario: an untimed warm-up pass over `warm_up` (it grows the
/// worker scratch, and caches whatever simulations it runs), then the
/// measured pass over `measured`.  Both pools hold one pass's requests.
fn scenario(
    bench: &Bench,
    server: &Server,
    label: &str,
    (warm_up, measured): (&[CpuConfig], &[CpuConfig]),
    per_request: usize,
    workloads: &[Workload],
) {
    drive(server, warm_up, per_request, workloads);
    let (latencies, wall) = drive(server, measured, per_request, workloads);
    let total = latencies.len() as u64;
    let per_request = wall / total as u32;
    let rps = 1e9 / per_request.as_nanos() as f64;
    println!(
        "serve_{label}: {total} requests over {CONNECTIONS} connections in {:.2?} -> {rps:.1} req/s",
        wall
    );
    bench.record(&format!("serve_rps_{label}"), per_request, total);
    bench.record(
        &format!("serve_p50_{label}"),
        percentile(&latencies, 50),
        total,
    );
    bench.record(
        &format!("serve_p99_{label}"),
        percentile(&latencies, 99),
        total,
    );
}

/// Drives a deliberately overloaded server: every connection retries shed
/// requests with jittered backoff until they land, so each latency sample is
/// the *end-to-end* time a well-behaved client pays under load shedding —
/// queueing, Overloaded refusals, reconnects and backoff included.  Requests
/// take `OVERLOAD_CONFIGS` fresh configurations each from `pool`, like
/// [`drive`]'s.
fn drive_overloaded(
    server: &Server,
    pool: &[CpuConfig],
    workloads: &[Workload],
) -> (Vec<Duration>, Duration) {
    assert_eq!(
        pool.len(),
        OVERLOAD_CONNECTIONS * REQUESTS_PER_CONNECTION * OVERLOAD_CONFIGS
    );
    let start = Instant::now();
    let mut latencies: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = pool
            .chunks(REQUESTS_PER_CONNECTION * OVERLOAD_CONFIGS)
            .enumerate()
            .map(|(connection, requests)| {
                scope.spawn(move || {
                    let policy = RetryPolicy {
                        attempts: 100,
                        base_backoff: Duration::from_millis(1),
                        max_backoff: Duration::from_millis(50),
                        seed: connection as u64,
                        timeout: Duration::from_secs(30),
                    };
                    let mut client = Client::connect_with(server.addr(), policy).expect("connect");
                    requests
                        .chunks(OVERLOAD_CONFIGS)
                        .map(|configs| {
                            let sent = Instant::now();
                            client
                                .predict(ModelKind::AutoPower, configs, workloads)
                                .expect("overloaded predict converges");
                            sent.elapsed()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed();
    latencies.sort_unstable();
    (latencies, wall)
}

/// The load-shedding scenario: one worker, a small queue bound, twice the
/// connections — a saturated service answering honestly instead of queueing
/// without bound.
fn overload_scenario(bench: &Bench, path: &std::path::Path) {
    let server = Server::start(
        "127.0.0.1:0",
        vec![path.to_path_buf()],
        ServeOptions {
            workers: 1,
            max_queue: OVERLOAD_MAX_QUEUE,
            ..ServeOptions::fast()
        },
    )
    .expect("overload server starts");
    let pass = OVERLOAD_CONNECTIONS * REQUESTS_PER_CONNECTION * OVERLOAD_CONFIGS;
    let pool = DesignSpace::boom().sample(2 * pass, 9);
    let (warm_up, measured) = pool.split_at(pass);
    let workloads = [Workload::Dhrystone, Workload::Qsort, Workload::Vvadd];

    drive_overloaded(&server, warm_up, &workloads);
    let (latencies, wall) = drive_overloaded(&server, measured, &workloads);
    let total = latencies.len() as u64;
    let per_request = wall / total as u32;
    let rps = 1e9 / per_request.as_nanos() as f64;
    println!(
        "serve_overload: {total} requests over {OVERLOAD_CONNECTIONS} connections \
         (queue bound {OVERLOAD_MAX_QUEUE} points) in {wall:.2?} -> {rps:.1} req/s"
    );
    bench.record("serve_rps_overload", per_request, total);
    bench.record("serve_p50_overload", percentile(&latencies, 50), total);
    bench.record("serve_p99_overload", percentile(&latencies, 99), total);

    let mut client = Client::connect(server.addr()).expect("connect for shutdown");
    client.shutdown().expect("shutdown");
    server.join().expect("clean exit");
}

fn main() {
    let bench = Bench::from_args();
    let path = saved_model_path();

    // Immediate dispatch (max-wait 0): the latency-bound configuration.
    let server = Server::start(
        "127.0.0.1:0",
        vec![path.clone()],
        ServeOptions {
            workers: 2,
            ..ServeOptions::fast()
        },
    )
    .expect("server starts");

    // Fresh configurations for every request of both passes (the miss
    // path), or one configuration repeated throughout (the hit path).
    let fresh = |per_request: usize, seed: u64| {
        DesignSpace::boom().sample(2 * REQUESTS_PER_PASS * per_request, seed)
    };
    let one_workload = [Workload::Dhrystone];
    let three_workloads = [Workload::Dhrystone, Workload::Qsort, Workload::Vvadd];

    if bench.should_run("serve_rps_b1w1") {
        let pool = fresh(1, 3);
        let passes = pool.split_at(REQUESTS_PER_PASS);
        scenario(&bench, &server, "b1w1", passes, 1, &one_workload);
    }
    if bench.should_run("serve_rps_b16w3") {
        let pool = fresh(16, 5);
        let passes = pool.split_at(REQUESTS_PER_PASS * 16);
        scenario(&bench, &server, "b16w3", passes, 16, &three_workloads);
    }
    if bench.should_run("serve_rps_b1w1_repeat") {
        let repeated = vec![DesignSpace::boom().sample(1, 7)[0]; REQUESTS_PER_PASS];
        let passes = (&repeated[..], &repeated[..]);
        scenario(&bench, &server, "b1w1_repeat", passes, 1, &one_workload);
    }

    let mut client = Client::connect(server.addr()).expect("connect for shutdown");
    client.shutdown().expect("shutdown");
    server.join().expect("clean exit");

    // The shedding scenario runs on its own deliberately undersized server.
    if bench.should_run("serve_rps_overload") {
        overload_scenario(&bench, &path);
    }
    let _ = std::fs::remove_file(&path);

    bench.finish();
}
