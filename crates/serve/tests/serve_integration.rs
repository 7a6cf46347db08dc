//! End-to-end tests of the running server: bit-identity against the offline
//! sweep across batch sizes, connection counts and worker counts; the
//! server-lifetime simulation cache; hot-reload semantics; framing-error
//! recovery; graceful drain.
//!
//! One fixture trains and saves two models (`autopower` — grouped
//! predictions — and `mcpat-calib-component` — per-component predictions, so
//! both heavyweight wire resolutions cross the socket) once per process; the
//! tests start short-lived servers on ephemeral loopback ports against those
//! files.

use autopower::{load_model, ModelKind, SweepEngine, SweepPoint, SweepSpec};
use autopower_config::{boom_configs, ConfigId, CpuConfig, DesignSpace, Workload};
use autopower_perfsim::{SimCacheStats, SimKey};
use autopower_serve::client::{Client, ClientError};
use autopower_serve::protocol::{
    read_frame, write_frame, ErrorCode, Frame, ServedPoint, MAGIC, PROTOCOL_VERSION,
};
use autopower_serve::server::{ServeOptions, Server};
use proptest::prelude::*;
use std::collections::HashSet;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Where the fixture's saved model files live for the whole test process.
struct Fixture {
    dir: PathBuf,
    autopower: PathBuf,
    component: PathBuf,
}

/// Trains the two fixture models once and saves them; every test reuses the
/// same files (servers only ever read them).
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("autopower-serve-it-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create fixture dir");
        let cfgs = boom_configs();
        let corpus = autopower::Corpus::generate(
            &[cfgs[0], cfgs[14]],
            &[Workload::Dhrystone, Workload::Vvadd],
            &autopower::CorpusSpec::fast(),
        );
        let train = [ConfigId::new(1), ConfigId::new(15)];
        let autopower_path = dir.join("autopower.apm");
        let component_path = dir.join("mcpat-calib-component.apm");
        let model = ModelKind::AutoPower
            .train(&corpus, &train)
            .expect("train autopower");
        autopower::save_model(model.as_ref(), &autopower_path).expect("save autopower");
        let model = ModelKind::McpatCalibComponent
            .train(&corpus, &train)
            .expect("train mcpat-calib-component");
        autopower::save_model(model.as_ref(), &component_path).expect("save component model");
        Fixture {
            dir,
            autopower: autopower_path,
            component: component_path,
        }
    })
}

/// A per-test unique scratch file name under the fixture directory.
fn scratch_path(stem: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    fixture().dir.join(format!("{stem}-{n}.apm"))
}

fn start_server(paths: Vec<PathBuf>, options: ServeOptions) -> Server {
    Server::start("127.0.0.1:0", paths, options).expect("server starts")
}

fn connect(server: &Server) -> Client {
    Client::connect(server.addr()).expect("client connects")
}

/// Stops a server cleanly and asserts the drain completes.
fn stop(server: Server) {
    let mut client = connect(&server);
    client.shutdown().expect("shutdown acknowledged");
    server.join().expect("server drains and exits");
}

/// The offline reference: the same model file scored through the plain sweep
/// engine (fast sim settings, serial).
fn offline_points(path: &Path, configs: &[CpuConfig], workloads: &[Workload]) -> Vec<SweepPoint> {
    let model = load_model(path).expect("load reference model");
    SweepEngine::new(model.as_ref(), SweepSpec::fast().threads(1)).run(configs, workloads)
}

/// Asserts a served batch equals the offline reference exactly (both the
/// typed prediction and the IPC — `PartialEq` on `Prediction` compares every
/// `f64`, so this is bit-level apart from NaN, which the models never emit).
fn assert_matches_offline(served: &[ServedPoint], reference: &[SweepPoint]) {
    assert_eq!(served.len(), reference.len());
    for (got, want) in served.iter().zip(reference) {
        assert_eq!(
            got.power, want.power,
            "prediction diverged from offline sweep"
        );
        assert_eq!(got.ipc.to_bits(), want.ipc.to_bits(), "ipc diverged");
    }
}

proptest! {
    /// For arbitrary batch shapes, client counts and both wire resolutions,
    /// served predictions are bit-identical to the offline sweep on the same
    /// model file.  The server runs two workers and a small merge window, so
    /// concurrent requests actually exercise the batching queue.
    #[test]
    fn served_predictions_match_offline_for_any_batch_shape(
        n_configs in 1usize..7,
        n_workloads in 1usize..4,
        seed in 0u64..1_000,
        n_clients in 1usize..4,
        component_model in 0u8..2,
    ) {
        let fx = fixture();
        let (path, kind) = if component_model == 1 {
            (&fx.component, ModelKind::McpatCalibComponent)
        } else {
            (&fx.autopower, ModelKind::AutoPower)
        };
        let options = ServeOptions {
            workers: 2,
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            ..ServeOptions::fast()
        };
        let server = start_server(vec![path.clone()], options);

        let configs = DesignSpace::boom().sample(n_configs, seed);
        let workloads: Vec<Workload> = Workload::ALL[..n_workloads].to_vec();
        let reference = offline_points(path, &configs, &workloads);

        // Concurrent clients issuing the same request must each get the
        // exact reference answer, however the batcher merges them.
        let served: Vec<Vec<ServedPoint>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_clients)
                .map(|_| {
                    let configs = &configs;
                    let workloads = &workloads;
                    let server = &server;
                    scope.spawn(move || {
                        connect(server)
                            .predict(kind, configs, workloads)
                            .expect("predict succeeds")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        for batch in &served {
            assert_matches_offline(batch, &reference);
        }
        stop(server);
    }
}

/// Distinct simulation keys over every `(configuration, workload)` pair of
/// `requests`, under the fast settings the test servers score with.
fn distinct_keys(requests: &[&[CpuConfig]], workloads: &[Workload]) -> u64 {
    let sim = ServeOptions::fast().sim;
    let keys: HashSet<SimKey> = requests
        .iter()
        .flat_map(|configs| configs.iter())
        .flat_map(|config| workloads.iter().map(|&w| SimKey::new(config, w, &sim)))
        .collect();
    keys.len() as u64
}

#[test]
fn repeated_and_overlapping_requests_are_answered_from_the_server_cache() {
    let fx = fixture();
    let options = ServeOptions {
        workers: 2,
        ..ServeOptions::fast()
    };
    let server = start_server(vec![fx.autopower.clone()], options);
    let mut client = connect(&server);
    let pool = DesignSpace::boom().sample(6, 8080);
    let workloads = [Workload::Dhrystone, Workload::Qsort];
    // The second request overlaps the first in two configurations; the third
    // repeats the first.
    let requests: [&[CpuConfig]; 3] = [&pool[..4], &pool[2..], &pool[..4]];
    for (i, configs) in requests.iter().enumerate() {
        let served = client
            .predict(ModelKind::AutoPower, configs, &workloads)
            .expect("predict succeeds");
        assert_matches_offline(&served, &offline_points(&fx.autopower, configs, &workloads));
        if i == 1 {
            // Every pair was simulated once: the overlap was a hit.
            let lookups = (requests[0].len() + requests[1].len()) * workloads.len();
            let misses = distinct_keys(&requests[..2], &workloads);
            let stats = server.sim_cache().stats();
            assert_eq!(stats.misses, misses);
            assert_eq!(stats.hits, lookups as u64 - misses);
            assert!(stats.hits >= 2 * workloads.len() as u64);
        }
    }
    // The repeat simulated nothing.
    let stats = server.sim_cache().stats();
    assert_eq!(stats.misses, distinct_keys(&requests, &workloads));
    assert_eq!(stats.lookups(), (4 + 4 + 4) * workloads.len() as u64);
    assert_eq!(server.sim_cache().len() as u64, stats.misses);
    assert_eq!(server.sim_cache().shard_clears(), 0);
    stop(server);
}

#[test]
fn worker_count_and_batching_knobs_do_not_change_predictions() {
    let fx = fixture();
    let configs = DesignSpace::boom().sample(5, 42);
    let workloads = [Workload::Dhrystone, Workload::Qsort, Workload::Gemm];
    let reference = offline_points(&fx.autopower, &configs, &workloads);

    for (workers, max_batch, max_wait_ms) in [(1, 1, 0), (2, 4, 1), (4, 256, 5)] {
        let options = ServeOptions {
            workers,
            max_batch,
            max_wait: Duration::from_millis(max_wait_ms),
            ..ServeOptions::fast()
        };
        let server = start_server(vec![fx.autopower.clone()], options);
        let served = connect(&server)
            .predict(ModelKind::AutoPower, &configs, &workloads)
            .expect("predict succeeds");
        assert_matches_offline(&served, &reference);
        stop(server);
    }
}

#[test]
fn both_loaded_models_serve_and_unknown_kind_is_refused() {
    let fx = fixture();
    let server = start_server(
        vec![fx.autopower.clone(), fx.component.clone()],
        ServeOptions::fast(),
    );
    let mut client = connect(&server);

    let info = client.info().expect("info");
    assert_eq!(
        info.kinds,
        vec![ModelKind::AutoPower, ModelKind::McpatCalibComponent]
    );

    let configs = DesignSpace::boom().sample(2, 9);
    let workloads = [Workload::Towers];
    for (kind, path) in [
        (ModelKind::AutoPower, &fx.autopower),
        (ModelKind::McpatCalibComponent, &fx.component),
    ] {
        let served = client.predict(kind, &configs, &workloads).expect("predict");
        assert_matches_offline(&served, &offline_points(path, &configs, &workloads));
    }

    // A kind that is not loaded gets a typed refusal naming what is served —
    // and the connection stays usable afterwards.
    match client.predict(ModelKind::McpatCalib, &configs, &workloads) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::UnknownModel);
            assert!(message.contains("mcpat-calib"), "{message}");
        }
        other => panic!("expected unknown-model refusal, got {other:?}"),
    }
    client
        .predict(ModelKind::AutoPower, &configs, &workloads)
        .expect("connection still serves after a refusal");
    stop(server);
}

#[test]
fn hot_reload_swaps_the_model_between_requests() {
    let fx = fixture();
    // A private copy of the model file, so the test can swap its contents.
    let path = scratch_path("reload");
    std::fs::copy(&fx.autopower, &path).expect("seed the served file");

    let server = start_server(vec![path.clone()], ServeOptions::fast());
    let mut client = connect(&server);
    let configs = DesignSpace::boom().sample(3, 77);
    let workloads = [Workload::Dhrystone, Workload::Rsort];

    let before = client
        .predict(ModelKind::AutoPower, &configs, &workloads)
        .expect("predict against the original file");
    assert_matches_offline(
        &before,
        &offline_points(&fx.autopower, &configs, &workloads),
    );

    // Swap the file for a different trained model (a different kind, so the
    // swap is unmistakable), reload, and check subsequent answers are
    // bit-identical to the new file.
    std::fs::copy(&fx.component, &path).expect("swap the served file");
    let kinds = client.reload().expect("reload succeeds");
    assert_eq!(kinds, vec![ModelKind::McpatCalibComponent]);

    // The post-reload request repeats every pair of the first one: the
    // simulation cache survives the reload, and its counters feed the new
    // model to the new model's offline answer.
    let cached = server.sim_cache().stats();
    let after = client
        .predict(ModelKind::McpatCalibComponent, &configs, &workloads)
        .expect("predict against the reloaded file");
    assert_matches_offline(&after, &offline_points(&fx.component, &configs, &workloads));
    let pairs = (configs.len() * workloads.len()) as u64;
    assert_eq!(
        server.sim_cache().stats(),
        SimCacheStats {
            hits: cached.hits + pairs,
            misses: cached.misses,
        }
    );

    // The old kind is gone after the swap.
    match client.predict(ModelKind::AutoPower, &configs, &workloads) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownModel),
        other => panic!("expected unknown-model after swap, got {other:?}"),
    }
    stop(server);
}

#[test]
fn in_flight_requests_complete_on_the_old_model_during_reload() {
    let fx = fixture();
    let path = scratch_path("inflight");
    std::fs::copy(&fx.autopower, &path).expect("seed the served file");

    // A long batching window holds the request in the queue, guaranteeing
    // the reload lands while it is in flight.
    let options = ServeOptions {
        workers: 1,
        max_batch: 1_000_000,
        max_wait: Duration::from_millis(600),
        ..ServeOptions::fast()
    };
    let server = start_server(vec![path.clone()], options);
    let configs = DesignSpace::boom().sample(2, 5);
    let workloads = [Workload::Median];
    let reference = offline_points(&fx.autopower, &configs, &workloads);

    let served = std::thread::scope(|scope| {
        let in_flight = {
            let configs = &configs;
            let workloads = &workloads;
            let server = &server;
            scope.spawn(move || {
                connect(server)
                    .predict(ModelKind::AutoPower, configs, workloads)
                    .expect("in-flight predict completes")
            })
        };
        // While that request sits in the batching window, swap the file and
        // reload on a second connection.
        std::thread::sleep(Duration::from_millis(100));
        std::fs::copy(&fx.component, &path).expect("swap the served file");
        let kinds = connect(&server).reload().expect("reload during flight");
        assert_eq!(kinds, vec![ModelKind::McpatCalibComponent]);
        in_flight.join().expect("in-flight client thread")
    });
    // The enqueued request captured the old model at enqueue time: it must
    // answer with the *old* file's bits even though the reload won the race.
    assert_matches_offline(&served, &reference);
    stop(server);
}

#[test]
fn corrupt_reload_is_refused_and_the_old_model_keeps_serving() {
    let fx = fixture();
    let path = scratch_path("corrupt");
    std::fs::copy(&fx.autopower, &path).expect("seed the served file");

    let server = start_server(vec![path.clone()], ServeOptions::fast());
    let mut client = connect(&server);
    let configs = DesignSpace::boom().sample(2, 13);
    let workloads = [Workload::Spmv];
    let reference = offline_points(&fx.autopower, &configs, &workloads);

    std::fs::write(&path, "not a model file\n").expect("corrupt the served file");
    match client.reload() {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::ReloadFailed);
            // The bugfix under test: the error names the offending file.
            assert!(message.contains("corrupt"), "path missing from: {message}");
        }
        other => panic!("expected reload-failed, got {other:?}"),
    }
    // The old model keeps serving, bit-identically.
    let served = client
        .predict(ModelKind::AutoPower, &configs, &workloads)
        .expect("predict after refused reload");
    assert_matches_offline(&served, &reference);
    stop(server);
}

#[test]
fn a_model_file_torn_mid_line_is_refused_on_reload_and_the_old_model_keeps_serving() {
    let fx = fixture();
    let path = scratch_path("torn");
    std::fs::copy(&fx.autopower, &path).expect("seed the served file");

    let server = start_server(vec![path.clone()], ServeOptions::fast());
    let mut client = connect(&server);
    let configs = DesignSpace::boom().sample(2, 29);
    let workloads = [Workload::Qsort];
    let reference = offline_points(&fx.autopower, &configs, &workloads);

    // Cut the file in the middle of a tree line, the way a copy interrupted
    // part-way leaves it.
    let text = std::fs::read_to_string(&fx.autopower).expect("read the saved model");
    let start = text
        .match_indices('\n')
        .map(|(n, _)| n + 1)
        .find(|&n| text[n..].trim_start().starts_with("t "))
        .expect("a tree line");
    let line_len = text[start..].find('\n').expect("a whole line");
    std::fs::write(&path, &text[..start + line_len / 2]).expect("tear the served file");
    match client.reload() {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::ReloadFailed);
            assert!(
                message.contains(&path.display().to_string()),
                "path missing from: {message}"
            );
        }
        other => panic!("expected reload-failed, got {other:?}"),
    }
    let served = client
        .predict(ModelKind::AutoPower, &configs, &workloads)
        .expect("predict after refused reload");
    assert_matches_offline(&served, &reference);
    stop(server);
}

#[test]
fn malformed_frames_get_error_frames_and_the_connection_survives() {
    let fx = fixture();
    let server = start_server(vec![fx.autopower.clone()], ServeOptions::fast());
    let mut stream = TcpStream::connect(server.addr()).expect("raw connect");

    // A well-framed but nonsensical payload: unknown frame type.
    let mut bad = Vec::new();
    bad.extend_from_slice(&MAGIC);
    bad.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    bad.extend_from_slice(&4242u16.to_le_bytes());
    bad.extend_from_slice(&0u32.to_le_bytes());
    stream.write_all(&bad).expect("send malformed frame");
    match read_frame(&mut stream).expect("server answers") {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected error frame, got {other:?}"),
    }

    // A wrong-version frame: also answered, also survivable.
    let mut stale = Vec::new();
    stale.extend_from_slice(&MAGIC);
    stale.extend_from_slice(&9u16.to_le_bytes());
    stale.extend_from_slice(&4u16.to_le_bytes()); // info
    stale.extend_from_slice(&0u32.to_le_bytes());
    stream.write_all(&stale).expect("send stale-version frame");
    match read_frame(&mut stream).expect("server answers") {
        Frame::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadFrame);
            assert!(message.contains("version"), "{message}");
        }
        other => panic!("expected error frame, got {other:?}"),
    }

    // The same connection still serves a valid request afterwards.
    write_frame(&mut stream, &Frame::Info).expect("send valid frame");
    match read_frame(&mut stream).expect("server answers") {
        Frame::InfoResponse(info) => assert_eq!(info.kinds, vec![ModelKind::AutoPower]),
        other => panic!("expected info response, got {other:?}"),
    }
    stop(server);
}

#[test]
fn poisoned_queue_lock_does_not_stop_service() {
    let fx = fixture();
    let options = ServeOptions {
        workers: 2,
        ..ServeOptions::fast()
    };
    let server = start_server(vec![fx.autopower.clone()], options);
    let mut client = connect(&server);
    let configs = DesignSpace::boom().sample(3, 21);
    let workloads = [Workload::Dhrystone, Workload::Multiply];
    let reference = offline_points(&fx.autopower, &configs, &workloads);

    let before = client
        .predict(ModelKind::AutoPower, &configs, &workloads)
        .expect("predict before the poisoning");
    assert_matches_offline(&before, &reference);

    // Panic while holding the queue lock: every later lock acquisition sees
    // the mutex poisoned.  The server must recover (the queue itself is
    // valid at rest) and keep answering bit-identically, not cascade down.
    server.poison_queue_lock();
    let after = client
        .predict(ModelKind::AutoPower, &configs, &workloads)
        .expect("predict after the poisoning still succeeds");
    assert_matches_offline(&after, &reference);
    stop(server);
}

#[test]
fn model_watcher_hot_reloads_when_the_file_changes_on_disk() {
    let fx = fixture();
    let path = scratch_path("watched");
    std::fs::copy(&fx.autopower, &path).expect("seed the served file");

    let options = ServeOptions {
        watch_models: Some(Duration::from_millis(50)),
        ..ServeOptions::fast()
    };
    let server = start_server(vec![path.clone()], options);
    let mut client = connect(&server);
    let configs = DesignSpace::boom().sample(2, 31);
    let workloads = [Workload::Towers];

    let before = client
        .predict(ModelKind::AutoPower, &configs, &workloads)
        .expect("predict against the original file");
    assert_matches_offline(
        &before,
        &offline_points(&fx.autopower, &configs, &workloads),
    );

    // Swap the file on disk — no reload verb — and wait for the watcher to
    // notice the mtime change and swap the model set.
    std::fs::copy(&fx.component, &path).expect("swap the served file");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let info = client.info().expect("info while watching");
        if info.kinds == vec![ModelKind::McpatCalibComponent] {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "watcher never reloaded; still serving {:?}",
            info.kinds
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let after = client
        .predict(ModelKind::McpatCalibComponent, &configs, &workloads)
        .expect("predict against the watched-in file");
    assert_matches_offline(&after, &offline_points(&fx.component, &configs, &workloads));
    stop(server);
}

#[test]
fn draining_server_refuses_new_predicts_and_exits() {
    let fx = fixture();
    let server = start_server(vec![fx.autopower.clone()], ServeOptions::fast());
    let addr = server.addr();

    let mut client = connect(&server);
    client.shutdown().expect("shutdown acknowledged");
    server.join().expect("clean exit");

    // The listener is gone after the drain.
    assert!(
        TcpStream::connect(addr).is_err(),
        "the drained server must not accept new connections"
    );
}
