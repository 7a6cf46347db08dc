//! The resident server: accept loop, request-batching queue, scoring workers.
//!
//! # Thread shape (no async runtime — the workspace is offline)
//!
//! ```text
//! accept thread ──► one thread per connection ──► queue (Mutex + Condvar)
//!                                                    │
//!                                              batcher thread
//!                                         (merge compatible jobs,
//!                                          max-batch / max-wait knob)
//!                                                    │
//!                                            worker pool (N threads,
//!                                      each owns one long-lived scratch)
//!                                                    │
//!                                     one server-lifetime SimCache, shared
//!                                        by every worker and every batch
//! ```
//!
//! Connection threads decode frames and enqueue jobs; the batcher merges
//! jobs that score under the same model and workload list into one batch
//! (sound because batch scoring is pinned bit-identical to per-point
//! scoring); workers run each batch through
//! [`SweepEngine::run_with`] with a per-worker [`EngineScratch`] that lives
//! as long as the worker, so the heavyweight buffers are materialized once
//! per worker, not once per request.
//!
//! # The simulation cache
//!
//! Simulation is nearly all of a request's scoring time, and clients keep
//! asking about the same neighbouring configurations.  Every batch's engine
//! therefore borrows ([`SweepEngine::with_cache`]) one [`SimCache`] owned by
//! the server: a `(configuration, workload)` pair that any earlier request
//! asked for is answered without simulating it again.  The cached counters
//! are a pure function of the [`SimKey`](autopower_perfsim::SimKey) — the
//! simulation-visible configuration, the workload and the server's fixed
//! simulation knobs — so an answer from the cache is bit-identical to a
//! fresh simulation.  The cache is [`SimCache::bounded`]: a fixed ~1 MB
//! table of [`SimCache::BOUNDED_ENTRIES`] entries that clears a full shard
//! rather than grow.  On drain the server prints its statistics as one
//! stderr line (`autopower-serve: sim_cache entries=… hits=… misses=…
//! shard_clears=…`); stdout is never touched.
//!
//! # Hot reload and drain
//!
//! The loaded models live behind `Mutex<Arc<ModelSet>>`.  A predict request
//! captures its `Arc` at enqueue time, so a concurrent reload never changes
//! an in-flight request: reload loads every path fresh (all-or-nothing — a
//! corrupt file refuses the whole reload and the old set keeps serving),
//! then swaps the `Arc`.  The simulation cache survives a reload: no power
//! model reaches the counters it holds.  Shutdown acknowledges, stops
//! accepting, lets every queued job finish, joins every thread, and returns
//! — never a panic, never a hang.

use crate::faults::{FaultPlan, FaultStream};
use crate::protocol::{
    read_frame, write_frame, ErrorCode, Frame, ServedPoint, ServerHealth, ServerInfo, WireError,
    MAX_ERROR_MESSAGE,
};
use autopower::{
    load_model, AutoPowerError, EngineScratch, ModelKind, PowerModel, SweepEngine, SweepSpec,
};
use autopower_config::{CpuConfig, Workload};
use autopower_perfsim::{SimCache, SimConfig};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

/// How often an idle connection thread re-checks the drain flag (and the
/// granularity at which idle timeouts and the model watcher observe drain).
const IDLE_TICK: Duration = Duration::from_millis(50);

/// Locks a mutex, recovering from poisoning: every structure guarded here
/// (model set, job queue, worker channel) is valid at rest — a panicking
/// holder can at worst lose its own in-flight job, which the panic already
/// answered or dropped — so the right response to poison is to keep serving,
/// not to cascade the whole server down.
fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serving knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeOptions {
    /// Scoring worker threads: `0` (the default) uses one per available
    /// core.  Predictions are bit-identical for every value.
    pub workers: usize,
    /// The latency/throughput knob, throughput side: once this many points
    /// are queued the batcher dispatches without waiting out the window.
    /// Larger batches amortize forest-major scoring; bit-identical either
    /// way.
    pub max_batch: usize,
    /// The latency/throughput knob, latency side: how long the batcher holds
    /// the first queued job to let mergeable jobs arrive.  Zero (the
    /// default) dispatches immediately.
    pub max_wait: Duration,
    /// Load-shedding bound: the most points the job queue holds before
    /// predict requests are refused with [`ErrorCode::Overloaded`] (and the
    /// connection closed) instead of queued.  `0` disables the bound.
    pub max_queue: usize,
    /// Drop a connection that has been idle (no frame started) this long;
    /// [`Duration::ZERO`] (the default) keeps idle connections forever.
    pub idle_timeout: Duration,
    /// Per-call read/write deadline once a frame has started — bounds how
    /// long a slowloris peer can pin a connection thread mid-frame without
    /// ever dropping an idle keep-alive.  [`Duration::ZERO`] disables it.
    pub io_timeout: Duration,
    /// Poll the model files' mtimes at this interval and hot-reload
    /// (all-or-nothing, exactly like the `reload` verb) when any changes;
    /// `None` disables the watcher.
    pub watch_models: Option<Duration>,
    /// Arms deterministic fault injection ([`FaultPlan`]) on every
    /// connection and scoring batch.  `None` — the production default —
    /// leaves the plain code path untouched.
    pub fault_seed: Option<u64>,
    /// Performance-simulation settings every request is scored under — must
    /// match the offline run being compared against.
    pub sim: SimConfig,
}

impl ServeOptions {
    /// Paper-scale simulation settings.
    pub fn paper() -> Self {
        Self {
            workers: 0,
            max_batch: 256,
            max_wait: Duration::ZERO,
            max_queue: 65_536,
            idle_timeout: Duration::ZERO,
            io_timeout: Duration::from_secs(10),
            watch_models: None,
            fault_seed: None,
            sim: SimConfig::paper(),
        }
    }

    /// Small, fast settings for tests and smoke runs.
    pub fn fast() -> Self {
        Self {
            sim: SimConfig::fast(),
            ..Self::paper()
        }
    }

    /// The worker count the server will actually use.
    pub fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.workers
        }
    }

    /// The sweep settings every scoring batch runs under (serial: the worker
    /// pool is the parallelism).
    fn sweep_spec(&self) -> SweepSpec {
        SweepSpec {
            sim: self.sim,
            threads: 1,
            chunk_configs: 64,
            use_sim_cache: true,
        }
    }
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self::paper()
    }
}

/// Everything that can go wrong starting or running a server.
#[derive(Debug)]
pub enum ServeError {
    /// Socket setup or accept-loop failure.
    Io(String),
    /// A model file failed to load (the message names the path).
    Model(AutoPowerError),
    /// Invalid configuration (no model files, duplicate kinds).
    Config(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(m) => write!(f, "server I/O failed: {m}"),
            ServeError::Model(e) => write!(f, "model load failed: {e}"),
            ServeError::Config(m) => write!(f, "invalid server configuration: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<AutoPowerError> for ServeError {
    fn from(e: AutoPowerError) -> Self {
        ServeError::Model(e)
    }
}

/// The set of models currently serving: one per registry kind, each shared
/// behind an `Arc` so in-flight work survives a reload swap.
struct ModelSet {
    entries: Vec<(ModelKind, Arc<dyn PowerModel>)>,
}

impl ModelSet {
    /// Loads every path; refuses an empty list and duplicate kinds.
    fn load(paths: &[PathBuf]) -> Result<Self, ServeError> {
        if paths.is_empty() {
            return Err(ServeError::Config(
                "at least one --model file is required".to_owned(),
            ));
        }
        let mut entries: Vec<(ModelKind, Arc<dyn PowerModel>)> = Vec::with_capacity(paths.len());
        for path in paths {
            let model = load_model(path)?;
            let kind = model.kind();
            if entries.iter().any(|(k, _)| *k == kind) {
                return Err(ServeError::Config(format!(
                    "duplicate model kind '{kind}' (from {})",
                    path.display()
                )));
            }
            entries.push((kind, Arc::from(model)));
        }
        Ok(Self { entries })
    }

    fn get(&self, kind: ModelKind) -> Option<Arc<dyn PowerModel>> {
        self.entries
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, m)| Arc::clone(m))
    }

    fn kinds(&self) -> Vec<ModelKind> {
        self.entries.iter().map(|(k, _)| *k).collect()
    }
}

/// Where a scored (or failed) job is answered to.
type Reply = mpsc::Sender<Result<Vec<ServedPoint>, String>>;

/// One enqueued predict request.  The model `Arc` is captured here, at
/// enqueue time, so a reload between enqueue and scoring cannot change what
/// the request is answered with.
struct Job {
    model: Arc<dyn PowerModel>,
    configs: Vec<CpuConfig>,
    workloads: Vec<Workload>,
    reply: Reply,
}

impl Job {
    fn points(&self) -> usize {
        self.configs.len() * self.workloads.len()
    }
}

/// Jobs merged into one scoring batch: same model (by pointer), same
/// workload list, configurations concatenated in arrival order.
struct BatchGroup {
    model: Arc<dyn PowerModel>,
    workloads: Vec<Workload>,
    configs: Vec<CpuConfig>,
    /// `(reply channel, config count)` per merged job, in merge order.
    segments: Vec<(Reply, usize)>,
}

/// The connection threads' job queue.
struct Queue {
    jobs: VecDeque<Job>,
    /// Points across `jobs`, maintained on push/drain so the load-shedding
    /// check and the `ping` answer are O(1).
    queued_points: usize,
    /// Cleared during drain, once no connection thread can enqueue anymore.
    open: bool,
}

/// Shared server state.
struct ServerState {
    options: ServeOptions,
    addr: SocketAddr,
    /// Model files given at startup; reload re-reads exactly these.
    paths: Vec<PathBuf>,
    models: Mutex<Arc<ModelSet>>,
    queue: Mutex<Queue>,
    queue_cv: Condvar,
    draining: AtomicBool,
    /// Points dispatched to workers and not yet answered (the `ping` verb's
    /// in-flight gauge).
    in_flight_points: AtomicU64,
    /// Armed fault schedule; `None` on every production server.
    faults: Option<Arc<FaultPlan>>,
    /// The simulations every scoring batch shares, for the server's
    /// lifetime (reloads included).
    sim_cache: SimCache,
}

impl ServerState {
    /// Snapshot of the current model set (cheap: one `Arc` clone).
    fn model_set(&self) -> Arc<ModelSet> {
        Arc::clone(&relock(&self.models))
    }

    fn info(&self) -> ServerInfo {
        ServerInfo {
            kinds: self.model_set().kinds(),
            workers: self.options.effective_workers() as u32,
            max_batch: self.options.max_batch as u32,
            max_wait_us: self.options.max_wait.as_micros() as u64,
        }
    }

    fn health(&self) -> ServerHealth {
        ServerHealth {
            queued_points: relock(&self.queue).queued_points as u64,
            in_flight_points: self.in_flight_points.load(Ordering::Relaxed),
            workers: self.options.effective_workers() as u32,
            max_queue: self.options.max_queue as u64,
        }
    }

    /// Re-loads every startup path and swaps the set — all-or-nothing.  The
    /// load happens outside the swap lock so serving is never blocked on
    /// disk I/O.
    fn reload(&self) -> Result<Vec<ModelKind>, ServeError> {
        let fresh = ModelSet::load(&self.paths)?;
        let kinds = fresh.kinds();
        *relock(&self.models) = Arc::new(fresh);
        Ok(kinds)
    }

    /// Queues a job, unless that would push the queue past
    /// [`ServeOptions::max_queue`] points — then the job is shed and
    /// `Err(queued)` reports the load that refused it.
    fn enqueue(&self, job: Job) -> Result<(), usize> {
        let mut queue = relock(&self.queue);
        let bound = self.options.max_queue;
        if bound != 0 && queue.queued_points + job.points() > bound {
            return Err(queue.queued_points);
        }
        queue.queued_points += job.points();
        queue.jobs.push_back(job);
        drop(queue);
        self.queue_cv.notify_all();
        Ok(())
    }

    /// Starts the drain: refuse new work, wake every sleeper, unblock the
    /// accept loop with a self-connection.
    fn start_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
        // The accept loop sits in a blocking accept(); a throwaway loopback
        // connection wakes it so it can observe the flag and stop.
        drop(TcpStream::connect(self.addr));
    }
}

/// A running prediction server.
///
/// Dropping the handle does **not** stop the server; send a
/// [`Frame::Shutdown`] (e.g. via
/// [`Client::shutdown`](crate::client::Client::shutdown)) and then
/// [`Server::join`] it.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    run: JoinHandle<()>,
}

impl Server {
    /// Binds `addr` (port 0 picks an ephemeral port), cold-starts every
    /// model file via [`load_model`] — no retraining — and spawns the accept
    /// loop, batcher and worker pool.
    ///
    /// # Errors
    ///
    /// [`ServeError::Model`] when a file fails to load (the message names
    /// the path), [`ServeError::Config`] for an empty path list or duplicate
    /// kinds, [`ServeError::Io`] when the socket cannot be bound.
    pub fn start(
        addr: impl ToSocketAddrs,
        model_paths: Vec<PathBuf>,
        options: ServeOptions,
    ) -> Result<Server, ServeError> {
        let models = ModelSet::load(&model_paths)?;
        let listener =
            TcpListener::bind(addr).map_err(|e| ServeError::Io(format!("binding: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io(format!("resolving bound address: {e}")))?;
        let state = Arc::new(ServerState {
            options,
            addr,
            paths: model_paths,
            models: Mutex::new(Arc::new(models)),
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                queued_points: 0,
                open: true,
            }),
            queue_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            in_flight_points: AtomicU64::new(0),
            faults: options
                .fault_seed
                .map(|seed| Arc::new(FaultPlan::new(seed))),
            sim_cache: SimCache::bounded(),
        });

        let (group_tx, group_rx) = mpsc::channel::<BatchGroup>();
        let group_rx = Arc::new(Mutex::new(group_rx));
        let workers: Vec<JoinHandle<()>> = (0..options.effective_workers())
            .map(|_| {
                let rx = Arc::clone(&group_rx);
                let state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(&rx, &state))
            })
            .collect();
        let batcher = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || batcher_loop(&state, &group_tx))
        };
        let watcher = options.watch_models.map(|interval| {
            let state = Arc::clone(&state);
            std::thread::spawn(move || watcher_loop(&state, interval))
        });

        let run = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || accept_loop(&listener, &state, batcher, workers, watcher))
        };
        Ok(Server { addr, state, run })
    }

    /// The address the server actually bound (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server-lifetime simulation cache every scoring batch borrows —
    /// for its statistics ([`SimCache::stats`], [`SimCache::len`],
    /// [`SimCache::shard_clears`]).
    pub fn sim_cache(&self) -> &SimCache {
        &self.state.sim_cache
    }

    /// Test hook: poisons the internal job-queue lock by panicking a thread
    /// that holds it.  Exists to pin the poison-recovery contract — the
    /// server must degrade to per-request errors at worst, never cascade
    /// down — without reaching into private state from the test crate.
    #[doc(hidden)]
    pub fn poison_queue_lock(&self) {
        let state = Arc::clone(&self.state);
        let _ = std::thread::spawn(move || {
            let _guard = state.queue.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("deliberate poison for the recovery test");
        })
        .join();
    }

    /// Waits for the server to drain and exit (triggered by a
    /// [`Frame::Shutdown`] request).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the server thread panicked.
    pub fn join(self) -> Result<(), ServeError> {
        self.run
            .join()
            .map_err(|_| ServeError::Io("server thread panicked".to_owned()))
    }
}

/// The accept loop; on drain it joins every thread before returning, so
/// [`Server::join`] returning means the process holds no server threads.
fn accept_loop(
    listener: &TcpListener,
    state: &Arc<ServerState>,
    batcher: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    watcher: Option<JoinHandle<()>>,
) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if state.draining.load(Ordering::SeqCst) {
                    // The drain wake-up (or a late client); refuse and stop.
                    drop(stream);
                    break;
                }
                // Reap finished connection threads so a long-lived server
                // does not accumulate handles.
                connections.retain(|h| !h.is_finished());
                let state = Arc::clone(state);
                connections.push(std::thread::spawn(move || {
                    handle_connection(&state, stream)
                }));
            }
            Err(_) => {
                if state.draining.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept failure (e.g. fd exhaustion); back off.
                std::thread::sleep(IDLE_TICK);
            }
        }
    }
    // Drain: connection threads first (each finishes at most one in-flight
    // request), then close the queue so the batcher flushes what is left and
    // exits, dropping the group channel — which ends the workers.
    for h in connections {
        let _ = h.join();
    }
    {
        let mut queue = relock(&state.queue);
        queue.open = false;
    }
    state.queue_cv.notify_all();
    let _ = batcher.join();
    for h in workers {
        let _ = h.join();
    }
    if let Some(h) = watcher {
        let _ = h.join();
    }
    let cache = &state.sim_cache;
    let stats = cache.stats();
    eprintln!(
        "autopower-serve: sim_cache entries={} hits={} misses={} shard_clears={}",
        cache.len(),
        stats.hits,
        stats.misses,
        cache.shard_clears()
    );
}

/// The model-file watcher: polls every startup path's mtime at the
/// configured interval and triggers the hot-reload path (all-or-nothing,
/// identical to the `reload` verb) when any changes.  A failed reload — a
/// file mid-copy, or corrupt — leaves the old set serving and the stamp
/// unadvanced, so the watcher retries on the next tick until the file
/// settles.
fn watcher_loop(state: &Arc<ServerState>, interval: Duration) {
    let stamp = |paths: &[PathBuf]| -> Vec<Option<SystemTime>> {
        paths
            .iter()
            .map(|p| std::fs::metadata(p).and_then(|m| m.modified()).ok())
            .collect()
    };
    let mut last = stamp(&state.paths);
    let mut since_poll = Duration::ZERO;
    loop {
        // Sleep in short ticks so drain is observed promptly even under a
        // long polling interval.
        std::thread::sleep(IDLE_TICK.min(interval));
        if state.draining.load(Ordering::SeqCst) {
            return;
        }
        since_poll += IDLE_TICK.min(interval);
        if since_poll < interval {
            continue;
        }
        since_poll = Duration::ZERO;
        let now = stamp(&state.paths);
        if now == last {
            continue;
        }
        match state.reload() {
            Ok(kinds) => {
                last = now;
                let names: Vec<&str> = kinds.iter().map(|k| k.registry_name()).collect();
                eprintln!(
                    "autopower-serve: model file changed on disk; reloaded {}",
                    names.join(", ")
                );
            }
            Err(e) => {
                // Keep `last` so the next tick retries; the old set serves on.
                eprintln!("autopower-serve: watched reload refused ({e}); still serving old set");
            }
        }
    }
}

/// Merges queued jobs into batch groups and dispatches them to the workers,
/// holding the first job up to [`ServeOptions::max_wait`] (or until
/// [`ServeOptions::max_batch`] points are queued) so concurrent requests can
/// ride one scoring batch.
fn batcher_loop(state: &ServerState, groups: &mpsc::Sender<BatchGroup>) {
    loop {
        let mut queue = relock(&state.queue);
        while queue.jobs.is_empty() && queue.open {
            queue = state
                .queue_cv
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if queue.jobs.is_empty() && !queue.open {
            return;
        }
        // The batching window: wait for more jobs until the deadline or the
        // batch target, whichever comes first.  `max_wait == 0` skips the
        // window entirely — pure latency mode.
        let max_wait = state.options.max_wait;
        if !max_wait.is_zero() {
            let deadline = Instant::now() + max_wait;
            loop {
                if queue.queued_points >= state.options.max_batch || !queue.open {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, _) = state
                    .queue_cv
                    .wait_timeout(queue, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                queue = guard;
            }
        }
        let jobs: Vec<Job> = queue.jobs.drain(..).collect();
        queue.queued_points = 0;
        drop(queue);

        for group in merge_jobs(jobs, state.options.max_batch) {
            let points: usize = group.configs.len() * group.workloads.len();
            state
                .in_flight_points
                .fetch_add(points as u64, Ordering::Relaxed);
            if groups.send(group).is_err() {
                // Workers are gone (shutdown path); nothing left to serve.
                state
                    .in_flight_points
                    .fetch_sub(points as u64, Ordering::Relaxed);
                return;
            }
        }
    }
}

/// Groups jobs by `(model pointer, workload list)`, concatenating their
/// configurations in arrival order.  A group stops absorbing jobs once it
/// reaches `max_batch` points (a single oversized job still forms one
/// group — the engine chunks internally).
fn merge_jobs(jobs: Vec<Job>, max_batch: usize) -> Vec<BatchGroup> {
    let mut groups: Vec<BatchGroup> = Vec::new();
    for job in jobs {
        let merged = groups.iter_mut().find(|g| {
            Arc::ptr_eq(&g.model, &job.model)
                && g.workloads == job.workloads
                && g.configs.len() * g.workloads.len() < max_batch
        });
        match merged {
            Some(group) => {
                group.configs.extend_from_slice(&job.configs);
                group.segments.push((job.reply, job.configs.len()));
            }
            None => groups.push(BatchGroup {
                model: job.model,
                workloads: job.workloads,
                segments: vec![(job.reply, job.configs.len())],
                configs: job.configs,
            }),
        }
    }
    groups
}

/// One scoring worker: owns a long-lived [`EngineScratch`] and scores batch
/// groups through the server's shared [`SimCache`] until the channel closes.
fn worker_loop(groups: &Mutex<mpsc::Receiver<BatchGroup>>, state: &ServerState) {
    let spec = state.options.sweep_spec();
    let mut scratch = EngineScratch::new();
    let mut points = Vec::new();
    loop {
        let group = {
            let rx = relock(groups);
            rx.recv()
        };
        let Ok(group) = group else {
            return; // channel closed: drain complete
        };
        let group_points = group.configs.len() * group.workloads.len();
        // A panic while scoring (e.g. a degenerate configuration that slipped
        // through wire validation, or an injected fault) must not kill the
        // worker: answer every merged job with a typed internal error and
        // keep serving.
        let scored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(plan) = &state.faults {
                assert!(!plan.next_worker_panic(), "injected worker panic");
            }
            let engine = SweepEngine::with_cache(group.model.as_ref(), spec, &state.sim_cache);
            engine.run_with(&group.configs, &group.workloads, &mut scratch, &mut points);
        }));
        match scored {
            Ok(()) => {
                let mut offset = 0;
                for (reply, n_configs) in &group.segments {
                    let n = n_configs * group.workloads.len();
                    let served = points[offset..offset + n]
                        .iter()
                        .map(|p| ServedPoint {
                            power: p.power.clone(),
                            ipc: p.ipc,
                        })
                        .collect();
                    offset += n;
                    let _ = reply.send(Ok(served));
                }
            }
            Err(_) => {
                // The scratch may be mid-update; rebuild it.  The shared
                // simulation cache needs no rebuild: its shard maps are
                // valid at rest and a poisoned shard lock is recovered.
                scratch = EngineScratch::new();
                points = Vec::new();
                for (reply, _) in &group.segments {
                    let _ = reply.send(Err("scoring panicked on this batch".to_owned()));
                }
            }
        }
        state
            .in_flight_points
            .fetch_sub(group_points as u64, Ordering::Relaxed);
    }
}

/// Builds an error frame, truncating the message to the wire limit on a
/// character boundary.
fn error_frame(code: ErrorCode, message: &str) -> Frame {
    let mut message = message.to_owned();
    while message.len() > MAX_ERROR_MESSAGE {
        message.pop();
    }
    Frame::Error { code, message }
}

/// Whether an I/O error is a read-timeout tick rather than a dead stream.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// The connection transport: a plain stream on production servers, the
/// fault-injecting shim when a plan is armed.  One enum branch per I/O call;
/// the plain arm delegates directly, so a disabled plan costs nothing
/// beyond a predictable branch.
enum Conn {
    Plain(TcpStream),
    Faulty(FaultStream),
}

impl Conn {
    fn new(stream: TcpStream, faults: Option<&Arc<FaultPlan>>) -> Self {
        match faults {
            Some(plan) => Conn::Faulty(FaultStream::new(stream, Arc::clone(plan))),
            None => Conn::Plain(stream),
        }
    }

    /// The underlying socket, for options and `peek` (both fault-free: the
    /// idle poll is not an interesting place to fail).
    fn socket(&self) -> &TcpStream {
        match self {
            Conn::Plain(s) => s,
            Conn::Faulty(f) => f.get_ref(),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Plain(s) => s.read(buf),
            Conn::Faulty(f) => f.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Plain(s) => s.write(buf),
            Conn::Faulty(f) => f.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Plain(s) => s.flush(),
            Conn::Faulty(f) => f.flush(),
        }
    }
}

/// One connection: read frames, answer frames, until close, drain, or a
/// deadline.  Two distinct timeouts keep slowloris peers and idle keep-alive
/// connections apart: `idle_timeout` bounds how long the connection may sit
/// *between* frames (zero = forever, the keep-alive default), `io_timeout`
/// bounds every read/write call once a frame has *started* — a peer trickling
/// a half-frame is dropped, a quiet-but-healthy one is not.
fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let idle_timeout = state.options.idle_timeout;
    let io_timeout = (!state.options.io_timeout.is_zero()).then_some(state.options.io_timeout);
    // Response writes run under the same deadline as mid-frame reads, so a
    // peer that stops reading cannot pin the thread on a full send buffer.
    if stream.set_write_timeout(io_timeout).is_err() {
        return;
    }
    let mut conn = Conn::new(stream, state.faults.as_ref());
    let mut probe = [0u8; 1];
    let mut idle_since = Instant::now();
    loop {
        if state.draining.load(Ordering::SeqCst) {
            return;
        }
        if !idle_timeout.is_zero() && idle_since.elapsed() >= idle_timeout {
            return; // idle deadline expired with no frame started
        }
        // Idle wait: peek (consuming nothing) under a short timeout so the
        // drain flag and the idle deadline are re-checked even on a silent
        // connection.
        if conn.socket().set_read_timeout(Some(IDLE_TICK)).is_err() {
            return;
        }
        match conn.socket().peek(&mut probe) {
            Ok(0) => return, // peer closed
            Ok(_) => {}
            Err(e) if is_timeout(&e) => continue,
            Err(_) => return,
        }
        // A frame has started; every read is now individually bounded so a
        // stalled half-frame cannot hang the thread (or the drain) forever.
        if conn.socket().set_read_timeout(io_timeout).is_err() {
            return;
        }
        match read_frame(&mut conn) {
            Ok(frame) => {
                if !answer_frame(state, &mut conn, frame) {
                    return;
                }
                idle_since = Instant::now();
            }
            Err(WireError::Closed) => return,
            // The transport itself failed (reset, mid-frame deadline): there
            // is no one reliable to answer — close and let the peer's retry
            // logic classify it as the reconnectable error it is.
            Err(WireError::Io(_)) => return,
            Err(e) if e.is_fatal() => {
                // Framing can no longer be trusted; best-effort error frame,
                // then close.
                let _ = write_frame(&mut conn, &error_frame(ErrorCode::BadFrame, &e.to_string()));
                return;
            }
            Err(e) => {
                // Recoverable (wrong version / malformed payload): the
                // stream is still frame-aligned — answer and keep going.
                if write_frame(&mut conn, &error_frame(ErrorCode::BadFrame, &e.to_string()))
                    .is_err()
                {
                    return;
                }
                idle_since = Instant::now();
            }
        }
    }
}

/// Handles one decoded frame; returns `false` when the connection should
/// close (write failure, shutdown, or an overload shed — answering *and
/// closing* keeps a saturated server's connection count bounded along with
/// its queue).
fn answer_frame(state: &Arc<ServerState>, stream: &mut Conn, frame: Frame) -> bool {
    let response = match frame {
        Frame::PredictRequest {
            kind,
            configs,
            workloads,
        } => predict(state, kind, configs, workloads),
        Frame::Info => Frame::InfoResponse(state.info()),
        Frame::Ping => Frame::PingResponse(state.health()),
        Frame::Reload => match state.reload() {
            Ok(kinds) => Frame::ReloadResponse { kinds },
            Err(e) => error_frame(ErrorCode::ReloadFailed, &e.to_string()),
        },
        Frame::Shutdown => {
            let _ = write_frame(stream, &Frame::ShutdownResponse);
            state.start_drain();
            return false;
        }
        // A server never expects response-type frames; refuse but keep the
        // connection usable.
        Frame::PredictResponse { .. }
        | Frame::InfoResponse(_)
        | Frame::ReloadResponse { .. }
        | Frame::ShutdownResponse
        | Frame::PingResponse(_)
        | Frame::Error { .. } => error_frame(
            ErrorCode::BadFrame,
            "unexpected response-type frame from client",
        ),
    };
    let shed = matches!(
        &response,
        Frame::Error {
            code: ErrorCode::Overloaded,
            ..
        }
    );
    write_frame(stream, &response).is_ok() && !shed
}

/// Scores one predict request through the batching queue.
fn predict(
    state: &Arc<ServerState>,
    kind: ModelKind,
    configs: Vec<CpuConfig>,
    workloads: Vec<Workload>,
) -> Frame {
    if state.draining.load(Ordering::SeqCst) {
        return error_frame(ErrorCode::Draining, "server is draining");
    }
    let Some(model) = state.model_set().get(kind) else {
        let loaded = state
            .model_set()
            .kinds()
            .iter()
            .map(|k| k.registry_name().to_owned())
            .collect::<Vec<_>>()
            .join(", ");
        return error_frame(
            ErrorCode::UnknownModel,
            &format!("model '{kind}' is not loaded (serving: {loaded})"),
        );
    };
    let (reply_tx, reply_rx) = mpsc::channel();
    if let Err(queued) = state.enqueue(Job {
        model,
        configs,
        workloads,
        reply: reply_tx,
    }) {
        // Shed instead of queueing without bound: the caller gets an honest
        // "try later" answer while the already-admitted points keep their
        // latency; the connection closes after the reply (see answer_frame).
        return error_frame(
            ErrorCode::Overloaded,
            &format!(
                "queue full ({queued} points queued, bound {}); retry with backoff",
                state.options.max_queue
            ),
        );
    }
    match reply_rx.recv() {
        Ok(Ok(points)) => Frame::PredictResponse { points },
        Ok(Err(message)) => error_frame(ErrorCode::Internal, &message),
        Err(_) => error_frame(ErrorCode::Internal, "scoring pipeline dropped the request"),
    }
}
