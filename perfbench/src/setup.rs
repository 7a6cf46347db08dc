//! Set-up: everything a user pays before the first configuration is scored.
//!
//! One set-up generates the training corpus (C1 + C15 on the three
//! workloads), trains AutoPower on it, fits the activity surrogate, saves the
//! model and cold-starts a prediction server from the saved file.  It runs
//! [`SETUP_REPEATS`] times and `setup_s` is the median, so one slow
//! repetition on a shared host does not move it.

use crate::inputs::{space, WORKLOADS};
use crate::stats::median;
use crate::Metrics;
use autopower::{
    evaluate_totals, load_model, save_model, surrogate_gbdt_params, ActivitySurrogate, AutoPower,
    Corpus, CorpusSpec, PowerModel, SweepSpec, SURROGATE_TRAIN_SEED,
};
use autopower_config::{config_by_id, ConfigId};
use autopower_serve::client::Client;
use autopower_serve::server::{ServeOptions, Server};
use std::path::{Path, PathBuf};
use std::time::Instant;

const SETUP_REPEATS: usize = 5;

/// Configurations the surrogate is fitted on.
const SURROGATE_TRAIN: usize = 24;

/// The two known configurations the paper trains on.
pub fn train_ids() -> [ConfigId; 2] {
    [ConfigId::new(1), ConfigId::new(15)]
}

/// Worker threads and client connections: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Wall time of one set-up step, in ms.
#[derive(Debug, Clone, Copy, Default)]
struct StepTimes {
    corpus: f64,
    train: f64,
    surrogate: f64,
    save: f64,
    server_start: f64,
}

/// A trained model, a fitted surrogate and a running server.
pub struct Ready {
    pub corpus: Corpus,
    pub model: AutoPower,
    pub surrogate: ActivitySurrogate,
    pub model_path: PathBuf,
    pub server: Server,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

impl Ready {
    fn once(dir: &Path) -> Result<(Self, StepTimes), String> {
        let mut times = StepTimes::default();
        let spec = CorpusSpec::fast();

        let t = Instant::now();
        let train: Vec<_> = train_ids().iter().map(|&id| config_by_id(id)).collect();
        let corpus = Corpus::generate(&train, &WORKLOADS, &spec);
        times.corpus = ms(t);

        let t = Instant::now();
        let model = AutoPower::train(&corpus, &train_ids()).map_err(|e| e.to_string())?;
        times.train = ms(t);

        let t = Instant::now();
        let surrogate = ActivitySurrogate::train(
            space(),
            &WORKLOADS,
            &SweepSpec::fast().sim,
            SURROGATE_TRAIN,
            SURROGATE_TRAIN_SEED,
            &surrogate_gbdt_params(),
        )
        .map_err(|e| e.to_string())?;
        times.surrogate = ms(t);

        let model_path = dir.join("autopower.apm");
        let t = Instant::now();
        save_model(&model, &model_path).map_err(|e| e.to_string())?;
        times.save = ms(t);

        let t = Instant::now();
        let options = ServeOptions {
            workers: nproc(),
            ..ServeOptions::fast()
        };
        let server = Server::start("127.0.0.1:0", vec![model_path.clone()], options)
            .map_err(|e| e.to_string())?;
        times.server_start = ms(t);

        Ok((
            Self {
                corpus,
                model,
                surrogate,
                model_path,
                server,
            },
            times,
        ))
    }

    /// Runs the set-up [`SETUP_REPEATS`] times, keeps the last one and
    /// reports `setup_s` (untraced) or the per-step times (traced).
    pub fn prepare(dir: &Path, metrics: &mut Metrics, traced: bool) -> Result<Self, String> {
        let mut totals = Vec::new();
        let mut steps = Vec::new();
        let mut ready = None;
        for _ in 0..SETUP_REPEATS {
            if let Some(previous) = ready.take() {
                Ready::shutdown(previous)?;
            }
            let t = Instant::now();
            let (r, times) = Self::once(dir)?;
            totals.push(t.elapsed().as_secs_f64());
            steps.push(times);
            ready = Some(r);
        }
        let ready = ready.expect("at least one set-up ran");
        if traced {
            let step = |f: fn(&StepTimes) -> f64| median(&steps.iter().map(f).collect::<Vec<_>>());
            metrics.put("setup.corpus_ms", step(|s| s.corpus), "ms");
            metrics.put("setup.train_ms", step(|s| s.train), "ms");
            metrics.put("setup.surrogate_train_ms", step(|s| s.surrogate), "ms");
            metrics.put("setup.save_model_ms", step(|s| s.save), "ms");
            metrics.put("setup.server_start_ms", step(|s| s.server_start), "ms");
            let loads: Vec<f64> = (0..SETUP_REPEATS)
                .map(|_| {
                    let t = Instant::now();
                    let model = load_model(&ready.model_path);
                    let took = ms(t);
                    model.map(|_| took).map_err(|e| e.to_string())
                })
                .collect::<Result<_, _>>()?;
            metrics.put("setup.load_model_ms", median(&loads), "ms");
            let bytes = std::fs::metadata(&ready.model_path)
                .map_err(|e| e.to_string())?
                .len();
            metrics.put("setup.model_bytes", bytes as f64, "bytes");
        } else {
            metrics.put("setup_s", median(&totals), "s");
        }
        Ok(ready)
    }

    /// Drains the server and waits for every one of its threads.
    pub fn shutdown(self) -> Result<(), String> {
        let mut client = Client::connect(self.server.addr()).map_err(|e| e.to_string())?;
        client.shutdown().map_err(|e| e.to_string())?;
        self.server.join().map_err(|e| e.to_string())
    }

    /// The paper's headline accuracy: the model trained on C1 + C15 scored
    /// against golden power on the held-out seed configurations C2–C14.
    pub fn accuracy(&self, metrics: &mut Metrics) {
        let held_out: Vec<_> = (2..=14).map(|i| config_by_id(ConfigId::new(i))).collect();
        let corpus = Corpus::generate(&held_out, &WORKLOADS, &CorpusSpec::fast());
        let runs: Vec<_> = corpus.runs().iter().collect();
        let summary = evaluate_totals(&runs, |run| self.model.predict_run(run).total());
        metrics.put("model_mape_pct", summary.mape_percent(), "%");
        metrics.put("model_r2", summary.r_squared, "ratio");
    }

    /// The model as the engines see it.
    pub fn power_model(&self) -> &dyn PowerModel {
        &self.model
    }
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs, the
    /// first of which is `ru_maxrss` in kilobytes.
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C layout
    // getrusage(2) fills on 64-bit Linux; the call writes nothing else.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    usage.maxrss as f64 / 1024.0
}
